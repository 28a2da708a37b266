"""Barycentric Lagrange interpolation helpers (second form).

Weights are computed in the log domain so that rules with many nodes do
not overflow; barycentric weights are scale-invariant, so the common
factor is dropped.
"""

from __future__ import annotations

import numpy as np

__all__ = ["barycentric_weights", "basis_matrix"]


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    m = nodes.size
    if m == 1:
        return np.ones(1)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.sum(np.log(np.abs(diff)), axis=1)
    sign = np.prod(np.sign(diff), axis=1)
    return sign * np.exp(logw - logw.max())


def basis_matrix(nodes: np.ndarray, bw: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Lagrange basis values at ``pts``; shape (len(pts), len(nodes)).

    Query points on a node, or so near it that the weight over the distance
    overflows, get the exact unit row; the distance test also catches a
    node whose weight underflowed to 0 (equispaced rules of 2,049 nodes).
    """
    pts = np.asarray(pts, dtype=float)
    if nodes.size == 1:
        return np.ones((pts.size, 1))
    d = pts[:, None] - nodes[None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = bw[None, :] / d
        out = r / np.sum(r, axis=1, keepdims=True)
    hit_q, hit_j = np.nonzero((d == 0.0) | np.isinf(r))
    if hit_q.size:
        out[hit_q, :] = 0.0
        out[hit_q, hit_j] = 1.0
    return out
