"""Univariate collocation knots and quadrature weights.

Every rule is normalized against the probability density of its
distribution, so weights always sum to one.  Gauss rules come from the
eigendecomposition of the three-term recurrence matrix; Clenshaw-Curtis
weights from an FFT; Leja-type sequences as affine images of one canonical
sequence per shape, tabulated or found by a greedy log-domain search, with
quadrature weights from integrating the Lagrange basis with an auxiliary
Gauss rule.  The densities, the standard-variable maps and the recurrence
coefficients also serve the orthonormal polynomials of ``pce``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._bary import barycentric_weights, basis_matrix
from ._nested_normal_table import NESTED_NORMAL_RULES

__all__ = [
    "DistributionSpec",
    "Rule1D",
    "KnotFamily",
    "gauss_knots",
    "cc_knots",
    "leja_knots",
    "weighted_leja_knots",
    "trap_knots",
    "midpoint_knots",
    "gk_knots",
    "gauss_family",
    "cc_family",
    "leja_family",
    "weighted_leja_family",
    "trap_family",
    "midpoint_family",
    "gk_family",
    "family_from_descriptor",
]


class ParameterError(ValueError):
    """Invalid distribution or rule parameters."""


class UnsupportedVariantError(ValueError):
    """Requested knot variant does not exist for this distribution."""


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

_DIST_KINDS = ("uniform", "normal", "exponential", "gamma", "beta")


@dataclass(frozen=True)
class DistributionSpec:
    """A univariate probability distribution with its parameters.

    Parameters follow the conventions: uniform(a, b); normal(mu, sigma);
    exponential(rate); gamma(alpha, beta) with density proportional to
    y**alpha * exp(-beta*y), alpha > -1; beta(a, b, alpha, beta) with
    density proportional to (y-a)**alpha * (b-y)**beta, alpha, beta > -1.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _DIST_KINDS:
            raise ParameterError(f"unknown distribution kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = self.params
        if self.kind == "uniform":
            if len(p) != 2 or not p[0] < p[1]:
                raise ParameterError("uniform requires a < b")
        elif self.kind == "normal":
            if len(p) != 2 or not p[1] > 0:
                raise ParameterError("normal requires sigma > 0")
        elif self.kind == "exponential":
            if len(p) != 1 or not p[0] > 0:
                raise ParameterError("exponential requires rate > 0")
        elif self.kind == "gamma":
            if len(p) != 2 or not (p[0] > -1 and p[1] > 0):
                raise ParameterError("gamma requires alpha > -1 and beta > 0")
        elif self.kind == "beta":
            if len(p) != 4 or not p[0] < p[1] or not (p[2] > -1 and p[3] > -1):
                raise ParameterError("beta requires a < b and alpha, beta > -1")

    @classmethod
    def uniform(cls, a: float, b: float) -> "DistributionSpec":
        return cls("uniform", (a, b))

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "DistributionSpec":
        return cls("normal", (mu, sigma))

    @classmethod
    def exponential(cls, rate: float) -> "DistributionSpec":
        return cls("exponential", (rate,))

    @classmethod
    def gamma(cls, alpha: float, beta: float) -> "DistributionSpec":
        return cls("gamma", (alpha, beta))

    @classmethod
    def beta(cls, a: float, b: float, alpha: float, beta: float) -> "DistributionSpec":
        return cls("beta", (a, b, alpha, beta))

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "uniform":
            return self.params
        if self.kind == "normal":
            return (-math.inf, math.inf)
        if self.kind in ("exponential", "gamma"):
            return (0.0, math.inf)
        return self.params[:2]

    def pdf(self, y):
        return np.exp(self.log_pdf(y))

    def log_pdf(self, y):
        """Log density, -inf off the support.  An endpoint belongs to the
        support exactly when its exponent is 0 (gamma at 0, beta at a or b)."""
        y = np.asarray(y, dtype=float)
        p = self.params
        if self.kind == "uniform":
            a, b = p
            return np.where((y >= a) & (y <= b), -math.log(b - a), -np.inf)
        if self.kind == "normal":
            mu, sig = p
            return -0.5 * ((y - mu) / sig) ** 2 - math.log(sig * math.sqrt(2 * math.pi))
        if self.kind == "exponential":
            lam = p[0]
            return np.where(y >= 0, math.log(lam) - lam * y, -np.inf)
        if self.kind == "gamma":
            alpha, beta = p
            out = np.full_like(y, -np.inf, dtype=float)
            pos = y > 0
            out[pos] = (
                (alpha + 1) * math.log(beta)
                + alpha * np.log(y[pos])
                - beta * y[pos]
                - math.lgamma(alpha + 1)
            )
            if alpha == 0:
                out[y == 0] = math.log(beta)
            return out
        a, b, alpha, beta = p
        out = np.full_like(y, -np.inf, dtype=float)
        inside = (y > a) & (y < b)
        lognorm = (
            math.lgamma(alpha + beta + 2)
            - math.lgamma(alpha + 1)
            - math.lgamma(beta + 1)
            - (alpha + beta + 1) * math.log(b - a)
        )
        out[inside] = lognorm + alpha * np.log(y[inside] - a) + beta * np.log(b - y[inside])
        if alpha == 0:
            out[y == a] = lognorm + beta * math.log(b - a)
        if beta == 0:
            out[y == b] = lognorm + alpha * math.log(b - a)
        return out


class Rule1D(NamedTuple):
    """Nodes and pdf-normalized quadrature weights of a univariate rule."""

    nodes: np.ndarray
    weights: np.ndarray


def _freeze(nodes, weights) -> Rule1D:
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return Rule1D(nodes, weights)


# ---------------------------------------------------------------------------
# recurrence coefficients (monic, pdf-normalized so beta_0 = 1)
# ---------------------------------------------------------------------------


def recurrence_coefficients(dist: DistributionSpec, n: int):
    """Monic three-term recurrence coefficients (alpha, beta) for the
    orthogonal polynomials of ``dist``, mapped to its standard variable.

    Returns arrays of length ``n``; ``beta[0]`` is 1 because all densities
    are normalized.  Standard variables: uniform/beta on [-1, 1], normal
    on (y - mu)/sigma, exponential on rate*y, gamma on beta*y.
    """
    k = np.arange(n, dtype=float)
    if dist.kind == "uniform":
        beta = np.ones(n)
        beta[1:] = k[1:] ** 2 / (4.0 * k[1:] ** 2 - 1.0)
        return np.zeros(n), beta
    if dist.kind == "normal":
        alpha = np.zeros(n)
        beta = k.copy()
        beta[0] = 1.0
        return alpha, beta
    if dist.kind == "exponential":
        alpha = 2.0 * k + 1.0
        beta = k**2
        beta[0] = 1.0
        return alpha, beta
    if dist.kind == "gamma":
        a = dist.params[0]
        alpha = 2.0 * k + a + 1.0
        beta = k * (k + a)
        beta[0] = 1.0
        return alpha, beta
    # beta distribution <-> Jacobi weight (1-x)^A (1+x)^B with A = beta
    # exponent, B = alpha exponent after mapping [a,b] to [-1,1]
    A = dist.params[3]
    B = dist.params[2]
    alpha = np.empty(n)
    beta = np.empty(n)
    alpha[0] = (B - A) / (A + B + 2.0)
    beta[0] = 1.0
    if n > 1:
        beta[1] = 4.0 * (1 + A) * (1 + B) / ((2 + A + B) ** 2 * (3 + A + B))
        kk = k[1:]
        s = 2.0 * kk + A + B
        alpha[1:] = (B**2 - A**2) / (s * (s + 2.0))
        kk, s = kk[1:], s[1:]
        beta[2:] = 4.0 * kk * (kk + A) * (kk + B) * (kk + A + B) / (s**2 * (s + 1.0) * (s - 1.0))
    return alpha, beta


def _standard_to_native(dist: DistributionSpec, x: np.ndarray) -> np.ndarray:
    """Map nodes from the standard variable of the recurrence to y-space."""
    p = dist.params
    if dist.kind in ("uniform", "beta"):
        a, b = p[0], p[1]
        return a + (b - a) * (x + 1.0) / 2.0
    if dist.kind == "normal":
        return p[0] + p[1] * x
    if dist.kind == "exponential":
        return x / p[0]
    return x / p[1]  # gamma: standard variable is beta*y


def _native_to_standard(dist: DistributionSpec, y: np.ndarray) -> np.ndarray:
    """Map points from y-space to the standard variable of the recurrence."""
    p = dist.params
    if dist.kind in ("uniform", "beta"):
        a, b = p[0], p[1]
        return (2.0 * y - a - b) / (b - a)
    if dist.kind == "normal":
        return (y - p[0]) / p[1]
    if dist.kind == "exponential":
        return p[0] * y
    return p[1] * y  # gamma


def gauss_knots(dist: DistributionSpec, count: int) -> Rule1D:
    """Gauss rule with ``count`` nodes for ``dist``.

    Exact for polynomials of degree up to 2*count - 1 against the pdf.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    alpha, beta = recurrence_coefficients(dist, count)
    if count == 1:
        x = alpha[:1].copy()
        w = np.array([1.0])
    else:
        off = np.sqrt(beta[1:])
        x, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
        w = vecs[0, :] ** 2
    return _freeze(_standard_to_native(dist, x), w / w.sum())


# ---------------------------------------------------------------------------
# Clenshaw-Curtis
# ---------------------------------------------------------------------------


def _cc_weights_unit(n: int) -> np.ndarray:
    """Raw Clenshaw-Curtis weights (total mass 2) for nodes cos(k*pi/n),
    k = 0..n, computed by an inverse FFT (Waldvogel's method)."""
    odd = np.arange(1, n, 2, dtype=float)
    l = odd.size
    m = n - l
    v0 = np.concatenate([2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(m)])
    v2 = -v0[:-1] - v0[-1:0:-1]
    g0 = -np.ones(n)
    g0[l] += n
    g0[m] += n
    g = g0 / (n**2 - 1 + (n % 2))
    w = np.fft.ifft(v2 + g).real
    return np.concatenate([w, w[:1]])


def cc_knots(count: int, a: float, b: float) -> Rule1D:
    """Clenshaw-Curtis rule on [a, b] against the uniform density."""
    if not a < b:
        raise ParameterError("cc_knots requires a < b")
    if count < 1:
        raise ParameterError("count must be >= 1")
    if count == 1:
        # the middle node of every odd rule below, bitwise, so the family nests
        return _freeze([a + (b - a) / 2.0], [1.0])
    if count == 2:
        x = np.array([1.0, -1.0])
        w = np.array([0.5, 0.5])
    else:
        n = count - 1
        x = np.cos(np.arange(count) * np.pi / n)
        w = _cc_weights_unit(n) / 2.0
    return _freeze(a + (b - a) * (x + 1.0) / 2.0, w)


# ---------------------------------------------------------------------------
# trapezoid and midpoint
# ---------------------------------------------------------------------------


def trap_knots(count: int, a: float, b: float) -> Rule1D:
    """Equispaced nodes with trapezoidal weights on [a, b]."""
    if not a < b:
        raise ParameterError("trap_knots requires a < b")
    if count < 2:
        raise ParameterError("trap_knots requires count >= 2")
    h = 1.0 / (count - 1)
    nodes = a + (b - a) * h * np.arange(count)
    w = np.full(count, h)
    w[0] = w[-1] = h / 2.0
    return _freeze(nodes, w)


def midpoint_knots(count: int, a: float, b: float) -> Rule1D:
    """Composite midpoint rule on [a, b]."""
    if not a < b:
        raise ParameterError("midpoint_knots requires a < b")
    if count < 1:
        raise ParameterError("count must be >= 1")
    h = 1.0 / count
    nodes = a + (b - a) * (h / 2.0 + h * np.arange(count))
    return _freeze(nodes, np.full(count, h))


# ---------------------------------------------------------------------------
# Leja sequences
# ---------------------------------------------------------------------------

_LEJA_GRID = 100_001
_GOLDEN_ITERS = 40
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fun, lo: float, hi: float) -> float:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_ITERS):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = fun(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = fun(c)
    return (lo + hi) / 2.0


def _argmax_rightmost(vals: np.ndarray) -> int:
    """Index of the rightmost near-maximal value, walked to its local peak.

    The tolerance groups symmetric maxima whose grid samples differ only by
    their offset from the continuous peak; the hill climb recovers the peak
    of the chosen group when the near-ties form a plateau."""
    top = np.max(vals)
    ties = np.nonzero(vals >= top - 1e-9)[0]
    j = int(ties[-1])
    while j + 1 < vals.size and vals[j + 1] > vals[j]:
        j += 1
    while j - 1 >= 0 and vals[j - 1] > vals[j]:
        j -= 1
    return j


def _next_leja_node(prefix: "_LejaPrefix") -> float:
    """Greedy step: maximize sum(log|t - t_k|) (+ optional log weight) on the
    prefix's search grid, from its running sum, then refine the maximum."""
    existing, grid, log_weight = np.asarray(prefix.nodes), prefix.grid, prefix.log_weight

    def objective(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore"):
            v = np.sum(np.log(np.abs(t[:, None] - existing[None, :])), axis=1)
        if log_weight is not None:
            v = v + log_weight(t)
        return v

    vals = prefix.logsum if prefix.logw is None else prefix.logsum + prefix.logw
    j = _argmax_rightmost(vals)
    step = grid[1] - grid[0]
    refined = _golden_max(lambda t: objective(t)[0], max(prefix.lo, grid[j] - step),
                          min(prefix.hi, grid[j] + step))
    # the refinement cannot resolve differences below the float noise of
    # the objective; ties still break to the rightmost point
    pair = objective(np.array([refined, grid[j]]))
    noise = 1e-13 * max(1.0, float(np.max(np.abs(pair))))
    if grid[j] > refined and pair[1] >= pair[0] - noise:
        return float(grid[j])
    return refined


class _LejaPrefix:
    """The longest canonical Leja sequence computed so far for one shape.

    Each further node maximizes the distance product to the nodes before it,
    times exp(log_weight), over [lo, hi], and its mirror image about
    ``centre`` follows it.  With ``anchor`` the interval truncates an
    unbounded support: a node within 1% of the width from an end other than
    the anchor doubles the interval about the anchor, and the search repeats.
    The search grid and the running sum of log|grid - x_k| and the log weight
    on it are built on the first search."""

    def __init__(self, nodes: list, lo: float, hi: float, log_weight, centre, anchor):
        self.nodes, self.lo, self.hi = nodes, lo, hi
        self.log_weight, self.centre, self.anchor = log_weight, centre, anchor
        self.grid = None

    def move(self, lo: float, hi: float) -> None:
        """Search on [lo, hi] from here on; the sum is rebuilt from the nodes."""
        self.lo, self.hi = lo, hi
        self.grid = np.linspace(lo, hi, _LEJA_GRID)
        self.logw = None if self.log_weight is None else self.log_weight(self.grid)
        self.logsum = np.zeros(_LEJA_GRID)
        for x in self.nodes:
            self.logsum += self._log_distances(x)

    def append(self, x: float) -> None:
        self.nodes.append(x)
        if self.grid is not None:
            self.logsum += self._log_distances(x)

    def extend(self, count: int, polish=None) -> None:
        """Search nodes until there are ``count``; ``polish(nodes, t)``, if
        given, refines each found node before it is kept."""
        if len(self.nodes) < count and self.grid is None:
            self.move(self.lo, self.hi)
        anchor, centre = self.anchor, self.centre
        while len(self.nodes) < count:
            t = _next_leja_node(self)
            while anchor is not None and (
                (self.hi > anchor and self.hi - t <= 0.01 * (self.hi - self.lo))
                or (self.lo < anchor and t - self.lo <= 0.01 * (self.hi - self.lo))
            ):
                self.move(anchor - 2 * (anchor - self.lo), anchor + 2 * (self.hi - anchor))
                t = _next_leja_node(self)
            self.append(t if polish is None else polish(self.nodes, t))
            if centre is not None:
                self.append(centre - (self.nodes[-1] - centre))

    def _log_distances(self, x: float) -> np.ndarray:
        d = np.abs(self.grid - x)
        with np.errstate(divide="ignore"):
            return np.log(d, out=d)


def _canonical_prefix(key: tuple, table: dict) -> _LejaPrefix:
    """A new prefix of the canonical sequence ``key``, from ``table[key]`` =
    (lo, hi, nodes) if there is one: ``("leja", variant)`` on [-1, 1] from
    1, -1, 0, or ``("weighted_leja", kind, *params, variant)``."""
    log_weight, anchor = None, None
    if key[0] == "leja":
        start, lo, hi = [1.0, -1.0, 0.0], -1.0, 1.0
        centre = 0.0 if key[1] == "symmetric" else None
    else:
        dist = DistributionSpec(key[1], key[2:-1])
        lo, hi = dist.support
        if dist.kind == "normal":
            lo, hi, anchor = -10.0, 10.0, 0.0
        elif dist.kind in ("exponential", "gamma"):
            hi, anchor = 40.0 * (dist.params[0] + 1.0 if dist.kind == "gamma" else 1.0), 0.0
        centre = (lo + hi) / 2.0 if key[-1] == "symmetric" else None
        start = [] if centre is None else [centre]

        def log_weight(t):
            return 0.5 * dist.log_pdf(t)
    lo, hi, start = table.get(key, (lo, hi, start))
    return _LejaPrefix(list(start), lo, hi, log_weight, centre, anchor)


# one prefix per canonical sequence, shared by every domain and family in the
# process; extension holds the lock, so concurrent callers never search twice
_LEJA_PREFIXES: dict[tuple, _LejaPrefix] = {}
_LEJA_LOCK = threading.Lock()


def _leja_sequence(key: tuple, count: int) -> np.ndarray:
    """First ``count`` nodes of the canonical Leja sequence ``key``: the
    uniform and normal ones from ``_leja_table`` (imported on the first
    call), every other node searched for once."""
    with _LEJA_LOCK:
        prefix = _LEJA_PREFIXES.get(key)
        if prefix is None:
            from ._leja_table import LEJA_TABLE

            prefix = _LEJA_PREFIXES[key] = _canonical_prefix(key, LEJA_TABLE)
        prefix.extend(count)
        return np.array(prefix.nodes[:count])


def _lagrange_quadrature_weights(nodes: np.ndarray, dist: DistributionSpec) -> np.ndarray:
    """Integrate each Lagrange basis polynomial with an auxiliary Gauss rule."""
    aux = gauss_knots(dist, (nodes.size + 1) // 2 + 10)
    basis = basis_matrix(nodes, barycentric_weights(nodes), aux.nodes)
    return basis.T @ aux.weights


def leja_knots(count: int, a: float, b: float, variant: str = "standard") -> Rule1D:
    """Leja-type sequence on [a, b] for the uniform density.

    The first three nodes are b, a, (a+b)/2 for every variant; later nodes
    greedily maximize the distance product (``standard``), with odd entries
    mirrored about the midpoint (``symmetric``), or follow the angle-halving
    cosine recursion (``p_disk``).  The greedy variants are the image
    (a+b)/2 + (b-a)/2 * t of the sequence t on [-1, 1], with the first three
    nodes exact and each mirror formed from its mapped partner.
    """
    if not a < b:
        raise ParameterError("leja_knots requires a < b")
    if count < 1:
        raise ParameterError("count must be >= 1")
    if variant not in ("standard", "symmetric", "p_disk"):
        raise UnsupportedVariantError(f"unknown Leja variant {variant!r}")
    if variant == "p_disk":
        phi = [0.0, math.pi, math.pi / 2.0]
        for j in range(2, count):
            phi += [phi[j] / 2.0, phi[j] / 2.0 + math.pi]
        nodes = a + (b - a) * (np.cos(phi[:count]) + 1.0) / 2.0
    else:
        mid = (a + b) / 2.0
        nodes = mid + (b - a) / 2.0 * _leja_sequence(("leja", variant), count)
        nodes[:3] = [b, a, mid][:count]
        if variant == "symmetric":
            nodes[4::2] = mid - (nodes[3:-1:2] - mid)
    w = _lagrange_quadrature_weights(nodes, DistributionSpec.uniform(a, b))
    return _freeze(nodes, w)


def weighted_leja_knots(count: int, dist: DistributionSpec, variant: str = "standard") -> Rule1D:
    """Density-weighted Leja sequence for ``dist``.

    Each node maximizes sqrt(pdf) times the distance product over the
    (possibly truncated) support.  The symmetric variant exists only for
    normal and beta variables: it starts at the centre (the mean, or the
    interval midpoint) and follows each computed node by its mirror image.
    The nodes are the image loc + scale * t of the shape's canonical
    sequence t; the centre is exact and each mirror is formed from its
    mapped partner.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    if variant not in ("standard", "symmetric"):
        raise UnsupportedVariantError(f"unknown weighted Leja variant {variant!r}")
    if variant == "symmetric" and dist.kind not in ("normal", "beta"):
        raise UnsupportedVariantError(f"symmetric weighted Leja not available for {dist.kind} variables")
    # canonical shape (N(0, 1), rate 1, gamma beta 1, [0, 1]), then loc + scale * t
    kind, p = dist.kind, dist.params
    if kind == "normal":
        shape, loc, scale = (0.0, 1.0), p[0], p[1]
    elif kind in ("exponential", "gamma"):
        shape, loc, scale = p[:-1] + (1.0,), 0.0, 1.0 / p[-1]
    else:
        shape, loc, scale = (0.0, 1.0) + p[2:], p[0], p[1] - p[0]
    nodes = loc + scale * _leja_sequence(("weighted_leja", kind) + shape + (variant,), count)
    if variant == "symmetric":
        centre = nodes[0] = p[0] if dist.kind == "normal" else (p[0] + p[1]) / 2.0
        nodes[2::2] = centre - (nodes[1:-1:2] - centre)
    w = _lagrange_quadrature_weights(nodes, dist)
    return _freeze(nodes, w)


# ---------------------------------------------------------------------------
# tabulated nested rule for the normal density
# ---------------------------------------------------------------------------

GK_SIZES = tuple(sorted(NESTED_NORMAL_RULES))


def gk_knots(count: int) -> Rule1D:
    """Tabulated nested rule for the standard normal; count in {1,3,9,19,35}."""
    if count not in NESTED_NORMAL_RULES:
        raise ParameterError(f"nested normal rules exist only for sizes {GK_SIZES}, got {count}")
    nodes, weights = NESTED_NORMAL_RULES[count]
    return _freeze(np.array(nodes), np.array(weights))


# ---------------------------------------------------------------------------
# knot families (providers bound to a distribution, with caching)
# ---------------------------------------------------------------------------

# every rule a KnotFamily generated in this process, by (tag, params, count),
# and the barycentric weights of those an interpolant used
_RULES: dict[tuple, Rule1D] = {}
_BARYCENTRIC: dict[tuple, np.ndarray] = {}


class KnotFamily:
    """A named univariate rule generator bound to a distribution.

    Equality is by (tag, params), which also drives grid recycling: equal
    instances generate equal rules.  Instances are immutable, and every
    rule they generate is kept in one process-wide store under
    (tag, params, count), so equal instances (one per dimension, or one
    rebuilt by ``family_from_descriptor``) build each rule once, and its
    barycentric weights (``_barycentric``) once if an interpolant uses it.
    """

    def __init__(self, tag: str, params: tuple, dist: DistributionSpec | None, maker):
        self.tag, self.params, self.dist, self._maker = tag, params, dist, maker

    def __call__(self, count: int) -> Rule1D:
        key = (self.tag, self.params, count)
        rule = _RULES.get(key)
        if rule is None:
            rule = _RULES[key] = self._maker(count)
        return rule

    def _barycentric(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and barycentric weights of ``self(count)``, the weights made
        once per process; a LinAlgError if the rule repeats a node."""
        nodes = self(count).nodes
        key = (self.tag, self.params, count)
        bw = _BARYCENTRIC.get(key)
        if bw is None:
            if len(set(nodes.tolist())) < nodes.size:
                raise np.linalg.LinAlgError(f"duplicate knots {nodes} in the {count}-node rule "
                                            f"of {self!r} make the interpolation system singular")
            bw = barycentric_weights(nodes)
            bw.flags.writeable = False
            bw = _BARYCENTRIC.setdefault(key, bw)  # atomic: concurrent callers share one array
        return nodes, bw

    def __eq__(self, other):
        return isinstance(other, KnotFamily) and (self.tag, self.params) == (other.tag, other.params)

    def __hash__(self):
        return hash((self.tag, self.params))

    def __repr__(self):
        return f"KnotFamily({self.tag!r}, {self.params!r})"

    def descriptor(self) -> dict:
        """JSON-ready description, invertible by ``family_from_descriptor``."""
        return {"family": self.tag, "params": list(self.params)}


def gauss_family(dist: DistributionSpec) -> KnotFamily:
    return KnotFamily("gauss", (dist.kind,) + dist.params, dist, lambda n: gauss_knots(dist, n))


def cc_family(a: float, b: float) -> KnotFamily:
    dist = DistributionSpec.uniform(a, b)
    return KnotFamily("cc", (a, b), dist, lambda n: cc_knots(n, a, b))


def leja_family(a: float, b: float, variant: str = "standard") -> KnotFamily:
    dist = DistributionSpec.uniform(a, b)
    return KnotFamily("leja", (a, b, variant), dist, lambda n: leja_knots(n, a, b, variant))


def weighted_leja_family(dist: DistributionSpec, variant: str = "standard") -> KnotFamily:
    return KnotFamily("weighted_leja", (dist.kind,) + dist.params + (variant,), dist,
                      lambda n: weighted_leja_knots(n, dist, variant))


def trap_family(a: float, b: float) -> KnotFamily:
    """Equispaced family for grids; a single node falls back to the
    midpoint so that level maps starting at one knot stay usable (the
    midpoint belongs to every odd-count equispaced set, so nesting holds).
    """
    dist = DistributionSpec.uniform(a, b)
    return KnotFamily("trap", (a, b), dist,
                      lambda n: midpoint_knots(1, a, b) if n == 1 else trap_knots(n, a, b))


def midpoint_family(a: float, b: float) -> KnotFamily:
    dist = DistributionSpec.uniform(a, b)
    return KnotFamily("midpoint", (a, b), dist, lambda n: midpoint_knots(n, a, b))


def gk_family() -> KnotFamily:
    return KnotFamily("genz_keister", (), DistributionSpec.normal(0.0, 1.0), gk_knots)


# descriptor tag -> constructor taking the descriptor's flat params; a wrong
# param count raises TypeError or ParameterError, which load_grid reports
_FROM_DESCRIPTOR = {
    "gauss": lambda kind, *params: gauss_family(DistributionSpec(kind, params)),
    "cc": cc_family,
    "leja": lambda a, b, variant: leja_family(a, b, variant),
    "weighted_leja": lambda kind, *params: weighted_leja_family(
        DistributionSpec(kind, params[:-1]), params[-1]),
    "trap": trap_family,
    "midpoint": midpoint_family,
    "genz_keister": gk_family,
}


def family_from_descriptor(desc: dict) -> KnotFamily:
    """Rebuild a KnotFamily from its JSON descriptor."""
    make = _FROM_DESCRIPTOR.get(desc["family"])
    if make is None:
        raise ParameterError(f"unknown knot family tag {desc['family']!r}")
    return make(*desc["params"])
