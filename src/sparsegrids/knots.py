"""Univariate collocation knots and quadrature weights.

Every rule is normalized against the probability density of its
distribution, so weights always sum to one.  Gauss rules come from the
eigendecomposition of the three-term recurrence matrix; Clenshaw-Curtis
weights from an FFT; Leja-type sequences from a greedy log-domain search
with quadrature weights obtained by integrating the Lagrange basis with
an auxiliary Gauss rule.  The densities, the standard-variable maps and
the recurrence coefficients also serve the orthonormal polynomials of
``pce``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
        alpha = np.zeros(n)
        beta = np.empty(n)
        beta[0] = 1.0
        if n > 1:
            kk = k[1:]
            beta[1:] = kk**2 / (4.0 * kk**2 - 1.0)
        return alpha, beta
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
        if n > 2:
            kk = k[2:]
            s = 2.0 * kk + A + B
            beta[2:] = (
                4.0
                * kk
                * (kk + A)
                * (kk + B)
                * (kk + A + B)
                / (s**2 * (s + 1.0) * (s - 1.0))
            )
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
        x, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
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


def _argmax_rightmost(grid: np.ndarray, vals: np.ndarray) -> int:
    """Index of the rightmost near-maximal value, walked to its local peak.

    The tolerance groups symmetric maxima whose grid samples differ only
    by their offset from the continuous peak; the hill climb recovers the
    peak of the chosen group when the near-ties form a plateau.
    """
    top = np.max(vals)
    ties = np.nonzero(vals >= top - 1e-9)[0]
    j = int(ties[-1])
    while j + 1 < vals.size and vals[j + 1] > vals[j]:
        j += 1
    while j - 1 >= 0 and vals[j - 1] > vals[j]:
        j -= 1
    return j


def _next_leja_node(existing: np.ndarray, lo: float, hi: float, log_weight=None) -> float:
    """Greedy step: maximize sum(log|t - t_k|) (+ optional log weight)."""
    grid = np.linspace(lo, hi, _LEJA_GRID)

    def objective(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore"):
            v = np.sum(np.log(np.abs(t[:, None] - existing[None, :])), axis=1)
        if log_weight is not None:
            v = v + log_weight(t)
        return v

    vals = objective(grid)
    j = _argmax_rightmost(grid, vals)
    step = grid[1] - grid[0]
    blo = max(lo, grid[j] - step)
    bhi = min(hi, grid[j] + step)
    refined = _golden_max(lambda t: objective(t)[0], blo, bhi)
    # the refinement cannot resolve differences below the float noise of
    # the objective; ties still break to the rightmost point
    pair = objective(np.array([refined, grid[j]]))
    noise = 1e-13 * max(1.0, float(np.max(np.abs(pair))))
    if grid[j] > refined and pair[1] >= pair[0] - noise:
        return float(grid[j])
    return refined


def _leja_sequence(count: int, start, lo: float, hi: float, log_weight=None,
                   centre: float | None = None, anchor: float | None = None) -> np.ndarray:
    """Greedy Leja sequence of ``count`` nodes that begins with ``start``.

    Each further node maximizes the distance product to the nodes before
    it, times exp(log_weight), over [lo, hi]; with ``centre`` its mirror
    image ``centre - (t - centre)`` follows it.  With ``anchor`` the
    interval truncates an unbounded support: a node within 1% of the
    interval's width from an end other than the anchor doubles the
    interval about the anchor, and the search repeats.
    """
    nodes = list(start[:count])
    while len(nodes) < count:
        arr = np.asarray(nodes)
        t = _next_leja_node(arr, lo, hi, log_weight)
        while anchor is not None and (
            (hi > anchor and hi - t <= 0.01 * (hi - lo))
            or (lo < anchor and t - lo <= 0.01 * (hi - lo))
        ):
            lo, hi = anchor - 2 * (anchor - lo), anchor + 2 * (hi - anchor)
            t = _next_leja_node(arr, lo, hi, log_weight)
        nodes.append(t)
        if centre is not None and len(nodes) < count:
            nodes.append(centre - (t - centre))
    return np.asarray(nodes)


def _lagrange_quadrature_weights(nodes: np.ndarray, dist: DistributionSpec) -> np.ndarray:
    """Integrate each Lagrange basis polynomial with an auxiliary Gauss rule."""
    count = nodes.size
    aux = gauss_knots(dist, (count + 1) // 2 + 10)
    basis = basis_matrix(nodes, barycentric_weights(nodes), aux.nodes)
    return basis.T @ aux.weights


def leja_knots(count: int, a: float, b: float, variant: str = "standard") -> Rule1D:
    """Leja-type sequence on [a, b] for the uniform density.

    The first three nodes are b, a, (a+b)/2 for every variant; later nodes
    greedily maximize the distance product (``standard``), with odd entries
    mirrored about the midpoint (``symmetric``), or follow the angle-halving
    cosine recursion (``p_disk``).
    """
    if not a < b:
        raise ParameterError("leja_knots requires a < b")
    if count < 1:
        raise ParameterError("count must be >= 1")
    if variant not in ("standard", "symmetric", "p_disk"):
        raise UnsupportedVariantError(f"unknown Leja variant {variant!r}")
    if variant == "p_disk":
        phi = [0.0, math.pi, math.pi / 2.0]
        j = 0
        while len(phi) < count:
            phi.append(phi[j + 2] / 2.0)
            phi.append(phi[j + 2] / 2.0 + math.pi)
            j += 1
        nodes = a + (b - a) * (np.cos(phi[:count]) + 1.0) / 2.0
    else:
        mid = (a + b) / 2.0
        centre = mid if variant == "symmetric" else None
        nodes = _leja_sequence(count, [b, a, mid], a, b, centre=centre)
    w = _lagrange_quadrature_weights(nodes, DistributionSpec.uniform(a, b))
    return _freeze(nodes, w)


def weighted_leja_knots(count: int, dist: DistributionSpec, variant: str = "standard") -> Rule1D:
    """Density-weighted Leja sequence for ``dist``.

    Each node maximizes sqrt(pdf) times the distance product over the
    (possibly truncated) support.  The symmetric variant exists only for
    normal and beta variables: it starts at the centre (the mean, or the
    interval midpoint) and follows each computed node by its mirror image.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    if variant not in ("standard", "symmetric"):
        raise UnsupportedVariantError(f"unknown weighted Leja variant {variant!r}")
    if variant == "symmetric" and dist.kind not in ("normal", "beta"):
        raise UnsupportedVariantError(
            f"symmetric weighted Leja not available for {dist.kind} variables"
        )
    p = dist.params
    lo, hi = dist.support
    anchor = None
    if dist.kind == "normal":
        lo, hi, anchor = p[0] - 10.0 * p[1], p[0] + 10.0 * p[1], p[0]
    elif dist.kind == "exponential":
        hi, anchor = 40.0 / p[0], 0.0
    elif dist.kind == "gamma":
        hi, anchor = 40.0 * (p[0] + 1.0) / p[1], 0.0
    start, centre = [], None
    if variant == "symmetric":
        centre = p[0] if dist.kind == "normal" else (p[0] + p[1]) / 2.0
        start = [centre]
    nodes = _leja_sequence(count, start, lo, hi, lambda t: 0.5 * dist.log_pdf(t),
                           centre, anchor)
    w = _lagrange_quadrature_weights(nodes, dist)
    return _freeze(nodes, w)


# ---------------------------------------------------------------------------
# tabulated nested rule for the normal density
# ---------------------------------------------------------------------------

GK_SIZES = tuple(sorted(NESTED_NORMAL_RULES))


def gk_knots(count: int) -> Rule1D:
    """Tabulated nested rule for the standard normal; count in {1,3,9,19,35}."""
    if count not in NESTED_NORMAL_RULES:
        raise ParameterError(
            f"nested normal rules exist only for sizes {GK_SIZES}, got {count}"
        )
    nodes, weights = NESTED_NORMAL_RULES[count]
    return _freeze(np.array(nodes), np.array(weights))


# ---------------------------------------------------------------------------
# knot families (providers bound to a distribution, with caching)
# ---------------------------------------------------------------------------


class KnotFamily:
    """A named univariate rule generator bound to a distribution.

    Instances are immutable and memoize generated rules, so repeated grid
    constructions never recompute nodes (important for Leja searches).
    Equality is by (tag, params), which also drives grid recycling.
    """

    def __init__(self, tag: str, params: tuple, dist: DistributionSpec | None,
                 nested: bool, maker):
        self.tag = tag
        self.params = params
        self.dist = dist
        self.nested = nested
        self._maker = maker
        self._cache: dict[int, Rule1D] = {}

    def __call__(self, count: int) -> Rule1D:
        rule = self._cache.get(count)
        if rule is None:
            rule = self._maker(count)
            self._cache[count] = rule
        return rule

    def __eq__(self, other):
        return (
            isinstance(other, KnotFamily)
            and self.tag == other.tag
            and self.params == other.params
        )

    def __hash__(self):
        return hash((self.tag, self.params))

    def __repr__(self):
        return f"KnotFamily({self.tag!r}, {self.params!r})"

    def descriptor(self) -> dict:
        """JSON-ready description, invertible by ``family_from_descriptor``."""
        return {"family": self.tag, "params": list(self.params)}


def gauss_family(dist: DistributionSpec) -> KnotFamily:
    return KnotFamily(
        "gauss", (dist.kind,) + dist.params, dist, False,
        lambda n: gauss_knots(dist, n),
    )


def cc_family(a: float, b: float) -> KnotFamily:
    dist = DistributionSpec.uniform(a, b)
    return KnotFamily("cc", (a, b), dist, True, lambda n: cc_knots(n, a, b))


def leja_family(a: float, b: float, variant: str = "standard") -> KnotFamily:
    dist = DistributionSpec.uniform(a, b)
    return KnotFamily(
        "leja", (a, b, variant), dist, True, lambda n: leja_knots(n, a, b, variant)
    )


def weighted_leja_family(dist: DistributionSpec, variant: str = "standard") -> KnotFamily:
    return KnotFamily(
        "weighted_leja", (dist.kind,) + dist.params + (variant,), dist, True,
        lambda n: weighted_leja_knots(n, dist, variant),
    )


def trap_family(a: float, b: float) -> KnotFamily:
    """Equispaced family for grids; a single node falls back to the
    midpoint so that level maps starting at one knot stay usable (the
    midpoint belongs to every odd-count equispaced set, so nesting holds).
    """
    dist = DistributionSpec.uniform(a, b)
    return KnotFamily(
        "trap", (a, b), dist, True,
        lambda n: midpoint_knots(1, a, b) if n == 1 else trap_knots(n, a, b),
    )


def midpoint_family(a: float, b: float) -> KnotFamily:
    dist = DistributionSpec.uniform(a, b)
    return KnotFamily("midpoint", (a, b), dist, True, lambda n: midpoint_knots(n, a, b))


def gk_family() -> KnotFamily:
    return KnotFamily("genz_keister", (), DistributionSpec.normal(0.0, 1.0), True,
                      gk_knots)


def family_from_descriptor(desc: dict) -> KnotFamily:
    """Rebuild a KnotFamily from its JSON descriptor."""
    tag = desc["family"]
    params = desc["params"]
    if tag == "gauss":
        return gauss_family(DistributionSpec(params[0], tuple(params[1:])))
    if tag == "cc":
        return cc_family(*params)
    if tag == "leja":
        return leja_family(params[0], params[1], params[2])
    if tag == "weighted_leja":
        return weighted_leja_family(
            DistributionSpec(params[0], tuple(params[1:-1])), params[-1]
        )
    if tag == "trap":
        return trap_family(*params)
    if tag == "midpoint":
        return midpoint_family(*params)
    if tag == "genz_keister":
        return gk_family()
    raise ParameterError(f"unknown knot family tag {tag!r}")
