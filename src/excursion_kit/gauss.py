"""Gaussian utilities: Hermite polynomials, tails, MVN boxes.

Conventions used throughout the package:

* ``hermite`` evaluates the probabilists' Hermite polynomial He_k
  (monic, orthogonal w.r.t. exp(-x^2/2)).
* ``gauss_tail`` is Psi(u) = P(Z >= u) for a standard normal Z.
* ``mvn_prob`` computes P(a <= Z <= b) for each of a sequence of centred
  Gaussian rectangle problems of one dimension.  Up to MVN_DET_DIM it is
  deterministic: the leading coordinates of a reordered Cholesky factor
  are integrated by tensor Gauss-Legendre and the last two in closed form
  through Owen's T (Owen 1956, Ann. Math. Statist. 27; the conditioning
  route of Genz 2004, Stat. Comput. 14).  Above it, randomly shifted
  rank-1 lattice points from the seed are shared by the problems, and the
  seed matters only there.  ``_cdf_pair`` takes an interval whose
  lower limit is above the median as Psi(lo) - Psi(hi), and
  ``_std_limits`` makes a zero-variance coordinate a point mass of mass
  exactly 1 or 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, erfcx, ndtri, owens_t

from . import quad
from .errors import CapabilityError, DegeneracyError

__all__ = [
    "DegeneracyError",
    "MvnProblem",
    "MvnResult",
    "hermite",
    "gauss_tail",
    "std_normal_pdf",
    "mvn_prob",
]

MAX_HERMITE_DEGREE = 30
MAX_MVN_DIM = 12

# largest dimension that mvn_prob integrates deterministically; err_est
# there is |GL(n) - GL(floor(3n/4))| at n = MVN_GL_ORDER nodes per leading
# coordinate, plus MVN_ROUNDING * p for the rounding that both orders share
MVN_DET_DIM = 4
MVN_GL_ORDER = 64
MVN_ROUNDING = 1e-13
# Randomized QMC for mvn_prob above MVN_DET_DIM: a rank-1 lattice of
# MVN_QMC_POINTS points (a prime), MVN_QMC_RANDOMIZATIONS random shifts of
# it for the error estimate, and its generating vector, one entry per
# coordinate the points cover (MAX_MVN_DIM - 1), found component by
# component for product weights 1/j^2 (Nuyens & Cools 2006, Math. Comp. 75)
MVN_QMC_POINTS = 8191
MVN_QMC_RANDOMIZATIONS = 12
MVN_LATTICE_Z = (1, 3457, 2970, 1074, 1398, 2450, 3117, 2325, 3182, 2225, 960)
# err_est above which mvn_prob sets its warning flag
MVN_ACCURACY = 1e-6


def hermite(k: int, x):
    """Probabilists' Hermite polynomial He_k(x) by three-term recurrence.

    Vectorised over x; k is capped at MAX_HERMITE_DEGREE to keep the
    recurrence in a well-conditioned regime.
    """
    k = int(k)
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if k > MAX_HERMITE_DEGREE:
        raise CapabilityError(f"degree {k} exceeds cap {MAX_HERMITE_DEGREE}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.shape else float(prev)
    cur = x.copy()
    for n in range(1, k):
        prev, cur = cur, x * cur - n * prev
    return cur if cur.shape else float(cur)


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return out if out.shape else float(out)


def gauss_tail(u):
    """Upper tail Psi(u) = P(Z >= u) of the standard normal, via erfc."""
    u = np.asarray(u, dtype=float)
    out = 0.5 * erfc(u / math.sqrt(2.0))
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# MVN rectangle probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MvnProblem:
    """Centred Gaussian rectangle problem P(lower <= Z <= upper).

    cov must be finite, symmetric positive semidefinite and of dimension
    <= 12; bounds may be +-inf but not NaN.
    """

    cov: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        d = cov.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"covariance must be square, got {cov.shape}")
        if d > MAX_MVN_DIM:
            raise CapabilityError(f"dimension {d} exceeds cap {MAX_MVN_DIM}")
        if lo.shape != (d,) or hi.shape != (d,):
            raise ValueError("bounds must match the covariance dimension")
        if not np.all(np.isfinite(cov)) or np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("need finite covariance entries and bounds that are not NaN")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=1e-9):
            raise ValueError("covariance must be symmetric")
        if np.any(lo > hi):
            raise ValueError("need lower <= upper in every coordinate")
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


class MvnResult(NamedTuple):
    p: float
    err_est: float
    warning: bool = False


_TINY = 1e-300
_CDF_CLIP = 1e-15


def _std_limits(a, b, mu, sd):
    """Standardized limits of [a, b] for N(mu, sd^2); a point mass (sd = 0)
    gets (-inf, inf) where [a, b] holds mu and (-inf, -inf) where it does
    not, so its mass is exactly 1 or 0."""
    if sd > 0:
        return (a - mu) / sd, (b - mu) / sd
    return -np.inf, np.where((a - mu <= 0) & (b - mu >= 0), np.inf, -np.inf)


def _cdf_pair(lo, hi):
    """(Phi(lo), Phi(hi), 1), or (Psi(lo), Psi(hi), -1) where lo > 0 so a far
    upper tail does not cancel to zero; one erfc per bound, and the interval
    mass is sign * (second - first)."""
    sign = np.where(lo > 0, -1.0, 1.0)
    r2 = math.sqrt(2.0)
    return 0.5 * erfc(-sign * lo / r2), 0.5 * erfc(-sign * hi / r2), sign


def _interval_mass(lo, hi) -> float:
    """P(lo <= Z <= hi) for standardized limits."""
    first, second, sign = _cdf_pair(lo, hi)
    return float(sign * (second - first))


def _ordered_cholesky(cov, a, b):
    """Genz-style variable reordering with pivoted Cholesky.

    At each step picks the remaining variable with the smallest expected
    conditional probability mass, which stabilises the integration that
    follows, by Gauss-Legendre or by QMC.  Zero pivots (PSD-singular directions) produce zero
    columns that the integrator treats as point masses.
    """
    d = cov.shape[0]
    c = cov.copy()
    a = a.copy()
    b = b.copy()
    L = np.zeros((d, d))
    y = np.zeros(d)
    scale = max(np.max(np.abs(np.diag(c))), 1.0)

    for i in range(d):
        best_j, best_mass = -1, np.inf
        for j in range(i, d):
            var = c[j, j] - L[j, :i] @ L[j, :i]
            if var < -1e-8 * scale:
                raise DegeneracyError("covariance is not positive semidefinite")
            lo, hi = _std_limits(a[j], b[j], L[j, :i] @ y[:i], math.sqrt(max(var, 0.0)))
            mass = _interval_mass(lo, hi)
            if mass < best_mass:
                best_j, best_mass, best_lo, best_hi = j, mass, lo, hi
        j = best_j
        if j != i:
            for arr in (a, b, y):
                arr[[i, j]] = arr[[j, i]]
            c[[i, j], :] = c[[j, i], :]
            c[:, [i, j]] = c[:, [j, i]]
            L[[i, j], :i] = L[[j, i], :i]
        var = c[i, i] - L[i, :i] @ L[i, :i]
        L[i, i] = math.sqrt(max(var, 0.0))
        if L[i, i] > 0:
            for j2 in range(i + 1, d):
                L[j2, i] = (c[j2, i] - L[j2, :i] @ L[i, :i]) / L[i, i]
        # expected value of the standard normal truncated to [lo, hi]
        if best_mass > _TINY and np.isfinite(best_lo) | np.isfinite(best_hi):
            y[i] = (std_normal_pdf(best_lo) - std_normal_pdf(best_hi)) / best_mass
    return L, a, b


# ---------------------------------------------------------------------------
# Deterministic route: dimension <= MVN_DET_DIM
# ---------------------------------------------------------------------------

# a straddling interval is integrated over its part in [-_AXIS_CUT,
# _AXIS_CUT]; beyond lies Psi(8) = 6e-16 of a mass of at least 1/2
_AXIS_CUT = 8.0
# Owen's T form of an upper quadrant sums terms as large as
# exp(-min(|h|, |k|)^2 / 2); where the quadrant lies further from the
# origin than that by more than _OWEN_LOSS in squared distance (a factor
# of 100 in size), a Gauss-Laguerre rule of _TAIL_ORDER nodes takes it
# instead.  That rule is within 7e-14 relative from 24 nodes on, below
# the MVN_ROUNDING allowance, so both orders of err_est share it.
_OWEN_LOSS = 2.0 * math.log(100.0)
_TAIL_ORDER = 32
_RSQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _mirror(lo, hi):
    """(flip, lo, hi) with [lo, hi] reflected to [-hi, -lo] where it lies
    mostly below 0, so that its lower limit is the one in a tail."""
    flip = hi < -lo
    return flip, np.where(flip, -hi, lo), np.where(flip, -lo, hi)


def _axis_rule(lo, hi, n: int):
    """Nodes y and weights phi(y) dy, each (m, n), of an order-n
    Gauss-Legendre rule on each of m standardized intervals [lo, hi].

    After _mirror, an interval in the upper tail (lo >= 0) takes quad's
    orthant map y = lo + s / (1 - s), with s in [0, 1) shrunk to reach no
    further than hi; one that straddles 0 is mapped affinely from its part
    in [-_AXIS_CUT, _AXIS_CUT].  An empty interval gets zero weights.
    """
    flip, lo, hi = _mirror(lo, hi)
    x, w = quad._gl_nodes(n)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    ok = hi > lo
    tail = ok & (lo >= 0)
    lo = np.where(ok, lo, 0.0)
    width = np.where(tail, hi - lo, 0.0)
    smax = np.divide(width, 1.0 + width, out=np.ones_like(width), where=np.isfinite(width))
    sig = smax[:, None] * s
    start = np.maximum(lo, -_AXIS_CUT)
    span = np.where(tail | ~ok, 0.0, np.minimum(hi, _AXIS_CUT) - start)
    t = tail[:, None]
    y = np.where(t, lo[:, None] + sig / (1.0 - sig), start[:, None] + span[:, None] * s)
    jac = np.where(t, smax[:, None] / (1.0 - sig) ** 2, span[:, None])
    return np.where(flip[:, None], -y, y), jac * ws * _RSQRT_2PI * np.exp(-0.5 * y * y)


def _owen_quadrant(h, k, rho, r):
    """P(Y1 >= h, Y2 >= k) = Phi2(-h, -k; rho) by Owen's (1956) T form,
    with a = (k - rho h) / (h r) taken in its limit where h = 0; rho and
    r = sqrt(1 - rho^2) are given per point."""
    x, y = -h, -k
    with np.errstate(divide="ignore", invalid="ignore"):
        ax, ay = (y - rho * x) / (x * r), (x - rho * y) / (y * r)
    zx, zy = x == 0, y == 0
    if zx.any() or zy.any():
        # a is +-inf by the sign of the other limit, or (1 - rho) / r where
        # both limits are 0
        a0 = (1.0 - rho) / r
        ax = np.where(zx, np.where(zy, a0, np.copysign(np.inf, y)), ax)
        ay = np.where(zy, np.where(zx, a0, np.copysign(np.inf, x)), ay)
    beta = np.where((x * y > 0) | ((x * y == 0) & (x + y >= 0)), 0.0, 0.5)
    p = 0.5 * gauss_tail(h) + 0.5 * gauss_tail(k) - beta - owens_t(x, ax) - owens_t(y, ay)
    return np.maximum(p, 0.0)


@functools.cache
def _laguerre_nodes() -> tuple[np.ndarray, np.ndarray]:
    # built on first use: laggauss costs about 10 ms, kept out of the import
    return np.polynomial.laguerre.laggauss(_TAIL_ORDER)


def _laguerre_quadrant(h, k, rho, r):
    """P(Y1 >= h, Y2 >= k) far in a tail, as int_v^inf phi(x) Psi((w - rho
    x) / r) dx by Gauss-Laguerre in lam (x - v), with rho and r per point.
    (v, w) is (h, k) or (k, h), whichever integrand falls faster at x = v;
    lam is that rate, at least 1.  Every term is positive, so the result
    keeps its relative accuracy however small it is."""

    def rate(v, w):
        # -d/dx log of the integrand at x = v, with phi/Psi from erfcx
        return v - rho / r * math.sqrt(2.0 / math.pi) / erfcx((w - rho * v) / (r * math.sqrt(2.0)))

    rh, rk = rate(h, k), rate(k, h)
    swap = rk > rh
    v, w = np.where(swap, k, h)[:, None], np.where(swap, h, k)[:, None]
    lam = np.maximum(np.maximum(rh, rk), 1.0)[:, None]
    t, wt = _laguerre_nodes()
    x = v + t / lam
    f = np.exp(t - 0.5 * x * x) * gauss_tail((w - rho[:, None] * x) / r[:, None]) / lam
    return _RSQRT_2PI * (f @ wt)


def _quadrant(h, k, rho):
    """P(Y1 >= h, Y2 >= k) for finite h, k and a standard bivariate normal
    of correlation rho, one for all points or one per point; Owen's T form
    unless it would lose more than a factor 100 to cancellation."""
    rho = np.asarray(rho, dtype=float)
    one = np.abs(rho) == 1.0
    if one.any():
        # Y2 = +-Y1 where |rho| = 1; the other points take the routes below
        one, rho = np.broadcast_to(one, h.shape), np.broadcast_to(rho, h.shape)
        up, down, rest = one & (rho > 0), one & (rho < 0), ~one
        out = np.empty(h.shape)
        out[up] = gauss_tail(np.maximum(h[up], k[up]))
        first, second, sign = _cdf_pair(h[down], -k[down])
        out[down] = np.maximum(sign * (second - first), 0.0)
        if rest.any():
            out[rest] = _quadrant(h[rest], k[rest], rho[rest])
        return out
    r = np.sqrt((1.0 - rho) * (1.0 + rho))
    # squared distance from 0 to the quadrant in whitened coordinates: its
    # corner, or the foot of the perpendicular on an edge where that lies on it
    dist = (h * h - 2.0 * rho * h * k + k * k) / (r * r)
    dist = np.where(rho * h >= k, np.minimum(dist, h * h), dist)
    dist = np.where(rho * k >= h, np.minimum(dist, k * k), dist)
    m = np.minimum(np.abs(h), np.abs(k))
    far = ((h > 0) | (k > 0)) & (dist - m * m > _OWEN_LOSS)
    if not far.any():
        return _owen_quadrant(h, k, rho, r)
    out = np.empty(h.shape)
    for sel, route in ((far, _laguerre_quadrant), (~far, _owen_quadrant)):
        if sel.any():
            rho_r = (np.broadcast_to(c, h.shape)[sel] for c in (rho, r))
            out[sel] = route(h[sel], k[sel], *rho_r)
    return out


def _upper(h, k, rho: float, neg):
    """P(Y1 >= h, Y2 >= k) entrywise, at correlation -rho where neg holds
    and rho elsewhere."""
    out = np.zeros(h.shape)
    if np.isposinf(h).all() or np.isposinf(k).all():
        # the three corners of an orthant that lie at infinity
        return out
    fin = np.isfinite(h) & np.isfinite(k)
    if not fin.all():
        low_h, low_k = h == -np.inf, k == -np.inf
        out[low_h] = gauss_tail(k[low_h])
        out[low_k & ~low_h] = gauss_tail(h[low_k & ~low_h])
    for sel, c in ((fin & ~neg, rho), (fin & neg, -rho)):
        if sel.any():
            out[sel] = _quadrant(h[sel], k[sel], c)
    return out


def _pair_mass(L, a, b, ys):
    """P(last two coordinates in their intervals | leading ones at ys),
    for each row of ys: a bivariate rectangle by inclusion-exclusion over
    upper quadrants, each interval first put through _mirror."""
    i, j = L.shape[0] - 2, L.shape[0] - 1
    sd = math.hypot(L[j, i], L[j, j])
    rho = L[j, i] / sd if sd > 0 else 0.0
    lo1, hi1, lo2, hi2 = np.broadcast_arrays(
        *_std_limits(a[i], b[i], ys @ L[i], L[i, i]), *_std_limits(a[j], b[j], ys @ L[j], sd)
    )
    f1, lo1, hi1 = _mirror(lo1, hi1)
    f2, lo2, hi2 = _mirror(lo2, hi2)
    neg = f1 != f2
    p = (_upper(lo1, lo2, rho, neg) - _upper(lo1, hi2, rho, neg)) - (
        _upper(hi1, lo2, rho, neg) - _upper(hi1, hi2, rho, neg)
    )
    return np.maximum(p, 0.0)


def _gl_prob(L, a, b) -> tuple[float, float]:
    """P(a <= L y <= b) for a standard normal y, at n = MVN_GL_ORDER and
    at floor(3n/4) nodes per leading coordinate.

    The leading d - 2 coordinates take an order-n rule each (_axis_rule),
    nested since each interval depends on the coordinates before it; a
    point-mass coordinate adds no axis but weights each node by its mass,
    0 or 1.  The last two coordinates take _pair_mass, once for the nodes
    of both orders.
    """
    d = L.shape[0]
    nodes = []
    for n in (MVN_GL_ORDER, 3 * MVN_GL_ORDER // 4):
        ys, w = np.zeros((1, d)), np.ones(1)
        for i in range(d - 2):
            lo, hi = np.broadcast_arrays(*_std_limits(a[i], b[i], ys @ L[i], L[i, i]))
            if L[i, i] == 0:
                w = w * (hi > lo)
                continue
            y, wy = _axis_rule(lo, hi, n)
            ys = np.repeat(ys, n, axis=0)
            ys[:, i] = y.ravel()
            w = (w[:, None] * wy).ravel()
        nodes.append((ys, w))
    (ys, w), (ys2, w2) = nodes
    mass = _pair_mass(L, a, b, np.vstack([ys, ys2]))
    return float(w @ mass[: len(w)]), float(w2 @ mass[len(w) :])


def _det_result(pb: MvnProblem) -> MvnResult:
    """One problem of dimension <= MVN_DET_DIM.  Coordinates bounded on
    neither side drop out; one left is an exact interval mass, and two or
    more take _gl_prob."""
    keep = (pb.lower > -np.inf) | (pb.upper < np.inf)
    if not keep.any():
        return MvnResult(1.0, 0.0, False)
    L, a, b = _ordered_cholesky(pb.cov[np.ix_(keep, keep)], pb.lower[keep], pb.upper[keep])
    if len(a) == 1:
        p = _interval_mass(*_std_limits(a[0], b[0], 0.0, L[0, 0]))
        # a zero-width interval above the mean gives -0.0 (a difference of
        # upper tails); report it as 0.0
        return MvnResult(p if p > 0.0 else 0.0, 0.0, False)
    p, coarse = _gl_prob(L, a, b)
    err = abs(p - coarse) + MVN_ROUNDING * p
    return MvnResult(min(p, 1.0), err, err > MVN_ACCURACY)


# ---------------------------------------------------------------------------
# Randomized QMC route: dimension > MVN_DET_DIM
# ---------------------------------------------------------------------------


def _lattice_points(d: int, rng) -> np.ndarray:
    """(MVN_QMC_POINTS, d) points of the rank-1 lattice shifted by a uniform
    draw from rng, through the baker's transform x -> |2x - 1|.  i z mod n
    is formed in integers, so the unshifted points are exact."""
    n = MVN_QMC_POINTS
    base = (np.arange(n)[:, None] * np.array(MVN_LATTICE_Z[:d]) % n) / n
    x = base + rng.random(d)
    return np.abs(2.0 * (x - np.floor(x)) - 1.0)


def _sov_integrate(L, a, b, w):
    """Separation-of-variables integrand on a block of QMC points.

    w has shape (n, d-1); returns length-n probabilities.  Where _cdf_pair
    takes an interval as upper tails the draw inverts Psi instead of Phi.
    Either way the draw's argument is a probability in (0, 1) that ndtri
    resolves down to _TINY; the upper clip guards the coarse spacing of
    doubles just below 1.
    """
    d = L.shape[0]
    ys = np.zeros((w.shape[0], d))
    prob = 1.0
    for i in range(d):
        mu = ys[:, :i] @ L[i, :i] if i else 0.0
        first, second, sign = _cdf_pair(*_std_limits(a[i], b[i], mu, L[i, i]))
        prob = prob * np.maximum(sign * (second - first), 0.0)
        if i + 1 < d:
            z = np.clip(first + w[:, i] * (second - first), _TINY, 1.0 - _CDF_CLIP)
            ys[:, i] = sign * ndtri(z)
    return prob


def mvn_prob(problems: list[MvnProblem], seed: int = 0) -> list[MvnResult]:
    """P(lower <= Z <= upper) for Z ~ N(0, cov), one result per problem; the
    problems share one dimension, and no result depends on the others.

    Up to MVN_DET_DIM the result is deterministic and ignores the seed
    (_det_result): the leading coordinates of the reordered Cholesky factor
    by tensor Gauss-Legendre, the last two in closed form, and err_est the
    gap between two orders plus a rounding allowance.  Above it,
    separation of variables on the same factor (Genz & Bretz 2009,
    Computation of Multivariate Normal and t Probabilities, LNS 195, 4.2),
    averaged over MVN_QMC_RANDOMIZATIONS random shifts of one rank-1 lattice
    of MVN_QMC_POINTS points under the baker's transform (_lattice_points),
    drawn once from the seed and shared by the problems; err_est is three
    standard errors of that mean plus the same rounding allowance.  The
    warning flag is set when err_est exceeds MVN_ACCURACY.
    """
    d = problems[0].dim if problems else 0
    if any(pb.dim != d for pb in problems):
        raise ValueError("problems must share one dimension")
    if d <= MVN_DET_DIM:
        return [_det_result(pb) for pb in problems]
    todo = [_ordered_cholesky(pb.cov, pb.lower, pb.upper) for pb in problems]
    ss = np.random.SeedSequence(int(seed))
    estimates = np.empty((len(todo), MVN_QMC_RANDOMIZATIONS))
    for r, child in enumerate(ss.spawn(MVN_QMC_RANDOMIZATIONS)):
        w = _lattice_points(d - 1, np.random.default_rng(child))
        for j, (L, a, b) in enumerate(todo):
            estimates[j, r] = float(np.mean(_sov_integrate(L, a, b, w)))
    out = []
    for est in estimates:
        p = min(max(float(np.mean(est)), 0.0), 1.0)
        stderr = float(np.std(est, ddof=1) / math.sqrt(MVN_QMC_RANDOMIZATIONS))
        err = 3.0 * stderr + MVN_ROUNDING * p
        out.append(MvnResult(p, err, err > MVN_ACCURACY))
    return out
