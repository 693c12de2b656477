"""Gaussian utilities: Hermite polynomials, tails, MVN boxes.

Conventions used throughout the package:

* ``hermite`` evaluates the probabilists' Hermite polynomial He_k
  (monic, orthogonal w.r.t. exp(-x^2/2)).
* ``gauss_tail`` is Psi(u) = P(Z >= u) for a standard normal Z.
* ``mvn_prob`` computes P(a <= Z <= b) for each of a sequence of centred
  Gaussian rectangle problems of one dimension, via separation of variables
  on a reordered Cholesky factor integrated with randomized quasi-Monte
  Carlo points that the problems share.  ``_cdf_pair`` takes an interval
  whose lower limit is above the median as Psi(lo) - Psi(hi), and
  ``_std_limits`` makes a zero-variance coordinate a point mass of mass
  exactly 1 or 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, ndtri
from scipy.stats import qmc

from . import quad
from .errors import CapabilityError, DegeneracyError
from .geometry import OutwardCone

__all__ = [
    "DegeneracyError",
    "MvnProblem",
    "MvnResult",
    "hermite",
    "gauss_tail",
    "std_normal_pdf",
    "hermite_tail_identity_check",
    "mvn_prob",
]

MAX_HERMITE_DEGREE = 30
MAX_MVN_DIM = 12

# Randomized QMC configuration for mvn_prob: points per randomization and
# number of independent randomizations used for the error estimate.
MVN_QMC_POINTS = 2 ** 13
MVN_QMC_RANDOMIZATIONS = 12
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


def hermite_tail_identity_check(k: int, u: float) -> float:
    """Residual of int_u^inf He_k(x) e^{-x^2/2} dx = He_{k-1}(u) e^{-u^2/2}.

    The left side is integrated numerically with the package's own
    quadrature over the level axis of an empty cone; returns
    |numeric - closed form|.
    """
    if k < 1:
        raise ValueError("identity requires k >= 1")

    def g(x):
        return hermite(k, x) * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)

    res = quad.integrate_cone(
        OutwardCone(()), float(u), lambda p: g(p[:, 0]), quad.QuadSpec()
    )
    rhs = hermite(k - 1, u) * math.exp(-0.5 * u * u)
    return abs(res.value - rhs)


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
    conditional probability mass, which stabilises the subsequent QMC
    integration.  Zero pivots (PSD-singular directions) produce zero
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
    """P(lower <= Z <= upper) for Z ~ N(0, cov) by randomized QMC, one result
    per problem; the problems share one dimension.

    Separation of variables on the reordered Cholesky factor; the outer
    average runs MVN_QMC_RANDOMIZATIONS independently scrambled Sobol
    streams of MVN_QMC_POINTS points each.  Each stream's points are drawn
    once and integrated for every problem, so a result does not depend on
    the other problems of the call.  err_est is three standard errors of
    the randomization mean; the warning flag is set when it exceeds
    MVN_ACCURACY.  Deterministic for a fixed seed.
    """
    d = problems[0].dim if problems else 0
    if any(pb.dim != d for pb in problems):
        raise ValueError("problems must share one dimension")
    out: list[MvnResult | None] = [None] * len(problems)
    todo = []
    for i, pb in enumerate(problems):
        L, a, b = _ordered_cholesky(pb.cov, pb.lower, pb.upper)
        if d > 1:
            todo.append((i, L, a, b))
            continue
        p = _interval_mass(*_std_limits(a[0], b[0], 0.0, L[0, 0]))
        # a zero-width interval above the mean gives -0.0 (a difference of
        # upper tails); report it as 0.0
        out[i] = MvnResult(p if p > 0.0 else 0.0, 0.0, False)
    if todo:
        ss = np.random.SeedSequence(int(seed))
        estimates = np.empty((len(todo), MVN_QMC_RANDOMIZATIONS))
        for r, child in enumerate(ss.spawn(MVN_QMC_RANDOMIZATIONS)):
            sob = qmc.Sobol(d=d - 1, scramble=True, seed=np.random.default_rng(child))
            w = sob.random(MVN_QMC_POINTS)
            for j, (_, L, a, b) in enumerate(todo):
                estimates[j, r] = float(np.mean(_sov_integrate(L, a, b, w)))
        for (i, *_), est in zip(todo, estimates):
            p = float(np.mean(est))
            stderr = float(np.std(est, ddof=1) / math.sqrt(MVN_QMC_RANDOMIZATIONS))
            err = 3.0 * stderr
            out[i] = MvnResult(min(max(p, 0.0), 1.0), err, err > MVN_ACCURACY)
    return out
