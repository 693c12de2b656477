"""Gaussian field models with stationary increments.

A model is specified by a variogram g (the variance of an increment,
nu(t) = E(X(t+h) - X(h))^2 evaluated at lag t) plus an independent additive
offset variance sigma0^2.  All second-order structure follows:

    nu(t)     = sigma0^2 + g(t)            (variance of X(t), X(0) pinned)
    C(t, s)   = sigma0^2 + (g(t) + g(s) - g(t - s)) / 2
    Lambda    = (1/2) Hess g(0)            (gradient covariance, constant)
    Lambda(t) = (1/2) Hess g(t)
    c(t)      = (1/2) grad nu(t)           (Cov(X(t), grad X(t)))

Model methods are vectorised over leading axes: points have shape
(..., N), and a point of another dimension is a DomainError.  The concrete
models are finite spectral sums (exactly simulable) and a Gaussian-bump
variogram family; ``field_from_dict`` builds either from its JSON form.

Each model also gives a face kernel (``FieldModel.face_kernel``): for the
free axes J of a face, it maps points to g, (1/2) grad g and
|Lambda_J - Lambda_J(t)| from one evaluation of the field per point.  What
a face derives from these (theta_t^2, gamma_t^2, the outward-cone
covariance) and its degeneracy policies are in mec.FaceContext.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import CapabilityError, ConfigError, DomainError, config_number, is_integer, is_real
from .geometry import MAX_ENUM_DIM, Face, RectDomain, face_of_point

__all__ = [
    "FieldModel",
    "SpectralSumField",
    "CosineField",
    "GaussianIncrementField",
    "H2Report",
    "check_h2",
    "MaxVarianceResult",
    "max_variance",
    "DerivativeReport",
    "derivative_consistency",
    "field_from_dict",
]

# most points per evaluation in check_h2's scan and in each face integrand of
# mec._face_term, so their memory does not grow with the scan grid or the
# quadrature box
POINT_BLOCK = 2**15


# a face kernel: (m, N) points -> (g, (1/2) grad g, |Lambda_J - Lambda_J(t)|)
FaceKernel = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


class FieldModel:
    """Base class: derives all second-order quantities from the variogram.

    Subclasses implement _g, _g_grad, _g_hess and _g_third, vectorised
    over (..., N), and face_kernel.
    """

    dim: int
    offset_var: float

    # -- subclass hooks ----------------------------------------------------
    def _g(self, h: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _g_grad(self, h: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _g_hess(self, h: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _g_third(self, h: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def face_kernel(self, sig) -> FaceKernel:
        """The kernel of the face with free axes ``sig``.

        Its work that depends only on the face is done here, once.  The
        kernel maps (m, N) points t to (g(t), (1/2) grad g(t),
        det(Lambda_J - Lambda_J(t))) with J = sig, from one evaluation of
        the field per point; the first two are bit-equal to _g and
        (1/2) _g_grad, and the determinant is nonnegative (1 for empty J).
        """
        raise NotImplementedError

    # -- derived structure -------------------------------------------------
    def _points(self, t) -> np.ndarray:
        """t as a float array of points; DomainError unless its last axis
        has the model's dimension."""
        t = np.asarray(t, dtype=float)
        if t.shape[-1:] != (self.dim,):
            raise DomainError(
                f"points of shape {t.shape} do not match the model dimension {self.dim}"
            )
        return t

    def variance(self, t) -> np.ndarray:
        return self.offset_var + self._g(self._points(t))

    def grad_variance(self, t) -> np.ndarray:
        return self._g_grad(self._points(t))

    def hess_variance(self, t) -> np.ndarray:
        return self._g_hess(self._points(t))

    def third_variance(self, t) -> np.ndarray:
        """Third derivative tensor of nu, shape (..., N, N, N)."""
        return self._g_third(self._points(t))

    @property
    def lambda_mat(self) -> np.ndarray:
        """Gradient covariance Lambda = (1/2) Hess g(0)."""
        return 0.5 * self._g_hess(np.zeros(self.dim))

    def lambda_at(self, t) -> np.ndarray:
        """Lambda(t) = (1/2) Hess g(t) = Cov(grad X(t+s), grad X(s))."""
        return 0.5 * self._g_hess(self._points(t))

    def lambda_bound(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per box [lo, hi] (rows of (m, N) arrays), a symmetric B of shape
        (m, N, N) with v^T Lambda(t) v <= v^T B v for all v and every t in
        the box.

        Lambda - Lambda(t) = (1/2) Var(grad X(t+s) - grad X(s)) is positive
        semidefinite, so Lambda serves for every model; a model may tighten
        it from what it knows of Lambda(t) on the box.
        """
        return np.broadcast_to(self.lambda_mat, (len(lo), self.dim, self.dim))


def _psd_det(entries: dict, k: int, shape) -> np.ndarray:
    """Determinants of symmetric positive semidefinite k x k matrices,
    given as their upper-triangle entries {(i, j): values over points},
    which it overwrites.

    Gaussian elimination without pivoting, which is stable on such
    matrices; the determinant is the product of the pivots.  A pivot that
    is not positive marks a singular matrix up to rounding, and its
    determinant is 0.  Each step is one vector operation over all points.
    """
    det = np.ones(shape)
    singular = np.zeros(shape, dtype=bool)
    for i in range(k):
        piv = entries[i, i]
        singular |= piv <= 0.0
        det *= piv
        inv = 1.0 / np.where(piv > 0.0, piv, 1.0)
        for j in range(i + 1, k):
            r = entries[i, j] * inv
            for l in range(j, k):
                entries[j, l] -= r * entries[i, l]
    return np.where(singular, 0.0, det)


def _check_offset_var(value) -> None:
    if not (is_real(value) and np.isfinite(value) and value >= 0):
        raise ConfigError(f"offset variance must be a nonnegative real, got {value!r}")


@dataclass(frozen=True, eq=False)
class SpectralSumField(FieldModel):
    """Finite spectral sum: g(h) = 2 sum_m w_m (1 - cos<h, freq_m>).

    freqs has shape (M, N), weights shape (M,) with positive entries.
    Realizations are exact finite combinations of cosines and sines, so
    the model supports exact simulation.
    """

    freqs: np.ndarray
    weights: np.ndarray
    offset_var: float = 1.0

    def __post_init__(self):
        for name in ("freqs", "weights"):
            value = getattr(self, name)
            if not all(map(is_real, np.asarray(value, dtype=object).flat)):
                raise ConfigError(f"{name} must be real numbers, got {value!r}")
        fr = np.atleast_2d(np.asarray(self.freqs, dtype=float))
        wt = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if fr.ndim != 2 or fr.shape[0] != wt.shape[0] or fr.shape[0] == 0:
            raise ConfigError(
                f"need matching atoms: freqs {fr.shape}, weights {wt.shape}"
            )
        if not np.all(np.isfinite(fr)) or not np.all(np.isfinite(wt)):
            raise ConfigError("frequencies and weights must be finite")
        if np.any(wt <= 0):
            raise ConfigError("atom weights must be positive")
        _check_offset_var(self.offset_var)
        object.__setattr__(self, "freqs", fr)
        object.__setattr__(self, "weights", wt)
        object.__setattr__(self, "offset_var", float(self.offset_var))

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.freqs.shape[0]

    def _phases(self, h: np.ndarray) -> np.ndarray:
        return h @ self.freqs.T  # (..., M)

    def _g(self, h):
        ph = self._phases(h)
        return 2.0 * ((1.0 - np.cos(ph)) @ self.weights)

    def _g_grad(self, h):
        ph = self._phases(h)
        return 2.0 * ((self.weights * np.sin(ph)) @ self.freqs)

    def _g_hess(self, h):
        ph = self._phases(h)
        wc = self.weights * np.cos(ph)
        return 2.0 * np.einsum("...m,mi,mj->...ij", wc, self.freqs, self.freqs)

    def _g_third(self, h):
        ph = self._phases(h)
        ws = self.weights * np.sin(ph)
        return -2.0 * np.einsum(
            "...m,mi,mj,ml->...ijl", ws, self.freqs, self.freqs, self.freqs
        )

    def face_kernel(self, sig) -> FaceKernel:
        """Face kernel by elimination on F_J^T diag(a) F_J.

        With a_m(t) = w_m (1 - cos<t, f_m>), Lambda_J - Lambda_J(t) =
        F_J^T diag(a) F_J.  Column (i, j) of ``pairs`` holds w_m f_mi f_mj,
        so the upper triangle of that k x k matrix is (1 - cos) @ pairs,
        from the 1 - cos that g already needs; _psd_det takes its
        determinant.  Per point the kernel takes one cos and one sin of the
        phases.
        """
        sig = list(sig)
        k = len(sig)
        upper = [(i, j) for i in range(k) for j in range(i, k)]
        pairs = (
            self.weights[:, None]
            * self.freqs[:, [sig[i] for i, _ in upper]]
            * self.freqs[:, [sig[j] for _, j in upper]]
        )

        def kernel(t):
            ph = self._phases(self._points(t))
            one_m_cos = 1.0 - np.cos(ph)
            g = 2.0 * (one_m_cos @ self.weights)
            # (1/2) _g_grad: halving 2x is exact
            c = (self.weights * np.sin(ph)) @ self.freqs
            entries = dict(zip(upper, pairs.T @ one_m_cos.T))
            return g, c, _psd_det(entries, k, g.shape)

        return kernel

    def _phase_range(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Per box [lo, hi] (rows of (m, N) arrays), the ends a, b (m, M) of
        the range of each phase <t, f_m> over the box: <c, f_m> +- sum_i
        |f_mi| h_i for centre c and half-widths h, widened by 1e-12 of its
        scale against rounding."""
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        mid = c @ self.freqs.T
        rad = h @ np.abs(self.freqs).T
        rad += 1e-12 * (np.abs(c) @ np.abs(self.freqs).T + rad)
        return mid - rad, mid + rad

    def lambda_bound(self, lo, hi):
        """Lambda(t) = sum_m w_m cos<t, f_m> f_m f_m^T, so B takes each
        cosine at its max over the box, or 0 if that is negative: 1 where
        the phase range (_phase_range) holds a multiple of 2 pi, the larger
        end value otherwise."""
        a, b = self._phase_range(lo, hi)
        top = np.maximum(np.cos(a), np.cos(b)).clip(0.0)
        top[np.floor(b / (2 * math.pi)) >= a / (2 * math.pi)] = 1.0
        return np.einsum("bm,mi,mj->bij", self.weights * top, self.freqs, self.freqs)

    def sup_bound(self, coefs, lo, hi) -> np.ndarray:
        """Per coefficient row [c0, A_1, B_1, A_2, B_2, ...], an upper
        bound on the supremum over the box [lo, hi] of the realization

            X(t) = c0 + sum_m [A_m (cos<t, f_m> - 1) + B_m sin<t, f_m>].

        A cos + B sin = R cos(theta - phi) with R = hypot(A, B) and
        phi = atan2(B, A), so each atom takes its max over its phase range
        [a, b] (_phase_range) on its own: R where [a, b] holds phi + 2 pi k
        for an integer k, the larger end value otherwise.  The sum of those
        maxima is the supremum itself when each atom's frequency lies along an
        axis of its own, as on CosineField; rounding is left to the caller's
        slack.
        """
        a, b = self._phase_range(np.atleast_2d(lo), np.atleast_2d(hi))
        amp, bmp = coefs[:, 1::2], coefs[:, 2::2]
        phi = np.arctan2(bmp, amp)
        ends = np.maximum(amp * np.cos(a) + bmp * np.sin(a), amp * np.cos(b) + bmp * np.sin(b))
        peak = np.floor((b - phi) / (2 * math.pi)) >= (a - phi) / (2 * math.pi)
        top = np.where(peak, np.hypot(amp, bmp), ends)
        return coefs[:, 0] + (top - amp).sum(axis=1)


class CosineField(SpectralSumField):
    """Fixed two-atom cosine field on R^2.

    Atoms e_1 and e_2 with weight 1/2 each and unit offset variance:
    nu(t) = 3 - cos t_1 - cos t_2, Lambda = I/2.
    """

    def __init__(self):
        super().__init__(
            freqs=np.eye(2), weights=np.array([0.5, 0.5]), offset_var=1.0
        )


@dataclass(frozen=True)
class GaussianIncrementField(FieldModel):
    """Gaussian-bump variogram g(h) = 2 (1 - exp(-||h/scale||^2))."""

    dim: int
    scale: float = 1.0
    offset_var: float = 0.0

    def __post_init__(self):
        if not (is_integer(self.dim) and self.dim >= 1):
            raise ConfigError(f"dimension must be a positive integer, got {self.dim!r}")
        if not (is_real(self.scale) and np.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(f"scale must be a positive real, got {self.scale!r}")
        _check_offset_var(self.offset_var)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "offset_var", float(self.offset_var))

    def _r2(self, h):
        return np.sum((h / self.scale) ** 2, axis=-1)

    def _g(self, h):
        return 2.0 * (1.0 - np.exp(-self._r2(h)))

    def _g_grad(self, h):
        e = np.exp(-self._r2(h))
        return (4.0 / self.scale**2) * e[..., None] * h

    def _g_hess(self, h):
        l2 = self.scale**2
        e = np.exp(-self._r2(h))
        eye = np.eye(self.dim)
        outer = np.einsum("...i,...j->...ij", h, h)
        return (4.0 / l2) * e[..., None, None] * (eye - 2.0 * outer / l2)

    def _g_third(self, h):
        l2 = self.scale**2
        e = np.exp(-self._r2(h))
        eye = np.eye(self.dim)
        sym = (
            np.einsum("...l,ij->...ijl", h, eye)
            + np.einsum("...i,jl->...ijl", h, eye)
            + np.einsum("...j,il->...ijl", h, eye)
        )
        triple = np.einsum("...i,...j,...l->...ijl", h, h, h)
        return (-8.0 / l2**2) * e[..., None, None, None] * (sym - 2.0 * triple / l2)

    def lambda_bound(self, lo, hi):
        """Lambda(h) = (2/l^2) e (I - 2 h h^T / l^2) <= (2/l^2) e I with
        e = exp(-|h/l|^2), which is largest at the box point nearest 0."""
        e = np.exp(-self._r2(np.clip(0.0, lo, hi)))
        return (2.0 / self.scale**2) * e[:, None, None] * np.eye(self.dim)

    def face_kernel(self, sig) -> FaceKernel:
        """Face kernel by the matrix determinant lemma.

        With e = exp(-|h/l|^2), Lambda - Lambda(h) = (2/l^2)[(1 - e) I +
        2e h h^T / l^2], so its J-block, a scaled identity plus a rank-one
        term, has determinant
        (2/l^2)^k (1 - e)^(k-1) [(1 - e) + 2e |h_J|^2 / l^2].
        """
        sig = list(sig)
        k = len(sig)
        l2 = self.scale**2

        def kernel(t):
            h = self._points(t)
            r2 = self._r2(h)
            e = np.exp(-r2)
            g = 2.0 * (1.0 - e)
            c = 0.5 * ((4.0 / l2) * e[..., None] * h)
            if k == 0:
                return g, c, np.ones_like(r2)
            one_m_e = -np.expm1(-r2)
            h_J_sq = np.sum(h[..., sig] ** 2, axis=-1) / l2
            det = (2.0 / l2) ** k * one_m_e ** (k - 1) * (one_m_e + 2.0 * e * h_J_sq)
            return g, c, det

        return kernel


# ---------------------------------------------------------------------------
# H2 scan
# ---------------------------------------------------------------------------

# interior grid points per axis of check_h2, and the eigenvalue it flags below
H2_GRID = 33
H2_TOL = 1e-10


@dataclass(frozen=True)
class H2Report:
    flagged: bool
    min_eig: float
    argmin: np.ndarray
    tol: float


def _grid_blocks(axes: list[np.ndarray]):
    """The row-major product of ``axes`` as (indices, points) blocks of at
    most POINT_BLOCK points.  Each block's points are taken from the axes by
    their multi-indices, which are the values of the full meshgrid."""
    shape = tuple(len(a) for a in axes)
    size = math.prod(shape)
    for lo in range(0, size, POINT_BLOCK):
        idx = np.arange(lo, min(lo + POINT_BLOCK, size))
        yield idx, np.stack([ax[i] for ax, i in zip(axes, np.unravel_index(idx, shape))], axis=-1)


def _interior_axes(domain: RectDomain, per_axis: int) -> list[np.ndarray]:
    """Axes of a uniform interior grid, capped so the total point count
    stays sane."""
    n = domain.dim
    per_axis = max(2, min(per_axis, int(round(2e5 ** (1.0 / n)))))
    return [
        domain.lower[i]
        + (domain.upper[i] - domain.lower[i])
        * (np.arange(1, per_axis + 1) / (per_axis + 1))
        for i in range(n)
    ]


def check_h2(model: FieldModel, domain: RectDomain) -> H2Report:
    """Scan min eig(Lambda - Lambda(t)) over a uniform interior grid.

    Report-only: flags when the scanned minimum drops below H2_TOL.  The
    grid has H2_GRID points per axis (fewer in high dimension); singular
    crossings between grid points go unseen.  It is evaluated POINT_BLOCK
    points at a time, and only a strictly smaller eigenvalue replaces the
    running minimum, so exact ties go to the lowest row-major grid index.
    """
    lam = model.lambda_mat
    best_e, best_t = math.inf, None
    for _, pts in _grid_blocks(_interior_axes(domain, H2_GRID)):
        eigs = np.linalg.eigvalsh(lam - model.lambda_at(pts))[..., 0]
        i0 = int(np.argmin(eigs))
        if eigs[i0] < best_e:
            best_e, best_t = float(eigs[i0]), pts[i0].copy()
    return H2Report(flagged=best_e < H2_TOL, min_eig=best_e, argmin=best_t, tol=H2_TOL)


# ---------------------------------------------------------------------------
# Variance maximisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaxVarianceResult:
    """Global maximum of nu over the closed rectangle.

    sigma_sq is certified: no point of the rectangle exceeds it by more
    than MAX_VAR_EPS * sigma_sq, up to rounding.  face_maxima holds the
    distinct polished maxima within NEAR_TOL of sigma_sq, best first, as
    (nu, point, face) with face the host face of the point
    (face_of_point, tol 1e-7); they are the points that the polishes of
    every box of a cover of that set reach.  candidates lists those within
    TIE_TOL of the max; more than one entry means the maximizer is
    ambiguous, and then both lists stop at MAX_VAR_PEAKS points.
    """

    sigma_sq: float
    point: np.ndarray
    face: Face
    candidates: tuple[tuple[float, tuple[float, ...]], ...]
    face_maxima: tuple[tuple[float, np.ndarray, Face], ...]

    @property
    def tied(self) -> bool:
        return len(self.candidates) > 1


# max_variance: the relative gap above the best value within which the
# search certifies sigma_T^2, the gap under it of the near-maximal set, the
# relative rounding slack of a box bound, the most boxes the search holds,
# and the most distinct near-maximal points
MAX_VAR_EPS = 1e-10
NEAR_TOL = 1e-6
BOUND_SLACK = 16 * np.finfo(float).eps
MAX_VAR_BOXES = 2**15
MAX_VAR_PEAKS = 16
# the projected-gradient size and the Newton step (per unit of coordinate
# scale) that end a polish, and the gap under the max within which points tie
GRAD_TOL = 1e-10
STEP_TOL = 1e-12
TIE_TOL = 1e-8


def _coord_scale(domain: RectDomain) -> float:
    """The largest coordinate magnitude of the rectangle, at least 1."""
    return max(1.0, float(np.max(np.abs(domain.lower_arr))), float(np.max(np.abs(domain.upper_arr))))


def _polish(model: FieldModel, domain: RectDomain, x0: np.ndarray) -> np.ndarray:
    """Projected ascent of nu on the closed rectangle from each row of x0.

    A coordinate at a side whose derivative does not point inside is held
    there.  Each step is Newton's on the free coordinates where nu's
    Hessian there is negative definite, else Newton's along the projected
    gradient where nu is concave on that line, else the projected
    gradient scaled to length 1, with a halving line search.  A full
    Newton step is taken unless nu falls, since near the max its gain
    drops below one ulp of nu before the gradient drops below GRAD_TOL;
    any other step must gain.  A row stops when its free gradient is
    below GRAD_TOL and its Newton step, if any, below STEP_TOL times the
    coordinate scale, or when no step is taken.
    """
    lo, hi = domain.lower_arr, domain.upper_arr
    step_tol = STEP_TOL * _coord_scale(domain)
    x = np.clip(x0, lo, hi)
    fval = model.variance(x)
    live = np.arange(len(x))
    for _ in range(200):
        g = model.grad_variance(x[live])
        free = ~(((x[live] <= lo) & (g <= 0)) | ((x[live] >= hi) & (g >= 0)))
        pg = np.where(free, g, 0.0)
        step = pg / np.maximum(np.linalg.norm(pg, axis=1), np.finfo(float).tiny)[:, None]
        # a held coordinate gets a row and column of -I, so Newton leaves it
        h = np.where(free[:, :, None] & free[:, None, :], model.hess_variance(x[live]), -np.eye(domain.dim))
        newton = np.linalg.eigvalsh(h)[:, -1] < -1e-12
        step[newton] = np.linalg.solve(h[newton], -pg[newton][..., None])[..., 0]
        curv = np.einsum("bi,bij,bj->b", pg, h, pg)
        line = ~newton & (curv < 0.0)
        step[line] = pg[line] * (-np.sum(pg[line] ** 2, axis=1) / curv[line])[:, None]
        newton |= line
        go = (np.max(np.abs(pg), axis=1) >= GRAD_TOL) | (newton & (np.max(np.abs(step), axis=1) >= step_tol))
        live, step, newton = live[go], step[go], newton[go]
        if not len(live):
            break
        moved = np.zeros(len(live), dtype=bool)
        for alpha in 0.5 ** np.arange(40):
            rest = np.flatnonzero(~moved)
            if not len(rest):
                break
            xn = np.clip(x[live[rest]] + alpha * step[rest], lo, hi)
            fn = model.variance(xn)
            up = fn > fval[live[rest]] + 1e-18
            if alpha == 1.0:
                up |= newton[rest] & (fn >= fval[live[rest]])
            x[live[rest[up]]], fval[live[rest[up]]] = xn[up], fn[up]
            moved[rest[up]] = True
        live = live[moved]
    return x


def _box_bounds(model: FieldModel, lo: np.ndarray, hi: np.ndarray):
    """The best probe of boxes (lo, hi) and its nu, and per box the terms
    of its bound on nu and the bound.

    Hess nu(t) = 2 Lambda(t), and v^T Lambda(t) v <= v^T B v <= |v|^T |B|
    |v| on a box with B = model.lambda_bound (|B| entrywise), so with
    centre c and half-widths h, nu <= nu(c) + sum_i (|d_i nu(c)| +
    (|B| h)_i) h_i; BOUND_SLACK |nu(c)| more keeps rounding from dropping
    the box of the max.  Probes: the centre, and the corner the gradient
    there points to.
    """
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nu_c, g = model.variance(c), model.grad_variance(c)
    corner = np.where(g > 0, hi, np.where(g < 0, lo, c))
    nu_k = model.variance(corner)
    i, j = int(np.argmax(nu_c)), int(np.argmax(nu_k))
    best = (corner[j], float(nu_k[j])) if nu_k[j] > nu_c[i] else (c[i], float(nu_c[i]))
    terms = (np.abs(g) + np.einsum("bij,bj->bi", np.abs(model.lambda_bound(lo, hi)), h)) * h
    return *best, terms, nu_c + terms.sum(axis=1) + BOUND_SLACK * np.abs(nu_c)


def _near_max_boxes(model: FieldModel, domain: RectDomain):
    """Branch and bound for sup nu over the rectangle (_box_bounds).

    Breadth-first, in a fixed order, a box bounded below the best probe
    minus NEAR_TOL is dropped, one bounded within MAX_VAR_EPS |best| above
    it is kept, and any other is bisected along the axis of its largest
    bound term; CapabilityError past MAX_VAR_BOXES boxes held.  Returns
    the best probe and the (lo, hi) of the kept boxes, which cover every
    point within NEAR_TOL of sup nu.
    """
    lo, hi = domain.lower_arr[None, :], domain.upper_arr[None, :]
    best, best_t = -math.inf, None
    kept, n_kept = [], 0
    while len(lo):
        t, v, terms, bound = _box_bounds(model, lo, hi)
        if v > best:
            best, best_t = v, t
        near = bound >= best - NEAR_TOL
        split = near & (bound > best + MAX_VAR_EPS * abs(best))
        done = near & ~split
        kept.append((lo[done], hi[done], bound[done]))
        n_kept += int(done.sum())
        if n_kept + 2 * int(split.sum()) > MAX_VAR_BOXES:
            raise CapabilityError(
                f"nu stays within {NEAR_TOL:g} of its max on more than {MAX_VAR_BOXES} boxes"
            )
        lo, hi, mid = lo[split], hi[split], 0.5 * (lo[split] + hi[split])
        cut = np.argmax(terms[split], axis=1)[:, None] == np.arange(domain.dim)
        lo, hi = np.concatenate([lo, np.where(cut, mid, lo)]), np.concatenate([np.where(cut, mid, hi), hi])
    lo, hi, bound = (np.concatenate(a) for a in zip(*kept))
    keep = bound >= best - NEAR_TOL
    return best_t, lo[keep], hi[keep]


def max_variance(model: FieldModel, domain: RectDomain) -> MaxVarianceResult:
    """Maximise nu over the closed rectangle by branch and bound.

    _near_max_boxes certifies sup nu to MAX_VAR_EPS and covers the points
    within NEAR_TOL of it by boxes.  _polish runs from the best probe and
    from the centre and the lower and upper corners of every kept box, so
    every kept box is claimed by the maxima its polishes reach, and a
    ridge across a box polishes to distinct points, a tie.  Polished
    points within 1e-6 (times the coordinate scale) of a better one are
    that one.  CapabilityError for N > MAX_ENUM_DIM, as for face
    enumeration, and past MAX_VAR_PEAKS distinct near-maximal points
    unless the best two tie.
    """
    if domain.dim > MAX_ENUM_DIM:
        raise CapabilityError(f"max_variance is capped at N={MAX_ENUM_DIM} (got N={domain.dim})")
    best_t, lo, hi = _near_max_boxes(model, domain)
    pts = _polish(model, domain, np.vstack([best_t, 0.5 * (lo + hi), lo, hi]))
    vals = model.variance(pts)
    left = np.argsort(-vals, kind="stable")
    left = left[vals[left] >= vals[left[0]] - NEAR_TOL]
    peaks = []
    while len(left):
        t = pts[left[0]]
        if len(peaks) == MAX_VAR_PEAKS:
            if peaks[1][0] >= peaks[0][0] - TIE_TOL:
                break
            raise CapabilityError(f"more than {MAX_VAR_PEAKS} maxima of nu within {NEAR_TOL:g} of its max")
        peaks.append((float(model.variance(t)), t))
        peaks.sort(key=lambda p: -p[0])
        left = left[np.linalg.norm(pts[left] - t, axis=1) > 1e-6 * _coord_scale(domain)]
    face_maxima = tuple(
        (v, t, face_of_point(domain, t, tol=1e-7)) for v, t in peaks if v >= peaks[0][0] - NEAR_TOL
    )
    best_val = face_maxima[0][0]
    return MaxVarianceResult(
        sigma_sq=best_val,
        point=face_maxima[0][1],
        face=face_maxima[0][2],
        candidates=tuple((v, tuple(t)) for v, t, _ in face_maxima if v >= best_val - TIE_TOL),
        face_maxima=face_maxima,
    )


# ---------------------------------------------------------------------------
# Derivative consistency
# ---------------------------------------------------------------------------

# derivative_consistency: sample points, their seed, the step per unit of
# side length, and the error the report passes within
DERIV_POINTS = 100
DERIV_SEED = 0
DERIV_STEP = 1e-5
DERIV_RTOL = 1e-5


@dataclass(frozen=True)
class DerivativeReport:
    max_grad_err: float
    max_hess_err: float
    max_third_err: float
    max_kernel_err: float
    rtol: float

    @property
    def passed(self) -> bool:
        return all(
            err <= self.rtol
            for err in (
                self.max_grad_err,
                self.max_hess_err,
                self.max_third_err,
                self.max_kernel_err,
            )
        )


def _kernel_err(model: FieldModel, pts: np.ndarray, lam_scale: float) -> float:
    """Largest error of the face kernels of every axis subset J at pts
    against variance, grad_variance / 2 and det(Lambda_J - Lambda_J(t))
    from lambda_at, relative to max |nu|, the gradient scale and
    lam_scale^|J|."""
    nu = model.variance(pts)
    c = 0.5 * model.grad_variance(pts)
    diff = model.lambda_mat - model.lambda_at(pts)
    scale_c = max(float(np.max(np.abs(c))), math.sqrt(lam_scale))
    scale_nu = max(float(np.max(np.abs(nu))), 1e-12)
    err = 0.0
    for k in range(model.dim + 1):
        for sig in itertools.combinations(range(model.dim), k):
            sig = list(sig)
            g_k, c_k, det_k = model.face_kernel(sig)(pts)
            ref = np.linalg.det(diff[:, sig][:, :, sig])
            err = max(
                err,
                float(np.max(np.abs(model.offset_var + g_k - nu))) / scale_nu,
                float(np.max(np.abs(c_k - c))) / scale_c,
                float(np.max(np.abs(det_k - ref))) / lam_scale**k,
            )
    return err


def derivative_consistency(model: FieldModel, domain: RectDomain) -> DerivativeReport:
    """Central finite differences of nu, grad_variance and hess_variance
    versus grad_variance, hess_variance and third_variance, and the face
    kernels versus the variance, its gradient and lambda_at.

    DERIV_POINTS points drawn with DERIV_SEED inside the rectangle, steps
    DERIV_STEP times each side.  Errors are relative to a curvature scale
    so the check is meaningful for flat and strongly varying models alike;
    the report passes when all four stay within DERIV_RTOL.  The kernel of
    every subset J of the axes is compared at the same points (_kernel_err).
    """
    rng = np.random.default_rng(DERIV_SEED)
    lo, hi = domain.lower_arr, domain.upper_arr
    span = hi - lo
    pts = lo + (0.05 + 0.9 * rng.random((DERIV_POINTS, domain.dim))) * span
    h = DERIV_STEP * span
    lam_scale = max(np.max(np.abs(model.lambda_mat)), 1e-12)
    # the points t +- h_i e_i, shape (P, N, N) with the step axis i second;
    # higher derivatives from differences of the next lower analytic one
    # keep each error O(h^2)
    plus, minus = pts[:, None, :] + np.diag(h), pts[:, None, :] - np.diag(h)
    g = model.grad_variance(pts)
    scale_g = np.maximum(np.max(np.abs(g), axis=1), math.sqrt(lam_scale))[:, None]
    fd = (model.variance(plus) - model.variance(minus)) / (2 * h)
    max_g = float(np.max(np.abs(fd - g) / scale_g))
    fd_rows = (model.grad_variance(plus) - model.grad_variance(minus)) / (2 * h[:, None])
    max_h = float(np.max(np.abs(fd_rows - model.hess_variance(pts)))) / lam_scale
    fd_slabs = (model.hess_variance(plus) - model.hess_variance(minus)) / (2 * h[:, None, None])
    max_t = float(np.max(np.abs(fd_slabs - model.third_variance(pts)))) / lam_scale
    return DerivativeReport(
        max_grad_err=max_g,
        max_hess_err=max_h,
        max_third_err=max_t,
        max_kernel_err=_kernel_err(model, pts, lam_scale),
        rtol=DERIV_RTOL,
    )


# ---------------------------------------------------------------------------
# JSON field specs
# ---------------------------------------------------------------------------


def field_from_dict(d: dict[str, Any]) -> FieldModel:
    """Build a model from its JSON spec: type cosine, spectral_sum or gaussian_increment."""
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError("field spec must be an object with a 'type' key")
    kind = d["type"]
    if kind == "cosine":
        extra = set(d) - {"type"}
        if extra:
            raise ConfigError(f"unexpected keys for cosine field: {sorted(extra)}")
        return CosineField()
    if kind == "spectral_sum":
        extra = set(d) - {"type", "atoms", "offset_var"}
        if extra:
            raise ConfigError(f"unexpected keys for spectral_sum: {sorted(extra)}")
        atoms = d.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise ConfigError("spectral_sum needs a nonempty 'atoms' list")
        freqs, weights = [], []
        for a in atoms:
            if not isinstance(a, dict) or not isinstance(a.get("freq"), list) or "weight" not in a:
                raise ConfigError("each atom needs a 'freq' list and a 'weight'")
            freqs.append([config_number(float, f, "atom freq") for f in a["freq"]])
            weights.append(config_number(float, a["weight"], "atom weight"))
        if len({len(f) for f in freqs}) != 1:
            raise ConfigError("atom frequencies must all have the same length")
        return SpectralSumField(
            freqs=np.asarray(freqs),
            weights=np.asarray(weights),
            offset_var=config_number(float, d.get("offset_var", 1.0), "offset_var"),
        )
    if kind == "gaussian_increment":
        extra = set(d) - {"type", "dim", "scale", "offset_var"}
        if extra:
            raise ConfigError(f"unexpected keys for gaussian_increment: {sorted(extra)}")
        return GaussianIncrementField(
            dim=config_number(int, d.get("dim", 1), "dim"),
            scale=config_number(float, d.get("scale", 1.0), "scale"),
            offset_var=config_number(float, d.get("offset_var", 0.0), "offset_var"),
        )
    raise ConfigError(f"unknown field type {kind!r}")
