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
(..., N).  The concrete models are finite spectral sums (exactly
simulable) and a Gaussian-bump variogram family.

What a face derives from these (theta_t^2, gamma_t^2, Lambda_J - Lambda_J(t),
the outward-cone covariance) and its degeneracy policies are in mec.FaceContext.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigError, config_number
from .geometry import (
    Face,
    RectDomain,
    embed_points,
    enumerate_faces,
    face_of_point,
)

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
    "field_to_dict",
]

# most points per field evaluation in max_variance's scan and in
# mec.FaceContext.arrays, so their memory does not grow with the scan grid or
# the quadrature box
POINT_BLOCK = 2**15


class FieldModel:
    """Base class: derives all second-order quantities from the variogram.

    Subclasses implement _g, _g_grad, _g_hess (vectorised over (..., N))
    and may implement _g_third for analytic third derivatives.
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

    def _g_third(self, h: np.ndarray):
        return None

    # -- derived structure -------------------------------------------------
    def variance(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.offset_var + self._g(t)

    def grad_variance(self, t) -> np.ndarray:
        return self._g_grad(np.asarray(t, dtype=float))

    def hess_variance(self, t) -> np.ndarray:
        return self._g_hess(np.asarray(t, dtype=float))

    def third_variance(self, t):
        """Third derivative tensor of nu, or None when not available."""
        return self._g_third(np.asarray(t, dtype=float))

    @property
    def lambda_mat(self) -> np.ndarray:
        """Gradient covariance Lambda = (1/2) Hess g(0)."""
        return 0.5 * self._g_hess(np.zeros(self.dim))

    def lambda_at(self, t) -> np.ndarray:
        """Lambda(t) = (1/2) Hess g(t) = Cov(grad X(t+s), grad X(s))."""
        return 0.5 * self._g_hess(np.asarray(t, dtype=float))


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
        if not (np.isfinite(self.offset_var) and self.offset_var >= 0):
            raise ConfigError("offset variance must be a nonnegative real")
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

    @property
    def lambda_spectral(self) -> np.ndarray:
        """Second spectral moment sum_m w_m freq_m freq_m^T."""
        return np.einsum("m,mi,mj->ij", self.weights, self.freqs, self.freqs)


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
        if int(self.dim) < 1:
            raise ConfigError("dimension must be a positive integer")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ConfigError("scale must be a positive real")
        if not (np.isfinite(self.offset_var) and self.offset_var >= 0):
            raise ConfigError("offset variance must be a nonnegative real")
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


@dataclass(frozen=True, eq=False)
class FaultInjectedField(FieldModel):
    """Wrapper that deliberately mis-scales the Hessian supplier.

    Exists so the derivative-consistency validator can be shown to catch a
    bad analytic derivative; never use it for actual computations.
    """

    base: FieldModel
    hessian_scale: float = 1.25

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.base.dim

    @property
    def offset_var(self) -> float:  # type: ignore[override]
        return self.base.offset_var

    def _g(self, h):
        return self.base._g(h)

    def _g_grad(self, h):
        return self.base._g_grad(h)

    def _g_hess(self, h):
        return self.hessian_scale * self.base._g_hess(h)

    def _g_third(self, h):
        return self.base._g_third(h)


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

    candidates lists the distinct near-optimal points (within TIE_TOL of
    the max); more than one entry means the maximizer is ambiguous.
    face_maxima holds every point the scan polished, as (nu, point, face)
    in face enumeration order: each vertex, and one to three polished local
    maxima of each k >= 1 face's closure.
    """

    sigma_sq: float
    point: np.ndarray
    face: Face
    candidates: tuple[tuple[float, tuple[float, ...]], ...]
    face_maxima: tuple[tuple[float, np.ndarray, Face], ...]

    @property
    def tied(self) -> bool:
        return len(self.candidates) > 1


# max_variance: scan points per face axis, and the scan-point budget of one
# face, which caps the per-axis count at round(MAX_VAR_POINTS^(1/k)) on a
# k-face (45 for k = 4); the projected-gradient size that ends a polish, and
# the gap under the max within which points tie
MAX_VAR_GRID = 64
MAX_VAR_POINTS = 4e6
GRAD_TOL = 1e-10
TIE_TOL = 1e-8
# polish starts per k >= 1 face
MAX_VAR_STARTS = 3


def _refine_on_face(model: FieldModel, face: Face, x0: np.ndarray) -> np.ndarray:
    """Projected ascent of nu on the closed face from free coordinates x0."""
    lo, hi = face.free_bounds()
    sig = list(face.sigma)
    x = np.clip(x0, lo, hi)
    if not sig:
        return x
    fval = float(model.variance(embed_points(face, x)[0]))
    for _ in range(200):
        t = embed_points(face, x)[0]
        g = model.grad_variance(t)[sig]
        h = model.hess_variance(t)[np.ix_(sig, sig)]
        # projected gradient: zero out components pushing into an active bound
        pg = g.copy()
        pg[(x <= lo) & (g < 0)] = 0.0
        pg[(x >= hi) & (g > 0)] = 0.0
        if np.linalg.norm(pg, ord=np.inf) < GRAD_TOL:
            break
        step = None
        try:
            evals = np.linalg.eigvalsh(h)
            if evals[-1] < -1e-12:  # negative definite: Newton ascent
                step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            step = pg / max(np.linalg.norm(pg), 1.0)
        alpha = 1.0
        moved = False
        for _ in range(40):
            xn = np.clip(x + alpha * step, lo, hi)
            fn = float(model.variance(embed_points(face, xn)[0]))
            if fn > fval + 1e-18:
                x, fval, moved = xn, fn, True
                break
            alpha *= 0.5
        if not moved:
            break
    return x


def _top_points(vals: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MAX_VAR_STARTS best (value, index) pairs: value descending, then
    index ascending, so exact ties go to the lowest index."""
    n = MAX_VAR_STARTS
    if len(vals) > n:
        keep = vals >= np.partition(vals, len(vals) - n)[len(vals) - n]
        vals, idx = vals[keep], idx[keep]
    order = np.lexsort((idx, -vals))[:n]
    return vals[order], idx[order]


def _scan_starts(model: FieldModel, face: Face, axes: list[np.ndarray]) -> np.ndarray:
    """Free coordinates of the best grid points of a face, best first.

    The grid is the row-major product of ``axes``, evaluated block by block
    (_grid_blocks).  A running top list keeps the ranking of _top_points, so
    the starts do not depend on the block size.
    """
    best_vals, best_idx = np.empty(0), np.empty(0, dtype=np.intp)
    for idx, pts_free in _grid_blocks(axes):
        vals = model.variance(embed_points(face, pts_free))
        best_vals, best_idx = _top_points(
            np.concatenate([best_vals, vals]), np.concatenate([best_idx, idx])
        )
    shape = tuple(len(a) for a in axes)
    return np.stack(
        [ax[i] for ax, i in zip(axes, np.unravel_index(best_idx, shape))], axis=-1
    )


def max_variance(model: FieldModel, domain: RectDomain) -> MaxVarianceResult:
    """Maximise nu over the closed rectangle: face-wise scan plus polish.

    Every k >= 1 face is scanned on a uniform grid of its closure's free
    coordinates with min(MAX_VAR_GRID, round(MAX_VAR_POINTS^(1/k))) points
    per axis: 64 for k <= 3 and 45 for k = 4.  The grid is evaluated in
    blocks of at most POINT_BLOCK points, so memory does not grow with it.
    Its MAX_VAR_STARTS best points, ranked by value descending and then by
    row-major grid index ascending (exact ties go to the lowest index,
    whatever the block size), are refined in that order by projected
    Newton/gradient ascent on the closed face; vertices are evaluated as
    they are.  All these points are kept in ``face_maxima``.  Distinct
    points within TIE_TOL of the best value are all reported as candidates.
    """
    cands: list[tuple[float, np.ndarray, Face]] = []
    for fc in enumerate_faces(domain):
        if fc.k == 0:
            t = fc.fixed_values()
            cands.append((float(model.variance(t)), t, fc))
            continue
        lo, hi = fc.free_bounds()
        per_axis = max(2, min(MAX_VAR_GRID, int(round(MAX_VAR_POINTS ** (1.0 / fc.k)))))
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(fc.k)]
        # polish the few best grid points; distinct starts may find
        # distinct maximizers on the same face
        for x0 in _scan_starts(model, fc, axes):
            xf = _refine_on_face(model, fc, x0)
            t = embed_points(fc, xf[None, :])[0]
            cands.append((float(model.variance(t)), t, fc))

    best_val = max(v for v, _, _ in cands)
    scale = max(1.0, float(np.max(np.abs(domain.lower_arr))), float(np.max(np.abs(domain.upper_arr))))
    distinct: list[tuple[float, np.ndarray]] = []
    for v, t, _ in sorted(cands, key=lambda p: -p[0]):
        if v < best_val - TIE_TOL:
            break
        if all(np.linalg.norm(t - t2) > 1e-6 * scale for _, t2 in distinct):
            distinct.append((v, t))
    best_val, best_t = distinct[0]
    host = face_of_point(domain, best_t, tol=1e-7)
    return MaxVarianceResult(
        sigma_sq=best_val,
        point=best_t,
        face=host,
        candidates=tuple((v, tuple(t)) for v, t in distinct),
        face_maxima=tuple(cands),
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
    rtol: float

    @property
    def passed(self) -> bool:
        return self.max_grad_err <= self.rtol and self.max_hess_err <= self.rtol


def derivative_consistency(model: FieldModel, domain: RectDomain) -> DerivativeReport:
    """Central finite differences of nu versus grad_variance / hess_variance.

    DERIV_POINTS points drawn with DERIV_SEED inside the rectangle, steps
    DERIV_STEP times each side.  Errors are relative to a curvature scale
    so the check is meaningful for flat and strongly varying models alike;
    the report passes when both stay within DERIV_RTOL.
    """
    rng = np.random.default_rng(DERIV_SEED)
    lo, hi = domain.lower_arr, domain.upper_arr
    span = hi - lo
    pts = lo + (0.05 + 0.9 * rng.random((DERIV_POINTS, domain.dim))) * span
    h = DERIV_STEP * span
    n = domain.dim
    lam_scale = max(np.max(np.abs(model.lambda_mat)), 1e-12)

    max_g, max_h = 0.0, 0.0
    for t in pts:
        g = model.grad_variance(t)
        hess = model.hess_variance(t)
        scale_g = max(np.max(np.abs(g)), math.sqrt(lam_scale))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h[i]
            fd = (model.variance(t + ei) - model.variance(t - ei)) / (2 * h[i])
            max_g = max(max_g, abs(fd - g[i]) / scale_g)
            # second derivatives from gradient differences keeps the error O(h^2)
            gp = model.grad_variance(t + ei)
            gm = model.grad_variance(t - ei)
            fd_row = (gp - gm) / (2 * h[i])
            max_h = max(max_h, float(np.max(np.abs(fd_row - hess[i]))) / lam_scale)
    return DerivativeReport(max_grad_err=max_g, max_hess_err=max_h, rtol=DERIV_RTOL)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def field_from_dict(d: dict[str, Any]) -> FieldModel:
    """Build a model from its JSON dict form (see field_to_dict)."""
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
    if kind == "fault_injection":
        extra = set(d) - {"type", "base", "hessian_scale"}
        if extra:
            raise ConfigError(f"unexpected keys for fault_injection: {sorted(extra)}")
        if "base" not in d:
            raise ConfigError("fault_injection needs a 'base' field spec")
        return FaultInjectedField(
            base=field_from_dict(d["base"]),
            hessian_scale=config_number(float, d.get("hessian_scale", 1.25), "hessian_scale"),
        )
    raise ConfigError(f"unknown field type {kind!r}")


def field_to_dict(model: FieldModel) -> dict[str, Any]:
    if isinstance(model, FaultInjectedField):
        return {
            "type": "fault_injection",
            "base": field_to_dict(model.base),
            "hessian_scale": model.hessian_scale,
        }
    if isinstance(model, CosineField):
        return {"type": "cosine"}
    if isinstance(model, SpectralSumField):
        return {
            "type": "spectral_sum",
            "atoms": [
                {"freq": list(map(float, f)), "weight": float(w)}
                for f, w in zip(model.freqs, model.weights)
            ],
            "offset_var": model.offset_var,
        }
    if isinstance(model, GaussianIncrementField):
        return {
            "type": "gaussian_increment",
            "dim": model.dim,
            "scale": model.scale,
            "offset_var": model.offset_var,
        }
    raise ConfigError(f"cannot serialise model of type {type(model).__name__}")
