"""Kac-Rice face terms, mean Euler characteristic, and Laplace closed forms.

The three user-facing quantities are

* ``excursion_prob_mu``: vertex tails plus per-face integrals of
  He_{k-1}(u/theta_t) exp(-u^2 / (2 theta_t^2)) -- the leading-order
  excursion-probability approximation built from one-sided maxima counts;
* ``mean_euler_characteristic``: the exact mean Euler characteristic of the
  excursion set, combining vertex orthant probabilities with face integrals
  that carry an extra conditional Gaussian layer over the outward cone.  On
  a face below full dimension the level axis x >= u is integrated in closed
  form (Hermite tail identity), leaving one adaptive box integral over the
  face coordinates x the outward cone; the full-dimensional face has an
  empty cone and is the mu face term;
* ``laplace_closed_form``: the closed-form asymptotic equivalent obtained
  by Laplace-expanding the face integrals around the variance maximizer.

Face contributions are reported as positive magnitudes; alternating signs
never reach user-facing totals.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    AmbiguousMaximizerError,
    CapabilityError,
    ClassificationError,
    DegeneracyError,
    DegenerateModelError,
    ModelInconsistencyError,
    NumericError,
)
from .field import (
    DEGENERATE_VAR,
    NEG_TOL,
    FieldModel,
    covariance_at,
    max_variance,
)
from .gauss import MvnProblem, MvnResult, gauss_tail, hermite, mvn_prob
from .geometry import (
    Face,
    RectDomain,
    embed_points,
    enumerate_faces,
    face_label,
    face_of_point,
    outward_cone,
)
from .quad import QuadResult, QuadSpec, integrate_box, integrate_face

__all__ = [
    "MecResult",
    "LaplaceInputs",
    "face_term_mu",
    "vertex_term",
    "face_term_mean_ec",
    "mean_euler_characteristic",
    "excursion_prob_mu",
    "ConditionReport",
    "condition_check",
    "prepare_laplace_inputs",
    "laplace_closed_form",
    "laplace_mec_result",
    "tau_hessian",
    "tau_hessian_analytic",
]

MEAN_EC_DIM_CAP = 3
MU_DIM_CAP = 6

CLASS_CORNER = "corner-regular"
CLASS_FACE = "face-critical"
CLASS_INTERIOR = "interior-critical"

# fixed-direction derivative threshold separating the regular and
# zero-gradient boundary regimes
GRAD_ZERO_TOL = 1e-8
# condition_check: gap under sigma_T^2 within which a point is near-maximal
CONDITION_VAR_TOL = 1e-6


@dataclass(frozen=True)
class MecResult:
    """Per-face ledger and total for one level."""

    u: float
    method: str
    per_face: tuple[tuple[Face, float], ...]
    total: float
    err_est: float = 0.0

    def by_label(self) -> dict[str, float]:
        return {face_label(f): v for f, v in self.per_face}


# ---------------------------------------------------------------------------
# Per-face precomputation
# ---------------------------------------------------------------------------


class _FaceData(NamedTuple):
    theta_sq: np.ndarray
    gamma_sq: np.ndarray
    det_diff: np.ndarray
    b: np.ndarray


class FaceContext:
    """Constant blocks and vectorised point evaluation for one face."""

    def __init__(self, model: FieldModel, face: Face):
        self.model = model
        self.face = face
        self.k = face.k
        self.n = model.dim
        self.sig = list(face.sigma)
        self.fixed = list(face.fixed)
        lam = model.lambda_mat
        self.lam = lam
        self.lam_J = lam[np.ix_(self.sig, self.sig)]
        cond = np.linalg.cond(self.lam_J) if self.sig else 1.0
        if not np.isfinite(cond) or cond > 1e12:
            raise DegenerateModelError(
                f"free gradient block on face {face_label(face)} has "
                f"condition number {cond:.3e}"
            )
        self.lam_inv = np.linalg.inv(lam)
        self.lam_J_inv = (
            np.linalg.inv(self.lam_J) if self.sig else np.zeros((0, 0))
        )
        self.det_lam_J = float(np.linalg.det(self.lam_J)) if self.sig else 1.0
        self.lam_fJ = lam[np.ix_(self.fixed, self.sig)]
        lam_ff = lam[np.ix_(self.fixed, self.fixed)]
        # Cov(grad_fixed | grad_free = 0), constant over the face
        self.schur_ff = lam_ff - self.lam_fJ @ self.lam_J_inv @ self.lam_fJ.T
        self.pref_mu = (2.0 * math.pi) ** (-(self.k + 1) / 2.0) * self.det_lam_J ** -0.5
        self.pref_mec = (2.0 * math.pi) ** (-self.k / 2.0) * self.det_lam_J ** -0.5

    def arrays(self, pts: np.ndarray) -> _FaceData:
        """Evaluate theta^2, gamma^2, |Lambda_J - Lambda_J(t)| and the
        cross-covariance of (X, fixed gradients) given the free gradients at
        a block of face points."""
        face = self.face
        t = embed_points(face, pts)
        nu = np.atleast_1d(self.model.variance(t))
        c = 0.5 * np.atleast_2d(self.model.grad_variance(t))
        lam_t = self.model.lambda_at(t)
        if lam_t.ndim == 2:
            lam_t = lam_t[None, :, :]
        lam_J_t = lam_t[:, self.sig, :][:, :, self.sig]
        if self.sig:
            det_diff = np.linalg.det(self.lam_J[None, :, :] - lam_J_t)
            c_J = c[:, self.sig]
            sol_J = c_J @ self.lam_J_inv
            theta_sq = nu - np.einsum("mk,mk->m", c_J, sol_J)
        else:
            det_diff = np.ones(len(nu))
            sol_J = np.zeros((len(nu), 0))
            theta_sq = nu.copy()
        sol = c @ self.lam_inv
        gamma_sq = nu - np.einsum("mk,mk->m", c, sol)
        for name, arr in (("theta^2", theta_sq), ("gamma^2", gamma_sq)):
            if np.any(arr < -NEG_TOL):
                raise ModelInconsistencyError(
                    f"{name} negative beyond tolerance on face {face_label(face)}"
                )
        np.clip(theta_sq, 0.0, None, out=theta_sq)
        np.clip(gamma_sq, 0.0, None, out=gamma_sq)
        b = c[:, self.fixed] - sol_J @ self.lam_fJ.T
        return _FaceData(theta_sq, gamma_sq, det_diff, b)


# ---------------------------------------------------------------------------
# Face terms
# ---------------------------------------------------------------------------


def _face_term_mu_result(
    model: FieldModel, face: Face, levels: tuple[float, ...], spec: QuadSpec
) -> list[QuadResult]:
    ctx = FaceContext(model, face)
    k = face.k

    def integrand(pts):
        d = ctx.arrays(pts)
        out = np.zeros((len(levels), pts.shape[0]))
        mask = d.theta_sq >= DEGENERATE_VAR
        if mask.any():
            th = np.sqrt(d.theta_sq[mask])
            scale = d.det_diff[mask] * th ** (-k)
            for row, u in zip(out, levels):
                z = u / th
                row[mask] = scale * hermite(k - 1, z) * np.exp(-0.5 * z * z)
        return out

    return [
        QuadResult(ctx.pref_mu * res.value, ctx.pref_mu * res.err_est, res.converged)
        for res in integrate_face(face, integrand, spec)
    ]


def face_term_mu(
    model: FieldModel, face: Face, u: float, spec: QuadSpec = QuadSpec()
) -> float:
    """Leading Kac-Rice term of a k >= 1 face for the mu approximation."""
    if face.k < 1:
        raise ValueError("face_term_mu needs a face with k >= 1")
    return _face_term_mu_result(model, face, (float(u),), spec)[0].value


def _vertex_term_result(
    model: FieldModel, vertex: Face, u: float, seed: int
) -> MvnResult:
    cap = covariance_at(model, vertex, np.zeros(0))
    n = model.dim
    cov = np.empty((n + 1, n + 1))
    cov[0, 0] = cap.nu
    cov[0, 1:] = cap.c
    cov[1:, 0] = cap.c
    cov[1:, 1:] = cap.lam
    cone = outward_cone(vertex)
    lo = np.empty(n + 1)
    hi = np.empty(n + 1)
    lo[0], hi[0] = u, np.inf
    clo, chi = cone.bounds()
    lo[1:], hi[1:] = clo, chi
    return mvn_prob(MvnProblem(cov, lo, hi), seed=seed)


def vertex_term(model: FieldModel, vertex: Face, u: float, seed: int = 0) -> float:
    """P(X(t) >= u, grad X(t) in outward cone) at a vertex."""
    if vertex.k != 0:
        raise ValueError("vertex_term needs a face with k = 0")
    return _vertex_term_result(model, vertex, float(u), seed).p


def _face_term_mean_ec_result(
    model: FieldModel, face: Face, levels: tuple[float, ...], spec: QuadSpec
) -> list[QuadResult]:
    k = face.k
    q = model.dim - k
    if q == 0:
        # empty cone and theta = gamma: the x-integral leaves the mu integrand
        return _face_term_mu_result(model, face, levels, spec)
    ctx = FaceContext(model, face)
    try:
        chol = np.linalg.cholesky(ctx.schur_ff)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(
            f"conditional gradient covariance singular on face {face_label(face)}"
        ) from exc
    # whitening y -> L^{-1} y of N(0, schur_ff); the extra 1/sqrt(2 pi) is
    # the phi(a) left by the x-integral
    white_t = np.linalg.inv(chol).T
    log_norm = -0.5 * (1 + q) * math.log(2.0 * math.pi) - float(
        np.sum(np.log(np.diag(chol)))
    )
    signs = outward_cone(face).signs()

    def integrand(x, s):
        # x holds free face coordinates (n_x, k), s cone coordinates in
        # [0, 1)^q (n_y, q); the joint nodes are their product, x-major.
        # The field runs once per face point and the cone factors once per
        # cone point; both broadcast to (n_x, n_y), and every per-node
        # expression is the one of the unsplit integrand.
        d = ctx.arrays(x)
        ok = (d.gamma_sq >= DEGENERATE_VAR) & (d.theta_sq >= DEGENERATE_VAR)
        gam = np.sqrt(np.where(ok, d.gamma_sq, 1.0))
        weight = np.where(ok, d.det_diff * gam ** (-k), 0.0)[:, None]
        gam = gam[:, None]
        wy = (signs * s / (1.0 - s)) @ white_t
        # X given the gradients has mean b_t S^-1 y and variance gamma_t^2
        mean = np.einsum("ij,mj->im", d.b @ white_t, wy)
        wy_sq = np.einsum("mj,mj->m", wy, wy)
        jac = np.prod((1.0 - s) ** -2.0, axis=1)
        out = np.empty((len(levels), x.shape[0], s.shape[0]))
        for row, u in zip(out, levels):
            a = (u - mean) / gam
            expo = log_norm - 0.5 * (wy_sq + a * a)
            row[:] = weight * hermite(k - 1, a) * np.exp(expo) * jac
        return out.reshape(len(levels), -1)

    lo, hi = face.free_bounds()
    results = integrate_box(
        integrand,
        np.concatenate([lo, np.zeros(q)]),
        np.concatenate([hi, np.ones(q)]),
        spec,
        split=k,
    )
    return [
        QuadResult(ctx.pref_mec * res.value, ctx.pref_mec * res.err_est, res.converged)
        for res in results
    ]


def face_term_mean_ec(
    model: FieldModel, face: Face, u: float, spec: QuadSpec = QuadSpec()
) -> float:
    """Mean count of extended outward maxima above u on a k >= 1 face.

    The Kac-Rice integrand is He_k(x/gamma_t + gamma_t sum_j C_j(t) y_j)
    against the conditional density of (X, boundary gradients y) given the
    free gradient vanishing, over [u, inf) x outward cone.  Given y, X has
    mean m_t(y) = b_t S^-1 y and variance gamma_t^2 (S the face's constant
    conditional covariance of y), so the x-integral is He_{k-1}(a) phi(a)
    with a = (u - m_t(y)) / gamma_t.  What remains is one adaptive
    integral over the face's free coordinates x the cone, each cone axis
    mapped onto [0, 1) by s / (1 - s); its error estimate is the term's.
    For k = N the cone is empty and the term is the mu face term.
    """
    if face.k < 1:
        raise ValueError("face_term_mean_ec needs a face with k >= 1")
    return _face_term_mean_ec_result(model, face, (float(u),), spec)[0].value


# ---------------------------------------------------------------------------
# Assemblies
# ---------------------------------------------------------------------------


def _face_seed(seed: int, index: int) -> int:
    ss = np.random.SeedSequence((int(seed), int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _face_sum(
    method: str,
    domain: RectDomain,
    levels: tuple[float, ...],
    vertex: Callable[[int, Face], list],
    face: Callable[[Face], list],
    threads: int,
) -> list[MecResult]:
    """Sum of a vertex term per vertex and a Kac-Rice integral per k >= 1 face.

    ``vertex(i, f)`` evaluates the vertex f at enumeration index i and
    ``face(f)`` a face of dimension k >= 1; each returns one tuple per
    level, in the order of ``levels``, that starts (value, err_est).  A face
    kernel integrates all levels in one quadrature pass.  The result holds
    one MecResult per level.  Each ledger keeps one entry per face in
    enumeration order and its total is their ordered sum, so results are
    bit-stable for a fixed seed regardless of thread count.
    """
    faces = enumerate_faces(domain)

    def terms(i: int, fc: Face) -> list:
        return [t[:2] for t in (vertex(i, fc) if fc.k == 0 else face(fc))]

    if threads <= 1:
        per_face = [terms(i, f) for i, f in enumerate(faces)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_face = list(pool.map(terms, range(len(faces)), faces))
    out = []
    for j, u in enumerate(levels):
        values = [ts[j][0] for ts in per_face]
        out.append(
            MecResult(
                u=u,
                method=method,
                per_face=tuple(zip(faces, values)),
                total=math.fsum(values),
                err_est=math.fsum(ts[j][1] for ts in per_face),
            )
        )
    return out


def _mean_ec_levels(
    model: FieldModel,
    domain: RectDomain,
    levels,
    spec: QuadSpec,
    seed: int,
    threads: int,
) -> list[MecResult]:
    """mean_euler_characteristic at every level, one quadrature pass per face."""
    if domain.dim > MEAN_EC_DIM_CAP:
        raise CapabilityError(
            f"mean Euler characteristic capped at N={MEAN_EC_DIM_CAP} (got N={domain.dim})"
        )
    levels = tuple(float(u) for u in levels)

    def vertex(i: int, fc: Face) -> list[MvnResult]:
        vseed = _face_seed(seed, i)
        return [_vertex_term_result(model, fc, u, vseed) for u in levels]

    return _face_sum(
        "mean_ec",
        domain,
        levels,
        vertex,
        lambda fc: _face_term_mean_ec_result(model, fc, levels, spec),
        threads,
    )


def mean_euler_characteristic(
    model: FieldModel,
    domain: RectDomain,
    u: float,
    spec: QuadSpec = QuadSpec(),
    seed: int = 0,
    *,
    threads: int = 1,
) -> MecResult:
    """Mean Euler characteristic of the excursion set above u.

    Vertices contribute joint orthant probabilities; every k >= 1 face
    contributes its extended-outward-maxima mean.  Bit-stable for a fixed
    seed regardless of thread count.
    """
    return _mean_ec_levels(model, domain, (u,), spec, seed, threads)[0]


def _mu_levels(
    model: FieldModel,
    domain: RectDomain,
    levels,
    spec: QuadSpec,
    threads: int,
) -> list[MecResult]:
    """excursion_prob_mu at every level, one quadrature pass per face."""
    if domain.dim > MU_DIM_CAP:
        raise CapabilityError(
            f"mu approximation capped at N={MU_DIM_CAP} (got N={domain.dim})"
        )
    levels = tuple(float(u) for u in levels)

    def vertex(i: int, fc: Face) -> list[tuple[float, float]]:
        cap = covariance_at(model, fc, np.zeros(0))
        if cap.nu < DEGENERATE_VAR:
            return [(0.0, 0.0)] * len(levels)
        return [(float(gauss_tail(u / math.sqrt(cap.nu))), 0.0) for u in levels]

    return _face_sum(
        "mu_approx",
        domain,
        levels,
        vertex,
        lambda fc: _face_term_mu_result(model, fc, levels, spec),
        threads,
    )


def excursion_prob_mu(
    model: FieldModel,
    domain: RectDomain,
    u: float,
    spec: QuadSpec = QuadSpec(),
    *,
    threads: int = 1,
) -> MecResult:
    """Leading-order excursion probability: vertex tails + mu face terms."""
    return _mu_levels(model, domain, (u,), spec, threads)[0]


# ---------------------------------------------------------------------------
# Boundary-max condition check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Near-maximal variance points with flat fixed directions."""

    satisfied: bool
    sigma_sq: float
    violations: tuple[tuple[Face, tuple[float, ...], tuple[float, ...]], ...]


def condition_check(model: FieldModel, domain: RectDomain) -> ConditionReport:
    """Check the boundary-maximum regularity condition face by face.

    Reads the points that max_variance polished: every vertex and up to
    three local maxima of each face's closure.  A point violates the
    condition when, after polishing, nu there is within CONDITION_VAR_TOL
    of sigma_T^2, the point lies in the open face it was polished on, and
    some pinned-direction derivative vanishes (|nu_j| < GRAD_ZERO_TOL).
    Each distinct point is reported once, as (face, point, pinned
    derivatives).  The interior face has no pinned directions and never
    violates.
    """
    mv = max_variance(model, domain)
    violations = []
    for v, t, fc in mv.face_maxima:
        # near sigma_T^2, in the open face (a point on its boundary belongs
        # to a smaller face), and not reported yet
        if (
            v < mv.sigma_sq - CONDITION_VAR_TOL
            or face_of_point(domain, t, tol=1e-7) != fc
            or any(np.allclose(t, s, rtol=1e-6, atol=1e-6) for _, s, _ in violations)
        ):
            continue
        gf = model.grad_variance(t)[list(fc.fixed)]
        if np.any(np.abs(gf) < GRAD_ZERO_TOL):
            violations.append((fc, tuple(map(float, t)), tuple(map(float, gf))))
    return ConditionReport(
        satisfied=not violations, sigma_sq=mv.sigma_sq, violations=tuple(violations)
    )


# ---------------------------------------------------------------------------
# Laplace closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceInputs:
    """Everything the closed-form dispatcher needs at the maximizer."""

    t0: np.ndarray
    face: Face
    sigma_sq: float
    theta_hess: np.ndarray
    classification: str
    grad_nu: np.ndarray


def tau_hessian(
    model: FieldModel, face: Face, t0, step: float | None = None
) -> np.ndarray:
    """Hessian of tau(t) = theta_t^2 in the face's free coordinates.

    Symmetrized central differences with per-axis step 1e-4 (b_j - a_j) by
    default.  Centers within one step of the face boundary are nudged
    inside, giving one-sided accuracy there.
    """
    if face.k < 1:
        raise ValueError("tau_hessian needs a face with k >= 1")
    t0 = np.asarray(t0, dtype=float)
    if t0.shape != (face.domain.dim,):
        raise ValueError(
            f"t0 must be a full {face.domain.dim}-dimensional point"
        )
    lo, hi = face.free_bounds()
    x0 = t0[list(face.sigma)]
    if np.any(x0 < lo - 1e-12) or np.any(x0 > hi + 1e-12):
        raise ValueError("t0 lies outside the face closure")
    k = face.k
    widths = hi - lo
    if step is None:
        h = 1e-4 * widths
    else:
        h = np.full(k, float(step))
    if np.any(h <= 0) or np.any(h < 1e-13 * np.maximum(np.abs(lo), np.abs(hi))):
        raise NumericError(f"finite-difference step underflow: {h}")
    x0 = np.clip(x0, lo + h, hi - h)

    ctx = FaceContext(model, face)

    def tau(x):
        return float(ctx.arrays(x[None, :]).theta_sq[0])

    out = np.empty((k, k))
    f0 = tau(x0)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        out[i, i] = (tau(x0 + ei) - 2.0 * f0 + tau(x0 - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            out[i, j] = out[j, i] = (
                tau(x0 + ei + ej)
                - tau(x0 + ei - ej)
                - tau(x0 - ei + ej)
                + tau(x0 - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return 0.5 * (out + out.T)


def tau_hessian_analytic(model: FieldModel, face: Face, t0) -> np.ndarray | None:
    """Analytic Hessian of theta_t^2 via third derivatives of nu.

    tau_ij = nu_ij - (1/2) sum_{m,n in sigma} nu_mij A_mn nu_n
                   - (1/2) sum_{m,n in sigma} nu_mi  A_mn nu_nj,
    with A the inverse free-block gradient covariance.  Returns None when
    the model lacks third derivatives.
    """
    t0 = np.asarray(t0, dtype=float)
    third = model.third_variance(t0)
    if third is None:
        return None
    sig = list(face.sigma)
    grad = model.grad_variance(t0)
    hess = model.hess_variance(t0)
    lam_J = model.lambda_mat[np.ix_(sig, sig)]
    A = np.linalg.inv(lam_J)
    h_s = hess[np.ix_(sig, sig)]
    g_s = grad[sig]
    # restrict the mixed tensors to free coordinates
    t3 = third[np.ix_(sig, sig, sig)]  # indices (m, i, j) order-symmetric
    term1 = 0.5 * np.einsum("mij,mn,n->ij", t3, A, g_s)
    term2 = 0.5 * np.einsum("mi,mn,nj->ij", h_s, A, h_s)
    tau = h_s - term1 - term2
    return 0.5 * (tau + tau.T)


def _face_tau_hess(model: FieldModel, face: Face, t0) -> np.ndarray:
    hess = tau_hessian_analytic(model, face, t0)
    if hess is None:
        hess = tau_hessian(model, face, t0)
    return hess


def _check_neg_def(mat: np.ndarray, what: str) -> None:
    if mat.size == 0:
        return
    top = float(np.max(np.linalg.eigvalsh(mat)))
    if top >= 0.0:
        raise NumericError(f"{what} is not negative definite (max eig {top:.3e})")


def prepare_laplace_inputs(model: FieldModel, domain: RectDomain) -> LaplaceInputs:
    """Locate the unique variance maximizer and classify it."""
    mv = max_variance(model, domain)
    if mv.tied:
        cands = ", ".join(
            f"nu={v:.12g} at {tuple(round(x, 9) for x in t)}"
            for v, t in mv.candidates
        )
        raise AmbiguousMaximizerError(
            f"variance maximizer is ambiguous; candidates: {cands}"
        )
    t0 = mv.point
    host = mv.face
    k = host.k
    grad = model.grad_variance(t0)
    fg = np.abs(np.array([grad[j] for j in host.fixed]))
    if k == domain.dim:
        classification = CLASS_INTERIOR
    elif fg.size and np.all(fg > GRAD_ZERO_TOL):
        classification = CLASS_CORNER if k == 0 else CLASS_FACE
    elif np.all(fg <= GRAD_ZERO_TOL):
        classification = CLASS_FACE
    else:
        raise ClassificationError(
            "mixed zero/nonzero pinned-direction derivatives at the maximizer: "
            f"|nu_j| = {fg.tolist()} on face {face_label(host)}"
        )
    theta_hess = (
        _face_tau_hess(model, host, t0) if k >= 1 else np.zeros((0, 0))
    )
    if k >= 1:
        _check_neg_def(theta_hess, "Theta at the maximizer")
    return LaplaceInputs(
        t0=t0,
        face=host,
        sigma_sq=mv.sigma_sq,
        theta_hess=theta_hess,
        classification=classification,
        grad_nu=grad,
    )


def _laplace_face_factor(
    model: FieldModel, face: Face, t0: np.ndarray, theta_hess: np.ndarray
) -> float:
    """2^{k/2} |Lambda_J - Lambda_J(t0)| / (|Lambda_J|^{1/2} |-Theta|^{1/2})."""
    k = face.k
    if k == 0:
        return 1.0
    sig = list(face.sigma)
    lam_J = model.lambda_mat[np.ix_(sig, sig)]
    lam_J_t = model.lambda_at(t0)[np.ix_(sig, sig)]
    _check_neg_def(theta_hess, f"Theta on face {face_label(face)}")
    det_diff = float(np.linalg.det(lam_J - lam_J_t))
    det_lam = float(np.linalg.det(lam_J))
    det_neg_hess = float(np.linalg.det(-theta_hess))
    return 2.0 ** (k / 2.0) * det_diff / math.sqrt(det_lam * det_neg_hess)


def _orthant_given_free(
    model: FieldModel, face: Face, seed: int
) -> MvnResult:
    """P(pinned-direction gradients in the outward cone | free grads = 0)."""
    if not face.fixed:
        return MvnResult(1.0, 0.0, False)
    ctx = FaceContext(model, face)
    cone = outward_cone(face)
    lo, hi = cone.bounds()
    return mvn_prob(MvnProblem(ctx.schur_ff, lo, hi), seed=seed)


def _adjacent_higher_faces(domain: RectDomain, host: Face) -> list[Face]:
    """Faces J' of higher dimension whose closure contains the host face."""
    out = []
    eps = host.eps_map
    for fc in enumerate_faces(domain):
        if fc.k <= host.k:
            continue
        if not set(fc.sigma) >= set(host.sigma):
            continue
        if all(eps[j] == e for j, e in fc.epsilon):
            out.append(fc)
    return out


class _LaplaceFactors(NamedTuple):
    """Level-free part of the Laplace ledger.

    ``per_face`` lists every face in enumeration order with its factors
    (f, p_1, ...): the face's term at level u is f * Psi(u / sigma_T) * p_1
    * ..., multiplied left to right.  Faces without a term have no factors.
    """

    sigma_sq: float
    per_face: list[tuple[Face, tuple[float, ...]]]


def _laplace_factors(
    model: FieldModel,
    domain: RectDomain,
    inputs: LaplaceInputs,
    seed: int,
) -> _LaplaceFactors:
    t0 = inputs.t0
    host = inputs.face
    contrib: dict[tuple, tuple[float, ...]] = {}

    def key(f: Face):
        return (f.sigma, f.epsilon)

    if inputs.classification == CLASS_CORNER:
        contrib[key(host)] = (1.0,)
    elif inputs.classification == CLASS_INTERIOR:
        contrib[key(host)] = (
            _laplace_face_factor(model, host, t0, inputs.theta_hess),
        )
    else:  # face-critical
        fg = np.abs(np.array([inputs.grad_nu[j] for j in host.fixed]))
        if fg.size and np.all(fg > GRAD_ZERO_TOL):
            # regular boundary maximum on a k >= 1 face: host term only
            contrib[key(host)] = (
                _laplace_face_factor(model, host, t0, inputs.theta_hess),
            )
        else:
            # fully flat maximizer: host term with its orthant factor plus
            # every higher face whose closure contains t0
            host_f = _laplace_face_factor(model, host, t0, inputs.theta_hess)
            orth = _orthant_given_free(model, host, _face_seed(seed, 0))
            contrib[key(host)] = (host_f, orth.p)
            for idx, fc in enumerate(_adjacent_higher_faces(domain, host), start=1):
                hess = _face_tau_hess(model, fc, t0)
                f_fact = _laplace_face_factor(model, fc, t0, hess)
                extra = [j for j in fc.sigma if j not in host.sigma]
                pos = [fc.sigma.index(j) for j in extra]
                cov_z = -hess[np.ix_(pos, pos)]
                pz = mvn_prob(
                    MvnProblem(
                        cov_z, np.full(len(pos), -np.inf), np.zeros(len(pos))
                    ),
                    seed=_face_seed(seed, 2 * idx),
                )
                orth2 = _orthant_given_free(model, fc, _face_seed(seed, 2 * idx + 1))
                contrib[key(fc)] = (f_fact, pz.p, orth2.p)

    faces = enumerate_faces(domain)
    return _LaplaceFactors(
        inputs.sigma_sq, [(fc, contrib.get(key(fc), ())) for fc in faces]
    )


def _laplace_ledger(factors: _LaplaceFactors, u: float) -> MecResult:
    """The Laplace ledger at level u from factors computed once per field."""
    psi = float(gauss_tail(u / math.sqrt(factors.sigma_sq)))
    terms = [
        (fc, math.prod(fac[1:], start=fac[0] * psi) if fac else 0.0)
        for fc, fac in factors.per_face
    ]
    return MecResult(
        u=u,
        method="laplace",
        per_face=tuple(terms),
        total=math.fsum(v for _, v in terms),
        err_est=0.0,
    )


def laplace_closed_form(
    model: FieldModel,
    domain: RectDomain,
    u: float,
    inputs: LaplaceInputs | None = None,
    seed: int = 0,
) -> float:
    """Closed-form asymptotic equivalent of the excursion quantities.

    Dispatches on the maximizer classification: a regular corner gives the
    plain tail Psi(u/sigma_T); a regular face maximizer adds the curvature
    factor; a flat maximizer assembles the host face and all adjacent
    higher faces with conditional orthant and ordering factors.
    """
    return laplace_mec_result(model, domain, u, inputs, seed).total


def laplace_mec_result(
    model: FieldModel,
    domain: RectDomain,
    u: float,
    inputs: LaplaceInputs | None = None,
    seed: int = 0,
) -> MecResult:
    """Ledger-shaped variant of laplace_closed_form for reporting."""
    if inputs is None:
        inputs = prepare_laplace_inputs(model, domain)
    return _laplace_ledger(_laplace_factors(model, domain, inputs, seed), float(u))
