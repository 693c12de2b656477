"""Kac-Rice face terms, mean Euler characteristic, and Laplace closed forms.

The three user-facing quantities are functions of the level u.  Each takes a
level sequence and returns one MecResult ledger per level, equal to the
ledger of a one-level call; the level-free work is done once for all levels.

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
* ``laplace_mec_result``: the closed-form asymptotic equivalent obtained
  by Laplace-expanding the face integrals around the variance maximizer.

Every face term, vertices and Laplace factors included, reads its face's
second-order structure from ``FaceContext``; the degeneracy policies
(COND_CAP, NEG_TOL, DEGENERATE_VAR) are defined here.
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
from .field import POINT_BLOCK, FieldModel, max_variance
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
    "mean_euler_characteristic",
    "excursion_prob_mu",
    "ConditionReport",
    "condition_check",
    "prepare_laplace_inputs",
    "laplace_mec_result",
    "tau_hessian",
    "tau_hessian_analytic",
]

MEAN_EC_DIM_CAP = 3

# condition-number ceiling for the gradient-covariance blocks FaceContext
# inverts
COND_CAP = 1e12
# negative-variance tolerance: below -NEG_TOL is an inconsistency,
# within [-NEG_TOL, 0) is clamped to zero
NEG_TOL = 1e-10
# variance below which conditional quantities are treated as degenerate
DEGENERATE_VAR = 1e-14

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
    """Constant blocks and vectorised point evaluation for one face, from a
    vertex (k = 0: theta^2 = nu and b = c) to the interior.

    DegenerateModelError when Lambda_J or Lambda has a condition number
    beyond COND_CAP; ModelInconsistencyError when theta^2 or gamma^2 falls
    below -NEG_TOL (smaller negatives are clamped to zero).
    """

    def __init__(self, model: FieldModel, face: Face):
        self.model = model
        self.face = face
        self.k = face.k
        self.sig = list(face.sigma)
        self.fixed = list(face.fixed)
        lam = model.lambda_mat
        self.lam = lam
        self.lam_J = lam[np.ix_(self.sig, self.sig)]
        for what, mat in (
            (f"free gradient block on face {face_label(face)}", self.lam_J),
            ("gradient covariance", lam),
        ):
            cond = np.linalg.cond(mat) if mat.size else 1.0
            if not np.isfinite(cond) or cond > COND_CAP:
                raise DegenerateModelError(f"{what} has condition number {cond:.3e}")
        self.lam_inv = np.linalg.inv(lam)
        self.lam_J_inv = np.linalg.inv(self.lam_J)
        self.det_lam_J = float(np.linalg.det(self.lam_J))
        self.lam_fJ = lam[np.ix_(self.fixed, self.sig)]
        lam_ff = lam[np.ix_(self.fixed, self.fixed)]
        # Cov(grad_fixed | grad_free = 0), constant over the face
        self.schur_ff = lam_ff - self.lam_fJ @ self.lam_J_inv @ self.lam_fJ.T
        self.pref_mu = (2.0 * math.pi) ** (-(self.k + 1) / 2.0) * self.det_lam_J ** -0.5
        self.pref_mec = (2.0 * math.pi) ** (-self.k / 2.0) * self.det_lam_J ** -0.5

    def arrays(self, pts: np.ndarray) -> _FaceData:
        """Evaluate theta^2, gamma^2, |Lambda_J - Lambda_J(t)| and the
        cross-covariance of (X, fixed gradients) given the free gradients at
        an (m, k) array of face points.

        The field runs on at most POINT_BLOCK points at a time, so memory
        does not grow with m.  Every expression is per point, so the blocks
        concatenate to the values of one unblocked evaluation."""
        if len(pts) <= POINT_BLOCK:
            return self._block_arrays(pts)
        blocks = [
            self._block_arrays(pts[i : i + POINT_BLOCK])
            for i in range(0, len(pts), POINT_BLOCK)
        ]
        return _FaceData(*(np.concatenate(col) for col in zip(*blocks)))

    def _block_arrays(self, pts: np.ndarray) -> _FaceData:
        face = self.face
        t = embed_points(face, pts)
        nu = self.model.variance(t)
        c = 0.5 * self.model.grad_variance(t)
        lam_J_t = self.model.lambda_at(t)[:, self.sig, :][:, :, self.sig]
        # every k = 0 block is empty: det 1, theta^2 = nu
        det_diff = np.linalg.det(self.lam_J[None, :, :] - lam_J_t)
        c_J = c[:, self.sig]
        sol_J = c_J @ self.lam_J_inv
        theta_sq = nu - np.einsum("mk,mk->m", c_J, sol_J)
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


def _vertex_term_results(
    model: FieldModel, vertex: Face, levels: tuple[float, ...], seed: int
) -> list[MvnResult]:
    """The vertex orthant probability at every level, one per level.

    The levels share the covariance and, through one seed, the QMC points
    of every randomization; each result equals a one-level call.
    """
    ctx = FaceContext(model, vertex)
    d = ctx.arrays(np.zeros((1, 0)))
    cov = np.block([[d.theta_sq[:, None], d.b], [d.b.T, ctx.lam]])
    clo, chi = outward_cone(vertex).bounds()
    hi = np.r_[np.inf, chi]
    return mvn_prob([MvnProblem(cov, np.r_[u, clo], hi) for u in levels], seed)


def _face_term_mean_ec_result(
    model: FieldModel, face: Face, levels: tuple[float, ...], spec: QuadSpec
) -> list[QuadResult]:
    """Mean count of extended outward maxima above each level on a k >= 1 face.

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
        return out.reshape(len(levels), x.shape[0] * s.shape[0])

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


def mean_euler_characteristic(
    model: FieldModel,
    domain: RectDomain,
    levels,
    spec: QuadSpec = QuadSpec(),
    seed: int = 0,
    *,
    threads: int = 1,
) -> list[MecResult]:
    """Mean Euler characteristic of the excursion set above each level.

    Vertices contribute joint orthant probabilities; every k >= 1 face
    contributes its extended-outward-maxima mean, in one quadrature pass for
    all levels.  Bit-stable for a fixed seed regardless of thread count.
    """
    if domain.dim > MEAN_EC_DIM_CAP:
        raise CapabilityError(
            f"mean Euler characteristic capped at N={MEAN_EC_DIM_CAP} (got N={domain.dim})"
        )
    levels = tuple(float(u) for u in levels)

    def vertex(i: int, fc: Face) -> list[MvnResult]:
        return _vertex_term_results(model, fc, levels, _face_seed(seed, i))

    return _face_sum(
        "mean_ec",
        domain,
        levels,
        vertex,
        lambda fc: _face_term_mean_ec_result(model, fc, levels, spec),
        threads,
    )


def excursion_prob_mu(
    model: FieldModel,
    domain: RectDomain,
    levels,
    spec: QuadSpec = QuadSpec(),
    *,
    threads: int = 1,
) -> list[MecResult]:
    """Leading-order excursion probability at each level: vertex tails plus
    mu face terms, each face in one quadrature pass for all levels."""
    levels = tuple(float(u) for u in levels)

    def vertex(i: int, fc: Face) -> list[tuple[float, float]]:
        nu = float(FaceContext(model, fc).arrays(np.zeros((1, 0))).theta_sq[0])
        if nu < DEGENERATE_VAR:
            return [(0.0, 0.0)] * len(levels)
        return [(float(gauss_tail(u / math.sqrt(nu))), 0.0) for u in levels]

    return _face_sum(
        "mu_approx",
        domain,
        levels,
        vertex,
        lambda fc: _face_term_mu_result(model, fc, levels, spec),
        threads,
    )


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


def tau_hessian(model: FieldModel, face: Face, t0) -> np.ndarray:
    """Hessian of tau(t) = theta_t^2 in the face's free coordinates.

    Symmetrized central differences with per-axis step 1e-4 (b_j - a_j).
    Centers within one step of the face boundary are nudged inside, giving
    one-sided accuracy there.  NumericError when a step falls under 1e-13
    times the largest endpoint magnitude of its axis.
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
    h = 1e-4 * (hi - lo)
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


def _face_tau_hess(model: FieldModel, face: Face, t0, what: str) -> np.ndarray:
    """Theta, the Hessian of theta_t^2 on a k >= 1 face at t0; NumericError
    naming ``what`` unless it is negative definite."""
    hess = tau_hessian_analytic(model, face, t0)
    if hess is None:
        hess = tau_hessian(model, face, t0)
    top = float(np.max(np.linalg.eigvalsh(hess)))
    if top >= 0.0:
        raise NumericError(f"{what} is not negative definite (max eig {top:.3e})")
    return hess


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
        _face_tau_hess(model, host, t0, "Theta at the maximizer")
        if k >= 1
        else np.zeros((0, 0))
    )
    return LaplaceInputs(
        t0=t0,
        face=host,
        sigma_sq=mv.sigma_sq,
        theta_hess=theta_hess,
        classification=classification,
        grad_nu=grad,
    )


def _laplace_face_factor(
    ctx: FaceContext, t0: np.ndarray, theta_hess: np.ndarray
) -> float:
    """2^{k/2} |Lambda_J - Lambda_J(t0)| / (|Lambda_J|^{1/2} |-Theta|^{1/2})."""
    k = ctx.k
    if k == 0:
        return 1.0
    det_diff = float(ctx.arrays(t0[None, ctx.sig]).det_diff[0])
    det_neg_hess = float(np.linalg.det(-theta_hess))
    return 2.0 ** (k / 2.0) * det_diff / math.sqrt(ctx.det_lam_J * det_neg_hess)


def _orthant_given_free(ctx: FaceContext, seed: int) -> MvnResult:
    """P(pinned-direction gradients in the outward cone | free grads = 0)."""
    if not ctx.fixed:
        return MvnResult(1.0, 0.0, False)
    lo, hi = outward_cone(ctx.face).bounds()
    return mvn_prob([MvnProblem(ctx.schur_ff, lo, hi)], seed)[0]


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


def _laplace_factors(
    model: FieldModel,
    domain: RectDomain,
    inputs: LaplaceInputs,
    seed: int,
) -> list[tuple[Face, tuple[float, ...]]]:
    """Level-free part of the Laplace ledger: every face in enumeration
    order with its factors (f, p_1, ...).  The face's term at level u is
    f * Psi(u / sigma_T) * p_1 * ..., multiplied left to right; faces
    without a term have no factors."""
    t0 = inputs.t0
    host = inputs.face
    host_ctx = FaceContext(model, host)
    host_f = _laplace_face_factor(host_ctx, t0, inputs.theta_hess)
    # an interior or regular boundary maximum has the host term alone
    contrib = {host: (host_f,)}
    pinned = np.abs(inputs.grad_nu[list(host.fixed)])
    if pinned.size and np.all(pinned <= GRAD_ZERO_TOL):
        # flat maximizer: host term with its orthant factor plus every
        # higher face whose closure contains t0
        orth = _orthant_given_free(host_ctx, _face_seed(seed, 0))
        contrib[host] = (host_f, orth.p)
        for idx, fc in enumerate(_adjacent_higher_faces(domain, host), start=1):
            hess = _face_tau_hess(model, fc, t0, f"Theta on face {face_label(fc)}")
            ctx = FaceContext(model, fc)
            f_fact = _laplace_face_factor(ctx, t0, hess)
            extra = [j for j in fc.sigma if j not in host.sigma]
            pos = [fc.sigma.index(j) for j in extra]
            cov_z = -hess[np.ix_(pos, pos)]
            pz = mvn_prob(
                [MvnProblem(cov_z, np.full(len(pos), -np.inf), np.zeros(len(pos)))],
                _face_seed(seed, 2 * idx),
            )[0]
            orth2 = _orthant_given_free(ctx, _face_seed(seed, 2 * idx + 1))
            contrib[fc] = (f_fact, pz.p, orth2.p)
    return [(fc, contrib.get(fc, ())) for fc in enumerate_faces(domain)]


def laplace_mec_result(
    model: FieldModel,
    domain: RectDomain,
    levels,
    seed: int = 0,
) -> list[MecResult]:
    """Closed-form asymptotic equivalent of the excursion quantities, as a
    ledger per level.

    Dispatches on the maximizer classification: a regular corner gives the
    plain tail Psi(u/sigma_T); a regular face maximizer adds the curvature
    factor; a flat maximizer assembles the host face and all adjacent
    higher faces with conditional orthant and ordering factors.  Only the
    tail depends on u, so the maximizer and the factors are found once.
    """
    inputs = prepare_laplace_inputs(model, domain)
    factors = _laplace_factors(model, domain, inputs, seed)
    out = []
    for u in map(float, levels):
        psi = float(gauss_tail(u / math.sqrt(inputs.sigma_sq)))
        terms = [
            (fc, math.prod(fac[1:], start=fac[0] * psi) if fac else 0.0)
            for fc, fac in factors
        ]
        out.append(
            MecResult(
                u=u,
                method="laplace",
                per_face=tuple(terms),
                total=math.fsum(v for _, v in terms),
            )
        )
    return out
