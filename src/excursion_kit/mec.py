"""Kac-Rice face terms, mean Euler characteristic, and Laplace closed forms.

The three user-facing quantities are functions of the level u.  Each takes a
level sequence and returns one MecResult ledger per level, equal to the
ledger of a one-level call; the level-free work is done once for all levels.
Each is one term per face, vertices included, summed by ``_face_sum``; the
quantities differ only in the term.

* ``mean_euler_characteristic``: the exact mean Euler characteristic of the
  excursion set.  Its face term (``_face_term`` with the cone) is the
  Kac-Rice mean of X conditioned on the free gradients vanishing, with the
  pinned-direction gradients in the face's outward cone: an orthant
  probability at a vertex, and on a k >= 1 face one adaptive integral over
  the face coordinates alone, the level axis and the cone integrated in
  closed form (a normal or bivariate-normal orthant per face point);
* ``excursion_prob_mu``: the leading-order excursion-probability
  approximation, the same face term without the outward cone: vertex tails
  plus per-face integrals of He_{k-1}(u/theta_t) exp(-u^2 / (2 theta_t^2));
  the interior face, whose cone is empty, has the same term in both;
* ``laplace_mec_result``: the closed-form asymptotic equivalent obtained
  by Laplace-expanding the face integrals around the variance maximizer.

Every face term, vertices and Laplace factors included, reads its face's
second-order structure from ``FaceContext``; the degeneracy policies
(COND_CAP, NEG_TOL, DEGENERATE_VAR) are defined here.
Face terms are signed and reported as computed.  A mu face term can be
negative at low levels: He_{k-1}(u/theta_t) < 0 where theta_t is large
against u (for k = 4, where theta_t > u/sqrt(3)).
"""

from __future__ import annotations

import math
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
    finite_levels,
)
from .field import POINT_BLOCK, FieldModel, max_variance
from .gauss import (
    MvnProblem,
    MvnResult,
    _quadrant,
    gauss_tail,
    hermite,
    mvn_prob,
    std_normal_pdf,
)
from .geometry import (
    Face,
    RectDomain,
    embed_points,
    enumerate_faces,
    face_label,
    outward_cone,
)
from .quad import QuadResult, QuadSpec, integrate_face

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

    The model's face kernel is built once per face; per point it gives
    nu - sigma0^2, c and |Lambda_J - Lambda_J(t)| (see
    FieldModel.face_kernel).  ``arrays`` evaluates the points it is given
    in one call; the face integrand of _face_term gives it at most
    POINT_BLOCK at a time.

    DomainError when the face's domain and the model differ in dimension;
    DegenerateModelError when Lambda_J or Lambda has a condition number
    beyond COND_CAP; ModelInconsistencyError when theta^2 or gamma^2 falls
    below -NEG_TOL (smaller negatives are clamped to zero).
    """

    def __init__(self, model: FieldModel, face: Face):
        model._points(face.domain.lower)
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
        self.kernel = model.face_kernel(self.sig)
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
        an (m, k) array of face points, all per point."""
        face = self.face
        g, c, det_diff = self.kernel(embed_points(face, pts))
        nu = self.model.offset_var + g
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


def _face_term(
    model: FieldModel,
    face: Face,
    levels: tuple[float, ...],
    spec: QuadSpec,
    cone: bool,
) -> list:
    """The Kac-Rice term of one face at every level, one tuple per level
    that starts (value, err_est).

    It counts X(t) >= u where the free gradients vanish, against the
    density of X and the pinned-direction gradients y given them.  With
    ``cone`` y lies in the face's outward cone (mean EC); without it y is
    integrated out (mu).  A vertex gives P(X >= u, y in cone) by
    ``mvn_prob``, one problem per level, or without the cone the tail
    P(X >= u).  That orthant has dimension N + 1 <= MEAN_EC_DIM_CAP + 1 <=
    gauss.MVN_DET_DIM, where mvn_prob is deterministic, so it takes no seed.

    On a k >= 1 face one adaptive integral over the face coordinates
    remains, and its error estimate is the term's.  Without a cone (mu,
    and the interior face) the integrand is det_diff theta_t^-k
    He_{k-1}(u / theta_t) exp(-u^2 / (2 theta_t^2)).  With one it is
    det_diff (-d/du)^{k-1} [phi(u / theta_t) / theta_t * P_t(u)], with
    P_t(u) = P(y in cone | X = u) for y ~ N(u b_t / theta_t^2, S - b_t^T
    b_t / theta_t^2) (S the constant covariance of y): a normal tail with
    one pinned axis, a bivariate quadrant with two.  Points where theta_t^2
    or gamma_t^2 is below DEGENERATE_VAR add 0, and err_est does not cover
    what that mask drops: at u = 0 on an edge through a zero-variance corner
    it is a sliver of the integral (on an oblique 2-D field a spec fine
    enough to resolve the mask reads 1.2329871, the default spec 1.2330638
    with err_est 3.3e-10).
    """
    ctx = FaceContext(model, face)
    k = face.k
    q = len(ctx.fixed) if cone else 0
    if q and k + q > MEAN_EC_DIM_CAP:
        raise CapabilityError(f"mean-EC face term capped at N={MEAN_EC_DIM_CAP} (got N={k + q})")
    if k == 0:
        d = ctx.arrays(np.zeros((1, 0)))
        if q:
            cov = np.block([[d.theta_sq[:, None], d.b], [d.b.T, ctx.lam]])
            clo, chi = outward_cone(face).bounds()
            hi = np.r_[np.inf, chi]
            return mvn_prob([MvnProblem(cov, np.r_[u, clo], hi) for u in levels])
        nu = float(d.theta_sq[0])
        if nu < DEGENERATE_VAR:
            # X(t) = 0 almost surely
            return [QuadResult(float(u <= 0.0), 0.0) for u in levels]
        return [QuadResult(float(gauss_tail(u / math.sqrt(nu))), 0.0) for u in levels]

    pref = ctx.pref_mu
    if q:
        try:
            np.linalg.cholesky(ctx.schur_ff)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(
                f"conditional gradient covariance singular on face {face_label(face)}"
            ) from exc
        pref = ctx.pref_mec
        signs = outward_cone(face).signs()

    def integrand(x):
        # x holds free face coordinates (m, k); one row per level.  The body
        # runs on at most POINT_BLOCK points at a time, so no per-point array
        # grows with m; every expression is per point, so the blocks fill in
        # the values of one unblocked evaluation
        out = np.empty((len(levels), len(x)))
        for i in range(0, len(x), POINT_BLOCK):
            block_rows(x[i : i + POINT_BLOCK], out[:, i : i + POINT_BLOCK])
        return out

    def block_rows(x, out):
        d = ctx.arrays(x)
        ok = d.theta_sq >= DEGENERATE_VAR
        if q:
            ok &= d.gamma_sq >= DEGENERATE_VAR
        theta = np.sqrt(np.where(ok, d.theta_sq, 1.0))
        if not q:
            weight = np.where(ok, d.det_diff * theta ** (-k), 0.0)
            for row, u in zip(out, levels):
                a = u / theta
                row[:] = weight * hermite(k - 1, a) * np.exp(-0.5 * (a * a))
            return
        # the pinned gradients given X = u: mean u b / theta^2 and covariance
        # C = S - b^T b / theta^2; per unit u, their standardized outward mean
        theta_sq = np.where(ok, d.theta_sq, 1.0)
        cov = ctx.schur_ff - d.b[:, :, None] * d.b[:, None, :] / theta_sq[:, None, None]
        sd = np.sqrt(np.where(ok[:, None], np.diagonal(cov, axis1=1, axis2=2), 1.0))
        slope = signs * d.b / (theta_sq[:, None] * sd)
        weight = np.where(ok, d.det_diff / theta, 0.0)
        if q == 2:
            rho = np.clip(signs[0] * signs[1] * cov[:, 0, 1] / (sd[:, 0] * sd[:, 1]), -1.0, 1.0)
        for row, u in zip(out, levels):
            a = u / theta
            if q == 1:
                p = gauss_tail(-u * slope[:, 0])
                if k == 2:
                    # -d/du [phi(u / theta) P_t] / phi(u / theta), with
                    # d/du P_t = phi(u slope) slope
                    p = u / theta_sq * p - std_normal_pdf(u * slope[:, 0]) * slope[:, 0]
            else:
                p = _quadrant(-u * slope[:, 0], -u * slope[:, 1], rho)
            row[:] = weight * std_normal_pdf(a) * p

    results = integrate_face(face, integrand, spec)
    return [QuadResult(pref * r.value, pref * r.err_est, r.converged) for r in results]


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
    term: Callable[[Face], list],
) -> list[MecResult]:
    """Sum of one term per face of the domain, vertices included.

    ``term(f)`` evaluates the face f and returns one tuple per level, in
    the order of ``levels``, that starts (value, err_est); a Rice kernel
    integrates all levels in one quadrature pass.  The result holds one
    MecResult per level.  Each ledger keeps one entry per face in
    enumeration order and its total is their ordered sum.
    """
    faces = enumerate_faces(domain)
    per_face = [[t[:2] for t in term(f)] for f in faces]
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
) -> list[MecResult]:
    """Mean Euler characteristic of the excursion set above each level.

    One Kac-Rice face term per face with the outward cone: vertices
    contribute joint orthant probabilities, every k >= 1 face its
    extended-outward-maxima mean, one adaptive integral over the face in
    one quadrature pass for all levels.  Deterministic: it draws no QMC
    points, so it takes no seed.
    """
    levels = finite_levels(levels)
    if domain.dim > MEAN_EC_DIM_CAP:
        raise CapabilityError(
            f"mean Euler characteristic capped at N={MEAN_EC_DIM_CAP} (got N={domain.dim})"
        )
    return _face_sum(
        "mean_ec", domain, levels, lambda fc: _face_term(model, fc, levels, spec, cone=True)
    )


def excursion_prob_mu(
    model: FieldModel,
    domain: RectDomain,
    levels,
    spec: QuadSpec = QuadSpec(),
) -> list[MecResult]:
    """Leading-order excursion probability at each level: the mean-EC face
    terms without the outward cone, that is vertex tails plus mu face
    integrals, each face in one quadrature pass for all levels.  Draws no
    QMC points, so it takes no seed."""
    levels = finite_levels(levels)
    return _face_sum(
        "mu_approx", domain, levels, lambda fc: _face_term(model, fc, levels, spec, cone=False)
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


def _flat(pinned_grads) -> np.ndarray:
    """Per pinned direction j, whether nu is flat there: |dnu/dt_j| <= GRAD_ZERO_TOL."""
    return np.abs(pinned_grads) <= GRAD_ZERO_TOL


def condition_check(model: FieldModel, domain: RectDomain) -> ConditionReport:
    """Check the boundary-maximum regularity condition at max_variance's
    face_maxima: the polished maxima within field.NEAR_TOL of sigma_T^2,
    from its certified cover of that set, each on its host face.  A point
    whose pinned-direction derivatives include a flat one (_flat) is
    reported as (face, point, pinned derivatives); the interior face has
    none and never violates.
    """
    mv = max_variance(model, domain)
    violations = []
    for _, t, fc in mv.face_maxima:
        gf = model.grad_variance(t)[list(fc.fixed)]
        if np.any(_flat(gf)):
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
    """Theta, the Hessian of theta_t^2 in the face's free coordinates, from
    the third derivatives of nu:

    tau_ij = nu_ij - (1/2) sum_{m,n in sigma} nu_mij A_mn nu_n
                   - (1/2) sum_{m,n in sigma} nu_mi  A_mn nu_nj,

    with A = Lambda_J^-1 from the face's FaceContext.  ValueError unless the
    face has k >= 1 and t0 is a full point of the face's closure: its free
    coordinates within the face's bounds and its fixed ones within 1e-12
    of the face's pinned values.
    """
    if face.k < 1:
        raise ValueError("tau_hessian needs a face with k >= 1")
    t0 = np.asarray(t0, dtype=float)
    if t0.shape != (face.domain.dim,):
        raise ValueError(
            f"t0 must be a full {face.domain.dim}-dimensional point"
        )
    sig = list(face.sigma)
    lo, hi = face.free_bounds()
    x0 = t0[sig]
    if np.any(x0 < lo - 1e-12) or np.any(x0 > hi + 1e-12):
        raise ValueError("t0 lies outside the face closure")
    if np.any(np.abs(t0[list(face.fixed)] - face.fixed_values()) > 1e-12):
        raise ValueError("t0 lies off the face: a fixed coordinate is not its pinned value")
    A = FaceContext(model, face).lam_J_inv
    third = model.third_variance(t0)
    grad = model.grad_variance(t0)
    hess = model.hess_variance(t0)
    h_s = hess[np.ix_(sig, sig)]
    g_s = grad[sig]
    # restrict the mixed tensors to free coordinates
    t3 = third[np.ix_(sig, sig, sig)]  # indices (m, i, j) order-symmetric
    term1 = 0.5 * np.einsum("mij,mn,n->ij", t3, A, g_s)
    term2 = 0.5 * np.einsum("mi,mn,nj->ij", h_s, A, h_s)
    tau = h_s - term1 - term2
    return 0.5 * (tau + tau.T)


def _face_tau_hess(model: FieldModel, face: Face, t0, what: str) -> np.ndarray:
    """Theta on a k >= 1 face at t0; NumericError naming ``what`` unless it
    is negative definite."""
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
    host = mv.face
    # face_of_point puts a point within 1e-7 of a side on that side's face;
    # pin those coordinates, so t0 lies on its host face for tau_hessian
    t0 = embed_points(host, mv.point[None, list(host.sigma)])[0]
    k = host.k
    grad = model.grad_variance(t0)
    pinned = grad[list(host.fixed)]
    flat = _flat(pinned)
    if k == domain.dim:
        classification = CLASS_INTERIOR
    elif not flat.any():
        classification = CLASS_CORNER if k == 0 else CLASS_FACE
    elif flat.all():
        classification = CLASS_FACE
    else:
        raise ClassificationError(
            "mixed zero/nonzero pinned-direction derivatives at the maximizer: "
            f"|nu_j| = {np.abs(pinned).tolist()} on face {face_label(host)}"
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
) -> dict[Face, tuple[float, ...]]:
    """Level-free part of the Laplace ledger: the factors (f, p_1, ...) of
    every face with a term.  The face's term at level u is
    f * Psi(u / sigma_T) * p_1 * ..., multiplied left to right; the other
    faces' terms are 0."""
    t0 = inputs.t0
    host = inputs.face
    host_ctx = FaceContext(model, host)
    host_f = _laplace_face_factor(host_ctx, t0, inputs.theta_hess)
    # an interior or regular boundary maximum has the host term alone
    contrib = {host: (host_f,)}
    flat = _flat(inputs.grad_nu[list(host.fixed)])
    if flat.size and flat.all():
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
    return contrib


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
    levels = finite_levels(levels)
    inputs = prepare_laplace_inputs(model, domain)
    factors = _laplace_factors(model, domain, inputs, seed)
    psis = [float(gauss_tail(u / math.sqrt(inputs.sigma_sq))) for u in levels]

    def term(fc: Face) -> list[tuple[float, float]]:
        fac = factors.get(fc)
        return [
            (math.prod(fac[1:], start=fac[0] * psi) if fac else 0.0, 0.0) for psi in psis
        ]

    return _face_sum("laplace", domain, levels, term)
