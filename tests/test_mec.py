import math
from types import SimpleNamespace

import numpy as np
import pytest

import excursion_kit.gauss as gauss
import excursion_kit.mec as mec
import excursion_kit.quad as quad
from excursion_kit.errors import (
    AmbiguousMaximizerError,
    CapabilityError,
    DegenerateModelError,
    NumericError,
)
from excursion_kit.field import CosineField, SpectralSumField
from excursion_kit.gauss import MvnProblem, gauss_tail, hermite, mvn_prob
from excursion_kit.geometry import Face, RectDomain, embed_points, enumerate_faces, face_label, outward_cone
from excursion_kit.mec import (
    condition_check,
    excursion_prob_mu,
    laplace_mec_result,
    mean_euler_characteristic,
    prepare_laplace_inputs,
    tau_hessian,
    tau_hessian_analytic,
)
from excursion_kit.quad import QuadSpec, integrate_cone, integrate_face

PI = math.pi
SPEC = QuadSpec()
S5 = math.sqrt(5.0)


def cosine():
    return CosineField()


def edge(dom, free_axis, fixed_axis, upper):
    return Face(domain=dom, sigma=(free_axis,), epsilon=((fixed_axis, int(upper)),))


# one face or vertex at one level, straight from the kernels the ledgers sum,
# so a per-face check does not pay for the whole ledger


def face_mu(model, face, u, spec):
    return mec._face_term_mu_result(model, face, (u,), spec)[0].value


def face_mean_ec(model, face, u, spec):
    return mec._face_term_mean_ec_result(model, face, (u,), spec)[0].value


def vertex_p(model, vert, u, seed=0):
    return mec._vertex_term_results(model, vert, (u,), seed)[0].p


# ---------------------------------------------------------------------------
# mu face terms
# ---------------------------------------------------------------------------


def test_face_term_mu_edge_band():
    # edge (0, 3pi/2) x {pi/2}: leading term sqrt(2) Psi(u/2)
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 0.5 * PI])
    face = edge(dom, 0, 1, upper=True)
    u = 8.0
    ratio = face_mu(cosine(), face, u, SPEC) / (math.sqrt(2) * gauss_tail(u / 2))
    assert 0.95 <= ratio <= 1.05


def test_face_term_mu_interior_band():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])
    face = enumerate_faces(dom)[0]
    u = 8.0
    ratio = face_mu(cosine(), face, u, SPEC) / (2 * gauss_tail(u / S5))
    assert 0.95 <= ratio <= 1.05


def test_face_term_mu_decays_in_u():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 0.5 * PI])
    face = edge(dom, 0, 1, upper=True)
    assert face_mu(cosine(), face, 12.0, SPEC) < face_mu(cosine(), face, 8.0, SPEC)


def test_face_term_mu_positive_at_large_u():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    for face in enumerate_faces(dom):
        if face.k >= 1:
            for u in (8.0, 10.0):
                assert face_mu(cosine(), face, u, SPEC) >= 0.0


# ---------------------------------------------------------------------------
# vertex terms
# ---------------------------------------------------------------------------


def test_vertex_term_zero_gradient_factorizes():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    vert = Face(domain=dom, sigma=(), epsilon=((0, 1), (1, 1)))
    u = 3.0
    val = vertex_p(cosine(), vert, u)
    # at (pi,pi): c = 0 and Lambda diagonal, so X and the gradient are
    # independent and each one-sided derivative constraint contributes 1/2
    assert val == pytest.approx(0.25 * gauss_tail(u / S5), rel=1e-6)


def test_vertex_term_against_plain_monte_carlo():
    # corner (pi/2, pi/2) of [0, pi/2]^2: gradient correlated with the value,
    # so no factorization; brute-force sampling is the reference
    dom = RectDomain([0.0, 0.0], [PI / 2, PI / 2])
    vert = Face(domain=dom, sigma=(), epsilon=((0, 1), (1, 1)))
    u = 3.0
    val = vertex_p(cosine(), vert, u, seed=0)

    cov = np.array(
        [
            [3.0, 0.5, 0.5],
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
        ]
    )
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(314)
    hits = 0
    n = 10_000_000
    chunk = 1_000_000
    for _ in range(n // chunk):
        z = rng.standard_normal((chunk, 3)) @ chol.T
        hits += int(
            np.count_nonzero((z[:, 0] >= u) & (z[:, 1] >= 0.0) & (z[:, 2] >= 0.0))
        )
    p_mc = hits / n
    se = math.sqrt(p_mc * (1 - p_mc) / n)
    assert abs(val - p_mc) <= 4 * se + 1e-6


def test_vertex_term_one_dimensional():
    m = SpectralSumField(
        freqs=np.array([[1.0]]), weights=np.array([0.5]), offset_var=1.0
    )
    dom = RectDomain([0.5], [PI])
    vert = Face(domain=dom, sigma=(), epsilon=((0, 1),))
    # at t = pi: nu = 1 + 2*0.5*(1-cos pi) = 3, c = 0, so factorization is exact
    val = vertex_p(m, vert, 2.0)
    assert val == pytest.approx(0.5 * gauss_tail(2.0 / math.sqrt(3)), rel=1e-9)


def test_vertex_context_rejects_singular_gradient_covariance():
    # collinear atoms make Lambda singular (cond ~ 4e17); a vertex has no
    # free block, so only the full-Lambda check can catch it
    m = SpectralSumField(freqs=[[1.0, 0.5], [2.0, 1.0]], weights=[0.5, 0.5])
    vert = enumerate_faces(RectDomain([0.0, 0.0], [1.0, 1.0]))[-1]
    with pytest.raises(DegenerateModelError, match="gradient covariance has condition number"):
        mec.FaceContext(m, vert)


# ---------------------------------------------------------------------------
# mean-EC face terms
# ---------------------------------------------------------------------------


def test_interior_mean_ec_collapses_to_mu():
    # for the top-dimensional face the cone is empty and theta = gamma, so
    # the two integrands agree after the tail integral collapses
    dom = RectDomain([0.0, 0.0], [PI, PI])
    face = enumerate_faces(dom)[0]
    u = 6.0
    a = face_mean_ec(cosine(), face, u, SPEC)
    b = face_mu(cosine(), face, u, SPEC)
    assert a == pytest.approx(b, rel=1e-6)


def test_face_term_mean_ec_edge_band_long_domain():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, PI])
    face = edge(dom, 0, 1, upper=True)  # (0, 3pi/2) x {pi}
    u = 8.0
    ratio = face_mean_ec(cosine(), face, u, SPEC) / (
        (math.sqrt(2) / 2) * gauss_tail(u / S5)
    )
    assert 0.9 <= ratio <= 1.1


def test_face_term_mean_ec_edge_band_square():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    face = edge(dom, 0, 1, upper=True)  # (0, pi) x {pi}
    u = 8.0
    ratio = face_mean_ec(cosine(), face, u, SPEC) / (
        (math.sqrt(2) / 4) * gauss_tail(u / S5)
    )
    assert 0.9 <= ratio <= 1.1


def nested_mean_ec_face(model, face, u, spec):
    """Oracle: the face term by nested quadrature, as first implemented.

    Each face node gets its own adaptive integral of He_k(x/gamma +
    gamma C.y) against the joint density of (X, fixed gradients) given the
    free gradients vanish, over [u, inf) x outward cone; nothing is
    integrated in closed form.  Point quantities are solved at each node
    from the model's primitives, independently of mec.FaceContext.
    """
    k = face.k
    sig, fix = list(face.sigma), list(face.fixed)
    q = len(fix)
    cone = outward_cone(face)
    lam = model.lambda_mat
    lam_J = lam[np.ix_(sig, sig)]
    lam_fJ = lam[np.ix_(fix, sig)]
    reg = np.linalg.solve(lam_J, lam_fJ.T).T
    schur = lam[np.ix_(fix, fix)] - reg @ lam_fJ.T
    log_norm = -0.5 * (1 + q) * math.log(2.0 * PI)

    def outer(pts):
        out = np.zeros(pts.shape[0])
        for i, t in enumerate(embed_points(face, pts)):
            nu = float(model.variance(t))
            c = 0.5 * model.grad_variance(t)
            sol = np.linalg.solve(lam, c)
            gamma_sq = nu - c @ sol
            theta_sq = nu - c[sig] @ np.linalg.solve(lam_J, c[sig])
            if gamma_sq < mec.DEGENERATE_VAR or theta_sq < mec.DEGENERATE_VAR:
                continue
            gam = math.sqrt(gamma_sq)
            b = c[fix] - reg @ c[sig]
            cov = np.empty((1 + q, 1 + q))
            cov[0, 0] = theta_sq
            cov[0, 1:] = cov[1:, 0] = b
            cov[1:, 1:] = schur
            chol = np.linalg.cholesky(cov)
            logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
            # C_j = [Cov(X, grad X)^{-1}]_{1, j+1} = -[Lambda^{-1} c]_j / gamma^2
            coef = -sol[fix] / gam

            def h(z):
                arg = z[:, 0] / gam + z[:, 1:] @ coef
                w = np.linalg.solve(chol, z.T)
                pdf = np.exp(log_norm - 0.5 * logdet - 0.5 * np.sum(w * w, axis=0))
                return hermite(k, arg) * pdf

            det_diff = np.linalg.det(lam_J - model.lambda_at(t)[np.ix_(sig, sig)])
            out[i] = det_diff * gam ** (-k) * integrate_cone(cone, u, h, spec).value
        return out

    pref = (2.0 * PI) ** (-k / 2.0) / math.sqrt(np.linalg.det(lam_J))
    return pref * integrate_face(face, outer, spec).value


def spectral3():
    # three unit-frequency atoms of weight 1/2 and unit offset on [0, pi]^3
    m = SpectralSumField(freqs=np.eye(3), weights=np.full(3, 0.5), offset_var=1.0)
    return m, RectDomain([0.0] * 3, [PI] * 3)


def assert_faces_match_oracle(model, dom, labels, u):
    for label in labels:
        face = next(f for f in enumerate_faces(dom) if face_label(f) == label)
        want = nested_mean_ec_face(model, face, u, SPEC)
        got = face_mean_ec(model, face, u, SPEC)
        assert got == pytest.approx(want, rel=1e-7, abs=0.0), (dom, label)


@pytest.mark.parametrize("u", [2.5, 6.0])
def test_mean_ec_faces_match_nested_oracle_cosine(u):
    # the interior and one lower and one upper edge of [0, pi]^2 (the other
    # edges mirror them); nu_1 vanishes on t_1 = 0 and pi, so X and the
    # fixed gradient are uncorrelated there, and the edge t_1 = 3 pi/2 of
    # the long rectangle adds one where they are not
    square = RectDomain([0.0, 0.0], [PI, PI])
    assert_faces_match_oracle(cosine(), square, ("2|{1,2}|{}", "1|{1}|{2:0}", "1|{1}|{2:1}"), u)
    long = RectDomain([0.0, 0.0], [1.5 * PI, PI])
    assert_faces_match_oracle(cosine(), long, ("1|{2}|{1:1}",), u)


def test_mean_ec_faces_match_nested_oracle_3d():
    m, dom = spectral3()
    assert_faces_match_oracle(m, dom, ("2|{1,2}|{3:1}", "1|{1}|{2:0,3:1}"), 6.0)
    # an edge with two cone axes, one of them correlated with X
    long = RectDomain([0.0] * 3, [1.5 * PI, PI, PI])
    assert_faces_match_oracle(m, long, ("1|{3}|{1:1,2:1}",), 6.0)


@pytest.mark.filterwarnings("ignore::excursion_kit.errors.QuadratureWarning")
def test_mean_ec_joint_box_runs_the_field_at_face_points_only(monkeypatch):
    # a joint box over a k-face x its q-dimensional cone has order^(k+q)
    # nodes but only order^k distinct face points; the field sees each once
    # per box (one split level is enough to see every box take that path)
    monkeypatch.setattr(quad, "MAX_SUBDIVISIONS", 1)
    spec = QuadSpec(order_per_axis=6, rel_tol=1e-4)
    sizes = []
    arrays = mec.FaceContext.arrays

    def spy(self, pts):
        sizes.append(pts.shape[0])
        return arrays(self, pts)

    monkeypatch.setattr(mec.FaceContext, "arrays", spy)
    m, dom = spectral3()
    for model, domain in ((cosine(), RectDomain([0.0, 0.0], [PI, PI])), (m, dom)):
        for face in enumerate_faces(domain):
            if 1 <= face.k < domain.dim:
                sizes.clear()
                face_mean_ec(model, face, 6.0, spec)
                assert sizes and set(sizes) == {6**face.k}, face_label(face)


@pytest.mark.parametrize("upper", [[PI, PI], [1.5 * PI, PI]])
@pytest.mark.parametrize("u", [2.5, 6.0])
def test_mean_ec_err_est_covers_quadrature_error(upper, u):
    # vertices use the same seeded QMC on both sides, so the difference is
    # the face quadrature's own error, which err_est must bound
    dom = RectDomain([0.0, 0.0], upper)
    [res] = mean_euler_characteristic(cosine(), dom, [u], SPEC)
    [tight] = mean_euler_characteristic(
        cosine(), dom, [u], QuadSpec(order_per_axis=40, rel_tol=1e-11)
    )
    assert abs(res.total - tight.total) <= res.err_est


def test_mean_ec_tracks_corner_tail_to_high_levels():
    # on [0, pi/2]^2 the corner (pi/2, pi/2) hosts the variance maximum 3 and
    # the mean EC approaches Psi(u / sqrt 3); the corner's orthant mass is far
    # below 1e-16 at u = 15 and 16 and must not cancel to zero
    dom = RectDomain([0.0, 0.0], [PI / 2, PI / 2])
    gaps = []
    for res in mean_euler_characteristic(cosine(), dom, (12.0, 14.0, 15.0, 16.0), SPEC):
        assert res.by_label()["0|{}|{1:1,2:1}"] > 0.0, res.u
        gaps.append(abs(res.total / gauss_tail(res.u / math.sqrt(3.0)) - 1.0))
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------


def test_mean_ec_total_band_square():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    [res] = mean_euler_characteristic(cosine(), dom, [8.0], SPEC)
    want = (3 + 2 * math.sqrt(2)) / 4 * gauss_tail(8.0 / S5)
    assert 0.9 <= res.total / want <= 1.1


def test_mean_ec_total_band_rectangle():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, PI])
    [res] = mean_euler_characteristic(cosine(), dom, [8.0], SPEC)
    want = (2 + math.sqrt(2)) / 2 * gauss_tail(8.0 / S5)
    assert 0.9 <= res.total / want <= 1.1


def test_mean_ec_total_decays():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    t6, t9 = (r.total for r in mean_euler_characteristic(cosine(), dom, (6.0, 9.0), SPEC))
    assert t6 > t9 > 0


def test_mu_ledger_sums_exactly():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    [res] = excursion_prob_mu(cosine(), dom, [7.0], SPEC)
    assert len(res.per_face) == 9
    assert res.total == pytest.approx(
        math.fsum(v for _, v in res.per_face), abs=1e-12 * max(1.0, res.total)
    )


def test_mu_symmetric_edges_identical():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    ledger = excursion_prob_mu(cosine(), dom, [7.0], SPEC)[0].by_label()
    assert ledger["1|{1}|{2:0}"] == ledger["1|{2}|{1:0}"]
    assert ledger["1|{1}|{2:1}"] == ledger["1|{2}|{1:1}"]


def test_mu_single_vertex_lower_bound():
    from excursion_kit.field import GaussianIncrementField

    m = GaussianIncrementField(dim=1, scale=1.0, offset_var=0.1)
    dom = RectDomain([0.2], [1.5])
    u = 3.0
    [res] = excursion_prob_mu(m, dom, [u], SPEC)
    assert res.total >= gauss_tail(u / math.sqrt(m.variance(np.array([1.5]))))


def test_mu_totals_strictly_decreasing():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    totals = [r.total for r in excursion_prob_mu(cosine(), dom, (5, 6, 7, 8), SPEC)]
    assert all(a > b for a, b in zip(totals, totals[1:]))


@pytest.mark.parametrize("s", [0.5, 2.0, 3.7])
def test_scaling_covariance(s):
    # scaling the field by s (weights and offset by s^2) maps level u to s*u;
    # the integrands match pointwise, so agreement is at roundoff level
    base = cosine()
    scaled = SpectralSumField(
        freqs=base.freqs, weights=s**2 * base.weights, offset_var=s**2 * base.offset_var
    )
    dom = RectDomain([0.0, 0.0], [PI, PI])
    u = 6.0
    [a] = excursion_prob_mu(base, dom, [u], SPEC)
    [b] = excursion_prob_mu(scaled, dom, [s * u], SPEC)
    a, b = a.total, b.total
    assert b == pytest.approx(a, rel=1e-10)


def test_mean_ec_dimension_cap():
    m = SpectralSumField(freqs=np.eye(4), weights=np.full(4, 0.5), offset_var=1.0)
    dom = RectDomain([0.0] * 4, [1.0] * 4)
    with pytest.raises(CapabilityError):
        mean_euler_characteristic(m, dom, [3.0], SPEC)


def test_mu_dimension_cap():
    m = SpectralSumField(freqs=np.eye(7), weights=np.full(7, 0.5), offset_var=1.0)
    dom = RectDomain([0.0] * 7, [1.0] * 7)
    with pytest.raises(CapabilityError, match="N=6"):
        excursion_prob_mu(m, dom, [3.0], SPEC)


def test_threading_is_bit_stable():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    [a] = mean_euler_characteristic(cosine(), dom, [7.0], SPEC, threads=1)
    [b] = mean_euler_characteristic(cosine(), dom, [7.0], SPEC, threads=4)
    assert a.total == b.total
    assert [(v) for _, v in a.per_face] == [(v) for _, v in b.per_face]


def test_face_arrays_blocks_equal_one_unblocked_evaluation(monkeypatch):
    # oblique frequencies couple every axis; the 24^4 Gauss-Legendre nodes
    # of an interior-face box span eleven blocks
    rng = np.random.default_rng(4)
    model = SpectralSumField(
        freqs=rng.normal(size=(6, 4)), weights=rng.uniform(0.2, 1.0, 6), offset_var=1.0
    )
    face = enumerate_faces(RectDomain([0.0] * 4, [2.0, 1.5, 1.8, 1.2]))[0]
    lo, hi = face.free_bounds()
    x = 0.5 * (np.polynomial.legendre.leggauss(24)[0] + 1.0)
    mesh = np.meshgrid(*(lo[i] + (hi[i] - lo[i]) * x for i in range(4)), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    assert face.k == 4 and len(pts) > mec.POINT_BLOCK
    ctx = mec.FaceContext(model, face)
    blocked = ctx.arrays(pts)
    monkeypatch.setattr(mec, "POINT_BLOCK", len(pts))
    whole = ctx.arrays(pts)
    for name, got, want in zip(whole._fields, blocked, whole):
        assert got.shape == want.shape and np.array_equal(got, want), name


def test_vertex_levels_share_one_set_of_qmc_points(monkeypatch):
    # the levels of a vertex differ only in the bound on X, so each of the
    # 12 randomizations builds its Sobol points once for all of them; every
    # level still equals its own mvn_prob call
    model = SpectralSumField(
        freqs=[[1.0, 0.5, 0.0], [0.3, 1.0, 0.2], [0.0, 0.4, 1.1], [0.7, -0.6, 0.5]],
        weights=[0.5, 0.4, 0.3, 0.2],
        offset_var=1.0,
    )
    dom = RectDomain([0.0] * 3, [2.5, 2.0, 1.5])
    levels = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    built = []
    sobol = gauss.qmc.Sobol

    def counting_sobol(*args, **kwargs):
        built.append(kwargs.get("d"))
        return sobol(*args, **kwargs)

    monkeypatch.setattr(gauss.qmc, "Sobol", counting_sobol)
    for i, fc in enumerate(f for f in enumerate_faces(dom) if f.k == 0):
        seed = mec._face_seed(0, i)
        built.clear()
        got = mec._vertex_term_results(model, fc, levels, seed)
        assert built == [3] * 12, face_label(fc)
        t = fc.fixed_values()
        c = 0.5 * model.grad_variance(t)
        cov = np.block([[np.array([[model.variance(t)]]), c[None, :]], [c[:, None], model.lambda_mat]])
        clo, chi = outward_cone(fc).bounds()
        want = [
            mvn_prob([MvnProblem(cov, np.r_[u, clo], np.r_[np.inf, chi])], seed)[0]
            for u in levels
        ]
        assert got == want, face_label(fc)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("method", ["mu_approx", "mean_ec"])
def test_level_vector_equals_single_levels(method, threads):
    # at order 4 every level refines its own tree: mu evaluates 873, 1057
    # and 1197 boxes at u = 1, 4, 9 and mean EC 7769, 6537 and 2905, so the
    # shared pass must keep each level's tree apart to match bit for bit
    dom = RectDomain([0.0, 0.0], [1.5 * PI, PI])
    spec = QuadSpec(order_per_axis=4, rel_tol=1e-8)
    levels = (1.0, 4.0, 9.0)
    fn = excursion_prob_mu if method == "mu_approx" else mean_euler_characteristic
    batch = fn(cosine(), dom, levels, spec, threads=threads)
    single = [fn(cosine(), dom, [u], spec, threads=threads)[0] for u in levels]
    assert len(batch) == len(levels)
    for got, want in zip(batch, single):
        assert (got.u, got.method) == (want.u, want.method)
        assert [f for f, _ in got.per_face] == [f for f, _ in want.per_face]
        assert [v for _, v in got.per_face] == [v for _, v in want.per_face]
        assert got.total == want.total
        assert got.err_est == want.err_est


def test_empty_level_sequence_gives_no_ledgers():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    assert excursion_prob_mu(cosine(), dom, [], SPEC) == []
    assert mean_euler_characteristic(cosine(), dom, [], SPEC) == []
    assert laplace_mec_result(cosine(), dom, []) == []


# ---------------------------------------------------------------------------
# condition_check
# ---------------------------------------------------------------------------


def test_condition_check_satisfied_quarter_square():
    rep = condition_check(cosine(), RectDomain([0.0, 0.0], [PI / 2, PI / 2]))
    assert rep.satisfied
    assert rep.sigma_sq == pytest.approx(3.0, abs=1e-8)


def test_condition_check_violated_at_flat_corner():
    rep = condition_check(cosine(), RectDomain([0.0, 0.0], [PI, PI]))
    assert not rep.satisfied
    face, point, grads = rep.violations[0]
    assert np.allclose(point, [PI, PI], atol=1e-6)
    assert max(abs(g) for g in grads) < 1e-8


@pytest.mark.parametrize("top", [1.5 * PI, 1.7 * PI])
def test_condition_check_finds_flat_edge_maximizer_off_grid(top):
    # sigma_T^2 = 5 at (pi, pi) on the open edge t1 = pi, where
    # nu_1 = sin(pi) = 0; t2 = pi is no node of a uniform grid on [0, top]
    rep = condition_check(cosine(), RectDomain([0.0, 0.0], [PI, top]))
    assert not rep.satisfied
    assert rep.sigma_sq == pytest.approx(5.0, abs=1e-9)
    assert len(rep.violations) == 1
    face, point, grads = rep.violations[0]
    assert face_label(face) == "1|{2}|{1:1}"
    assert np.allclose(point, [PI, PI], atol=1e-6)
    assert abs(grads[0]) < 1e-8


def test_condition_check_interior_max_vacuous():
    rep = condition_check(cosine(), RectDomain([2.0, 2.0], [4.0, 4.0]))
    assert rep.satisfied


# ---------------------------------------------------------------------------
# Laplace closed forms (frozen reference values)
# ---------------------------------------------------------------------------


def closed_forms():
    return [
        (RectDomain([0.0, 0.0], [PI / 2, PI / 2]), lambda u: gauss_tail(u / math.sqrt(3))),
        (RectDomain([0.0, 0.0], [1.5 * PI, PI / 2]), lambda u: math.sqrt(2) * gauss_tail(u / 2)),
        (RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI]), lambda u: 2 * gauss_tail(u / S5)),
        (RectDomain([0.0, 0.0], [PI, PI]), lambda u: (3 + 2 * math.sqrt(2)) / 4 * gauss_tail(u / S5)),
        (RectDomain([0.0, 0.0], [1.5 * PI, PI]), lambda u: (2 + math.sqrt(2)) / 2 * gauss_tail(u / S5)),
    ]


@pytest.mark.parametrize("idx", range(5))
def test_laplace_matches_reference(idx):
    dom, ref = closed_forms()[idx]
    for res in laplace_mec_result(cosine(), dom, (5.0, 8.0)):
        assert res.total == pytest.approx(ref(res.u), rel=1e-9), (dom, res.u)


def test_laplace_ledger_shape():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    [res] = laplace_mec_result(cosine(), dom, [8.0])
    assert len(res.per_face) == 9
    assert res.total == pytest.approx(math.fsum(v for _, v in res.per_face), rel=1e-12)
    # corner host, two edges, interior carry the mass; the rest are zero
    nonzero = [v for _, v in res.per_face if v != 0.0]
    assert len(nonzero) == 4


def test_laplace_ratio_improves_with_level():
    for dom, ref in closed_forms():
        q5, q8 = (r.total for r in mean_euler_characteristic(cosine(), dom, (5.0, 8.0), SPEC))
        r5 = q5 / ref(5.0)
        r8 = q8 / ref(8.0)
        assert abs(r8 - 1) < abs(r5 - 1), dom


def test_laplace_ambiguous_maximizer():
    dom = RectDomain([0.0, 0.0], [4 * PI, PI / 2])
    with pytest.raises(AmbiguousMaximizerError):
        prepare_laplace_inputs(cosine(), dom)


def test_laplace_flat_maximizer_not_negative_definite():
    # two tuned atoms make the variance maximum quartically flat at t = pi,
    # so the tau Hessian vanishes there and the Laplace method must refuse
    m = SpectralSumField(
        freqs=np.array([[1.0], [2.0]]),
        weights=np.array([0.8, 0.2]),
        offset_var=1.0,
    )
    dom = RectDomain([0.5], [2 * PI - 0.5])
    with pytest.raises(NumericError):
        laplace_mec_result(m, dom, [8.0])


def test_laplace_classifications():
    corner = prepare_laplace_inputs(cosine(), RectDomain([0.0, 0.0], [PI / 2, PI / 2]))
    assert corner.classification == "corner-regular"
    edge_c = prepare_laplace_inputs(cosine(), RectDomain([0.0, 0.0], [1.5 * PI, PI / 2]))
    assert edge_c.classification == "face-critical"
    assert edge_c.face.sigma == (0,)
    inter = prepare_laplace_inputs(cosine(), RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI]))
    assert inter.classification == "interior-critical"


class NoThirdCosine(SpectralSumField):
    """The cosine field without analytic third derivatives."""

    def _g_third(self, h):
        return None


def test_laplace_without_third_derivatives_matches_reference():
    # face-critical host: the tau Hessian comes from finite differences
    m = NoThirdCosine(freqs=np.eye(2), weights=np.array([0.5, 0.5]), offset_var=1.0)
    assert m.third_variance(np.zeros(2)) is None
    dom, ref = closed_forms()[1]
    inputs = prepare_laplace_inputs(m, dom)
    assert inputs.classification == "face-critical"
    assert inputs.face.sigma == (0,)
    for res in laplace_mec_result(m, dom, (5.0, 8.0)):
        assert res.total == pytest.approx(ref(res.u), rel=1e-7)


# ---------------------------------------------------------------------------
# tau_hessian
# ---------------------------------------------------------------------------


def test_tau_hessian_edge_reference():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, PI / 2])
    face = edge(dom, 0, 1, upper=True)
    hess = tau_hessian(cosine(), face, [PI, PI / 2])
    assert abs(hess[0, 0] - (-2.0)) < 1e-5


def test_tau_hessian_interior_reference():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])
    face = enumerate_faces(dom)[0]
    hess = tau_hessian(cosine(), face, [PI, PI])
    assert np.allclose(hess, -2 * np.eye(2), atol=1e-5)


def test_tau_hessian_analytic_is_exact():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])
    face = enumerate_faces(dom)[0]
    hess = tau_hessian_analytic(cosine(), face, np.array([PI, PI]))
    assert np.allclose(hess, -2 * np.eye(2), atol=1e-12)
    e = edge(RectDomain([0.0, 0.0], [1.5 * PI, PI / 2]), 0, 1, upper=True)
    h1 = tau_hessian_analytic(cosine(), e, np.array([PI, PI / 2]))
    assert h1[0, 0] == pytest.approx(-2.0, abs=1e-12)


def test_tau_hessian_exact_on_quadratic_supplier(monkeypatch):
    # stub the conditional-variance supplier with an exact quadratic; the
    # central-difference stencil must recover its Hessian to FD roundoff
    t_star = np.array([0.6, 1.1])

    def fake_arrays(self, pts):
        d = pts - t_star
        return SimpleNamespace(theta_sq=9.0 - np.sum(d * d, axis=1))

    monkeypatch.setattr(mec.FaceContext, "arrays", fake_arrays)
    dom = RectDomain([0.0, 0.0], [2.0, 2.0])
    face = enumerate_faces(dom)[0]
    hess = tau_hessian(cosine(), face, [0.6, 1.1])
    assert np.allclose(hess, -2 * np.eye(2), atol=1e-6)


def test_tau_hessian_step_underflow():
    # the default step 1e-4 * 1e-3 = 1e-7 lies below 1e-13 * 1e7
    dom = RectDomain([1e7, 1e7], [1e7 + 1e-3, 1e7 + 1e-3])
    face = enumerate_faces(dom)[0]
    with pytest.raises(NumericError):
        tau_hessian(cosine(), face, [1e7 + 5e-4, 1e7 + 5e-4])


def test_tau_hessian_fd_matches_analytic_generic_points():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])
    face = enumerate_faces(dom)[0]
    for t in ([2.0, 2.5], [3.0, 1.2], [4.0, 4.0]):
        fd = tau_hessian(cosine(), face, t)
        an = tau_hessian_analytic(cosine(), face, np.array(t))
        assert np.allclose(fd, an, atol=5e-6)
