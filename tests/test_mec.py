import math

import numpy as np
import pytest

import excursion_kit.gauss as gauss
import excursion_kit.mec as mec
import excursion_kit.quad as quad
from excursion_kit.errors import (
    AmbiguousMaximizerError,
    CapabilityError,
    ConfigError,
    DegenerateModelError,
    NumericError,
)
from excursion_kit.field import CosineField, GaussianIncrementField, SpectralSumField, max_variance
from excursion_kit.gauss import MvnProblem, gauss_tail, hermite, mvn_prob
from excursion_kit.geometry import Face, RectDomain, embed_points, enumerate_faces, face_label, outward_cone
from excursion_kit.mec import (
    condition_check,
    excursion_prob_mu,
    laplace_mec_result,
    mean_euler_characteristic,
    prepare_laplace_inputs,
    tau_hessian,
)
from excursion_kit.mc import empirical_sup_prob, mc_mean_ec
from excursion_kit.quad import QuadSpec, integrate_cone, integrate_face

PI = math.pi
SPEC = QuadSpec()
S5 = math.sqrt(5.0)


def cosine():
    return CosineField()


def edge(dom, free_axis, fixed_axis, upper):
    return Face(domain=dom, sigma=(free_axis,), epsilon=((fixed_axis, int(upper)),))


def face_term(model, face, u, spec=SPEC, *, cone):
    """One face or vertex at one level, straight from the term the ledgers
    sum, so a per-face check does not pay for the whole ledger: the mean-EC
    term with the outward cone, the mu term without it."""
    return mec._face_term(model, face, (u,), spec, cone)[0][0]


# ---------------------------------------------------------------------------
# mu face terms
# ---------------------------------------------------------------------------


def test_face_term_mu_edge_band():
    # edge (0, 3pi/2) x {pi/2}: leading term sqrt(2) Psi(u/2)
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 0.5 * PI])
    face = edge(dom, 0, 1, upper=True)
    u = 8.0
    ratio = face_term(cosine(), face, u, cone=False) / (math.sqrt(2) * gauss_tail(u / 2))
    assert 0.95 <= ratio <= 1.05


def test_face_term_mu_interior_band():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])
    face = enumerate_faces(dom)[0]
    u = 8.0
    ratio = face_term(cosine(), face, u, cone=False) / (2 * gauss_tail(u / S5))
    assert 0.95 <= ratio <= 1.05


def test_face_term_mu_decays_in_u():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 0.5 * PI])
    face = edge(dom, 0, 1, upper=True)
    at = [face_term(cosine(), face, u, cone=False) for u in (12.0, 8.0)]
    assert at[0] < at[1]


def test_face_term_mu_positive_at_large_u():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    for face in enumerate_faces(dom):
        if face.k >= 1:
            for u in (8.0, 10.0):
                assert face_term(cosine(), face, u, cone=False) >= 0.0


# ---------------------------------------------------------------------------
# vertex terms
# ---------------------------------------------------------------------------


def test_vertex_term_zero_gradient_factorizes():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    vert = Face(domain=dom, sigma=(), epsilon=((0, 1), (1, 1)))
    u = 3.0
    val = face_term(cosine(), vert, u, cone=True)
    # at (pi,pi): c = 0 and Lambda diagonal, so X and the gradient are
    # independent and each one-sided derivative constraint contributes 1/2
    assert val == pytest.approx(0.25 * gauss_tail(u / S5), rel=1e-6)


def test_vertex_term_against_plain_monte_carlo():
    # corner (pi/2, pi/2) of [0, pi/2]^2: gradient correlated with the value,
    # so no factorization; brute-force sampling is the reference
    dom = RectDomain([0.0, 0.0], [PI / 2, PI / 2])
    vert = Face(domain=dom, sigma=(), epsilon=((0, 1), (1, 1)))
    u = 3.0
    val = face_term(cosine(), vert, u, cone=True)

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
    val = face_term(m, vert, 2.0, cone=True)
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
    # the top-dimensional face has an empty cone, so the mean-EC and mu
    # terms run one integrand and agree bit for bit
    dom = RectDomain([0.0, 0.0], [PI, PI])
    face = enumerate_faces(dom)[0]
    u = 6.0
    a = face_term(cosine(), face, u, cone=True)
    b = face_term(cosine(), face, u, cone=False)
    assert a == b


def test_face_term_mean_ec_edge_band_long_domain():
    dom = RectDomain([0.0, 0.0], [1.5 * PI, PI])
    face = edge(dom, 0, 1, upper=True)  # (0, 3pi/2) x {pi}
    u = 8.0
    ratio = face_term(cosine(), face, u, cone=True) / (
        (math.sqrt(2) / 2) * gauss_tail(u / S5)
    )
    assert 0.9 <= ratio <= 1.1


def test_face_term_mean_ec_edge_band_square():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    face = edge(dom, 0, 1, upper=True)  # (0, pi) x {pi}
    u = 8.0
    ratio = face_term(cosine(), face, u, cone=True) / (
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
        got = face_term(model, face, u, cone=True)
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
    # an edge with two cone axes, one of them correlated with X, and a
    # 2-face whose one cone axis is, so d/du P_t does not vanish there
    long = RectDomain([0.0] * 3, [1.5 * PI, PI, PI])
    assert_faces_match_oracle(m, long, ("1|{3}|{1:1,2:1}", "2|{2,3}|{1:1}"), 6.0)


def oblique2():
    # three oblique atoms and no offset, so the variance vanishes at the
    # origin and X is correlated with every pinned gradient off it
    m = SpectralSumField(
        freqs=[[1.0, 0.5], [0.3, 1.0], [0.7, -0.6]], weights=[0.5, 0.4, 0.2], offset_var=0.0
    )
    return m, RectDomain([0.0, 0.0], [2.5, 2.0])


def oblique3():
    # four oblique atoms: Lambda has no zero entry, so the two pinned
    # gradients of an edge are correlated given X whatever its ends
    m = SpectralSumField(
        freqs=[[1.0, 0.5, 0.0], [0.3, 1.0, 0.2], [0.0, 0.4, 1.1], [0.7, -0.6, 0.5]],
        weights=[0.5, 0.4, 0.3, 0.2],
        offset_var=1.0,
    )
    return m, RectDomain([0.0] * 3, [2.5, 2.0, 1.5])


def test_mean_ec_edges_match_nested_oracle_oblique_3d():
    # edges pinned at opposite ends of their two axes, where the outward
    # orthant's correlation is minus that of the pinned gradients
    m, dom = oblique3()
    assert_faces_match_oracle(m, dom, ("1|{1}|{2:0,3:1}", "1|{2}|{1:1,3:0}"), 4.0)


@pytest.mark.parametrize("u", [2.0, 4.0, 6.0])
def test_mean_ec_faces_match_nested_oracle_oblique(u):
    # every face but the vertices: the cone integral in closed form against
    # one integrated numerically at each face node, on a field whose pinned
    # gradients are correlated with X on every edge
    m, dom = oblique2()
    labels = [face_label(f) for f in enumerate_faces(dom) if f.k >= 1]
    assert_faces_match_oracle(m, dom, labels, u)


@pytest.mark.filterwarnings("ignore::excursion_kit.errors.QuadratureWarning")
def test_mean_ec_faces_run_the_field_on_face_nodes_only(monkeypatch):
    # the outward cone is integrated in closed form, so every k >= 1 face
    # evaluates the field on the two tensor rules of its own boxes only:
    # n^k and floor(3n/4)^k points, with no cone axis (one split level is
    # enough to see refined boxes take the same path)
    monkeypatch.setattr(quad, "MAX_SUBDIVISIONS", 1)
    spec = QuadSpec(order_per_axis=6, rel_tol=1e-12)
    sizes = []
    arrays = mec.FaceContext.arrays

    def spy(self, pts):
        sizes.append(pts.shape)
        return arrays(self, pts)

    monkeypatch.setattr(mec.FaceContext, "arrays", spy)
    m, dom = spectral3()
    for model, domain in ((cosine(), RectDomain([0.0, 0.0], [PI, PI])), (m, dom), oblique2()):
        for face in enumerate_faces(domain):
            if face.k >= 1:
                sizes.clear()
                face_term(model, face, 6.0, spec, cone=True)
                k = face.k
                assert set(sizes) == {(6**k, k), (4**k, k)}, face_label(face)
                assert len(sizes) > 2, face_label(face)


@pytest.mark.parametrize(
    "model, upper, u",
    [
        pytest.param(cosine(), upper, u, id=f"{u}-upper{i}")
        for u in (2.5, 6.0)
        for i, upper in enumerate(([PI, PI], [1.5 * PI, PI]))
    ]
    + [pytest.param(oblique2()[0], [2.5, 2.0], u, id=f"oblique-{u}") for u in (2.0, 4.0, 6.0)],
)
def test_mean_ec_err_est_covers_quadrature_error(model, upper, u):
    # vertex orthants do not depend on the QuadSpec, so the difference is
    # the face quadrature's own error, which err_est must bound
    dom = RectDomain([0.0, 0.0], upper)
    [res] = mean_euler_characteristic(model, dom, [u], SPEC)
    [tight] = mean_euler_characteristic(
        model, dom, [u], QuadSpec(order_per_axis=40, rel_tol=1e-11)
    )
    assert abs(res.total - tight.total) <= res.err_est


MU_COVERAGE_CASES = {
    "cosine-square": (CosineField(), [PI, PI]),
    "cosine-4pi-by-half-pi": (CosineField(), [4 * PI, PI / 2]),
    "cosine-6pi-by-2pi": (CosineField(), [6 * PI, 2 * PI]),
    "oblique-spectral": (
        SpectralSumField(freqs=[[1.0, 0.5], [0.3, 1.0]], weights=[0.5, 0.7]),
        [1.5 * PI, PI],
    ),
    "increment-3d": (GaussianIncrementField(dim=3, scale=0.8, offset_var=0.3), [1.0] * 3),
}


@pytest.mark.parametrize("case", list(MU_COVERAGE_CASES))
def test_mu_err_est_covers_quadrature_error(case):
    # mu faces are cone-free, so each box is judged by GL(24) against GL(18)
    # on its own nodes; the summed differences must bound the distance to
    # an order-40 reference at every level.  Vertices are exact tails on
    # both sides; the 1e-13 term is the rounding of the face sums.
    model, upper = MU_COVERAGE_CASES[case]
    dom = RectDomain([0.0] * len(upper), upper)
    levels = tuple(float(u) for u in range(3, 13))
    got = excursion_prob_mu(model, dom, levels, SPEC)
    ref = excursion_prob_mu(model, dom, levels, QuadSpec(order_per_axis=40, rel_tol=1e-12))
    for res, tight in zip(got, ref):
        assert abs(res.total - tight.total) <= res.err_est + 1e-13 * abs(tight.total), res.u


@pytest.mark.parametrize("u", [12.0, 16.0])
def test_mean_ec_far_tail_edge_keeps_relative_accuracy(u):
    # the edge's term is about 1e-15 at u = 12 and 1e-25 at u = 16; the
    # floor is relative to the face's own integral of |f|, so refinement
    # does not stop once a box drops below an absolute threshold
    dom = RectDomain([0.0, 0.0], [PI / 2, PI / 2])
    face = next(f for f in enumerate_faces(dom) if face_label(f) == "1|{1}|{2:1}")
    got = face_term(cosine(), face, u, cone=True)
    want = face_term(cosine(), face, u, QuadSpec(order_per_axis=40, rel_tol=1e-12), cone=True)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


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
    m = GaussianIncrementField(dim=1, scale=1.0, offset_var=0.1)
    dom = RectDomain([0.2], [1.5])
    u = 3.0
    [res] = excursion_prob_mu(m, dom, [u], SPEC)
    assert res.total >= gauss_tail(u / math.sqrt(m.variance(np.array([1.5]))))


def test_mu_vertex_with_zero_variance_is_an_indicator():
    # nu = 0 at the origin, so X there is 0 almost surely and its vertex
    # term P(X >= u) is 1 up to u = 0 and 0 above
    m = GaussianIncrementField(dim=2, scale=1.0, offset_var=0.0)
    dom = RectDomain([0.0, 0.0], [1.0, 1.0])
    ledgers = excursion_prob_mu(m, dom, [-1.0, 0.0, 1.0], SPEC)
    assert [r.by_label()["0|{}|{1:0,2:0}"] for r in ledgers] == [1.0, 1.0, 0.0]


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
    # the closed-form cone of a face term covers N <= 3 only; the mu term
    # of the same face has no cone
    edge4 = next(f for f in enumerate_faces(dom) if f.k == 1)
    with pytest.raises(CapabilityError, match="N=4"):
        face_term(m, edge4, 3.0, cone=True)
    assert face_term(m, edge4, 3.0, cone=False) > 0.0


def test_mu_dimension_cap():
    m = SpectralSumField(freqs=np.eye(7), weights=np.full(7, 0.5), offset_var=1.0)
    dom = RectDomain([0.0] * 7, [1.0] * 7)
    with pytest.raises(CapabilityError, match="N=6"):
        excursion_prob_mu(m, dom, [3.0], SPEC)


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


def test_vertex_levels_draw_no_qmc_points(monkeypatch):
    # a 3-D vertex orthant is 4-D, within the deterministic route of
    # mvn_prob: no level builds lattice points, and every level equals its
    # own mvn_prob call whatever the seed
    model, dom = oblique3()
    levels = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)

    def no_points(*args, **kwargs):
        raise AssertionError("a vertex drew QMC points")

    monkeypatch.setattr(gauss, "_lattice_points", no_points)
    for fc in (f for f in enumerate_faces(dom) if f.k == 0):
        got = mec._face_term(model, fc, levels, SPEC, cone=True)
        t = fc.fixed_values()
        c = 0.5 * model.grad_variance(t)
        cov = np.block([[np.array([[model.variance(t)]]), c[None, :]], [c[:, None], model.lambda_mat]])
        clo, chi = outward_cone(fc).bounds()
        want = [
            mvn_prob([MvnProblem(cov, np.r_[u, clo], np.r_[np.inf, chi])], seed=7)[0]
            for u in levels
        ]
        assert got == want, face_label(fc)


def test_mean_ec_vertex_orthants_stay_deterministic():
    # a mean-EC vertex orthant is (N + 1)-dimensional, so up to the cap it
    # is within mvn_prob's deterministic route, and mean EC takes no seed;
    # raising the cap past that route needs a vertex seed again
    assert mec.MEAN_EC_DIM_CAP + 1 <= gauss.MVN_DET_DIM
    dom = RectDomain([0.0] * 4, [1.0] * 4)
    vert = next(f for f in enumerate_faces(dom) if f.k == 0)
    with pytest.raises(CapabilityError, match="capped at N=3"):
        mec._face_term(GaussianIncrementField(4), vert, (3.0,), SPEC, cone=True)


def test_mu_draws_no_qmc_points(monkeypatch):
    # mu is the face term without the outward cone: its vertices are the
    # closed-form tail, so it needs no seed and never builds lattice points
    def no_points(*args, **kwargs):
        raise AssertionError("mu drew QMC points")

    monkeypatch.setattr(gauss, "_lattice_points", no_points)
    m, dom = spectral3()
    [res] = excursion_prob_mu(m, dom, [4.0], SPEC)
    for fc, value in res.per_face:
        if fc.k == 0:
            nu = m.variance(fc.fixed_values())
            want = gauss_tail(4.0 / math.sqrt(nu))
            assert value == pytest.approx(want, rel=1e-12), face_label(fc)


@pytest.mark.parametrize("method", ["mu_approx", "mean_ec"])
def test_level_vector_equals_single_levels(method):
    # at order 4 every level refines its own tree: mu evaluates 1101, 1573
    # and 3697 boxes at u = 1, 4, 9 and mean EC 1103, 1585 and 3701, so the
    # shared pass must keep each level's tree apart to match bit for bit
    dom = RectDomain([0.0, 0.0], [1.5 * PI, PI])
    spec = QuadSpec(order_per_axis=4, rel_tol=1e-8)
    levels = (1.0, 4.0, 9.0)
    fn = excursion_prob_mu if method == "mu_approx" else mean_euler_characteristic
    batch = fn(cosine(), dom, levels, spec)
    single = [fn(cosine(), dom, [u], spec)[0] for u in levels]
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda m, dom, lv: excursion_prob_mu(m, dom, lv, SPEC),
        lambda m, dom, lv: mean_euler_characteristic(m, dom, lv, SPEC),
        lambda m, dom, lv: laplace_mec_result(m, dom, lv),
        lambda m, dom, lv: empirical_sup_prob(m, dom, lv, 9, 100),
        lambda m, dom, lv: mc_mean_ec(m, dom, lv, 9, 100),
    ],
    ids=["mu", "mean_ec", "laplace", "sup_prob", "mc_mean_ec"],
)
def test_nonfinite_level_is_a_config_error(entry, bad):
    # named as the level, before any face term or replicate sweep, instead
    # of a quadrature error at a face point or a nan or zero result
    dom = RectDomain([0.0, 0.0], [PI / 2, PI / 2])
    with pytest.raises(ConfigError, match=f"levels must be finite, got {bad}"):
        entry(cosine(), dom, [2.0, bad])


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


def test_condition_check_flags_the_flat_4d_vertex():
    # perfbench's spectral4 field on [0, pi]^4: sigma_T^2 = 9 at the vertex
    # (pi, pi, pi, pi), where every pinned derivative sin(pi) vanishes
    model = SpectralSumField(freqs=np.eye(4), weights=np.full(4, 0.5), offset_var=1.0)
    rep = condition_check(model, RectDomain([0.0] * 4, [PI] * 4))
    assert not rep.satisfied and rep.sigma_sq == 9.0
    [(face, point, grads)] = rep.violations
    assert face.k == 0 and face_label(face) == "0|{}|{1:1,2:1,3:1,4:1}"
    assert point == (PI,) * 4
    assert len(grads) == 4 and max(abs(g) for g in grads) < 1e-15


def test_condition_check_finds_a_flat_second_maximum_near_the_first():
    # nu = 2 - cos(10 t1) + 2 eps (1 - cos(10 t1 / 3)) + 2 w (1 - cos t2):
    # along t1 it peaks at 10 t1 ~ 3 pi (interior) and, 3 eps = 4.5e-7
    # lower, at 10 t1 = s_B ~ pi, put on the side t1 = s_B / 10, where
    # d nu / d t1 vanishes.  nu is so flat in t2 (w = 6e-7) that the
    # near-maximal set around the first peak reaches 1.4 from it along t2,
    # farther than the flat second point lies (0.63 along t1)
    eps, w = 1.5e-7, 6e-7
    s = PI
    for _ in range(5):  # Newton for the critical point s_B of the t1 profile
        s -= (math.sin(s) + 2 * eps / 3 * math.sin(s / 3)) / (math.cos(s) + 2 * eps / 9 * math.cos(s / 3))
    model = SpectralSumField(freqs=[[10.0, 0.0], [10.0 / 3, 0.0], [0.0, 1.0]], weights=[0.5, eps, w])
    dom = RectDomain([s / 10, 0.0], [0.35 * PI, 1.5 * PI])
    mv = max_variance(model, dom)
    assert not mv.tied and mv.face.k == 2
    assert np.allclose(mv.point, [0.3 * PI, PI], atol=1e-7)
    rep = condition_check(model, dom)
    assert not rep.satisfied
    [(face, point, grads)] = rep.violations
    assert face_label(face) == "1|{2}|{1:0}"
    assert point[0] == s / 10 and abs(point[1] - PI) < 1e-7
    assert rep.sigma_sq - model.variance(np.array(point)) == pytest.approx(3 * eps, rel=1e-3)
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


def test_laplace_pins_a_maximizer_just_off_a_side():
    # the variance peaks at (pi, pi), 5e-8 inside the side t_1 = pi + 5e-8:
    # max_variance polishes it there and puts it on the edge of that side,
    # and Theta must be taken on the edge itself
    dom = RectDomain([0.0, 0.0], [PI + 5e-8, 1.5 * PI])
    mv = max_variance(cosine(), dom)
    assert abs(mv.point[0] - PI) < 1e-12
    inputs = prepare_laplace_inputs(cosine(), dom)
    assert inputs.face.sigma == (1,)
    assert inputs.t0[0] == PI + 5e-8 and inputs.t0[1] == mv.point[1]
    [res] = laplace_mec_result(cosine(), dom, [8.0])
    assert res.total > 0.0


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
    hess = tau_hessian(cosine(), face, np.array([PI, PI]))
    assert np.allclose(hess, -2 * np.eye(2), atol=1e-12)
    e = edge(RectDomain([0.0, 0.0], [1.5 * PI, PI / 2]), 0, 1, upper=True)
    h1 = tau_hessian(cosine(), e, np.array([PI, PI / 2]))
    assert h1[0, 0] == pytest.approx(-2.0, abs=1e-12)


def test_tau_hessian_fd_matches_analytic_generic_points():
    # reference: central differences of theta^2 from the face kernel, step
    # 1e-4 of each side
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])
    face = enumerate_faces(dom)[0]
    ctx = mec.FaceContext(cosine(), face)
    h = 1e-4 * (dom.upper_arr - dom.lower_arr)
    steps = np.diag(h)

    def tau(x):
        return float(ctx.arrays(x[None, :]).theta_sq[0])

    for t in ([2.0, 2.5], [3.0, 1.2], [4.0, 4.0]):
        x = np.array(t)
        fd = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei, ej = steps[i], steps[j]
                fd[i, j] = (
                    tau(x + ei + ej) - tau(x + ei - ej) - tau(x - ei + ej) + tau(x - ei - ej)
                ) / (4.0 * h[i] * h[j])
        an = tau_hessian(cosine(), face, x)
        assert np.allclose(fd, an, atol=5e-6)


SQUARE_FACES = enumerate_faces(RectDomain([0.0, 0.0], [PI, PI]))
OBLIQUE2 = SpectralSumField(freqs=[[1.0, 0.5], [0.3, 1.0]], weights=[0.5, 0.7])
# the edge 1|{1}|{2:1}: Theta is -1.677 at (2, pi/2) on it, and +0.549 at
# (2, 0) off it, where only the free coordinate used to be checked
OBLIQUE2_EDGE = edge(RectDomain([0.0, 0.0], [1.5 * PI, PI / 2]), 0, 1, upper=True)


@pytest.mark.parametrize(
    "model, face, t0",
    [
        (cosine(), SQUARE_FACES[8], [0.0, 0.0]),
        (cosine(), SQUARE_FACES[0], [[1.0, 1.0]]),
        (cosine(), SQUARE_FACES[0], [1.0, PI + 1e-6]),
        (OBLIQUE2, OBLIQUE2_EDGE, [2.0, 0.0]),
    ],
    ids=["vertex", "wrong_shape", "outside_closure", "off_face"],
)
def test_tau_hessian_rejects_bad_input(model, face, t0):
    with pytest.raises(ValueError):
        tau_hessian(model, face, t0)
