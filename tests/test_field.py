import itertools
import math
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import excursion_kit.field as field
from excursion_kit.errors import (
    AmbiguousMaximizerError,
    CapabilityError,
    ConfigError,
    DegenerateModelError,
)
from excursion_kit.field import (
    CosineField,
    FieldModel,
    GaussianIncrementField,
    SpectralSumField,
    check_h2,
    derivative_consistency,
    field_from_dict,
    max_variance,
)
from excursion_kit.geometry import (
    DomainError,
    Face,
    RectDomain,
    embed_points,
    enumerate_faces,
    face_label,
    face_of_point,
)
from excursion_kit.mc import empirical_sup_prob, mc_mean_ec
from excursion_kit.mec import (
    FaceContext,
    condition_check,
    excursion_prob_mu,
    laplace_mec_result,
    mean_euler_characteristic,
    prepare_laplace_inputs,
)

PI = math.pi


def cosine():
    return CosineField()


@dataclass(frozen=True, eq=False)
class FaultInjectedField(FieldModel):
    """A base model with a deliberately mis-scaled analytic Hessian, third
    derivative or face-kernel determinant, for showing that the derivative
    checks catch a bad one."""

    base: FieldModel
    hessian_scale: float = 1.25
    third_scale: float = 1.0
    kernel_scale: float = 1.0

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def offset_var(self) -> float:
        return self.base.offset_var

    def _g(self, h):
        return self.base._g(h)

    def _g_grad(self, h):
        return self.base._g_grad(h)

    def _g_hess(self, h):
        return self.hessian_scale * self.base._g_hess(h)

    def _g_third(self, h):
        return self.third_scale * self.base._g_third(h)

    def face_kernel(self, sig):
        kernel = self.base.face_kernel(sig)

        def scaled(t):
            g, c, det = kernel(t)
            return g, c, self.kernel_scale * det

        return scaled


def interior_face(dom):
    return enumerate_faces(dom)[0]


def test_lambda_spectral_equals_variogram_route():
    # Lambda of a spectral sum is its second spectral moment sum_m w_m f_m f_m^T
    model = cosine()
    assert np.allclose(model.lambda_mat, 0.5 * np.eye(2), atol=1e-12)
    rng = np.random.default_rng(5)
    freqs = rng.standard_normal((4, 3))
    weights = rng.uniform(0.1, 2.0, size=4)
    m = SpectralSumField(freqs=freqs, weights=weights, offset_var=0.5)
    moment = sum(w * np.outer(f, f) for w, f in zip(weights, freqs))
    assert np.allclose(moment, m.lambda_mat, atol=1e-10)


def test_gaussian_increment_structure():
    m = GaussianIncrementField(dim=2, scale=1.5)
    # g(h) = 2(1 - exp(-|h/l|^2)) so Lambda = (2/l^2) I
    assert np.allclose(m.lambda_mat, (2 / 1.5**2) * np.eye(2), atol=1e-12)
    t = np.array([0.3, -0.4])
    want = 2 * (1 - math.exp(-np.dot(t / 1.5, t / 1.5)))
    assert m.variance(t) == pytest.approx(want, rel=1e-12)


def test_derivative_consistency_passes_for_real_models():
    dom2 = RectDomain([0.0, 0.0], [PI, PI])
    assert derivative_consistency(cosine(), dom2).passed
    assert derivative_consistency(GaussianIncrementField(dim=2), dom2).passed
    dom3 = RectDomain([0.0] * 3, [1.0] * 3)
    rng = np.random.default_rng(17)
    m = SpectralSumField(
        freqs=rng.standard_normal((3, 3)),
        weights=rng.uniform(0.2, 1.0, 3),
        offset_var=0.3,
    )
    assert derivative_consistency(m, dom3).passed


def test_derivative_consistency_catches_fault_injection():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    rep = derivative_consistency(FaultInjectedField(cosine(), 1.3), dom)
    assert not rep.passed
    # faulty only in the third derivatives
    rep = derivative_consistency(FaultInjectedField(cosine(), 1.0, third_scale=1.3), dom)
    assert max(rep.max_grad_err, rep.max_hess_err, rep.max_kernel_err) <= rep.rtol
    assert rep.rtol < rep.max_third_err
    assert not rep.passed
    # faulty only in the face kernel's determinant
    rep = derivative_consistency(FaultInjectedField(cosine(), 1.0, kernel_scale=1.3), dom)
    assert max(rep.max_grad_err, rep.max_hess_err, rep.max_third_err) <= rep.rtol
    assert rep.rtol < rep.max_kernel_err
    assert not rep.passed


def oblique_spectral(n, n_atoms, seed):
    """An oblique spectral sum whose second atom is twice its first, so
    every minor holding both rows vanishes."""
    rng = np.random.default_rng(seed)
    freqs = rng.normal(size=(n_atoms, n))
    freqs[1] = 2.0 * freqs[0]
    return SpectralSumField(freqs=freqs, weights=rng.uniform(0.2, 1.0, n_atoms), offset_var=0.5)


KERNEL_MODELS = [
    *(oblique_spectral(n, n + 3, n) for n in (1, 2, 3, 4)),
    # many atoms: M = 12 in 3-D
    oblique_spectral(3, 12, 9),
    *(GaussianIncrementField(dim=n, scale=0.8, offset_var=0.3) for n in (1, 2, 3, 4)),
]


@pytest.mark.parametrize(
    "model",
    KERNEL_MODELS,
    ids=[*(f"spectral{n}" for n in (1, 2, 3, 4)), "spectral3_many_atoms",
         *(f"gaussian{n}" for n in (1, 2, 3, 4))],
)
def test_face_kernel_matches_the_generic_determinant(model):
    # every face of a rectangle with a corner at the origin, at random face
    # points, at the origin and at points 1e-8 to 1e-2 from it; near the
    # origin np.linalg.det of the 2x2 and 3x3 blocks rounds below 0
    n = model.dim
    dom = RectDomain([0.0] * n, [1.7, 1.1, 2.3, 0.9][:n])
    rng = np.random.default_rng(1)
    lam = model.lambda_mat
    scale = float(np.max(np.abs(lam)))
    for face in enumerate_faces(dom):
        lo, hi = face.free_bounds()
        free = np.concatenate([
            lo + (hi - lo) * rng.random((20, face.k)),
            np.outer([0.0, 1e-8, 1e-6, 1e-4, 1e-2], np.ones(face.k)),
        ])
        t = np.concatenate([embed_points(face, free), 1e-8 * rng.standard_normal((50, n))])
        sig = list(face.sigma)
        # a zero pivot at the origin must not divide by zero
        with np.errstate(divide="raise", invalid="raise"):
            g, c, det = model.face_kernel(sig)(t)
        assert np.array_equal(g, model._g(t))
        assert np.array_equal(c, 0.5 * model._g_grad(t))
        ref = np.linalg.det((lam - model.lambda_at(t))[:, sig][:, :, sig])
        assert np.all(det >= 0.0)
        assert np.all(np.abs(det - ref) <= 1e-12 * np.abs(ref) + 1e-14 * scale**face.k)


@pytest.mark.parametrize(
    "model",
    [
        GaussianIncrementField(dim=3, scale=0.8, offset_var=0.3),
        FaultInjectedField(GaussianIncrementField(dim=2, scale=1.3), 1.25),
        SpectralSumField(
            freqs=np.array([[1.0, 0.4], [-0.3, 1.2]]),
            weights=np.array([0.5, 0.7]),
            offset_var=1.0,
        ),
    ],
    ids=["gaussian_increment", "fault_injection", "spectral_sum"],
)
def test_third_variance_matches_hessian_differences(model):
    # the fault-injected model scales only its Hessian; its third
    # derivatives are the base model's
    ref = getattr(model, "base", model)
    h = 1e-5
    for t in np.random.default_rng(3).uniform(-1.5, 1.5, size=(5, model.dim)):
        third = model.third_variance(t)
        fd = np.empty_like(third)
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = h
            fd[..., j] = (ref.hess_variance(t + e) - ref.hess_variance(t - e)) / (2 * h)
        assert np.allclose(third, fd, rtol=0, atol=1e-8)


SPECTRAL3 = SpectralSumField(freqs=np.eye(3), weights=np.full(3, 0.5))
# every library entry that takes a model and a domain, plus the point methods
DIMENSION_ENTRIES = {
    "variance": lambda m, d: m.variance(d.lower),
    "lambda_at": lambda m, d: m.lambda_at(d.upper),
    "face_kernel": lambda m, d: m.face_kernel(())(np.array([d.upper])),
    "mean_euler_characteristic": lambda m, d: mean_euler_characteristic(m, d, [3.0]),
    "excursion_prob_mu": lambda m, d: excursion_prob_mu(m, d, [3.0]),
    "laplace_mec_result": lambda m, d: laplace_mec_result(m, d, [3.0]),
    "condition_check": condition_check,
    "prepare_laplace_inputs": prepare_laplace_inputs,
    "max_variance": max_variance,
    "check_h2": check_h2,
    "derivative_consistency": derivative_consistency,
    "mc_mean_ec": lambda m, d: mc_mean_ec(m, d, [3.0], 5, 100),
    "empirical_sup_prob": lambda m, d: empirical_sup_prob(m, d, [3.0], 5, 100),
}


@pytest.mark.parametrize(
    "model, domain",
    [
        (CosineField(), RectDomain([0.0] * 3, [1.0] * 3)),
        (SPECTRAL3, RectDomain([0.0] * 2, [1.0] * 2)),
    ],
    ids=["2d_model_3d_domain", "3d_model_2d_domain"],
)
@pytest.mark.parametrize("entry", list(DIMENSION_ENTRIES.values()), ids=list(DIMENSION_ENTRIES))
def test_dimension_mismatch_is_a_domain_error(entry, model, domain):
    with pytest.raises(DomainError, match="model dimension"):
        entry(model, domain)


@st.composite
def spectral_models(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    freqs = [
        [draw(st.floats(-2, 2, allow_nan=False)) for _ in range(n)] for _ in range(m)
    ]
    # keep at least one atom per axis direction informative
    for i in range(n):
        freqs[i % m][i] += 1.0
    weights = [draw(st.floats(0.2, 2.0)) for _ in range(m)]
    offset = draw(st.floats(0.1, 2.0))
    return SpectralSumField(
        freqs=np.array(freqs, dtype=float),
        weights=np.array(weights, dtype=float),
        offset_var=offset,
    )


@given(spectral_models(), st.data())
@settings(max_examples=40, deadline=None)
def test_conditional_variances_are_ordered(model, data):
    n = model.dim
    dom = RectDomain([0.1] * n, [1.9] * n)
    interior = interior_face(dom)
    t = np.array([[data.draw(st.floats(0.2, 1.8)) for _ in range(n)]])
    try:
        d = FaceContext(model, interior).arrays(t)
    except DegenerateModelError:
        return  # randomly drawn atoms may be collinear; nothing to check
    assert d.gamma_sq[0] >= -1e-12
    assert d.gamma_sq[0] <= model.variance(t[0]) + 1e-12
    if n >= 2:
        edge = Face(
            domain=dom, sigma=tuple(range(n - 1)), epsilon=((n - 1, 0),)
        )
        d_e = FaceContext(model, edge).arrays(t[:, : n - 1])
        # conditioning on more derivatives can only shrink the variance
        assert d_e.gamma_sq[0] <= d_e.theta_sq[0] + 1e-12
        assert d_e.theta_sq[0] <= model.variance(embed_points(edge, t[:, : n - 1])[0]) + 1e-12


def test_zero_gradient_point_has_full_conditional_variance():
    model = cosine()
    dom = RectDomain([0.5, 0.5], [2 * PI - 0.5, 2 * PI - 0.5])
    t = np.array([PI, PI])
    assert np.allclose(0.5 * model.grad_variance(t), 0.0, atol=1e-12)
    d = FaceContext(model, interior_face(dom)).arrays(t[None])
    assert d.gamma_sq[0] == pytest.approx(model.variance(t), rel=1e-12)


# ---------------------------------------------------------------------------
# H2 scan
# ---------------------------------------------------------------------------


def test_check_h2_cosine_clean():
    rep = check_h2(cosine(), RectDomain([0.0, 0.0], [PI, PI]))
    assert not rep.flagged
    assert rep.min_eig > 0


def test_check_h2_flags_zero_frequency_atom():
    m = SpectralSumField(
        freqs=np.array([[0.0, 0.0], [1.0, 0.0]]),
        weights=np.array([1.0, 0.5]),
        offset_var=1.0,
    )
    rep = check_h2(m, RectDomain([0.0, 0.0], [3.0, 3.0]))
    assert rep.flagged


def test_check_h2_flags_full_period_crossing():
    # single-atom model: Lambda - Lambda(t) = (1 - cos t)/2 vanishes at t = 2pi;
    # an odd grid count on a symmetric window pins a grid point exactly there
    m = SpectralSumField(
        freqs=np.array([[1.0]]), weights=np.array([0.5]), offset_var=1.0
    )
    rep = check_h2(m, RectDomain([2 * PI - 1.0], [2 * PI + 1.0]))
    assert rep.flagged
    assert abs(rep.argmin[0] - 2 * PI) < 1e-9


def whole_grid_h2(model, domain):
    """check_h2's report from its whole interior grid at once, the first
    grid point winning exact ties."""
    n = max(2, min(field.H2_GRID, int(round(2e5 ** (1.0 / domain.dim)))))
    axes = [
        lo + (hi - lo) * (np.arange(1, n + 1) / (n + 1))
        for lo, hi in zip(domain.lower, domain.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    eigs = np.linalg.eigvalsh(model.lambda_mat - model.lambda_at(pts))[..., 0]
    i0 = int(np.argmin(eigs))
    return (bool(eigs[i0] < field.H2_TOL), float(eigs[i0]), pts[i0].tolist(), field.H2_TOL)


def h2_fields(rep):
    return (bool(rep.flagged), rep.min_eig, rep.argmin.tolist(), rep.tol)


def test_check_h2_memory_stays_at_the_block():
    # the 4-D interior grid has 21^4 = 194,481 points; scanned whole, its
    # points, Lambda(t) stack and eigenvalue work peak near 53 MB
    model, dom = spectral4()
    tracemalloc.start()
    try:
        rep = check_h2(model, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.flagged
    assert peak < 16 * 2**20


@pytest.mark.parametrize("case", ["spectral4", "oblique3", "zero_atom"])
def test_check_h2_blocks_match_the_whole_grid(case, monkeypatch):
    # spectral4 is separable, so its minimum is tied along whole grid
    # planes and the lowest row-major index must win across blocks
    if case == "spectral4":
        model, dom = spectral4()
    elif case == "oblique3":
        model, dom = oblique3()
    else:
        model = SpectralSumField(
            freqs=np.array([[0.0, 0.0], [1.0, 0.0]]), weights=np.array([1.0, 0.5]), offset_var=1.0
        )
        dom = RectDomain([0.0, 0.0], [3.0, 3.0])
    want = whole_grid_h2(model, dom)
    assert h2_fields(check_h2(model, dom)) == want
    for block in (1000, 7):
        monkeypatch.setattr(field, "POINT_BLOCK", block)
        assert h2_fields(check_h2(model, dom)) == want


# ---------------------------------------------------------------------------
# Variance maximizer
# ---------------------------------------------------------------------------


def test_max_variance_corner_case():
    res = max_variance(cosine(), RectDomain([0.0, 0.0], [PI / 2, PI / 2]))
    assert res.sigma_sq == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(res.point, [PI / 2, PI / 2], atol=1e-7)
    assert res.face.k == 0


def test_max_variance_edge_case():
    res = max_variance(cosine(), RectDomain([0.0, 0.0], [3 * PI / 2, PI / 2]))
    assert res.sigma_sq == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(res.point, [PI, PI / 2], atol=1e-6)
    assert res.face.sigma == (0,)


def test_max_variance_interior_case():
    res = max_variance(cosine(), RectDomain([0.0, 0.0], [3 * PI / 2, 3 * PI / 2]))
    assert res.sigma_sq == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(res.point, [PI, PI], atol=1e-6)
    assert res.face.k == 2
    assert not res.tied


def test_max_variance_reports_ties():
    # t1 = pi and t1 = 3pi give the same variance on an elongated rectangle
    res = max_variance(cosine(), RectDomain([0.0, 0.0], [4 * PI, PI / 2]))
    assert res.tied
    assert len(res.candidates) >= 2


def spectral4():
    # four unit-frequency atoms of weight 1/2 and unit offset on [0, pi]^4
    m = SpectralSumField(freqs=np.eye(4), weights=np.full(4, 0.5), offset_var=1.0)
    return m, RectDomain([0.0] * 4, [PI] * 4)


def oblique3():
    # non-separable: every atom but the last couples two or three axes
    freqs = [[1.0, 0.5, 0.0], [0.3, 1.0, 0.2], [0.0, 0.4, 1.1], [0.7, -0.6, 0.5]]
    m = SpectralSumField(freqs=freqs, weights=[0.5, 0.4, 0.3, 0.2], offset_var=1.0)
    return m, RectDomain([0.0] * 3, [2.5, 2.0, 1.5])


def test_max_variance_memory_is_the_search_not_a_grid():
    # the search holds a few hundred boxes on [0, pi]^4; the scan it
    # replaced evaluated 45^4 ~ 4.1 M interior points in blocks
    model, dom = spectral4()
    tracemalloc.start()
    try:
        res = max_variance(model, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.sigma_sq == 9.0
    assert peak < 4 * 2**20


def bound_cases():
    oblique, dom3 = oblique3()
    return [
        (cosine(), RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])),
        (oblique, dom3),
        (GaussianIncrementField(dim=3, scale=0.8, offset_var=0.3), RectDomain([-1.0] * 3, [1.5, 1.0, 2.0])),
        # an unscaled wrapper keeps the base model's field but has only
        # FieldModel's own lambda_bound, Lambda itself
        (FaultInjectedField(oblique, hessian_scale=1.0), dom3),
    ]


@pytest.mark.parametrize("case", range(4), ids=["cosine", "oblique", "gaussian_increment", "default_bound"])
def test_hessian_bound_behind_the_search(case):
    # Hess nu(t) = 2 Lambda(t), |v^T Lambda(t) v| <= v^T Lambda v, and
    # Lambda(t) <= lambda_bound on a box, so each box bound lies above nu
    # everywhere in its box.  40 boxes are drawn anywhere and 40 narrow ones
    model, dom = bound_cases()[case]
    rng = np.random.default_rng(case)
    lo, hi = dom.lower_arr, dom.upper_arr
    t = lo + rng.random((200, dom.dim)) * (hi - lo)
    v = rng.standard_normal((200, dom.dim))
    curv = np.einsum("mi,mij,mj->m", v, model.hess_variance(t), v)
    assert np.all(np.abs(curv) <= 2.0 * np.einsum("mi,ij,mj->m", v, model.lambda_mat, v) * (1 + 1e-12))
    a, b = np.sort(lo + rng.random((2, 40, dom.dim)) * (hi - lo), axis=0)
    c = lo + rng.random((40, dom.dim)) * (hi - lo)
    w = 0.05 * rng.random((40, dom.dim)) * (hi - lo)
    a, b = np.concatenate([a, np.maximum(c - w, lo)]), np.concatenate([b, np.minimum(c + w, hi)])
    bound = field._box_bounds(model, a, b)[3]
    scale = float(np.trace(model.lambda_mat))
    for lo_i, hi_i, lam_i, bound_i in zip(a, b, model.lambda_bound(a, b), bound):
        sample = lo_i + rng.random((4000, dom.dim)) * (hi_i - lo_i)
        corners = np.array(list(itertools.product(*zip(lo_i, hi_i))))
        pts = np.concatenate([sample, corners])
        v = rng.standard_normal((len(pts), dom.dim))
        gap = np.einsum("mi,ij,mj->m", v, lam_i, v) - np.einsum("mi,mij,mj->m", v, model.lambda_at(pts), v)
        assert np.all(gap >= -1e-12 * scale)
        assert bound_i >= float(np.max(model.variance(pts)))


def test_max_variance_finds_a_peak_between_grid_nodes():
    # a high-frequency atom along t2 puts the max at t2 ~ 3.1595, on a
    # ripple that a 64-node grid on [0, 4.7] polishes past: the face scan
    # this search replaced returned 5.16695 at t2 ~ 2.9806.  nu is
    # separable, so t1 = pi and a dense t2 line give the reference
    model = SpectralSumField(
        freqs=[[1.0, 0.0], [0.0, 1.0], [0.0, 34.8]], weights=[0.5, 0.5, 0.045], offset_var=1.0
    )
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 4.7])
    t2 = np.linspace(0.0, 4.7, 1_000_001)
    ref = float(np.max(model.variance(np.stack([np.full_like(t2, PI), t2], axis=-1))))
    res = max_variance(model, dom)
    assert ref - 1e-12 <= res.sigma_sq <= ref + 1e-9
    assert abs(res.point[1] - 3.15948) < 1e-4 and not res.tied


def test_max_variance_ridge_is_ambiguous():
    # nu depends on t1 only, so every point of the segment t1 = pi is a
    # maximizer: its far ends polish to distinct candidates
    model = SpectralSumField(freqs=[[1.0, 0.0]], weights=[0.5], offset_var=1.0)
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.0])
    res = max_variance(model, dom)
    assert res.tied and res.sigma_sq == 3.0
    assert all(abs(t[0] - PI) < 1e-12 for _, t in res.candidates)
    assert max(t[1] for _, t in res.candidates) - min(t[1] for _, t in res.candidates) > 0.4
    with pytest.raises(AmbiguousMaximizerError):
        prepare_laplace_inputs(model, dom)


def test_max_variance_flat_gaussian_increment_3d():
    # nu = 2 (1 - exp(-|t / 0.5|^2)) peaks at the vertex (1, 1, 1), where
    # Lambda(t) is e^-12 of Lambda: a bound with Lambda itself needed more
    # than 10^5 boxes here, GaussianIncrementField.lambda_bound a few dozen
    model, dom = GaussianIncrementField(dim=3, scale=0.5), RectDomain([0.0] * 3, [1.0] * 3)
    res = max_variance(model, dom)
    assert res.sigma_sq == pytest.approx(-2.0 * math.expm1(-12.0), rel=1e-15)
    assert np.all(res.point == 1.0) and res.face.k == 0 and not res.tied
    assert len(field._near_max_boxes(model, dom)[1]) < 100
    assert condition_check(model, dom).satisfied
    assert prepare_laplace_inputs(model, dom).classification == "corner-regular"


def test_max_variance_flat_vertex_is_no_tie():
    # nu = 2 (1 - exp(-|t / 0.3|^2)) on [0, 1]^2 stays within TIE_TOL of
    # its max at (1, 1) on a patch where its Hessian is indefinite: a
    # gradient step as short as the gradient (~1e-8) gains under one ulp,
    # and polishes that stopped there read as a tie
    res = max_variance(GaussianIncrementField(dim=2, scale=0.3), RectDomain([0.0] * 2, [1.0] * 2))
    assert res.sigma_sq == pytest.approx(-2.0 * math.expm1(-2.0 / 0.09), rel=1e-15)
    assert np.all(res.point == 1.0) and not res.tied and len(res.face_maxima) == 1


def test_max_variance_6d_interior_maximum():
    # nu = 7 - sum_i cos t_i on [0, 1.5 pi]^6 peaks at t = (pi, ..., pi),
    # where every cos t_i is negative: SpectralSumField.lambda_bound is 0
    # near it, and Lambda itself needed more than 2^15 boxes here
    model = SpectralSumField(freqs=np.eye(6), weights=np.full(6, 0.5), offset_var=1.0)
    dom = RectDomain([0.0] * 6, [1.5 * PI] * 6)
    res = max_variance(model, dom)
    assert res.sigma_sq == pytest.approx(13.0, abs=1e-12)
    assert np.allclose(res.point, PI, atol=1e-7) and res.face.k == 6 and not res.tied
    assert [v for v, _, _ in res.face_maxima] == [res.sigma_sq]


def test_max_variance_box_cap_raises_quickly():
    # an oblique ridge t1 + t2 = pi cannot be covered by few boxes along
    # the axes, so the box set grows until the cap stops it
    model = SpectralSumField(freqs=[[1.0, 1.0]], weights=[0.5], offset_var=1.0)
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match="boxes"):
        max_variance(model, dom)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_field_from_dict_builds_each_model_type():
    assert isinstance(field_from_dict({"type": "cosine"}), CosineField)
    sp = field_from_dict(
        {
            "type": "spectral_sum",
            "atoms": [{"freq": [1.0, 0.5], "weight": 0.4}, {"freq": [0, 2], "weight": 1}],
            "offset_var": 0.1,
        }
    )
    assert type(sp) is SpectralSumField
    assert np.array_equal(sp.freqs, [[1.0, 0.5], [0.0, 2.0]])
    assert np.array_equal(sp.weights, [0.4, 1.0])
    assert sp.offset_var == 0.1
    one_atom = {"type": "spectral_sum", "atoms": [{"freq": [1], "weight": 1}]}
    assert field_from_dict(one_atom).offset_var == 1.0
    gi = field_from_dict(
        {"type": "gaussian_increment", "dim": 3, "scale": 0.7, "offset_var": 0.2}
    )
    assert gi == GaussianIncrementField(dim=3, scale=0.7, offset_var=0.2)
    assert field_from_dict({"type": "gaussian_increment"}) == GaussianIncrementField(dim=1)


def test_field_from_dict_rejects_junk():
    with pytest.raises(ConfigError):
        field_from_dict({"type": "nope"})
    with pytest.raises(ConfigError):
        field_from_dict({"type": "cosine", "extra": 1})
    with pytest.raises(ConfigError):
        field_from_dict({"type": "spectral_sum", "atoms": []})
    with pytest.raises(ConfigError):
        field_from_dict(
            {"type": "spectral_sum", "atoms": [{"freq": [1.0], "weight": -1.0}]}
        )
    with pytest.raises(ConfigError):
        field_from_dict({"type": "gaussian_increment", "dim": 0})
    one_atom = [{"freq": [1.0, 0.0], "weight": 0.5}]
    for spec, message in (
        ([{"type": "cosine"}], "field spec must be an object"),
        ({"type": "spectral_sum", "atoms": one_atom, "seed": 1}, "unexpected keys for spectral_sum"),
        ({"type": "gaussian_increment", "dim": 2, "freq": 1.0}, "unexpected keys for gaussian_increment"),
        ({"type": "spectral_sum", "atoms": [{"freq": [1.0, 0.0]}]}, "each atom needs"),
        ({"type": "spectral_sum", "atoms": [{"weight": 0.5}]}, "each atom needs"),
        (
            {"type": "spectral_sum", "atoms": [*one_atom, {"freq": [1.0], "weight": 0.5}]},
            "atom frequencies must all have the same length",
        ),
    ):
        with pytest.raises(ConfigError, match=message):
            field_from_dict(spec)


SPECTRAL_ATOMS = dict(freqs=np.eye(2), weights=np.ones(2))


@pytest.mark.parametrize(
    "model, kwargs",
    [
        (GaussianIncrementField, dict(dim=2.5)),
        (GaussianIncrementField, dict(dim=True)),
        (GaussianIncrementField, dict(dim="2")),
        (GaussianIncrementField, dict(dim=2, scale="1")),
        (GaussianIncrementField, dict(dim=2, scale=True)),
        (GaussianIncrementField, dict(dim=2, offset_var=True)),
        (GaussianIncrementField, dict(dim=2, offset_var="0")),
        (SpectralSumField, dict(SPECTRAL_ATOMS, offset_var=True)),
        (SpectralSumField, dict(SPECTRAL_ATOMS, offset_var="1")),
        (SpectralSumField, dict(freqs=[[True, False]], weights=[True])),
        (SpectralSumField, dict(freqs=[["1", "0"]], weights=["1"])),
        (SpectralSumField, dict(freqs=[[1.0, 0.0]], weights=[True])),
        (SpectralSumField, dict(freqs=np.array([[1.0, True]], dtype=object), weights=[1.0])),
        (SpectralSumField, dict(freqs=[[1.0, 0.0], [1.0]], weights=[1.0, 1.0])),
        (SpectralSumField, dict(freqs=[[math.inf, 0.0]], weights=[1.0])),
        (SpectralSumField, dict(freqs=[[1.0, 0.0]], weights=[math.nan])),
    ],
    ids=[
        "dim-float", "dim-bool", "dim-str", "scale-str", "scale-bool",
        "offset-bool", "offset-str", "spectral-offset-bool", "spectral-offset-str",
        "spectral-bool", "spectral-str", "spectral-weight-bool", "spectral-freq-bool",
        "spectral-ragged", "spectral-inf-freq", "spectral-nan-weight",
    ],
)
def test_model_parameters_must_be_numbers(model, kwargs):
    # a float or bool dimension used to be truncated, a string scale raised a
    # bare TypeError, a bool offset variance was read as 1.0, and bool or
    # string atoms were read as the numbers they convert to
    with pytest.raises(ConfigError):
        model(**kwargs)


def test_spectral_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        SpectralSumField(freqs=np.ones((2, 2)), weights=np.ones(3))
    with pytest.raises(ConfigError):
        SpectralSumField(
            freqs=np.ones((1, 1)), weights=np.array([1.0]), offset_var=-1.0
        )
