import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import excursion_kit.field as field
from excursion_kit.errors import ConfigError, DegenerateModelError
from excursion_kit.field import (
    CosineField,
    FaultInjectedField,
    GaussianIncrementField,
    SpectralSumField,
    check_h2,
    derivative_consistency,
    field_from_dict,
    field_to_dict,
    max_variance,
)
from excursion_kit.geometry import (
    Face,
    RectDomain,
    embed_points,
    enumerate_faces,
    face_label,
    face_of_point,
)
from excursion_kit.mec import FaceContext

PI = math.pi


def cosine():
    return CosineField()


def interior_face(dom):
    return enumerate_faces(dom)[0]


def test_lambda_spectral_equals_variogram_route():
    model = cosine()
    assert np.allclose(model.lambda_spectral, model.lambda_mat, atol=1e-12)
    rng = np.random.default_rng(5)
    freqs = rng.standard_normal((4, 3))
    weights = rng.uniform(0.1, 2.0, size=4)
    m = SpectralSumField(freqs=freqs, weights=weights, offset_var=0.5)
    assert np.allclose(m.lambda_spectral, m.lambda_mat, atol=1e-10)


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


def whole_grid_face_maxima(model, domain):
    """max_variance's polished points from each face's whole scan grid at
    once, best value first and then lowest row-major index."""
    out = []
    for fc in enumerate_faces(domain):
        if fc.k == 0:
            t = fc.fixed_values()
            out.append((float(model.variance(t)), t, fc))
            continue
        lo, hi = fc.free_bounds()
        n = max(2, min(field.MAX_VAR_GRID, int(round(field.MAX_VAR_POINTS ** (1.0 / fc.k)))))
        mesh = np.meshgrid(*(np.linspace(lo[i], hi[i], n) for i in range(fc.k)), indexing="ij")
        pts_free = np.stack([m.ravel() for m in mesh], axis=-1)
        vals = model.variance(embed_points(fc, pts_free))
        for idx in np.lexsort((np.arange(len(vals)), -vals))[:3]:
            xf = field._refine_on_face(model, fc, pts_free[idx])
            t = embed_points(fc, xf[None, :])[0]
            out.append((float(model.variance(t)), t, fc))
    return out


def test_max_variance_memory_does_not_grow_with_the_scan_grid():
    # the interior face of [0, pi]^4 has 45^4 ~ 4.1 M scan points; evaluated
    # whole, its grid, embedded points and phases peak near 750 MB
    model, dom = spectral4()
    tracemalloc.start()
    try:
        res = max_variance(model, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.sigma_sq == pytest.approx(9.0, abs=1e-9)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("case", ["spectral4", "oblique3"])
def test_max_variance_blocks_match_the_whole_grid(case, monkeypatch):
    model, dom = spectral4() if case == "spectral4" else oblique3()
    if case == "spectral4":
        # 24^4 interior points keep the whole-grid reference small and
        # still span eleven blocks; the 3-D faces keep 64^3 points
        monkeypatch.setattr(field, "MAX_VAR_POINTS", 24.0**4)
    want = whole_grid_face_maxima(model, dom)
    got = max_variance(model, dom).face_maxima
    assert len(got) == len(want)
    for (v, t, fc), (v2, t2, fc2) in zip(got, want):
        assert fc == fc2 and v == v2 and np.array_equal(t, t2), face_label(fc)


def test_max_variance_ties_polish_the_lowest_grid_index(monkeypatch):
    # nu depends on t1 only, so scan points that differ only in t2 tie
    # exactly; the starts are the lowest row-major indices among the tied
    # best, whatever the block size, and the polish never moves t2
    model = SpectralSumField(freqs=[[1.0, 0.0]], weights=[0.5], offset_var=1.0)
    dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.0])
    faces = [fc for fc in enumerate_faces(dom) if 1 in fc.sigma]

    def t2_of_starts():
        res = max_variance(model, dom)
        return {face_label(fc): [t[1] for _, t, f in res.face_maxima if f == fc] for fc in faces}

    first = list(np.linspace(0.0, 1.0, field.MAX_VAR_GRID)[:3])
    want = {face_label(fc): first for fc in faces}
    assert t2_of_starts() == want
    monkeypatch.setattr(field, "POINT_BLOCK", 5)
    assert t2_of_starts() == want


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_field_dict_round_trip():
    for model in (
        cosine(),
        GaussianIncrementField(dim=3, scale=0.7, offset_var=0.2),
        SpectralSumField(
            freqs=np.array([[1.0, 0.5]]), weights=np.array([0.4]), offset_var=0.1
        ),
        FaultInjectedField(cosine(), 1.1),
    ):
        d = field_to_dict(model)
        back = field_from_dict(d)
        assert field_to_dict(back) == d


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


def test_spectral_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        SpectralSumField(freqs=np.ones((2, 2)), weights=np.ones(3))
    with pytest.raises(ConfigError):
        SpectralSumField(
            freqs=np.ones((1, 1)), weights=np.array([1.0]), offset_var=-1.0
        )
