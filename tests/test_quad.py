import math
import warnings

import numpy as np
import pytest

from excursion_kit.errors import CapabilityError, QuadratureError, QuadratureWarning
from excursion_kit.gauss import gauss_tail, hermite
from excursion_kit.geometry import Face, OutwardCone, RectDomain
from excursion_kit import quad
from excursion_kit.quad import (
    QuadResult,
    QuadSpec,
    TailMap,
    integrate_box,
    integrate_cone,
    integrate_face,
    integrate_tail,
)

PI = math.pi
SPEC = QuadSpec()


@pytest.fixture
def depth_one(monkeypatch):
    """Cap refinement at one dyadic level and make the absolute floor
    unreachable, so a kink cannot converge."""
    monkeypatch.setattr(quad, "MAX_SUBDIVISIONS", 1)
    monkeypatch.setattr(quad, "ABS_TOL", 1e-300)


def test_polynomial_exactness():
    # order-24 Gauss-Legendre integrates monomials up to degree 47 exactly
    lower, upper = [0.0], [2.0]
    for k in (0, 1, 5, 17, 31, 47):
        res = integrate_box(lambda t: t[:, 0] ** k, lower, upper, SPEC)
        want = 2.0 ** (k + 1) / (k + 1)
        assert res.value == pytest.approx(want, rel=1e-13), k


def test_separable_product():
    f2 = integrate_box(
        lambda t: np.exp(-t[:, 0] - t[:, 1]), [0.0, 0.0], [1.0, 1.0], SPEC
    )
    f1 = integrate_box(lambda t: np.exp(-t[:, 0]), [0.0], [1.0], SPEC)
    assert f2.value == pytest.approx(f1.value**2, rel=1e-12)


def test_trig_closed_form_2d():
    res = integrate_box(
        lambda t: np.cos(t[:, 0]) * np.sin(t[:, 1]),
        [0.0, 0.0],
        [PI / 2, PI / 2],
        SPEC,
    )
    assert res.value == pytest.approx(1.0, rel=1e-13)


def test_against_plain_monte_carlo():
    # integral of exp(-nu(t)) over [0,pi]^2 with nu = 3 - cos t1 - cos t2;
    # the oracle is brute-force Monte Carlo with its own RNG stream
    def f(t):
        return np.exp(-(3.0 - np.cos(t[:, 0]) - np.cos(t[:, 1])))

    res = integrate_box(f, [0.0, 0.0], [PI, PI], SPEC)
    rng = np.random.default_rng(2024)
    n = 2_000_000
    pts = rng.uniform(0.0, PI, size=(n, 2))
    vals = f(pts)
    mc = vals.mean() * PI**2
    se = vals.std(ddof=1) / math.sqrt(n) * PI**2
    assert abs(res.value - mc) <= 4 * se


def test_adaptive_handles_sharp_bump():
    # narrow Gaussian bump: single-panel quadrature is badly wrong, the
    # adaptive refinement must land within rel_tol
    s = 0.01
    want = s * math.sqrt(2 * PI) * (
        1 - 2 * gauss_tail(0.5 / s)
    )  # mass inside [0,1] of N(0.5, s^2)

    def f(t):
        return np.exp(-0.5 * ((t[:, 0] - 0.5) / s) ** 2)

    res = integrate_box(f, [0.0], [1.0], QuadSpec(rel_tol=1e-9))
    assert res.converged
    assert res.value == pytest.approx(want, rel=1e-7)


def test_nonconvergence_warns(depth_one):
    # a kink defeats polynomial quadrature; with the depth capped at 1 and an
    # unreachable tolerance the integrator must flag non-convergence
    def f(t):
        return np.abs(t[:, 0] - 0.5) ** 0.3

    with pytest.warns(QuadratureWarning, match="depth 1 "):
        res = integrate_box(f, [0.0], [1.0], QuadSpec(rel_tol=1e-15))
    assert not res.converged


def test_box_cap_warning_names_the_box_cap(monkeypatch):
    # a row that runs out of boxes long before the depth cap says so
    monkeypatch.setattr(quad, "MAX_BOXES", 10)
    with pytest.warns(QuadratureWarning, match="stopped at box cap 10 with") as rec:
        res = integrate_box(lambda t: np.abs(t[:, 0] - 0.3) ** 0.3, [0.0], [1.0], SPEC)
    assert not res.converged
    assert "depth" not in str(rec[0].message)


def test_rows_match_single_row_runs():
    # a smooth row settles after one split, a narrow off-centre bump needs
    # many levels; each row must come out exactly as integrated alone
    calls = {"smooth": 0, "bump": 0}

    def smooth(t):
        calls["smooth"] += 1
        return np.exp(-t[:, 0] - t[:, 1])

    def bump(t):
        calls["bump"] += 1
        r2 = (t[:, 0] - 0.3) ** 2 + (t[:, 1] - 0.7) ** 2
        return np.exp(-0.5 * r2 / 0.02**2)

    spec = QuadSpec(order_per_axis=8, rel_tol=1e-10)
    lo, hi = [0.0, 0.0], [1.0, 1.0]
    alone = []
    for g in (smooth, bump):
        alone.append(integrate_box(g, lo, hi, spec))
    assert calls["smooth"] < calls["bump"]
    both = integrate_box(lambda t: np.stack([smooth(t), bump(t)]), lo, hi, spec)
    assert len(both) == 2
    for got, want in zip(both, alone):
        assert got.value == want.value
        assert got.err_est == want.err_est
        assert got.converged == want.converged


def test_unconverged_row_warns_once(depth_one):
    # the kink row cannot meet the tolerance at depth 1, the polynomial row
    # can; only the kink row warns, and it is named
    def f(t):
        return np.stack([t[:, 0] ** 2, np.abs(t[:, 0] - 0.5) ** 0.3])

    spec = QuadSpec(rel_tol=1e-15)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        poly, kink = integrate_box(f, [0.0], [1.0], spec)
    quad_warnings = [w for w in caught if issubclass(w.category, QuadratureWarning)]
    assert len(quad_warnings) == 1
    assert "row 1" in str(quad_warnings[0].message)
    assert poly.converged and not kink.converged
    assert poly.value == pytest.approx(1 / 3, rel=1e-14)


def split_of(h):
    """h as a split integrand: h at every (x, y) pair, x-major; records shapes."""
    shapes = []

    def g(x, y):
        shapes.append((x.shape, y.shape))
        return h(np.hstack([np.repeat(x, len(y), axis=0), np.tile(y, (len(x), 1))]))

    return g, shapes


def assert_same_results(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.value, a.err_est, a.converged) == (b.value, b.err_est, b.converged)


@pytest.mark.parametrize("split", [1, 2])
def test_split_integrand_matches_flat_nodes(split):
    def h(t):
        return np.exp(-t[:, 0] - 2.0 * t[:, 1]) * np.cos(t[:, 2])

    spec = QuadSpec(order_per_axis=4, rel_tol=1e-8)
    lo, hi = [0.0, 0.5, -1.0], [1.0, 2.0, 1.5]
    g, shapes = split_of(h)
    got = integrate_box(g, lo, hi, spec, split=split)
    want = integrate_box(h, lo, hi, spec)
    assert isinstance(got, QuadResult)
    assert_same_results([got], [want])
    assert len(shapes) > 1 + 8
    assert set(shapes) == {((4**split, split), (4 ** (3 - split), 3 - split))}


def test_split_rows_match_flat_rows():
    # the rows refine to different depths, as in test_rows_match_single_row_runs
    def h(t):
        r2 = (t[:, 0] - 0.3) ** 2 + (t[:, 1] - 0.7) ** 2
        return np.stack([np.exp(-t[:, 0] - t[:, 1]), np.exp(-0.5 * r2 / 0.02**2)])

    spec = QuadSpec(order_per_axis=8, rel_tol=1e-10)
    g, _ = split_of(h)
    got = integrate_box(g, [0.0, 0.0], [1.0, 1.0], spec, split=1)
    assert_same_results(got, integrate_box(h, [0.0, 0.0], [1.0, 1.0], spec))


def test_split_unconverged_row_warns_once(depth_one):
    def h(t):
        return np.stack([t[:, 0] ** 2 * t[:, 1], np.abs(t[:, 1] - 0.5) ** 0.3])

    spec = QuadSpec(rel_tol=1e-15)
    g, _ = split_of(h)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = integrate_box(g, [0.0, 0.0], [1.0, 1.0], spec, split=1)
    quad_warnings = [w for w in caught if issubclass(w.category, QuadratureWarning)]
    assert len(quad_warnings) == 1
    assert "row 1" in str(quad_warnings[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        want = integrate_box(h, [0.0, 0.0], [1.0, 1.0], spec)
    assert_same_results(got, want)
    assert got[0].converged and not got[1].converged


@pytest.mark.parametrize("split", [0, 2])
def test_split_needs_axes_on_both_sides(split):
    with pytest.raises(ValueError, match="split"):
        integrate_box(lambda x, y: np.ones(len(x) * len(y)), [0.0, 0.0], [1.0, 1.0], split=split)


def test_nonfinite_integrand_raises():
    def f(t):
        with np.errstate(invalid="ignore"):
            return np.log(t[:, 0] - 0.5)  # NaN on the left half

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_box(f, [0.0], [1.0], SPEC)


def test_integrate_face_matches_box():
    dom = RectDomain([0.0, 0.0], [2.0, 3.0])
    face = Face(domain=dom, sigma=(1,), epsilon=((0, 1),))

    def g(s):
        return np.sin(s[:, 0])

    res = integrate_face(face, g, SPEC)
    want = 1 - math.cos(3.0)
    assert res.value == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Tail integrals
# ---------------------------------------------------------------------------


def test_tail_gaussian_mass():
    res = integrate_tail(2.0, lambda x: np.exp(-0.5 * x**2), SPEC)
    assert res.value == pytest.approx(math.sqrt(2 * PI) * gauss_tail(2.0), rel=1e-10)


def test_tail_hermite_identity_k3():
    # int_1^inf He_3(x) e^{-x^2/2} dx = He_2(1) e^{-1/2} = 0
    res = integrate_tail(
        1.0, lambda x: hermite(3, x) * np.exp(-0.5 * x**2), SPEC
    )
    assert abs(res.value) < 1e-10


def test_tail_x_exp():
    res = integrate_tail(0.0, lambda x: x * np.exp(-0.5 * x**2), SPEC)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_tail_map_change_of_variables():
    tm = TailMap(origin=3.0)
    s = np.array([0.0, 0.5, 0.9])
    x = tm.map(s)
    assert x[0] == pytest.approx(3.0)
    assert x[1] == pytest.approx(4.0)
    assert np.all(np.diff(x) > 0)
    assert np.all(tm.weight(s) > 0)


# ---------------------------------------------------------------------------
# Cone integrals
# ---------------------------------------------------------------------------


def std2_pdf(y):
    return np.exp(-0.5 * (y[:, 0] ** 2 + y[:, 1] ** 2)) / (2 * PI)


def test_cone_orthant_quarter():
    cone = OutwardCone(constraints=((0, 1), (1, 1)))
    res = integrate_cone(cone, None, lambda y: std2_pdf(y), SPEC)
    assert res.value == pytest.approx(0.25, rel=1e-8)


def test_cone_sign_symmetry():
    pp = OutwardCone(constraints=((0, 1), (1, 1)))
    mm = OutwardCone(constraints=((0, -1), (1, -1)))
    a = integrate_cone(pp, None, lambda y: std2_pdf(y), SPEC)
    b = integrate_cone(mm, None, lambda y: std2_pdf(y), SPEC)
    assert a.value == pytest.approx(b.value, rel=1e-10)


def test_cone_with_level_coordinate():
    # first coordinate is the field value X ~ N(0, 5), independent of two
    # derivative coordinates each N(0, 1/2): mass above u=2 in the ++ cone
    cone = OutwardCone(constraints=((0, 1), (1, 1)))

    def h(z):
        x, y1, y2 = z[:, 0], z[:, 1], z[:, 2]
        px = np.exp(-0.5 * x**2 / 5.0) / math.sqrt(2 * PI * 5.0)
        py = np.exp(-(y1**2 + y2**2)) / PI  # two N(0, 1/2) densities
        return px * py

    res = integrate_cone(cone, 2.0, h, SPEC)
    want = gauss_tail(2.0 / math.sqrt(5.0)) * 0.25
    assert res.value == pytest.approx(want, rel=1e-7)


def test_cone_dimension_cap():
    cone = OutwardCone(constraints=tuple((j, 1) for j in range(5)))
    with pytest.raises(CapabilityError, match="Monte Carlo"):
        integrate_cone(cone, None, lambda y: np.ones(len(y)), SPEC)


def test_order_doubling_stability():
    def f(t):
        return np.exp(-(3.0 - np.cos(t[:, 0]) - np.cos(t[:, 1])))

    a = integrate_box(f, [0.0, 0.0], [PI, PI], QuadSpec(order_per_axis=24))
    b = integrate_box(f, [0.0, 0.0], [PI, PI], QuadSpec(order_per_axis=48))
    assert a.value == pytest.approx(b.value, rel=1e-11)
