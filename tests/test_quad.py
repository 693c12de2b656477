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
    integrate_box,
    integrate_cone,
    integrate_face,
)

PI = math.pi
SPEC = QuadSpec()


@pytest.fixture
def depth_one(monkeypatch):
    """Cap refinement at one dyadic level and make the floor unreachable,
    so a kink cannot converge."""
    monkeypatch.setattr(quad, "MAX_SUBDIVISIONS", 1)
    monkeypatch.setattr(quad, "FLOOR", 1e-300)


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


def test_nonfinite_integrand_raises():
    def f(t):
        with np.errstate(invalid="ignore"):
            return np.log(t[:, 0] - 0.5)  # NaN on the left half

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_box(f, [0.0], [1.0], SPEC)


@pytest.mark.parametrize(
    "run, error, message",
    [
        (lambda: integrate_box(lambda t: np.ones((len(t), 2)), [0.0], [1.0]), QuadratureError, "returned shape"),
        (lambda: integrate_box(np.ones_like, [0.0, 0.0], [1.0]), ValueError, "matching vectors"),
        (lambda: integrate_box(np.ones_like, [1.0], [0.0]), ValueError, "lower < upper"),
        (
            lambda: integrate_face(Face(RectDomain([0.0], [1.0]), (), ((0, 0),)), np.ones_like),
            ValueError,
            "at least one free axis",
        ),
        (lambda: integrate_cone(OutwardCone(()), None, np.ones_like), ValueError, "nothing to integrate"),
    ],
    ids=["integrand-shape", "ragged-bounds", "inverted-bounds", "vertex-face", "empty-cone"],
)
def test_unusable_quadrature_input_raises(run, error, message):
    with pytest.raises(error, match=message):
        run()


def test_integrate_face_matches_box():
    dom = RectDomain([0.0, 0.0], [2.0, 3.0])
    face = Face(domain=dom, sigma=(1,), epsilon=((0, 1),))

    def g(s):
        return np.sin(s[:, 0])

    res = integrate_face(face, g, SPEC)
    want = 1 - math.cos(3.0)
    assert res.value == pytest.approx(want, rel=1e-12)


def test_cone_free_face_is_one_pair_of_rules_per_box():
    # an analytic 4-D face converges at depth 0: one box, judged by GL(24)
    # against GL(18) on its own nodes, where the children rule would call
    # the integrand on 1 + 16 boxes of 24^4 nodes
    dom = RectDomain([0.0] * 4, [1.0, 2.0, 1.0, 0.5])
    face = Face(domain=dom, sigma=(0, 1, 2, 3), epsilon=())
    sizes = []

    def f(t):
        sizes.append(len(t))
        return np.exp(-t.sum(axis=1))

    res = integrate_face(face, f, SPEC)
    assert sizes == [24**4, 18**4] and sum(sizes) == 436_752
    want = math.prod(-math.expm1(-b) for b in (1.0, 2.0, 1.0, 0.5))
    assert res.value == pytest.approx(want, rel=1e-13)
    assert res.converged and 0.0 < res.err_est <= SPEC.rel_tol * res.value


@pytest.mark.parametrize("rule", ["children", "pair"])
def test_floor_scales_with_the_row(rule):
    # the floor is relative to the row's integral of |f|, so a row scaled by
    # a power of two refines the same tree and scales exactly; an absolute
    # floor would accept the tiny row at once
    dom = RectDomain([0.0, 0.0], [1.0, 1.0])
    face = Face(domain=dom, sigma=(0, 1), epsilon=())

    def bump(t):
        r2 = (t[:, 0] - 0.3) ** 2 + (t[:, 1] - 0.7) ** 2
        return np.exp(-0.5 * r2 / 0.05**2)

    def run(g):
        if rule == "pair":
            return integrate_face(face, g, SPEC)
        return integrate_box(g, [0.0, 0.0], [1.0, 1.0], SPEC)

    tiny = 2.0**-200
    one = run(bump)
    small = run(lambda t: tiny * bump(t))
    assert (small.value, small.err_est) == (tiny * one.value, tiny * one.err_est)
    # the bump's centre is 6 and 14 sd from the sides on each axis
    want = 2 * PI * 0.05**2 * (1.0 - gauss_tail(6.0) - gauss_tail(14.0)) ** 2
    assert one.value == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# Tail integrals: the level axis of an empty cone
# ---------------------------------------------------------------------------


def integrate_tail(u, g, spec):
    return integrate_cone(OutwardCone(()), u, lambda p: g(p[:, 0]), spec)


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
    with pytest.raises(CapabilityError, match="dimension 5 exceeds cap 4$"):
        integrate_cone(cone, None, lambda y: np.ones(len(y)), SPEC)


def test_box_node_cap(monkeypatch):
    # the cap admits the default order on a 5-D box, not on a 6-D one
    assert 24**5 <= quad.MAX_BOX_NODES < 24**6
    monkeypatch.setattr(quad, "MAX_BOX_NODES", 8)
    spec = QuadSpec(order_per_axis=2)
    res = integrate_box(lambda t: np.ones(len(t)), [0.0] * 3, [1.0] * 3, spec)
    assert res.value == pytest.approx(1.0, rel=1e-14)

    # one node over the cap is refused before any node is built
    def never(*args):
        raise AssertionError("nodes built for a box over the cap")

    monkeypatch.setattr(quad, "_tensor_nodes", never)
    with pytest.raises(CapabilityError, match=r"^3\^2 quadrature nodes per box exceed cap 8$"):
        integrate_box(never, [0.0, 0.0], [1.0, 1.0], QuadSpec(order_per_axis=3))


def test_quad_spec_order_must_be_an_integer():
    # a float, a string or a bool order fails at construction, not later
    # inside numpy's Gauss-Legendre rule; a NumPy integer is an integer
    for bad in (2.5, 24.0, "8", True):
        with pytest.raises(ValueError, match="order_per_axis must be an integer"):
            QuadSpec(order_per_axis=bad)
    res = integrate_box(lambda t: np.cos(t[:, 0]), [0.0], [PI / 2], QuadSpec(order_per_axis=np.int64(8)))
    assert res.value == pytest.approx(1.0, rel=1e-12)
    # rel_tol is a real number: a bool or a string is a ValueError like any
    # other bad setting, and a NumPy float is a real number
    for bad in (True, "1e-6", 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
            QuadSpec(rel_tol=bad)
    assert QuadSpec(rel_tol=np.float64(1e-6)).rel_tol == 1e-6


def test_order_doubling_stability():
    def f(t):
        return np.exp(-(3.0 - np.cos(t[:, 0]) - np.cos(t[:, 1])))

    a = integrate_box(f, [0.0, 0.0], [PI, PI], QuadSpec(order_per_axis=24))
    b = integrate_box(f, [0.0, 0.0], [PI, PI], QuadSpec(order_per_axis=48))
    assert a.value == pytest.approx(b.value, rel=1e-11)
