import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtr

import excursion_kit.gauss as gauss
from excursion_kit.errors import CapabilityError, DegeneracyError
from excursion_kit.field import SpectralSumField
from excursion_kit.gauss import (
    MvnProblem,
    _ordered_cholesky,
    gauss_tail,
    hermite,
    mvn_prob,
    std_normal_pdf,
)
from excursion_kit.geometry import RectDomain, enumerate_faces, outward_cone
from test_oracles import hermite_tail_identity_check

# Expanded coefficients of the probabilists' polynomials, frozen from the
# explicit expansions He_k(x) = sum_m coeff * x^m (monomial evaluation is an
# independent route from the three-term recurrence used by hermite()).
HE_COEFFS = {
    0: [1],
    1: [0, 1],
    2: [-1, 0, 1],
    3: [0, -3, 0, 1],
    4: [3, 0, -6, 0, 1],
    5: [0, 15, 0, -10, 0, 1],
    6: [-15, 0, 45, 0, -15, 0, 1],
}


def he_monomial(k, x):
    return sum(c * x**m for m, c in enumerate(HE_COEFFS[k]))


def test_hermite_matches_monomial_expansion():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-4, 4, size=50)
    for k, _ in HE_COEFFS.items():
        got = hermite(k, xs)
        want = np.array([he_monomial(k, x) for x in xs])
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) < 1e-12


@given(st.integers(1, 12), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_hermite_recurrence_property(k, x):
    lhs = hermite(k + 1, x)
    rhs = x * hermite(k, x) - k * hermite(k - 1, x)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_gauss_tail_against_erfc():
    for u in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        assert gauss_tail(u) == pytest.approx(0.5 * erfc(u / math.sqrt(2)), rel=1e-14)


def test_cdf_pdf_basics():
    assert ndtr(0.0) == pytest.approx(0.5, abs=1e-15)
    assert std_normal_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)
    assert gauss_tail(1.0) + ndtr(1.0) == pytest.approx(1.0, abs=1e-14)


def test_hermite_tail_identity_residuals():
    for k in range(1, 7):
        for u in (0.5, 1.0, 2.0, 3.0):
            assert hermite_tail_identity_check(k, u) < 1e-8


# ---------------------------------------------------------------------------
# MVN probabilities
# ---------------------------------------------------------------------------


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_mvn_univariate_is_exact():
    [res] = mvn_prob([MvnProblem(cov=np.array([[4.0]]), lower=[-1.0], upper=[3.0])])
    want = ndtr(1.5) - ndtr(-0.5)
    assert res.p == pytest.approx(want, abs=1e-15)
    assert res.err_est == 0.0


def test_mvn_far_upper_tail_keeps_relative_accuracy():
    # Phi(inf) - Phi(10) cancels to 0 in doubles; the tail must come from
    # Psi, as Psi(lo) - Psi(inf), the same erfc as gauss_tail
    for x in (0.5, 10.0, 30.0):
        [res] = mvn_prob([MvnProblem(cov=[[4.0]], lower=[2.0 * x], upper=[np.inf])])
        assert res == (gauss_tail(x), 0.0, False), x
    # both factors of an independent pair in the far tail, the second one
    # through the separation-of-variables draw
    [res] = mvn_prob(
        [MvnProblem(cov=np.diag([1.0, 4.0]), lower=[9.0, 18.0], upper=[np.inf] * 2)]
    )
    assert res.p == pytest.approx(gauss_tail(9.0) ** 2, rel=1e-12, abs=0.0)


def test_mvn_diagonal_factorizes():
    d = np.diag([1.0, 4.0, 0.25])
    lower = [-1.0, -2.0, 0.0]
    upper = [2.0, 2.0, 1.5]
    [res] = mvn_prob([MvnProblem(cov=d, lower=lower, upper=upper)], seed=3)
    want = 1.0
    for i in range(3):
        s = math.sqrt(d[i, i])
        want *= ndtr(upper[i] / s) - ndtr(lower[i] / s)
    assert abs(res.p - want) <= max(3 * res.err_est, 1e-12)


def test_mvn_equicorrelated_orthant_closed_form():
    # trivariate orthant with common correlation rho:
    # P = 1/8 + 3 arcsin(rho) / (4 pi)
    rho = 0.5
    cov = np.full((3, 3), rho) + (1 - rho) * np.eye(3)
    [res] = mvn_prob([MvnProblem(cov=cov, lower=[0, 0, 0], upper=[np.inf] * 3)], seed=5)
    want = 0.125 + 3 * math.asin(rho) / (4 * math.pi)
    assert abs(res.p - want) <= 1e-13


def test_mvn_bivariate_orthant_closed_form():
    for rho in (-0.7, -0.2, 0.3, 0.9):
        cov = np.array([[1.0, rho], [rho, 1.0]])
        [res] = mvn_prob([MvnProblem(cov=cov, lower=[0, 0], upper=[np.inf] * 2)], seed=2)
        want = 0.25 + math.asin(rho) / (2 * math.pi)
        assert abs(res.p - want) <= 1e-13, rho


def test_mvn_against_plain_monte_carlo():
    rng = np.random.default_rng(11)
    cov = random_spd(rng, 4)
    lower = np.array([-1.0, -2.0, -0.5, 0.0])
    upper = np.array([1.5, 2.0, 2.5, 3.0])
    # plain-MC oracle with its own sampling route
    chol = np.linalg.cholesky(cov)
    n = 400_000
    z = rng.standard_normal((n, 4)) @ chol.T
    inside = np.all((z >= lower) & (z <= upper), axis=1)
    p_mc = inside.mean()
    se_mc = math.sqrt(p_mc * (1 - p_mc) / n)
    [res] = mvn_prob([MvnProblem(cov=cov, lower=lower, upper=upper)], seed=13)
    assert abs(res.p - p_mc) <= 4 * math.hypot(se_mc, max(res.err_est, 1e-9))


def test_mvn_permutation_invariance():
    rng = np.random.default_rng(3)
    cov = random_spd(rng, 3)
    lower = [-1.0, 0.0, -2.0]
    upper = [1.0, 2.0, 0.5]
    [base] = mvn_prob([MvnProblem(cov=cov, lower=lower, upper=upper)], seed=9)
    perm = [2, 0, 1]
    cov_p = cov[np.ix_(perm, perm)]
    [res] = mvn_prob(
        [MvnProblem(cov=cov_p, lower=[lower[i] for i in perm], upper=[upper[i] for i in perm])],
        seed=10,
    )
    tol = 4 * math.hypot(max(base.err_est, 1e-10), max(res.err_est, 1e-10))
    assert abs(base.p - res.p) <= max(tol, 1e-8)


def test_mvn_monotone_in_box():
    cov = np.array([[1.0, 0.4], [0.4, 1.0]])
    [small] = mvn_prob([MvnProblem(cov=cov, lower=[-1, -1], upper=[1, 1])], seed=0)
    [large] = mvn_prob([MvnProblem(cov=cov, lower=[-2, -2], upper=[2, 2])], seed=0)
    assert large.p > small.p


def test_mvn_psd_duplicate_coordinate():
    # X2 = X1 almost surely; box reduces to the 1-d interval intersection
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    [res] = mvn_prob([MvnProblem(cov=cov, lower=[-1.0, -0.5], upper=[2.0, 1.0])])
    want = ndtr(1.0) - ndtr(-0.5)
    assert abs(res.p - want) <= max(3 * res.err_est, 1e-6)
    # a symmetric matrix with a negative eigenvalue is no covariance
    with pytest.raises(DegeneracyError, match="not positive semidefinite"):
        mvn_prob([MvnProblem(cov=[[1.0, 2.0], [2.0, 1.0]], lower=[-1.0, -1.0], upper=[1.0, 1.0])])


def test_mvn_deterministic_for_fixed_seed():
    cov = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
    prob = MvnProblem(cov=cov, lower=[-1, -1, -1], upper=[1, 1, 1])
    [a] = mvn_prob([prob], seed=21)
    [b] = mvn_prob([prob], seed=21)
    assert a.p == b.p and a.err_est == b.err_est


def test_mvn_probs_equal_single_calls(monkeypatch):
    # each result equals the call that holds only its own problem: trivially
    # on the deterministic route (d = 3), and at d = 5, where the problems
    # share the QMC points, each of the 12 randomizations builds them once
    # for the whole call
    cov = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
    problems = [
        MvnProblem(cov=cov, lower=[-1, -1, -1], upper=[1, 1, 1]),
        MvnProblem(cov=cov, lower=[1, -1, -1], upper=[1, 1, 1]),  # empty box
        MvnProblem(cov=cov, lower=[2, 0, -np.inf], upper=[np.inf, np.inf, 0]),
    ]
    assert mvn_prob(problems, 21) == [mvn_prob([p], seed=21)[0] for p in problems]
    cov5 = random_spd(np.random.default_rng(8), 5)
    problems5 = [
        MvnProblem(cov=cov5, lower=[u, 0, 0, -np.inf, 0], upper=[np.inf, np.inf, np.inf, 0, np.inf])
        for u in (1.0, 2.0, 3.0)
    ]
    built = []
    lattice_points = gauss._lattice_points

    def counting_points(d, rng):
        built.append(d)
        return lattice_points(d, rng)

    monkeypatch.setattr(gauss, "_lattice_points", counting_points)
    shared = mvn_prob(problems5, 21)
    assert built == [4] * 12
    assert shared == [mvn_prob([p], seed=21)[0] for p in problems5]
    assert mvn_prob([], 21) == []
    with pytest.raises(ValueError):
        mvn_prob([problems[0], MvnProblem(cov=[[1.0]], lower=[0], upper=[1])], 21)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("interval", [(0.5, 2.0), (-2.0, -0.5)])
def test_mvn_excluded_point_mass_is_zero(d, interval):
    # the second coordinate is 0 almost surely and its interval misses 0:
    # the ordering puts the point mass first, and the probability is
    # exactly 0
    rng = np.random.default_rng(d)
    keep = [i for i in range(d) if i != 1]
    cov = np.zeros((d, d))
    cov[np.ix_(keep, keep)] = random_spd(rng, d - 1)
    lower = np.full(d, -1.0)
    upper = np.full(d, 1.5)
    lower[1], upper[1] = interval
    problem = MvnProblem(cov=cov, lower=lower, upper=upper)
    L, _, _ = _ordered_cholesky(problem.cov, problem.lower, problem.upper)
    assert L[0, 0] == 0.0
    [res] = mvn_prob([problem], seed=4)
    assert res == (0.0, 0.0, False) and math.copysign(1.0, res.p) == 1.0


@pytest.mark.parametrize("d", [2, 3])
def test_mvn_included_point_mass_drops_out(d):
    # a point mass whose interval holds 0 has mass 1: the problem equals
    # the one without that coordinate
    rng = np.random.default_rng(7 + d)
    sub_cov = random_spd(rng, d - 1)
    lower = np.array([-1.0, 0.3, -2.0])[: d - 1]
    upper = np.array([2.0, np.inf, 0.5])[: d - 1]
    cov = np.zeros((d, d))
    cov[1:, 1:] = sub_cov
    [full] = mvn_prob(
        [MvnProblem(cov=cov, lower=np.r_[-0.5, lower], upper=np.r_[0.0, upper])], seed=6
    )
    [reduced] = mvn_prob([MvnProblem(cov=sub_cov, lower=lower, upper=upper)], seed=6)
    tol = 4 * math.hypot(full.err_est, reduced.err_est)
    assert abs(full.p - reduced.p) <= max(tol, 1e-12)


@pytest.mark.parametrize(
    "interval, want",
    [((-1.0, 1.0), 1.0), ((0.0, 2.0), 1.0), ((0.5, 2.0), 0.0), ((-2.0, -0.5), 0.0)],
)
def test_mvn_univariate_point_mass_is_exact(interval, want):
    [res] = mvn_prob([MvnProblem(cov=[[0.0]], lower=[interval[0]], upper=[interval[1]])])
    assert res == (want, 0.0, False) and math.copysign(1.0, res.p) == 1.0


@pytest.mark.parametrize(
    "cov, lower, upper, want",
    [
        ([[0.0]], [0.0], [0.0], 1.0),
        ([[0.0]], [0.5], [0.5], 0.0),
        ([[1.0]], [0.3], [0.3], 0.0),
        (np.diag([1.0, 0.0]), [-1.0, 0.0], [1.0, 0.0], 1.0 - 2.0 * gauss_tail(1.0)),
        (np.diag([1.0, 0.0]), [-1.0, 0.5], [1.0, 0.5], 0.0),
        ([[1.0, 0.5], [0.5, 1.0]], [-1.0, 0.3], [1.0, 0.3], 0.0),
    ],
    ids=["point-at-mean", "point-off-mean", "1d-positive-var", "2d-point-at-mean",
         "2d-point-off-mean", "2d-positive-var"],
)
def test_mvn_equal_bounds(cov, lower, upper, want):
    # [a, a] holds all of a zero-variance coordinate's mass when a is its
    # mean and none otherwise; on a positive-variance coordinate it holds
    # none
    [res] = mvn_prob([MvnProblem(cov=cov, lower=lower, upper=upper)], seed=3)
    assert res.p == pytest.approx(want, rel=1e-14, abs=0.0)
    assert math.copysign(1.0, res.p) == 1.0 and not res.warning


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("end", [np.inf, -np.inf])
def test_mvn_interval_at_infinity_is_empty(d, end):
    # [inf, inf] and [-inf, -inf] hold no mass: unlike (-inf, inf), such a
    # coordinate does not drop out
    lower, upper = np.full(d, -1.0), np.full(d, np.inf)
    lower[-1] = upper[-1] = end
    [res] = mvn_prob([MvnProblem(cov=np.eye(d), lower=lower, upper=upper)])
    assert res == (0.0, 0.0, False)


@pytest.mark.parametrize(
    "cov, lower, upper",
    [
        (np.eye(2), [np.nan, 0.0], [np.inf, np.inf]),
        (np.eye(2), [0.0, 0.0], [1.0, np.nan]),
        ([[1.0]], [np.nan], [1.0]),
        ([[1.0, np.nan], [np.nan, 1.0]], [0.0, 0.0], [1.0, 1.0]),
        ([[np.inf]], [0.0], [1.0]),
        (np.ones((2, 3)), [0.0, 0.0], [1.0, 1.0]),
        (np.eye(2), [0.0], [1.0]),
        ([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0], [1.0, 1.0]),
        (np.eye(2), [1.0, 0.0], [0.0, 1.0]),
    ],
    ids=[
        "nan-lower", "nan-upper", "nan-1d", "nan-cov", "inf-cov",
        "not-square", "bound-shape", "not-symmetric", "lower-above-upper",
    ],
)
def test_mvn_problem_rejects_nan_bounds_and_nonfinite_cov(cov, lower, upper):
    # a NaN bound or covariance would give p = nan with the accuracy flag off
    with pytest.raises(ValueError):
        MvnProblem(cov=cov, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Deterministic route (dimension <= MVN_DET_DIM) against oracles
# ---------------------------------------------------------------------------


def checked(problem, seed=0):
    """mvn_prob's result for one problem, once its err_est is seen to bound
    the gap to the same rule at order 96."""
    [res] = mvn_prob([problem], seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gauss, "MVN_GL_ORDER", 96)
        [fine] = mvn_prob([problem], seed)
    assert abs(res.p - fine.p) <= res.err_est
    return res


def random_corr(rng, n, spread):
    # a rank-one part of size spread pushes correlations towards +-1
    c = random_spd(rng, n)
    v = rng.standard_normal(n)
    c += spread * np.outer(v, v)
    s = np.sqrt(np.diag(c)) * rng.choice([-1.0, 1.0], n)
    return c / np.outer(s, s)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", range(6))
def test_mvn_centred_orthants_match_sheppard(d, case):
    # Sheppard: P(Z > 0) = 1/4 + arcsin(rho) / (2 pi) for d = 2 and
    # 1/8 + sum_{i<j} arcsin(rho_ij) / (4 pi) for d = 3; the correlations
    # reach |rho| = 0.94 through the rank-one part
    cov = random_corr(np.random.default_rng(100 + case), d, spread=10.0 * case)
    asin = sum(math.asin(cov[i, j]) for i in range(d) for j in range(i + 1, d))
    want = 0.25 + asin / (2 * math.pi) if d == 2 else 0.125 + asin / (4 * math.pi)
    # the upper orthant, and the lower one, which _mirror takes to it
    for lo, hi in (([0.0] * d, [np.inf] * d), ([-np.inf] * d, [0.0] * d)):
        res = checked(MvnProblem(cov=cov, lower=lo, upper=hi), seed=case)
        assert abs(res.p - want) <= 1e-13


@pytest.mark.parametrize(
    "lower, upper",
    [
        ([-1.0, 2.0], [1.5, np.inf]),
        ([5.0, -np.inf, 0.5], [np.inf, -4.0, 3.0]),
        ([2.0, 0.0, -np.inf, 8.0], [np.inf, np.inf, 0.0, np.inf]),
        ([-0.3, -2.0, 1.0, -30.0], [0.2, 2.5, 1.2, 30.0]),
        ([12.0, 9.0, 0.0, -1.0], [np.inf, np.inf, 1e-3, np.inf]),
        ([-9.0, -12.0, -7.5, -30.0], [8.5, 10.0, 7.0, 30.0]),
    ],
)
def test_mvn_diagonal_is_a_product(lower, upper):
    # independent coordinates: the probability is the product of exact 1-D
    # masses, each taken on the side of its median that keeps it relative
    sd = np.array([1.0, 2.0, 0.5, 3.0])[: len(lower)]
    want = 1.0
    for a, b, s in zip(lower, upper, sd):
        a, b = a / s, b / s
        want *= gauss_tail(a) - gauss_tail(b) if a > 0 else ndtr(b) - ndtr(a)
    res = checked(MvnProblem(cov=np.diag(sd**2), lower=lower, upper=upper))
    assert res.p == pytest.approx(want, rel=1e-12, abs=0.0)


def test_mvn_oblique_vertices_match_qmc(monkeypatch):
    # the 4-D vertex orthants (u = 2, 4, 6) of an oblique 4-atom field on a
    # 3-D box: the deterministic result lies within the QMC's own err_est
    model = SpectralSumField(
        freqs=[[1.0, 0.5, 0.0], [0.3, 1.0, 0.2], [0.0, 0.4, 1.1], [0.7, -0.6, 0.5]],
        weights=[0.5, 0.4, 0.3, 0.2],
        offset_var=1.0,
    )
    dom = RectDomain([0.0] * 3, [2.5, 2.0, 1.5])
    for i, fc in enumerate(f for f in enumerate_faces(dom) if f.k == 0):
        t = fc.fixed_values()
        c = 0.5 * model.grad_variance(t)
        cov = np.block([[np.array([[model.variance(t)]]), c[None, :]], [c[:, None], model.lambda_mat]])
        clo, chi = outward_cone(fc).bounds()
        problems = [MvnProblem(cov, np.r_[u, clo], np.r_[np.inf, chi]) for u in (2.0, 4.0, 6.0)]
        det = [checked(pb) for pb in problems]
        with monkeypatch.context() as mp:
            mp.setattr(gauss, "MVN_DET_DIM", 3)
            qmc = mvn_prob(problems, seed=i)
        for a, q in zip(det, qmc):
            assert abs(a.p - q.p) <= q.err_est, (i, a, q)


@pytest.mark.parametrize("d", [5, 6, 8, 12])
@pytest.mark.parametrize("seed", range(5))
def test_mvn_lattice_equicorrelated_orthant(d, seed):
    # equicorrelated at rho = 1/2, Z_i = (X_i + X_0) / sqrt(2) for iid X:
    # all Z_i > 0 exactly when X_0 is the largest of d + 1, so P = 1/(d + 1)
    cov = 0.5 * (np.ones((d, d)) + np.eye(d))
    [res] = mvn_prob([MvnProblem(cov=cov, lower=np.zeros(d), upper=np.full(d, np.inf))], seed)
    assert abs(res.p - 1.0 / (d + 1)) <= res.err_est, res


@pytest.mark.parametrize(
    "lower,upper",
    [
        ([0.5, -np.inf, -1.0, 2.0, -np.inf], [np.inf, 1.0, np.inf, np.inf, -0.5]),
        ([-np.inf, 1.0, -0.5, -np.inf, 3.0, -2.0], [0.0, np.inf, np.inf, 1.5, np.inf, np.inf]),
    ],
)
def test_mvn_lattice_diagonal_is_a_product(lower, upper):
    # with independent coordinates the lattice integrand does not depend on
    # the points: every shift gives the product of the exact 1-D masses to
    # rounding, and err_est is the rounding allowance, which covers it
    sd = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 0.8])[: len(lower)]
    want = 1.0
    for a, b, s in zip(lower, upper, sd):
        a, b = a / s, b / s
        want *= gauss_tail(a) - gauss_tail(b) if a > 0 else ndtr(b) - ndtr(a)
    for seed in range(5):
        [res] = mvn_prob([MvnProblem(cov=np.diag(sd**2), lower=lower, upper=upper)], seed)
        assert res.p == pytest.approx(want, rel=1e-14, abs=0.0)
        assert abs(res.p - want) <= res.err_est <= (gauss.MVN_ROUNDING + 1e-14) * want


def test_mvn_lattice_generating_vector_prefix():
    # component-by-component search (Nuyens & Cools 2006): z_1 = 1, and each
    # next z_s in 1 .. (n - 1)/2 minimises the mean over the n points of
    # prod_j (1 + gamma_j 2 pi^2 B2({k z_j / n})), B2(x) = x^2 - x + 1/6,
    # gamma_j = 1/j^2.  At s = 2 a z and its inverse mod n give one lattice
    # with the axes swapped, so they tie; the vector keeps the larger
    n = gauss.MVN_QMC_POINTS
    k = np.arange(n)
    kern = 2.0 * math.pi**2 * ((k / n) ** 2 - k / n + 1.0 / 6.0)
    cand = np.arange(1, (n + 1) // 2)
    prod = 1.0 + kern
    z = [1]
    for s in (2, 3, 4):
        # with the candidate's factor 1 + gamma_s kern the mean is
        # mean(prod) + gamma_s mean(prod kern): rank by kern @ prod
        score = np.concatenate(
            [kern[np.outer(c, k) % n] @ prod for c in np.array_split(cand, 32)]
        )
        ties = cand[score <= score.min() + 1e-9 * abs(score.min())]
        if s == 2:
            assert len(ties) == 2 and ties[0] * ties[1] % n == 1
        z.append(int(ties.max()))
        prod = prod * (1.0 + kern[k * z[-1] % n] / s**2)
    assert tuple(z) == gauss.MVN_LATTICE_Z[:4] == (1, 3457, 2970, 1074)
    assert len(gauss.MVN_LATTICE_Z) == gauss.MAX_MVN_DIM - 1


def test_mvn_lattice_points():
    # unshifted, the points are exactly |2 (i z mod n) / n - 1|; shifted,
    # they stay in [0, 1]
    class NoShift:
        def random(self, d):
            return np.zeros(d)

    w = gauss._lattice_points(3, NoShift())
    n = gauss.MVN_QMC_POINTS
    i = np.arange(n)[:, None]
    frac = i * np.array(gauss.MVN_LATTICE_Z[:3]) % n / n
    assert w.shape == (n, 3) and np.array_equal(w, np.abs(2.0 * frac - 1.0))
    w = gauss._lattice_points(5, np.random.default_rng(1))
    assert w.shape == (n, 5) and w.min() >= 0.0 and w.max() <= 1.0


def quadrant_oracle(h, k, rho):
    # P(X >= h, Y >= k) = int_h^inf phi(x) Psi((k - rho x) / r) dx by
    # 200-point Gauss-Legendre on panels of [h, h + 12]; the rest is below
    # exp(-12 h) of the integral.  Psi((k - rho x) / r) steps from 0 to 1
    # over a width of about r around x = k / rho, so that width gets panels
    # of its own where it lies inside
    r = math.sqrt(1.0 - rho * rho)
    cuts = {0.0, 0.5, 2.0, 12.0}
    if rho != 0.0:
        cuts |= {k / rho + j * r - h for j in (-16, -4, -1, 0, 1, 4, 16)}
    cuts = sorted(c for c in cuts if 0.0 <= c <= 12.0)
    x, w = np.polynomial.legendre.leggauss(200)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        t = h + a + (b - a) * 0.5 * (x + 1.0)
        total += 0.5 * (b - a) * (w @ (std_normal_pdf(t) * gauss_tail((k - rho * t) / r)))
    return total


# (h, k, rho) across the routes of _quadrant: Owen's T form near the
# origin and where h or k is negative, the Gauss-Laguerre rule in a joint
# upper tail, and correlations within 1e-3 and 1e-6 of +-1
QUADRANT_POINTS = [
    (-1.0, 0.5, 0.3),
    (0.0, 0.0, -0.7),
    (1.5, -2.0, 0.9),
    (0.4, 1.1, -0.2),
    (-2.0, -1.0, 0.999),
    (-1.0, 0.5, -0.999),
    (1.0, 1.2, 0.999999),
    (0.3, -0.8, -0.999999),
    (5.0, 6.0, 0.2),
    (9.0, 9.0, -0.5),
    (6.0, 4.5, 0.7),
    (4.0, 7.0, 0.999),
    (5.0, 5.5, -0.3),
]


def test_quadrant_with_a_correlation_per_point(monkeypatch):
    # one call with a correlation per point takes both routes, and each
    # point matches the oracle of its own correlation
    h, k, rho = (np.array(col) for col in zip(*QUADRANT_POINTS))
    routes = []
    for name in ("_owen_quadrant", "_laguerre_quadrant"):
        fn = getattr(gauss, name)

        def spy(*args, fn=fn, name=name):
            routes.append((name, len(args[0])))
            return fn(*args)

        monkeypatch.setattr(gauss, name, spy)
    got = gauss._quadrant(h, k, rho)
    assert {name for name, n in routes} == {"_owen_quadrant", "_laguerre_quadrant"}
    assert sum(n for _, n in routes) == len(h)
    for p, point in zip(got, QUADRANT_POINTS):
        assert p == pytest.approx(quadrant_oracle(*point), rel=1e-12, abs=0.0), point


def test_quadrant_at_a_perfect_correlation_per_point():
    # rho = +-1 points take Y2 = +-Y1 in closed form beside the others
    h = np.array([0.5, 0.5, -1.0, 2.0, 1.0])
    k = np.array([1.5, -1.0, 0.2, 2.5, 1.0])
    rho = np.array([1.0, -1.0, -1.0, 0.5, -1.0])
    got = gauss._quadrant(h, k, rho)
    want = [
        gauss_tail(1.5),
        ndtr(1.0) - ndtr(0.5),
        ndtr(-0.2) - ndtr(-1.0),
        quadrant_oracle(2.0, 2.5, 0.5),
        0.0,
    ]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [0.3, -0.95, 0.999, 1.0, -1.0])
def test_quadrant_constant_correlation_array_matches_the_scalar(rho):
    # the vertex orthants pass one correlation for all points; an array of
    # it must give the same bits on every route
    h = np.array([-1.0, 0.0, 0.7, 2.5, 5.0, 9.0, 6.0, -3.0])
    k = np.array([0.5, 0.0, -1.2, 2.0, 6.0, 9.0, 4.0, 7.5])
    want = gauss._quadrant(h, k, rho)
    got = gauss._quadrant(h, k, np.full(len(h), rho))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("h", [5.0, 9.0])
@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
def test_mvn_upper_quadrant_keeps_relative_accuracy(h, rho):
    # far in the joint upper tail Owen's T form would cancel (at h = 9,
    # rho = 0 to a negative number); the result must keep 12 digits
    cov = np.array([[1.0, rho], [rho, 1.0]])
    res = checked(MvnProblem(cov=cov, lower=[h, h], upper=[np.inf, np.inf]))
    want = quadrant_oracle(h, h, rho)
    assert res.p == pytest.approx(want, rel=1e-12, abs=0.0)


def test_mvn_dimension_cap():
    n = 13
    with pytest.raises(CapabilityError):
        mvn_prob([MvnProblem(cov=np.eye(n), lower=[-1] * n, upper=[1] * n)])


def test_hermite_degree_cap():
    with pytest.raises(CapabilityError):
        hermite(31, 0.0)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        hermite(-1, 0.0)
