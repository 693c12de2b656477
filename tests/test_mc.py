import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import excursion_kit.mc as mc_mod
from excursion_kit.errors import CapabilityError, ConfigError
from excursion_kit.field import CosineField, GaussianIncrementField, SpectralSumField
from excursion_kit.geometry import RectDomain
from excursion_kit.mc import (
    GridSpec,
    empirical_ec,
    empirical_sup_prob,
    mc_mean_ec,
)
from test_oracles import ec_oracle_2d

PI = math.pi


def cosine():
    return CosineField()


def block_mask(shape, ones_slices):
    m = np.zeros(shape, dtype=float)
    for sl in ones_slices:
        m[sl] = 1.0
    return m


def sweep_values(model, grid, seed, reps):
    """Values of replicates 0..reps-1 on the grid, shape (reps, *grid.shape),
    formed as the sweep forms its tiles: coefficient rows times the basis."""
    rows = mc_mod._coefficients(model, seed, range(reps)) @ mc_mod._basis(model, grid.points())
    return rows.reshape((reps,) + grid.shape)


# ---------------------------------------------------------------------------
# distributional checks on the simulator
# ---------------------------------------------------------------------------


def test_value_at_origin_is_offset_coefficient():
    # every basis function except the constant vanishes at t = 0
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, PI]), 3)
    model = cosine()
    vals = sweep_values(model, grid, 11, 4000)[:, 0, 0]
    assert np.array_equal(vals, mc_mod._coefficients(model, 11, range(4000))[:, 0])
    # the marginal there has variance offset_var; check against a wide band
    assert abs(vals.var() - model.offset_var) < 0.15


def test_pointwise_variance_matches_model():
    # at (pi, pi) the cosine-field variance peaks at 5
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, PI]), 3)
    vals = sweep_values(cosine(), grid, 7, 20000)[:, 2, 2]
    assert vals.var() == pytest.approx(5.0, abs=0.2)
    assert abs(vals.mean()) < 0.07


def test_pairwise_covariance_matches_model():
    dom = RectDomain([0.0, 0.0], [2.0, 1.0])
    grid = GridSpec(dom, 3)
    model = cosine()
    t = np.array([1.0, 1.0])
    s = np.array([2.0, 0.5])

    def cov_theory(a, b):
        acc = model.offset_var
        for lam, w in zip(model.freqs, model.weights):
            acc += w * (
                math.cos(float((a - b) @ lam))
                - math.cos(float(a @ lam))
                - math.cos(float(b @ lam))
                + 1.0
            )
        return acc

    v = sweep_values(model, grid, 21, 30000)
    xs = v[:, 1, 2]  # (1.0, 1.0)
    ys = v[:, 2, 1]  # (2.0, 0.5)
    emp = float(np.mean(xs * ys))
    assert emp == pytest.approx(cov_theory(t, s), abs=0.08)


def test_replicates_differ_and_are_reproducible():
    # replicate r is keyed by (seed, r): drawn alone, in a block of rows or
    # in any listed order, its coefficients are the same bits
    model = cosine()
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, PI]), 9)
    rows = mc_mod._coefficients(model, 3, range(8))
    for r in range(8):
        assert np.array_equal(mc_mod._coefficients(model, 3, [r])[0], rows[r])
    assert np.array_equal(mc_mod._coefficients(model, 3, np.array([6, 2, 5])), rows[[6, 2, 5]])
    vals = sweep_values(model, grid, 3, 8)
    assert len({v.tobytes() for v in vals}) == 8
    other_seed = sweep_values(model, grid, 4, 1)
    assert not np.array_equal(vals[0], other_seed[0])


def test_non_spectral_model_rejected():
    model = GaussianIncrementField(dim=1, scale=1.0, offset_var=0.5)
    with pytest.raises(CapabilityError):
        empirical_sup_prob(model, RectDomain([0.0], [1.0]), [1.0], 5, 100)


# ---------------------------------------------------------------------------
# Euler characteristic counting
# ---------------------------------------------------------------------------


def test_ec_solid_block():
    m = block_mask((8, 8), [np.s_[2:7, 1:6]])
    out = empirical_ec(m, 0.5)
    assert out.n_d == (25, 40, 16)
    assert out.chi == 1


def test_ec_ring_is_zero():
    m = block_mask((8, 8), [np.s_[1:5, 1:5]])
    m[2:4, 2:4] = 0.0
    assert empirical_ec(m, 0.5).chi == 0


def test_ec_two_blocks():
    m = block_mask((8, 8), [np.s_[0:2, 0:2], np.s_[5:8, 4:8]])
    assert empirical_ec(m, 0.5).chi == 2


def test_ec_full_and_empty_grids():
    for shape in [(6,), (5, 7), (4, 3, 5)]:
        assert empirical_ec(np.ones(shape), 0.5).chi == 1
        out = empirical_ec(np.zeros(shape), 0.5)
        assert out.chi == 0
        assert all(c == 0 for c in out.n_d)


def test_ec_one_dimensional_runs():
    m = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    out = empirical_ec(m, 0.5)
    assert out.chi == 3  # three runs
    assert out.n_d == (6, 3)


def test_ec_hollow_cube():
    m = np.ones((3, 3, 3))
    m[1, 1, 1] = 0.0
    out = empirical_ec(m, 0.5)
    assert out.n_d == (26, 48, 24, 0)
    assert out.chi == 2  # topological sphere


def test_ec_touching_corners():
    # two squares sharing only a vertex stay connected in the closed complex
    m = np.array(
        [
            [1.0, 1.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ]
    )
    assert empirical_ec(m, 0.5).chi == 1
    assert ec_oracle_2d(m >= 0.5) == 1
    diag = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert empirical_ec(diag, 0.5).chi == 2
    assert ec_oracle_2d(diag >= 0.5) == 2


def test_ec_dimension_cap():
    with pytest.raises(CapabilityError):
        empirical_ec(np.ones((2, 2, 2, 2)), 0.5)


def test_ec_threshold_uses_realization_values():
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, PI]), 17)
    [values] = sweep_values(cosine(), grid, 5, 1)
    out = empirical_ec(values, -50.0)
    assert out.chi == 1  # everything exceeds a very low level


@settings(max_examples=150, deadline=None)
@given(
    arrays(
        dtype=bool,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.booleans(),
    )
)
def test_ec_matches_independent_oracle(mask):
    assert empirical_ec(mask.astype(float), 0.5).chi == ec_oracle_2d(mask)


@settings(max_examples=60, deadline=None)
@given(
    arrays(dtype=bool, shape=st.tuples(st.integers(1, 6), st.integers(2, 8)),
           elements=st.booleans()),
    arrays(dtype=bool, shape=st.tuples(st.integers(1, 6), st.integers(2, 8)),
           elements=st.booleans()),
)
def test_ec_additive_over_separated_pieces(a, b):
    cols = max(a.shape[1], b.shape[1])

    def pad_cols(m):
        out = np.zeros((m.shape[0], cols), dtype=bool)
        out[:, : m.shape[1]] = m
        return out

    a = pad_cols(a)
    b = pad_cols(b)
    gap = np.zeros((1, cols), dtype=bool)
    stacked = np.vstack([a, gap, b])
    chi = empirical_ec(stacked.astype(float), 0.5).chi
    want = empirical_ec(a.astype(float), 0.5).chi + empirical_ec(b.astype(float), 0.5).chi
    assert chi == want


# ---------------------------------------------------------------------------
# sweep estimators
# ---------------------------------------------------------------------------


def test_sup_prob_monotone_in_level():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    (p2, _), (p3, _) = empirical_sup_prob(cosine(), dom, (2.0, 3.0), 9, 300, seed=8)
    assert p2 >= p3


def test_sup_prob_stderr_formula():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    [(p, se)] = empirical_sup_prob(cosine(), dom, [2.5], 9, 100, seed=1)
    assert se == pytest.approx(math.sqrt(p * (1 - p) / 100), abs=0.0)


def test_sup_prob_thread_count_invariance():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    one = empirical_sup_prob(cosine(), dom, [2.0], 9, 700, seed=5, threads=1)
    four = empirical_sup_prob(cosine(), dom, [2.0], 9, 700, seed=5, threads=4)
    assert one == four
    m1 = mc_mean_ec(cosine(), dom, [2.0], 9, 700, seed=5, threads=1)
    m4 = mc_mean_ec(cosine(), dom, [2.0], 9, 700, seed=5, threads=4)
    assert m1 == m4


def test_blocks_stay_under_the_byte_cap():
    # a value tile holds as many rows as fit MAX_BLOCK_BYTES, and one row
    # when a single row does not fit
    for n_points in (9**2, 17**2, 128**2, 255**2, 20**3, 39**3):
        rows = mc_mod._tile_rows(n_points)
        assert rows * 8 * n_points <= mc_mod.MAX_BLOCK_BYTES
        assert (rows + 1) * 8 * n_points > mc_mod.MAX_BLOCK_BYTES
    # 3-D grid 64 refines to 127^3 points: one row is about 16 MB
    fine3 = 127**3
    assert 8 * fine3 > mc_mod.MAX_BLOCK_BYTES
    assert mc_mod._tile_rows(fine3) == 1
    # work items keep CHUNK rows whatever the grid
    ranges = mc_mod._chunk_ranges(10_000)
    assert ranges[0] == (0, mc_mod.CHUNK)
    assert ranges[-1][1] == 10_000


def test_block_cap_leaves_results_unchanged(monkeypatch):
    # reducers sum integers, so the tile layout cannot move a result
    dom = RectDomain([0.0, 0.0], [PI, PI])

    def results():
        return [
            empirical_sup_prob(cosine(), dom, (2.0, 2.5), 9, 700, seed=5),
            mc_mean_ec(cosine(), dom, (2.0, 2.5), 9, 700, seed=5),
        ]

    want = results()
    for rows in (1, 2, 3):
        monkeypatch.setattr(mc_mod, "MAX_BLOCK_BYTES", rows * 8 * 81)
        assert mc_mod._tile_rows(81) == rows
        assert results() == want


def test_sweep_memory_stays_at_the_tile():
    # one 512-row block of the 255^2 grid would be 266 MB; tiles keep a
    # 128^2 sweep with EC and a whole 255^2 sweep near MAX_BLOCK_BYTES, with
    # both work items in flight at once
    dom = RectDomain([0.0, 0.0], [PI, PI])
    for threads in (1, 2):
        tracemalloc.start()
        try:
            rows = mc_mean_ec(cosine(), dom, (3.0, 4.0), 128, 600, 0, threads=threads)
            rows += empirical_sup_prob(cosine(), dom, (3.0, 4.0), 255, 600, 0, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 4
        assert peak < 32 * 2**20


def bool_sum_cell_counts(mask, ndim):
    """Occupied d-cell counts by AND-ing every axis set from the mask and
    summing the bools over the grid axes."""
    lead = mask.ndim - ndim
    grid_axes = tuple(range(lead, mask.ndim))
    counts = [mask.sum(axis=grid_axes, dtype=np.int64)]
    for d in range(1, ndim + 1):
        total = 0
        for axes in itertools.combinations(range(ndim), d):
            cur = mask
            for ax in axes:
                lo = [slice(None)] * cur.ndim
                hi = [slice(None)] * cur.ndim
                lo[lead + ax] = slice(None, -1)
                hi[lead + ax] = slice(1, None)
                cur = cur[tuple(lo)] & cur[tuple(hi)]
            total = total + cur.sum(axis=grid_axes, dtype=np.int64)
        counts.append(total)
    return counts


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda ndim: st.tuples(
            st.just(ndim),
            st.booleans(),
            st.sampled_from(["random", "all", "none"]),
            arrays(
                dtype=bool,
                shape=st.tuples(*[st.integers(1, 7)] * (ndim + 1)),
                elements=st.booleans(),
            ),
        )
    )
)
def test_cell_counts_equal_bool_sums(case):
    ndim, lead, fill, mask = case
    if fill != "random":
        mask = np.full(mask.shape, fill == "all")
    if not lead:
        mask = mask[0]
    got = mc_mod._cell_counts(mask, ndim)
    want = bool_sum_cell_counts(mask, ndim)
    assert len(got) == ndim + 1
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(g, w)


def test_mc_levels_thread_invariant_with_small_tiles(monkeypatch):
    # 1100 reps make three work items, the last one short; 7-row tiles
    # split each of them, and the last tile of every item is short too
    monkeypatch.setattr(mc_mod, "MAX_BLOCK_BYTES", 7 * 8 * 81)
    assert mc_mod._tile_rows(81) == 7
    dom = RectDomain([0.0, 0.0], [PI, PI])
    one = mc_mean_ec(cosine(), dom, (1.5, 2.0, 2.5), 9, 1100, 3, threads=1)
    two = mc_mean_ec(cosine(), dom, (1.5, 2.0, 2.5), 9, 1100, 3, threads=2)
    assert one == two


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_levels_equal_one_level_calls(threads):
    # one sweep of a grid serves every level; 700 reps make two chunks, so
    # threads=2 runs them concurrently
    dom = RectDomain([0.0, 0.0], [PI, PI])
    levels = (1.5, 2.0, 2.5)
    rows = mc_mean_ec(cosine(), dom, levels, 9, 700, 5, threads=threads)
    assert len(rows) == len(levels)
    fine = empirical_sup_prob(cosine(), dom, levels, 17, 700, 5, threads=threads)
    for u, row, sup_fine in zip(levels, rows, fine):
        assert row == mc_mean_ec(cosine(), dom, [u], 9, 700, 5, threads=threads)[0]
        assert sup_fine == empirical_sup_prob(cosine(), dom, [u], 17, 700, 5, threads=threads)[0]
        # the Euler sweep counts grid maxima exactly as empirical_sup_prob does
        assert row[:2] == empirical_sup_prob(cosine(), dom, [u], 9, 700, 5, threads=threads)[0]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_coefficients_match_a_fresh_generator_per_replicate(seed):
    # the re-keyed generator must draw what a Philox built for (seed, r) draws
    model = SpectralSumField(
        freqs=np.array([[1.0, 0.0], [0.3, 1.2], [0.0, 0.7]]),
        weights=np.array([0.5, 0.2, 1.3]),
        offset_var=0.8,
    )
    sw = np.sqrt(model.weights)
    for start, stop in [(0, 1), (1, 700), (700, 2000)]:
        got = mc_mod._coefficients(model, seed, range(start, stop))
        assert got.shape == (stop - start, 7)
        for r in range(start, stop):
            key = np.array([seed, r], dtype=np.uint64)
            draws = np.random.Generator(np.random.Philox(key=key)).standard_normal(7)
            want = np.empty(7)
            want[0] = math.sqrt(model.offset_var) * draws[0]
            want[1::2] = sw * draws[1::2]
            want[2::2] = sw * draws[2::2]
            assert np.array_equal(got[r - start], want)


def test_sup_prob_needs_enough_reps():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    with pytest.raises(ConfigError):
        empirical_sup_prob(cosine(), dom, [2.0], 9, 99)
    with pytest.raises(ConfigError):
        mc_mean_ec(cosine(), dom, [2.0], 9, 50)


def test_grid_and_reps_must_be_integers(monkeypatch):
    # a grid or reps that is not an integer is a ConfigError naming it,
    # raised before any sweep; Python and NumPy integers are accepted
    dom = RectDomain([0.0, 0.0], [PI, PI])
    for bad in ([16.7, 16], 16.0, "16", (9, 9.5)):
        with pytest.raises(ConfigError, match=re.escape(repr(bad))):
            GridSpec(dom, bad)
    assert GridSpec(dom, np.int64(9)).shape == (9, 9)
    assert GridSpec(dom, np.array([5, 9])).shape == (5, 9)
    want = empirical_sup_prob(cosine(), dom, [2.0], 9, 100)

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(mc_mod, "_sweep", no_sweep)
    for estimator in (empirical_sup_prob, mc_mean_ec, mc_mod.mc_estimates):
        with pytest.raises(ConfigError, match=re.escape("100.5")):
            estimator(cosine(), dom, [2.0], 9, 100.5)
        with pytest.raises(ConfigError, match=re.escape("[9.0, 9.7]")):
            estimator(cosine(), dom, [2.0], [9.0, 9.7], 100)
    monkeypatch.undo()
    assert empirical_sup_prob(cosine(), dom, [2.0], np.int64(9), np.int64(100)) == want


def test_refined_axes_contain_coarse_axes():
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, 1.5 * PI]), 5)
    fine = GridSpec(grid.domain, tuple(2 * p - 1 for p in grid.points_per_axis))
    for ax_c, ax_f in zip(grid.axes(), fine.axes()):
        assert np.all(np.isin(ax_c, ax_f))  # exact containment, not approx


def test_dual_resolution_refinement_never_loses_mass():
    # the 2R-1 grid contains every point of the R grid and the replicates
    # share their coefficients, so each replicate's maximum can only grow
    dom = RectDomain([0.0, 0.0], [PI, PI])
    levels = (1.0, 2.0, 3.0)
    coarse = mc_mean_ec(cosine(), dom, levels, 5, 400, seed=9)
    fine = empirical_sup_prob(cosine(), dom, levels, 9, 400, seed=9)
    for (p, *_), (p_fine, _) in zip(coarse, fine):
        assert p_fine >= p


OBLIQUE2 = SpectralSumField(
    freqs=np.array([[1.0, 0.5], [0.3, 1.0], [0.7, -0.6]]),
    weights=np.array([0.5, 0.4, 0.2]),
    offset_var=1.0,
)
SPECTRAL3 = SpectralSumField(
    freqs=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.4, 0.3, 1.1]]),
    weights=np.array([0.5, 0.5, 0.3]),
)


@pytest.mark.parametrize(
    "model,domain,points",
    [
        (cosine(), RectDomain([0.0, 0.0], [PI, PI]), 5),
        (OBLIQUE2, RectDomain([0.0, 0.0], [2.5, 2.0]), (4, 6)),
        (SPECTRAL3, RectDomain([0.0, 0.0, 0.0], [PI, PI, 2.0]), 4),
        # the variance 3 - cos t1 - cos t2 grows to the edge t1 = pi/2, so
        # over 40% of the maxima sit on that edge, where only the gradient
        # along it is 0
        (cosine(), RectDomain([0.0, 0.0], [PI / 2, PI]), (3, 5)),
    ],
)
def test_curvature_bound_holds_on_a_finer_grid(model, domain, points):
    # sup_T X <= g + K delta^2 / 2 for the grid maximum g and
    # K = sum_m hypot(A_m, B_m) |f_m|^2; the 4R-3 grid checks it per replicate
    reps, seed = 400, 6
    grid = GridSpec(domain, points)
    fine4 = GridSpec(domain, tuple(4 * n - 3 for n in grid.shape))
    coefs = mc_mod._coefficients(model, seed, range(reps))
    g = sweep_values(model, grid, seed, reps).reshape(reps, -1).max(axis=1)
    g4 = sweep_values(model, fine4, seed, reps).reshape(reps, -1).max(axis=1)
    curv = np.hypot(coefs[:, 1::2], coefs[:, 2::2]) @ (model.freqs**2).sum(axis=1)
    h = (np.array(domain.upper) - np.array(domain.lower)) / (np.array(grid.shape) - 1)
    bound = g + curv * (h @ h / 4) / 2
    # values at the shared nodes agree to rounding, not bit for bit
    assert np.all(g4 <= bound + 1e-12)
    assert np.all(g4 >= g - 1e-12)
    # the finer grid climbs above some coarse maxima, and the bound is not
    # slack by orders of magnitude
    assert np.max((g4 - g) / (bound - g)) > 0.1
    # _sweep's band: for a swept replicate, this bound widened by its slack
    # on both sides; for one whose sup bound U + s is below the level, and
    # no other, (-inf, U + s], which holds the finer grid's maximum
    level = 0.0
    _, lo, hi = mc_mod._sweep(model, grid, seed, range(reps), [level], 1)
    slack = 1e-9 * (1.0 + np.abs(coefs).sum(axis=1))
    sup = model.sup_bound(coefs, domain.lower, domain.upper) + slack
    pruned = lo == -np.inf
    assert pruned.any() and not pruned.all()
    assert np.array_equal(pruned, sup < level)
    assert np.allclose(lo[~pruned], (g - slack)[~pruned], rtol=0.0, atol=1e-13)
    assert np.allclose(hi[~pruned], (bound + slack)[~pruned], rtol=0.0, atol=1e-13)
    assert np.array_equal(hi[pruned], sup[pruned])
    assert np.all(g4[pruned] <= hi[pruned])


# the four fields of the band test, a rectangle away from the origin with
# negative frequencies, and a separable field whose first atom's phase runs
# over 7.5 > 2 pi
SUP_CASES = [
    (cosine(), RectDomain([0.0, 0.0], [PI, PI]), 5, True),
    (OBLIQUE2, RectDomain([0.0, 0.0], [2.5, 2.0]), (4, 6), False),
    (SPECTRAL3, RectDomain([0.0, 0.0, 0.0], [PI, PI, 2.0]), 4, False),
    (cosine(), RectDomain([0.0, 0.0], [PI / 2, PI]), (3, 5), True),
    (
        SpectralSumField(freqs=[[-1.3, 0.4], [0.2, -2.1]], weights=[0.6, 0.3]),
        RectDomain([0.5, -2.0], [2.0, -0.5]),
        6,
        False,
    ),
    (
        SpectralSumField(freqs=[[3.0, 0.0], [0.0, -0.8]], weights=[0.4, 0.5]),
        RectDomain([0.0, 0.0], [2.5, 1.0]),
        (9, 4),
        True,
    ),
]


@pytest.mark.parametrize("model,domain,points,separable", SUP_CASES)
def test_sup_bound_holds_on_a_finer_grid(model, domain, points, separable):
    # U = c0 + sum_m (max over the atom's phase range - A_m) bounds every
    # replicate's maximum on the 4R-3 grid; on separable fields it is the
    # supremum itself, so it exceeds that grid's maximum by no more than the
    # grid's curvature gap K delta^2 / 2
    reps, seed = 400, 6
    fine4 = GridSpec(domain, tuple(4 * n - 3 for n in GridSpec(domain, points).shape))
    coefs = mc_mod._coefficients(model, seed, range(reps))
    g4 = sweep_values(model, fine4, seed, reps).reshape(reps, -1).max(axis=1)
    sup = model.sup_bound(coefs, domain.lower, domain.upper)
    assert sup.shape == (reps,)
    assert np.all(g4 <= sup + 1e-12)
    if separable:
        curv = np.hypot(coefs[:, 1::2], coefs[:, 2::2]) @ (model.freqs**2).sum(axis=1)
        h = (np.array(domain.upper) - np.array(domain.lower)) / (np.array(fine4.shape) - 1)
        assert np.all(sup - g4 <= curv * (h @ h / 4) / 2 + 1e-12)


def test_sweep_skips_replicates_below_every_level(monkeypatch):
    # above every replicate's sup bound, no tile is formed or counted, every
    # band is (-inf, U + s], and mc_estimates builds no refined basis
    dom = RectDomain([0.0, 0.0], [PI, PI])
    counted, built = [], []
    cell_counts, basis = mc_mod._cell_counts, mc_mod._basis

    def count_spy(mask, ndim):
        counted.append(mask)
        return cell_counts(mask, ndim)

    def basis_spy(model, pts):
        built.append(len(pts))
        return basis(model, pts)

    monkeypatch.setattr(mc_mod, "_cell_counts", count_spy)
    monkeypatch.setattr(mc_mod, "_basis", basis_spy)
    coefs = mc_mod._coefficients(cosine(), 0, range(700))
    level = float(cosine().sup_bound(coefs, dom.lower, dom.upper).max()) + 0.5
    sums, lo, hi = mc_mod._sweep(cosine(), GridSpec(dom, 17), 0, range(700), [level], 1, ec=True)
    assert not sums.any() and counted == []
    assert np.all(lo == -np.inf) and np.all(hi < level)
    built.clear()
    _, fine, rows = mc_mod.mc_estimates(cosine(), dom, [level], 17, 700, 0)
    assert built == [17**2] and counted == []
    assert rows == [(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)]

    # at levels 3 and 4, with one-row tiles, the Euler cells are counted
    # once per replicate and level its grid maximum reaches, and no more
    monkeypatch.setattr(mc_mod, "MAX_BLOCK_BYTES", 8 * 17**2)
    assert mc_mod._tile_rows(17**2) == 1
    levels = (3.0, 4.0)
    vals = sweep_values(cosine(), GridSpec(dom, 17), 0, 700)
    tops = vals.reshape(700, -1).max(axis=1)
    counted.clear()
    rows = mc_mean_ec(cosine(), dom, levels, 17, 700, 0)
    assert len(counted) == sum(np.count_nonzero(tops >= u) for u in levels)
    assert all(mask.any() for mask in counted)
    # the Euler means equal those of every replicate's own excursion set
    for u, (p, _, mean_chi, _) in zip(levels, rows):
        assert p == np.count_nonzero(tops >= u) / 700
        assert mean_chi == sum(empirical_ec(v, u).chi for v in vals) / 700


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "model,domain,levels",
    [
        (cosine(), RectDomain([0.0, 0.0], [PI, PI]), (1.5, 2.0, 2.5, 3.0)),
        (OBLIQUE2, RectDomain([0.0, 0.0], [2.5, 2.0]), (2.0, 3.0, 4.0)),
    ],
)
def test_mc_estimates_refine_only_undecided_replicates(monkeypatch, model, domain, levels, threads):
    # p_fine is empirical_sup_prob's on the 2R-1 grid, bit for bit, though
    # only the replicates whose band holds a level see that grid; 1100 reps
    # make three work items
    swept = []
    sweep = mc_mod._sweep

    def spy(model, grid, seed, replicates, *args, **kwargs):
        swept.append((grid.shape, len(replicates)))
        return sweep(model, grid, seed, replicates, *args, **kwargs)

    monkeypatch.setattr(mc_mod, "_sweep", spy)
    grid, fine, rows = mc_mod.mc_estimates(model, domain, levels, 9, 1100, 4, threads=threads)
    assert (grid.shape, fine.shape) == ((9, 9), (17, 17))
    [coarse_sweep, (shape, undecided)] = swept
    assert coarse_sweep == ((9, 9), 1100)
    assert shape == (17, 17) and 0 < undecided < 1100
    coarse = mc_mean_ec(model, domain, levels, 9, 1100, 4, threads=threads)
    whole = empirical_sup_prob(model, domain, levels, 17, 1100, 4, threads=threads)
    assert [row[:4] for row in rows] == coarse
    assert [row[4:] for row in rows] == whole
    assert all(isinstance(v, float) for row in rows for v in row)


def test_mc_estimates_build_no_fine_basis_when_all_decided(monkeypatch):
    # at grid 128 every band is far narrower than the gap to 3 and 4
    built = []
    basis = mc_mod._basis

    def spy(model, pts):
        built.append(len(pts))
        return basis(model, pts)

    monkeypatch.setattr(mc_mod, "_basis", spy)
    dom = RectDomain([0.0, 0.0], [PI, PI])
    _, fine, rows = mc_mod.mc_estimates(cosine(), dom, (3.0, 4.0), 128, 600, 0)
    assert built == [128**2]
    assert fine.shape == (255, 255)
    assert [row[4:] for row in rows] == [row[:2] for row in rows]


def test_mc_mean_ec_sane_at_low_level():
    # at a deep level the excursion set is the whole square, so chi = 1
    dom = RectDomain([0.0, 0.0], [PI, PI])
    [(p, se, mean_chi, chi_se)] = mc_mean_ec(cosine(), dom, [-40.0], 9, 120, seed=2)
    assert (p, se) == (1.0, 0.0)
    assert (mean_chi, chi_se) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# grid spec
# ---------------------------------------------------------------------------


def test_grid_spec_validation():
    dom = RectDomain([0.0, 0.0], [1.0, 1.0])
    assert GridSpec(dom, 4).points_per_axis == (4, 4)
    assert GridSpec(dom, (2, 9)).shape == (2, 9)
    with pytest.raises(ConfigError):
        GridSpec(dom, 1)
    with pytest.raises(ConfigError):
        GridSpec(dom, (3, 3, 3))
    pts = GridSpec(dom, 3).points()
    assert pts.shape == (9, 2)
    assert np.allclose(pts[0], [0.0, 0.0])
    assert np.allclose(pts[-1], [1.0, 1.0])
    assert np.allclose(pts[1], [0.0, 0.5])  # row-major ordering
