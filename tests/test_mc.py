import json
import math

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
    Realization,
    ec_oracle_2d,
    empirical_ec,
    empirical_sup_prob,
    load_realization,
    mc_mean_ec,
    sample_field,
    save_realization,
    sup_prob_dual_resolution,
)

PI = math.pi


def cosine():
    return CosineField()


def block_mask(shape, ones_slices):
    m = np.zeros(shape, dtype=float)
    for sl in ones_slices:
        m[sl] = 1.0
    return m


# ---------------------------------------------------------------------------
# distributional checks on the simulator
# ---------------------------------------------------------------------------


def test_value_at_origin_is_offset_coefficient():
    # every basis function except the constant vanishes at t = 0
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, PI]), 3)
    model = cosine()
    for rep in range(5):
        real = sample_field(model, grid, seed=11, replicate=rep)
        x0 = real.values[0, 0]
        # regenerating with the same key must reproduce the same draw
        again = sample_field(model, grid, seed=11, replicate=rep)
        assert again.values[0, 0] == x0
    # the marginal there has variance offset_var; check against a wide band
    vals = np.array(
        [sample_field(model, grid, 11, r).values[0, 0] for r in range(4000)]
    )
    assert abs(vals.var() - model.offset_var) < 0.15


def test_pointwise_variance_matches_model():
    # at (pi, pi) the cosine-field variance peaks at 5
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, PI]), 3)
    model = cosine()
    vals = np.array(
        [sample_field(model, grid, 7, r).values[2, 2] for r in range(20000)]
    )
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

    xs = np.empty(30000)
    ys = np.empty(30000)
    for r in range(30000):
        v = sample_field(model, grid, 21, r).values
        xs[r] = v[1, 2]  # (1.0, 1.0)
        ys[r] = v[2, 1]  # (2.0, 0.5)
    emp = float(np.mean(xs * ys))
    assert emp == pytest.approx(cov_theory(t, s), abs=0.08)


def test_replicates_differ_and_are_reproducible():
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, PI]), 9)
    a = sample_field(cosine(), grid, 3, 0)
    b = sample_field(cosine(), grid, 3, 1)
    c = sample_field(cosine(), grid, 3, 0)
    assert not np.array_equal(a.values, b.values)
    assert np.array_equal(a.values, c.values)
    d = sample_field(cosine(), grid, 4, 0)
    assert not np.array_equal(a.values, d.values)


def test_non_spectral_model_rejected():
    grid = GridSpec(RectDomain([0.0], [1.0]), 5)
    with pytest.raises(CapabilityError):
        sample_field(GaussianIncrementField(dim=1, scale=1.0, offset_var=0.5), grid, 0, 0)


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
    real = sample_field(cosine(), grid, 5, 0)
    out = empirical_ec(real, -50.0)
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
    p2, _ = empirical_sup_prob(cosine(), dom, 2.0, 9, 300, seed=8)
    p3, _ = empirical_sup_prob(cosine(), dom, 3.0, 9, 300, seed=8)
    assert p2 >= p3


def test_sup_prob_stderr_formula():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    p, se = empirical_sup_prob(cosine(), dom, 2.5, 9, 100, seed=1)
    assert se == pytest.approx(math.sqrt(p * (1 - p) / 100), abs=0.0)


def test_sup_prob_thread_count_invariance():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    one = empirical_sup_prob(cosine(), dom, 2.0, 9, 700, seed=5, threads=1)
    four = empirical_sup_prob(cosine(), dom, 2.0, 9, 700, seed=5, threads=4)
    assert one == four
    m1 = mc_mean_ec(cosine(), dom, 2.0, 9, 700, seed=5, threads=1)
    m4 = mc_mean_ec(cosine(), dom, 2.0, 9, 700, seed=5, threads=4)
    assert m1 == m4


def test_blocks_stay_under_the_byte_cap():
    # 3-D grid 64 refines to 127^3 points: 512 rows would be about 8.4 GB
    fine3 = 127**3
    ranges = mc_mod._chunk_ranges(10_000, fine3)
    assert max(b - a for a, b in ranges) * 8 * fine3 <= mc_mod.MAX_BLOCK_BYTES
    assert ranges[-1][1] == 10_000
    # the 255^2 fine grid of a 2-D grid-128 run keeps its 512-row blocks
    assert mc_mod._chunk_ranges(10_000, 255**2)[0] == (0, mc_mod.CHUNK)


def test_block_cap_leaves_results_unchanged(monkeypatch):
    # reducers sum integers, so the chunk layout cannot move a result
    dom = RectDomain([0.0, 0.0], [PI, PI])
    want = [
        empirical_sup_prob(cosine(), dom, 2.0, 9, 700, seed=5),
        mc_mean_ec(cosine(), dom, 2.0, 9, 700, seed=5),
        mc_mod._mc_levels(cosine(), dom, (2.0, 2.5), 9, 700, 5, 1),
    ]
    monkeypatch.setattr(mc_mod, "MAX_BLOCK_BYTES", 3 * 8 * 81)
    assert mc_mod._chunk_ranges(700, 81)[:2] == [(0, 3), (3, 6)]
    got = [
        empirical_sup_prob(cosine(), dom, 2.0, 9, 700, seed=5),
        mc_mean_ec(cosine(), dom, 2.0, 9, 700, seed=5),
        mc_mod._mc_levels(cosine(), dom, (2.0, 2.5), 9, 700, 5, 1),
    ]
    assert got == want


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_levels_equal_one_level_calls(threads):
    # one coarse and one fine sweep serve every level; 700 reps make two
    # chunks, so threads=2 runs them concurrently
    dom = RectDomain([0.0, 0.0], [PI, PI])
    levels = (1.5, 2.0, 2.5)
    rows = mc_mod._mc_levels(cosine(), dom, levels, 9, 700, 5, threads)
    assert len(rows) == len(levels)
    for u, row in zip(levels, rows):
        dual = sup_prob_dual_resolution(cosine(), dom, u, 9, 700, seed=5, threads=threads)
        mean, se = mc_mean_ec(cosine(), dom, u, 9, 700, seed=5, threads=threads)
        assert row == {**dual, "mean_chi": mean, "chi_stderr": se}


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
        got = mc_mod._coefficients(model, seed, start, stop)
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
        empirical_sup_prob(cosine(), dom, 2.0, 9, 99)
    with pytest.raises(ConfigError):
        mc_mean_ec(cosine(), dom, 2.0, 9, 50)


def test_refined_axes_contain_coarse_axes():
    grid = GridSpec(RectDomain([0.0, 0.0], [PI, 1.5 * PI]), 5)
    fine = GridSpec(grid.domain, tuple(2 * p - 1 for p in grid.points_per_axis))
    for ax_c, ax_f in zip(grid.axes(), fine.axes()):
        assert np.all(np.isin(ax_c, ax_f))  # exact containment, not approx


def test_dual_resolution_refinement_never_loses_mass():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    out = sup_prob_dual_resolution(cosine(), dom, 2.0, 5, 400, seed=9)
    assert out["p_fine"] >= out["p_coarse"]
    assert out["grid_fine"] == (9, 9)
    assert out["grid_coarse"] == (5, 5)
    flagged = abs(out["p_fine"] - out["p_coarse"]) > max(
        math.hypot(out["stderr_coarse"], out["stderr_fine"]), 1e-12
    )
    assert out["bias_flag"] == flagged


def test_mc_mean_ec_sane_at_low_level():
    # at a deep level the excursion set is the whole square, so chi = 1
    dom = RectDomain([0.0, 0.0], [PI, PI])
    mean, se = mc_mean_ec(cosine(), dom, -40.0, 9, 120, seed=2)
    assert mean == 1.0
    assert se == 0.0


# ---------------------------------------------------------------------------
# binary export
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    grid = GridSpec(RectDomain([0.0, 0.5], [PI, 2.0]), (9, 7))
    real = sample_field(cosine(), grid, 13, 2)
    path = str(tmp_path / "field.bin")
    sidecar = save_realization(real, path)
    assert sidecar == path + ".json"

    back = load_realization(path)
    assert np.array_equal(back.values, real.values)
    assert back.values.dtype == np.dtype("<f8")
    assert back.grid.points_per_axis == (9, 7)
    assert np.allclose(back.grid.domain.lower, [0.0, 0.5])
    assert np.allclose(back.grid.domain.upper, [PI, 2.0])
    assert back.seed == 13 and back.replicate == 2

    raw = np.fromfile(path, dtype="<f8").reshape(9, 7)
    assert np.array_equal(raw, real.values)  # row-major float64, no header


def test_save_sidecar_fields(tmp_path):
    import json

    grid = GridSpec(RectDomain([0.0], [1.0]), 5)
    real = sample_field(cosine_1d(), grid, 1, 0)
    path = str(tmp_path / "line.bin")
    with open(save_realization(real, path), encoding="utf-8") as fh:
        header = json.load(fh)
    assert header == {
        "shape": [5],
        "domain": {"lower": [0.0], "upper": [1.0]},
        "seed": 1,
        "replicate": 0,
        "dtype": "<f8",
        "order": "C",
    }


def cosine_1d():
    return SpectralSumField(
        freqs=np.array([[1.0]]), weights=np.array([0.5]), offset_var=1.0
    )


def test_load_requires_sidecar(tmp_path):
    path = str(tmp_path / "orphan.bin")
    np.zeros(4).tofile(path)
    with pytest.raises(ConfigError):
        load_realization(path)


def saved_realization(tmp_path):
    grid = GridSpec(RectDomain([0.0, 0.5], [PI, 2.0]), (9, 7))
    path = str(tmp_path / "field.bin")
    return path, save_realization(sample_field(cosine(), grid, 13, 2), path)


MISSING = object()


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("dtype", ">f8", id="big-endian"),
        pytest.param("dtype", MISSING, id="no-dtype"),
        pytest.param("order", "F", id="fortran-order"),
        pytest.param("shape", [9, 8], id="shape-too-large"),
        pytest.param("shape", [9.0, 7], id="float-shape"),
        pytest.param("shape", "9x7", id="string-shape"),
        pytest.param("shape", MISSING, id="no-shape"),
        pytest.param("seed", "abc", id="string-seed"),
        pytest.param("seed", 1.5, id="float-seed"),
        pytest.param("seed", True, id="boolean-seed"),
        pytest.param("seed", MISSING, id="no-seed"),
        pytest.param("replicate", "2", id="string-replicate"),
        pytest.param("replicate", MISSING, id="no-replicate"),
        pytest.param(None, '{"shape": [9, 7],', id="not-json"),
        pytest.param(None, "[9, 7]", id="json-list"),
        pytest.param("domain", MISSING, id="no-domain"),
        pytest.param("domain", "x", id="string-domain"),
        pytest.param("domain", {"upper": [PI, 2.0]}, id="domain-without-lower"),
        pytest.param(
            "domain", {"lower": [0.0, 2.0], "upper": [PI, 2.0]}, id="domain-lower-not-below-upper"
        ),
    ],
)
def test_load_rejects_malformed_sidecar(tmp_path, key, value):
    # key None replaces the whole sidecar text with value
    path, sidecar = saved_realization(tmp_path)
    with open(sidecar, encoding="utf-8") as fh:
        header = json.load(fh)
    if key is None:
        text = value
    else:
        if value is MISSING:
            del header[key]
        else:
            header[key] = value
        text = json.dumps(header)
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(text)
    with pytest.raises(ConfigError):
        load_realization(path)


@pytest.mark.parametrize("extra", [1, -1])
def test_load_rejects_data_of_another_size(tmp_path, extra):
    path, _ = saved_realization(tmp_path)
    values = np.fromfile(path, dtype="<f8")
    np.resize(values, values.size + extra).astype("<f8").tofile(path)
    with pytest.raises(ConfigError):
        load_realization(path)


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
