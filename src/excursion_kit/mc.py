"""Monte Carlo oracle: exact grid simulation, sup probabilities, Euler counts.

Finite spectral-sum fields admit exact simulation: a replicate is

    X(t) = sigma0 xi0 + sum_m sqrt(w_m) [xi_m (cos<t,f_m> - 1) + xi'_m sin<t,f_m>]

with iid standard normals drawn once per replicate from a counter-based
Philox stream keyed by (seed, replicate); one bit generator per chunk of
replicates is re-keyed for each of them.  Coefficient layout is fixed as
[xi0, xi_1, xi'_1, xi_2, xi'_2, ...]; regenerating a replicate is therefore
bit-identical, independent of chunking or thread count.  ``_sweep`` is the
one place that forms grid values; no replicate's values outlive its tile.

The grid maximum of a replicate does not depend on the level, so one sweep
over a grid serves every level: each chunk draws its coefficients once, then
forms its values tile by tile, a GEMM of a few replicate rows against the
basis small enough to stay in cache.  Each tile's row maxima are taken once
and compared with every level (and, for Euler counts, the same tile is
thresholded at each level some row of it reaches) before the next tile
overwrites it, so the chunk's whole value block never exists.  Both
estimators take a level sequence and run one sweep of one grid, however many
levels there are: ``empirical_sup_prob`` counts grid maxima, and
``mc_mean_ec`` adds the Euler counts.

Most replicates stay below a high level everywhere, and the sweep forms no
value of theirs.  Each atom's term A_m (cos - 1) + B_m sin takes its own
maximum over the range of its phase on the rectangle, so
U = c0 + sum_m (max_m - A_m) bounds sup_T X
(``SpectralSumField.sup_bound``), exactly so on separable fields.  A
replicate with U + s below every level (slack s below) has a grid maximum
below every level on every grid: its hit and Euler contributions are 0, so
it is left out of the tiles.

``mc_estimates``, the ``mc`` command, adds ``p_fine``, empirical_sup_prob's
estimate on the 2R-1 refinement, without sweeping that grid whole.  A
replicate's Hessian has norm at most K = sum_m hypot(A_m, B_m) |f_m|^2, and
its maximizer has zero gradient along its host face, which has a grid node
within delta = sqrt(sum_i h_i^2) / 2.  So its grid maximum g, refined maximum
and sup_T X all lie in [g, g + K delta^2 / 2].  Widened by a slack
s = 1e-9 (1 + sum |c|), far above rounding, a band that holds no level
decides the replicate; only the others are swept again, on the refined grid.
A replicate left out of the tiles has the band (-inf, U + s], which lies
below every level, so it is decided as a miss on every grid.

The empirical Euler characteristic uses the vertex-based closed cubical
complex: a d-cell of the grid is occupied iff all its 2^d corners sit at or
above the level.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConfigError, finite_levels, is_integer
from .field import FieldModel, SpectralSumField
from .geometry import RectDomain

__all__ = [
    "GridSpec",
    "EcCount",
    "empirical_sup_prob",
    "empirical_ec",
    "mc_mean_ec",
    "mc_estimates",
]

# replicates per work item, and the largest value tile one GEMM writes (one
# replicate row when a row alone is larger); the layout depends only on the
# replicate count and the grid, so results never depend on thread count
CHUNK = 512
MAX_BLOCK_BYTES = 2 * 2**20


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on a rectangle including both endpoints per axis."""

    domain: RectDomain
    points_per_axis: tuple[int, ...]

    def __init__(self, domain: RectDomain, points_per_axis):
        scalar = not np.iterable(points_per_axis)
        ppa = (points_per_axis,) * domain.dim if scalar else tuple(points_per_axis)
        if not all(map(is_integer, ppa)):
            raise ConfigError(f"points_per_axis must be integers, got {points_per_axis!r}")
        ppa = tuple(map(int, ppa))
        if len(ppa) != domain.dim:
            raise ConfigError(
                f"points_per_axis has {len(ppa)} entries for dimension {domain.dim}"
            )
        if any(p < 2 for p in ppa):
            raise ConfigError("need at least 2 points per axis")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "points_per_axis", ppa)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points_per_axis

    @property
    def n_points(self) -> int:
        return int(np.prod(self.points_per_axis))

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(self.domain.lower[i], self.domain.upper[i], p)
            for i, p in enumerate(self.points_per_axis)
        ]

    def points(self) -> np.ndarray:
        """All grid points, row-major, shape (n_points, N)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class EcCount:
    n_d: tuple[int, ...]
    chi: int


def _coefficients(model: SpectralSumField, seed: int, replicates) -> np.ndarray:
    """Coefficient rows [sigma0 xi0, sqrt(w_m) xi_m, sqrt(w_m) xi'_m, ...] of
    the given replicates, in order.

    Row i holds the draws of a fresh Philox keyed by (seed, replicates[i]):
    one bit generator is re-keyed per replicate by assigning its freshly
    constructed state with the key replaced, which also resets the counter
    and buffer.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen, fresh = np.random.Generator(bitgen), bitgen.state
    draws = np.empty((len(replicates), 1 + 2 * model.n_atoms))
    for i, r in enumerate(replicates):
        fresh["state"]["key"][1] = r
        bitgen.state = fresh
        draws[i] = gen.standard_normal(draws.shape[1])
    scale = np.repeat(np.sqrt(model.weights), 2)
    return draws * np.concatenate(([math.sqrt(model.offset_var)], scale))


def _basis(model: SpectralSumField, pts: np.ndarray) -> np.ndarray:
    """Basis matrix (2M+1, n_points): constant row, then cos-1 / sin per atom."""
    phases = pts @ model.freqs.T  # (n_points, M)
    m = model.n_atoms
    out = np.empty((1 + 2 * m, pts.shape[0]))
    out[0] = 1.0
    out[1::2] = (np.cos(phases) - 1.0).T
    out[2::2] = np.sin(phases).T
    return out


# ---------------------------------------------------------------------------
# Euler characteristic counting
# ---------------------------------------------------------------------------


def _cell_counts(mask: np.ndarray, ndim: int) -> list[np.ndarray]:
    """Counts of occupied d-cells for d = 0..ndim.

    mask may carry one leading replicate axis; counts are summed over the
    grid axes only, returning scalars or per-replicate vectors.
    """
    lead = mask.ndim - ndim

    def count(arr):
        # one count_nonzero per replicate row: 45 us on a (16, 128, 127) tile,
        # against 125-137 us for a bool or uint8 sum or count_nonzero(axis=)
        if lead == 0:
            return np.count_nonzero(arr)
        return np.array([np.count_nonzero(rep) for rep in arr], dtype=np.int64)

    # the cells spanning a set of axes are the AND of their 2^d corners:
    # the cells of its first d-1 axes ANDed with their shift along the last
    cells = {(): mask}
    counts = [count(mask)]
    for d in range(1, ndim + 1):
        total = 0
        for axes in itertools.combinations(range(ndim), d):
            cur = cells[axes[:-1]]
            lo = [slice(None)] * cur.ndim
            hi = [slice(None)] * cur.ndim
            lo[lead + axes[-1]] = slice(None, -1)
            hi[lead + axes[-1]] = slice(1, None)
            cells[axes] = cur[tuple(lo)] & cur[tuple(hi)]
            total = total + count(cells[axes])
        counts.append(total)
    return counts


def _euler(counts):
    """chi = sum_d (-1)^d n_d, for scalar or per-replicate cell counts."""
    return sum((-1) ** d * c for d, c in enumerate(counts))


def _check_ec_dim(ndim: int) -> None:
    if ndim not in (1, 2, 3):
        raise CapabilityError(f"empirical EC supports N in {{1,2,3}}, got N={ndim}")


def empirical_ec(values, u: float) -> EcCount:
    """Euler characteristic of the thresholded grid via cubical cell counts,
    for a value array of dimension 1, 2, or 3."""
    arr = np.asarray(values)
    _check_ec_dim(arr.ndim)
    counts = [int(c) for c in _cell_counts(arr >= u, arr.ndim)]
    return EcCount(n_d=tuple(counts), chi=_euler(counts))


# ---------------------------------------------------------------------------
# Replicate sweeps
# ---------------------------------------------------------------------------


def _checked(model: FieldModel, domain: RectDomain, grid, reps: int) -> GridSpec:
    """The grid on ``domain``, once the model is a finite spectral sum
    (CapabilityError), the domain has its dimension (DomainError) and
    reps >= 100."""
    if not isinstance(model, SpectralSumField):
        raise CapabilityError(
            f"exact simulation needs a finite spectral sum; "
            f"{type(model).__name__} is not one"
        )
    model._points(domain.lower)
    if not isinstance(grid, GridSpec):
        grid = GridSpec(domain, grid)
    elif grid.domain != domain:
        raise ConfigError("grid was built on a different domain")
    if not is_integer(reps):
        raise ConfigError(f"reps must be an integer, got {reps!r}")
    if reps < 100:
        raise ConfigError("need at least 100 replicates")
    return grid


def _chunk_ranges(reps: int) -> list[tuple[int, int]]:
    """Replicate ranges of CHUNK rows, the work items of a sweep."""
    return [(start, min(start + CHUNK, reps)) for start in range(0, reps, CHUNK)]


def _tile_rows(n_points: int) -> int:
    """Replicate rows per value tile: its values fit MAX_BLOCK_BYTES, or it
    is one row."""
    return max(1, MAX_BLOCK_BYTES // (8 * n_points))


def _sweep(
    model: SpectralSumField, grid: GridSpec, seed: int, replicates, levels, threads: int, ec=False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer sums over the listed replicates on one grid, for every level
    at once, and each replicate's band.

    Each chunk of replicates draws its coefficient rows once and bounds
    each row's supremum by U + s (module docstring); the rows whose bound
    is below every level add 0 to every sum and are not swept.  The rest
    form their values in tiles of _tile_rows rows, one GEMM each.  A tile
    is reduced while it is in cache: each row's maximum is taken once,
    since the grid maximum does not depend on the level, and per level the
    rows whose maximum reaches it are counted; with ``ec`` the chi and
    chi^2 sums of that level's excursion masks are added from the same
    tile, for the levels some row of the tile reaches (at the others every
    mask is empty and chi is 0).  The sums have a column per level and one
    row (hits), or three with ``ec``.  Replicate i's band (lo[i], hi[i]]
    holds the maximum over any grid that contains this one: it is
    (g - s, g + K delta^2/2 + s] for a swept row with grid maximum g, and
    (-inf, U + s] for a row left out.

    The chunk and tile layout depends only on the replicate list and the
    grid size, and every sum is over integers, so results are identical for
    any thread count.
    """
    levels = np.asarray(finite_levels(levels))
    basis = _basis(model, grid.points())
    rows = _tile_rows(grid.n_points)
    spacing = np.subtract(grid.domain.upper, grid.domain.lower) / np.subtract(grid.shape, 1)
    half_delta2 = float(spacing @ spacing) / 8.0

    def run(ids):
        coefs = _coefficients(model, seed, ids)
        sums = np.zeros((3 if ec else 1, len(levels)), dtype=np.int64)
        slack = 1e-9 * (1.0 + np.abs(coefs).sum(axis=1))
        lo = np.full(len(coefs), -np.inf)
        hi = model.sup_bound(coefs, grid.domain.lower, grid.domain.upper) + slack
        keep = np.flatnonzero(hi >= levels.min())
        kept = coefs[keep]
        tops = [np.empty(0)]
        for start in range(0, len(kept), rows):
            tile = kept[start : start + rows] @ basis  # (rows, n_points)
            tops.append(tile.max(axis=1))
            reached = tops[-1] >= levels[:, None]
            sums[0] += np.count_nonzero(reached, axis=1)
            if ec:
                for i in np.flatnonzero(reached.any(axis=1)):
                    mask = (tile >= levels[i]).reshape((-1,) + grid.shape)
                    chi = _euler(_cell_counts(mask, grid.domain.dim))
                    sums[1:, i] += chi.sum(), (chi * chi).sum()
        top = np.concatenate(tops)
        curv = np.hypot(kept[:, 1::2], kept[:, 2::2]) @ (model.freqs**2).sum(axis=1)
        lo[keep] = top - slack[keep]
        hi[keep] = top + curv * half_delta2 + slack[keep]
        return sums, lo, hi

    items = [replicates[a:b] for a, b in _chunk_ranges(len(replicates))]
    if threads <= 1:
        parts = [run(ids) for ids in items]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, items))
    sums, lo, hi = zip(*parts)
    return np.sum(sums, axis=0), np.concatenate(lo), np.concatenate(hi)


def _estimates(sums: np.ndarray, reps: int) -> list[tuple[float, ...]]:
    """Per level (p, stderr) from a row of hits, or (p, stderr, mean_chi,
    chi_stderr) from _sweep's three rows of sums."""
    out = []
    for hits, *chi_sums in zip(*sums.tolist()):
        p = hits / reps
        est = (p, math.sqrt(p * (1.0 - p) / reps))
        if chi_sums:
            mean = chi_sums[0] / reps
            var = max(chi_sums[1] - reps * mean * mean, 0.0) / (reps - 1)
            est += (mean, math.sqrt(var / reps))
        out.append(est)
    return out


def empirical_sup_prob(
    model: FieldModel,
    domain: RectDomain,
    levels,
    grid,
    reps: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> list[tuple[float, float]]:
    """Per level, the fraction of replicates whose grid maximum reaches it,
    with its MC stderr, from one sweep.

    The discrete maximum underestimates the continuous supremum; the bias
    shrinks with grid refinement.
    """
    gs = _checked(model, domain, grid, reps)
    return _estimates(_sweep(model, gs, seed, range(reps), levels, threads)[0], reps)


def mc_mean_ec(
    model: FieldModel,
    domain: RectDomain,
    levels,
    grid,
    reps: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> list[tuple[float, float, float, float]]:
    """Per level, ``(p, stderr, mean_chi, chi_stderr)`` from one sweep of the
    grid: the fraction of replicates whose grid maximum reaches the level,
    and the mean empirical Euler characteristic of the excursion masks, each
    with its MC stderr.  ``p`` equals empirical_sup_prob's on the same grid,
    seed and replicates.  Every input is checked before the sweep.
    """
    gs = _checked(model, domain, grid, reps)
    _check_ec_dim(domain.dim)
    return _estimates(_sweep(model, gs, seed, range(reps), levels, threads, ec=True)[0], reps)


def mc_estimates(
    model: FieldModel, domain: RectDomain, levels, grid, reps: int, seed: int = 0, *, threads: int = 1
) -> tuple[GridSpec, GridSpec, list[tuple[float, ...]]]:
    """The ``mc`` command's estimates: the grid, its 2R-1 refinement, and per
    level ``(p, stderr, mean_chi, chi_stderr, p_fine, stderr_fine)``.  The
    first four are mc_mean_ec's and the last two empirical_sup_prob's on the
    refinement, for the same replicates; only those whose band (_sweep)
    holds a level are swept again.  Every input is checked before the sweep.
    """
    gs = _checked(model, domain, grid, reps)
    _check_ec_dim(domain.dim)
    fine = GridSpec(domain, tuple(2 * n - 1 for n in gs.points_per_axis))
    sums, lo, hi = _sweep(model, gs, seed, range(reps), levels, threads, ec=True)
    us = np.asarray(finite_levels(levels))[:, None]
    undecided = ((lo < us) & (us <= hi)).any(axis=0)
    hits = np.count_nonzero(~undecided & (lo >= us), axis=1)
    if undecided.any():
        hits += _sweep(model, fine, seed, np.flatnonzero(undecided), levels, threads)[0][0]
    rows = [c + f for c, f in zip(_estimates(sums, reps), _estimates(hits[None], reps))]
    return gs, fine, rows
