"""Monte Carlo oracle: exact grid simulation, sup probabilities, Euler counts.

Finite spectral-sum fields admit exact simulation: a realization is

    X(t) = sigma0 xi0 + sum_m sqrt(w_m) [xi_m (cos<t,f_m> - 1) + xi'_m sin<t,f_m>]

with iid standard normals drawn once per replicate from a counter-based
Philox stream keyed by (seed, replicate); one bit generator per chunk of
replicates is re-keyed for each of them.  Coefficient layout is fixed as
[xi0, xi_1, xi'_1, xi_2, xi'_2, ...]; regenerating a replicate is therefore
bit-identical, independent of chunking or thread count.

The grid maximum of a replicate does not depend on the level, so one sweep
over a grid serves every level: each chunk draws its coefficients, runs one
GEMM against the basis and takes each row's maximum once, then compares it
with every level (and, for Euler counts, thresholds the same block per
level).  The ``mc`` command runs one coarse and one fine sweep however many
levels it has; the public estimators are its one-level cases.

The empirical Euler characteristic uses the vertex-based closed cubical
complex: a d-cell of the grid is occupied iff all its 2^d corners sit at or
above the level.  ``ec_oracle_2d`` recomputes chi for 2-D masks by a
completely different route (connected components minus holes on a refined
rasterization) and serves as the cross-check oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConfigError
from .field import FieldModel, SpectralSumField
from .geometry import RectDomain

__all__ = [
    "GridSpec",
    "Realization",
    "EcCount",
    "sample_field",
    "empirical_sup_prob",
    "empirical_ec",
    "mc_mean_ec",
    "ec_oracle_2d",
    "sup_prob_dual_resolution",
    "save_realization",
    "load_realization",
]

# replicates per work item, and the largest value block one item may hold;
# the layout depends only on the replicate count and the grid, so results
# never depend on thread count
CHUNK = 512
MAX_BLOCK_BYTES = 256 * 2**20


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on a rectangle including both endpoints per axis."""

    domain: RectDomain
    points_per_axis: tuple[int, ...]

    def __init__(self, domain: RectDomain, points_per_axis):
        if isinstance(points_per_axis, (int, np.integer)):
            ppa = (int(points_per_axis),) * domain.dim
        else:
            ppa = tuple(int(p) for p in points_per_axis)
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
class Realization:
    grid: GridSpec
    values: np.ndarray
    seed: int
    replicate: int


@dataclass(frozen=True)
class EcCount:
    n_d: tuple[int, ...]
    chi: int


def _require_spectral(model: FieldModel) -> SpectralSumField:
    if not isinstance(model, SpectralSumField):
        raise CapabilityError(
            f"exact simulation needs a finite spectral sum; "
            f"{type(model).__name__} is not one"
        )
    return model


def _coefficients(model: SpectralSumField, seed: int, start: int, stop: int) -> np.ndarray:
    """Coefficient rows [sigma0 xi0, sqrt(w_m) xi_m, sqrt(w_m) xi'_m, ...] of
    replicates start..stop-1.

    Row r holds the draws of a fresh Philox keyed by (seed, r): one bit
    generator is re-keyed per replicate by assigning its freshly constructed
    state with the key replaced, which also resets the counter and buffer.
    """
    bitgen = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    gen, fresh = np.random.Generator(bitgen), bitgen.state
    draws = np.empty((stop - start, 1 + 2 * model.n_atoms))
    for i, r in enumerate(range(start, stop)):
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


def sample_field(
    model: FieldModel, grid: GridSpec, seed: int, replicate: int
) -> Realization:
    """One exact realization on the grid, keyed by (seed, replicate)."""
    sp = _require_spectral(model)
    if grid.domain.dim != sp.dim:
        raise ConfigError("grid dimension does not match the model")
    basis = _basis(sp, grid.points())
    coefs = _coefficients(sp, seed, replicate, replicate + 1)[0]
    values = (coefs @ basis).reshape(grid.shape)
    return Realization(grid=grid, values=values, seed=int(seed), replicate=int(replicate))


# ---------------------------------------------------------------------------
# Euler characteristic counting
# ---------------------------------------------------------------------------


def _cell_counts(mask: np.ndarray, ndim: int) -> list[np.ndarray]:
    """Counts of occupied d-cells for d = 0..ndim.

    mask may carry one leading replicate axis; counts are summed over the
    grid axes only, returning scalars or per-replicate vectors.
    """
    lead = mask.ndim - ndim
    grid_axes = tuple(range(lead, mask.ndim))

    def count(arr):
        return arr.sum(axis=grid_axes, dtype=np.int64)

    counts = [count(mask)]
    # d-cells: AND of the 2^d corners over every choice of d axes
    for d in range(1, ndim + 1):
        total = None
        for axes in itertools.combinations(range(ndim), d):
            cur = mask
            for ax in axes:
                a = ax + lead
                lo = [slice(None)] * cur.ndim
                hi = [slice(None)] * cur.ndim
                lo[a] = slice(None, -1)
                hi[a] = slice(1, None)
                cur = cur[tuple(lo)] & cur[tuple(hi)]
            c = count(cur)
            total = c if total is None else total + c
        counts.append(total)
    return counts


def _euler(counts):
    """chi = sum_d (-1)^d n_d, for scalar or per-replicate cell counts."""
    return sum((-1) ** d * c for d, c in enumerate(counts))


def _check_ec_dim(ndim: int) -> None:
    if ndim not in (1, 2, 3):
        raise CapabilityError(f"empirical EC supports N in {{1,2,3}}, got N={ndim}")


def empirical_ec(values, u: float) -> EcCount:
    """Euler characteristic of the thresholded grid via cubical cell counts.

    Accepts a Realization or a plain value array of dimension 1, 2, or 3.
    """
    if isinstance(values, Realization):
        arr = values.values
    else:
        arr = np.asarray(values)
    _check_ec_dim(arr.ndim)
    counts = [int(c) for c in _cell_counts(arr >= u, arr.ndim)]
    return EcCount(n_d=tuple(counts), chi=_euler(counts))


def ec_oracle_2d(mask) -> int:
    """Independent 2-D Euler characteristic: components minus holes.

    The vertex mask is rasterized onto a (2R-1, 2C-1) refined grid where
    odd positions stand for the edges and squares of the closed cubical
    complex (present iff all their corners are).  Connected components of
    the occupied pixels and of the complement both use 4-connectivity; the
    complement is padded so exactly one of its components is the outer
    background, and every other one is a hole.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise CapabilityError("ec_oracle_2d needs a 2-D mask")
    if not mask.any():
        return 0
    r, c = mask.shape
    ref = np.zeros((2 * r - 1, 2 * c - 1), dtype=bool)
    ref[::2, ::2] = mask
    if c > 1:
        ref[::2, 1::2] = mask[:, :-1] & mask[:, 1:]
    if r > 1:
        ref[1::2, ::2] = mask[:-1, :] & mask[1:, :]
    if r > 1 and c > 1:
        ref[1::2, 1::2] = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, :-1] & mask[1:, 1:]

    # the padding ring joins every complement pixel on the border into one
    # outer component
    holes = _count_components(~np.pad(ref, 1, constant_values=False)) - 1
    return _count_components(ref) - holes


def _count_components(mask: np.ndarray) -> int:
    """Number of 4-connected components of a 2-D mask, via union-find."""
    idx = np.full(mask.shape, -1, dtype=np.int64)
    flat = np.flatnonzero(mask)
    idx.ravel()[flat] = np.arange(flat.size)
    parent = np.arange(flat.size, dtype=np.int64)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    # horizontal and vertical adjacencies
    both = mask[:, :-1] & mask[:, 1:]
    for i, j in zip(*np.nonzero(both)):
        union(idx[i, j], idx[i, j + 1])
    both = mask[:-1, :] & mask[1:, :]
    for i, j in zip(*np.nonzero(both)):
        union(idx[i, j], idx[i + 1, j])

    return len({find(k) for k in range(flat.size)})


# ---------------------------------------------------------------------------
# Replicate sweeps
# ---------------------------------------------------------------------------


def _checked(
    model: FieldModel, domain: RectDomain, grid, reps: int
) -> tuple[SpectralSumField, GridSpec]:
    """The spectral model and the grid on ``domain``, once reps >= 100."""
    sp = _require_spectral(model)
    if not isinstance(grid, GridSpec):
        grid = GridSpec(domain, grid)
    elif grid.domain != domain:
        raise ConfigError("grid was built on a different domain")
    if reps < 100:
        raise ConfigError("need at least 100 replicates")
    return sp, grid


def _chunk_ranges(reps: int, n_points: int) -> list[tuple[int, int]]:
    """Replicate ranges of CHUNK rows, fewer when a block would pass
    MAX_BLOCK_BYTES."""
    rows = max(1, min(CHUNK, MAX_BLOCK_BYTES // (8 * n_points)))
    return [(start, min(start + rows, reps)) for start in range(0, reps, rows)]


def _sweep(
    model: SpectralSumField, grid: GridSpec, seed: int, reps: int, levels, threads: int, ec=False
) -> list[tuple[float, ...]]:
    """Per-level estimates over one grid, for every level at once.

    Each chunk of replicates draws its coefficient rows, forms its value
    block with one GEMM and takes each row's maximum once, since the grid
    maximum does not depend on the level.  Per level it counts the rows
    whose maximum reaches the level; with ``ec`` it also sums chi and chi^2
    of that level's excursion mask, from the same block.  Returns per level
    (p, stderr), or with ``ec`` (p, stderr, mean_chi, chi_stderr).

    The chunk layout depends only on ``reps`` and the grid size, and every
    sum is over integers, so results are identical for any thread count.
    """
    basis = _basis(model, grid.points())
    levels = np.asarray(levels, dtype=float)

    def run(rng_range):
        block = _coefficients(model, seed, *rng_range) @ basis  # (chunk, n_points)
        sums = [np.count_nonzero(block.max(axis=1) >= levels[:, None], axis=1)]
        if ec:
            masks = ((block >= u).reshape((-1,) + grid.shape) for u in levels)
            chi = np.array([_euler(_cell_counts(m, grid.domain.dim)) for m in masks])
            sums += [chi.sum(axis=1), (chi * chi).sum(axis=1)]
        return sums

    ranges = _chunk_ranges(reps, grid.n_points)
    if threads <= 1:
        parts = [run(rr) for rr in ranges]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, ranges))
    out = []
    for hits, *chi_sums in zip(*np.sum(parts, axis=0).tolist()):
        p = hits / reps
        est = (p, math.sqrt(p * (1.0 - p) / reps))
        if chi_sums:
            mean = chi_sums[0] / reps
            var = max(chi_sums[1] - reps * mean * mean, 0.0) / (reps - 1)
            est += (mean, math.sqrt(var / reps))
        out.append(est)
    return out


def _dual(
    model: SpectralSumField, grid: GridSpec, levels, reps: int, seed: int, threads: int, ec=False
) -> list[dict]:
    """sup_prob_dual_resolution's dict per level, from one sweep per grid;
    with ``ec`` each also carries ``mean_chi`` and ``chi_stderr``."""
    fine = GridSpec(grid.domain, tuple(2 * p - 1 for p in grid.points_per_axis))
    coarse = _sweep(model, grid, seed, reps, levels, threads, ec)
    rows = []
    for (p1, s1, *chi), (p2, s2) in zip(coarse, _sweep(model, fine, seed, reps, levels, threads)):
        row = {
            "p_coarse": p1,
            "stderr_coarse": s1,
            "p_fine": p2,
            "stderr_fine": s2,
            "grid_coarse": grid.points_per_axis,
            "grid_fine": fine.points_per_axis,
            "bias_flag": abs(p2 - p1) > max(math.hypot(s1, s2), 1e-12),
        }
        if chi:
            row["mean_chi"], row["chi_stderr"] = chi
        rows.append(row)
    return rows


def _mc_levels(
    model: FieldModel, domain: RectDomain, levels, grid, reps: int, seed: int, threads: int
) -> list[dict]:
    """Every level of an ``mc`` command from one coarse and one fine sweep.

    Per level, the sup_prob_dual_resolution dict plus ``mean_chi`` and
    ``chi_stderr`` from mc_mean_ec; each equals the one-level call.  Every
    input is checked before the first replicate block is built.
    """
    sp, gs = _checked(model, domain, grid, reps)
    _check_ec_dim(domain.dim)
    return _dual(sp, gs, levels, reps, seed, threads, ec=True)


def empirical_sup_prob(
    model: FieldModel,
    domain: RectDomain,
    u: float,
    grid,
    reps: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Fraction of replicates whose grid maximum reaches u, with MC stderr.

    The discrete maximum underestimates the continuous supremum; the bias
    shrinks with grid refinement (see sup_prob_dual_resolution).
    """
    sp, gs = _checked(model, domain, grid, reps)
    return _sweep(sp, gs, seed, reps, [u], threads)[0]


def sup_prob_dual_resolution(
    model: FieldModel,
    domain: RectDomain,
    u: float,
    grid,
    reps: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> dict:
    """p-hat at the requested grid and at its dyadic refinement (2R-1 points).

    The refined grid contains every coarse point, so with shared replicate
    coefficients the refined estimate can only grow.  Flags when the two
    estimates differ by more than the combined MC error.
    """
    sp, gs = _checked(model, domain, grid, reps)
    return _dual(sp, gs, [u], reps, seed, threads)[0]


def mc_mean_ec(
    model: FieldModel,
    domain: RectDomain,
    u: float,
    grid,
    reps: int,
    seed: int = 0,
    *,
    threads: int = 1,
) -> tuple[float, float]:
    """Mean empirical Euler characteristic over replicates, with stderr."""
    sp, gs = _checked(model, domain, grid, reps)
    _check_ec_dim(domain.dim)
    return _sweep(sp, gs, seed, reps, [u], threads, ec=True)[0][2:]


# ---------------------------------------------------------------------------
# Binary export
# ---------------------------------------------------------------------------


def save_realization(real: Realization, path: str) -> str:
    """Write row-major little-endian float64 values plus a JSON sidecar.

    The sidecar lives at path + ".json" and records grid shape, domain, and
    seed lineage so the file is self-describing.  Returns the sidecar path.
    """
    values = np.ascontiguousarray(real.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(values.tobytes())
    header = {
        "shape": list(real.grid.shape),
        "domain": {
            "lower": list(real.grid.domain.lower),
            "upper": list(real.grid.domain.upper),
        },
        "seed": real.seed,
        "replicate": real.replicate,
        "dtype": "<f8",
        "order": "C",
    }
    sidecar = path + ".json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
    return sidecar


def load_realization(path: str) -> Realization:
    """Inverse of save_realization; values are bit-identical.

    Raises ConfigError unless the sidecar is a JSON object that records
    dtype '<f8', order 'C', integer shape, seed and replicate, and a domain
    with lower < upper on every axis, and the data file holds exactly the
    values its shape needs.
    """
    sidecar = path + ".json"
    if not os.path.exists(sidecar):
        raise ConfigError(f"missing sidecar header {sidecar}")
    with open(sidecar, "r", encoding="utf-8") as fh:
        try:
            header = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{sidecar}: not valid JSON") from exc
    if not isinstance(header, dict):
        raise ConfigError(f"{sidecar}: header must be a JSON object")
    if header.get("dtype") != "<f8" or header.get("order") != "C":
        raise ConfigError(f"{sidecar}: only dtype '<f8' in order 'C' can be read")
    shape, seed, replicate = (header.get(k) for k in ("shape", "seed", "replicate"))
    ints = [*shape, seed, replicate] if isinstance(shape, list) else [shape]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in ints):
        raise ConfigError(f"{sidecar}: shape, seed and replicate must be integers")
    try:
        domain = RectDomain(header["domain"]["lower"], header["domain"]["upper"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{sidecar}: domain needs finite lower and upper lists with lower < upper"
        ) from exc
    grid = GridSpec(domain, shape)
    values = np.fromfile(path, dtype="<f8")
    if values.size != grid.n_points:
        raise ConfigError(f"{path} holds {values.size} values; its shape needs {grid.n_points}")
    return Realization(grid=grid, values=values.reshape(grid.shape), seed=seed, replicate=replicate)
