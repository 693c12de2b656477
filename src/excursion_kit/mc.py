"""Monte Carlo oracle: exact grid simulation, sup probabilities, Euler counts.

Finite spectral-sum fields admit exact simulation: a realization is

    X(t) = sigma0 xi0 + sum_m sqrt(w_m) [xi_m (cos<t,f_m> - 1) + xi'_m sin<t,f_m>]

with iid standard normals drawn once per replicate from a counter-based
Philox stream keyed by (seed, replicate).  Coefficient layout is fixed as
[xi0, xi_1, xi'_1, xi_2, xi'_2, ...]; regenerating a replicate is therefore
bit-identical, independent of chunking or thread count.

The empirical Euler characteristic uses the vertex-based closed cubical
complex: a d-cell of the grid is occupied iff all its 2^d corners sit at or
above the level.  ``ec_oracle_2d`` recomputes chi for 2-D masks by a
completely different route (connected components minus holes on a refined
rasterization) and serves as the cross-check oracle.
"""

from __future__ import annotations

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


def _rng(seed: int, replicate: int) -> np.random.Generator:
    key = np.array([seed, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _coefficients(model: SpectralSumField, seed: int, replicate: int) -> np.ndarray:
    """Per-replicate coefficient vector [sigma0 xi0, sqrt(w_m) xi_m, sqrt(w_m) xi'_m, ...]."""
    draws = _rng(seed, replicate).standard_normal(1 + 2 * model.n_atoms)
    coefs = np.empty_like(draws)
    coefs[0] = math.sqrt(model.offset_var) * draws[0]
    sw = np.sqrt(model.weights)
    coefs[1::2] = sw * draws[1::2]
    coefs[2::2] = sw * draws[2::2]
    return coefs


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
    coefs = _coefficients(sp, seed, replicate)
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
    import itertools

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


def empirical_ec(values, u: float) -> EcCount:
    """Euler characteristic of the thresholded grid via cubical cell counts.

    Accepts a Realization or a plain value array of dimension 1, 2, or 3.
    """
    if isinstance(values, Realization):
        arr = values.values
    else:
        arr = np.asarray(values)
    ndim = arr.ndim
    if ndim not in (1, 2, 3):
        raise CapabilityError(f"empirical EC supports N in {{1,2,3}}, got N={ndim}")
    mask = arr >= u
    counts = [int(c) for c in _cell_counts(mask, ndim)]
    chi = 0
    for d, c in enumerate(counts):
        chi += (-1) ** d * c
    return EcCount(n_d=tuple(counts), chi=chi)


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

    components = _label_components(ref)
    padded = np.pad(ref, 1, constant_values=False)
    comp_labels, comp_count = _label_with_array(~padded)
    border = np.zeros_like(comp_labels, dtype=bool)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    outer = set(np.unique(comp_labels[border & ~padded]))
    outer.discard(0)
    holes = comp_count - len(outer)
    return components - holes


def _label_components(mask: np.ndarray) -> int:
    return _label_with_array(mask)[1]


def _label_with_array(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connectivity connected-component labelling via union-find."""
    rows, cols = mask.shape
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

    labels = np.zeros(mask.shape, dtype=np.int64)
    roots: dict[int, int] = {}
    for k in range(flat.size):
        r = find(k)
        if r not in roots:
            roots[r] = len(roots) + 1
    if flat.size:
        root_of = np.array([roots[find(k)] for k in range(flat.size)], dtype=np.int64)
        labels.ravel()[flat] = root_of
    return labels, len(roots)


# ---------------------------------------------------------------------------
# Replicate sweeps
# ---------------------------------------------------------------------------


def _as_grid(domain: RectDomain, grid) -> GridSpec:
    if isinstance(grid, GridSpec):
        if grid.domain is not domain and (
            grid.domain.lower != domain.lower or grid.domain.upper != domain.upper
        ):
            raise ConfigError("grid was built on a different domain")
        return grid
    return GridSpec(domain, grid)


def _chunk_ranges(reps: int, n_points: int) -> list[tuple[int, int]]:
    """Replicate ranges of CHUNK rows, fewer when a block would pass
    MAX_BLOCK_BYTES."""
    rows = max(1, min(CHUNK, MAX_BLOCK_BYTES // (8 * n_points)))
    return [(start, min(start + rows, reps)) for start in range(0, reps, rows)]


def _sweep(
    model: SpectralSumField,
    grid: GridSpec,
    seed: int,
    reps: int,
    reducer,
    threads: int = 1,
):
    """Run reducer(values_block, start) over fixed replicate chunks.

    The chunk layout depends only on ``reps`` and the grid size, so outputs
    are identical for any thread count.  ``reducer`` must be a pure function
    of its block.
    """
    basis = _basis(model, grid.points())
    ncoef = basis.shape[0]

    def run(rng_range):
        start, stop = rng_range
        coefs = np.empty((stop - start, ncoef))
        for r in range(start, stop):
            coefs[r - start] = _coefficients(model, seed, r)
        block = coefs @ basis  # (chunk, n_points)
        return reducer(block, start)

    ranges = _chunk_ranges(reps, grid.n_points)
    if threads <= 1:
        return [run(rr) for rr in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, ranges))


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
    sp = _require_spectral(model)
    gs = _as_grid(domain, grid)
    if reps < 100:
        raise ConfigError("need at least 100 replicates")

    def reducer(block, start):
        return int(np.count_nonzero(block.max(axis=1) >= u))

    counts = _sweep(sp, gs, seed, reps, reducer, threads)
    hits = sum(counts)
    p = hits / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return p, stderr


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
    gs = _as_grid(domain, grid)
    fine = GridSpec(domain, tuple(2 * p - 1 for p in gs.points_per_axis))
    p1, s1 = empirical_sup_prob(model, domain, u, gs, reps, seed, threads=threads)
    p2, s2 = empirical_sup_prob(model, domain, u, fine, reps, seed, threads=threads)
    err = math.hypot(s1, s2)
    return {
        "p_coarse": p1,
        "stderr_coarse": s1,
        "p_fine": p2,
        "stderr_fine": s2,
        "grid_coarse": gs.points_per_axis,
        "grid_fine": fine.points_per_axis,
        "bias_flag": abs(p2 - p1) > max(err, 1e-12),
    }


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
    sp = _require_spectral(model)
    gs = _as_grid(domain, grid)
    if reps < 100:
        raise ConfigError("need at least 100 replicates")
    ndim = domain.dim
    if ndim not in (1, 2, 3):
        raise CapabilityError(f"empirical EC supports N in {{1,2,3}}, got N={ndim}")
    shape = gs.shape

    def reducer(block, start):
        mask = (block >= u).reshape((block.shape[0],) + shape)
        counts = _cell_counts(mask, ndim)
        chi = np.zeros(block.shape[0], dtype=np.int64)
        for d, c in enumerate(counts):
            chi += (-1) ** d * c
        return int(chi.sum()), int((chi * chi).sum())

    parts = _sweep(sp, gs, seed, reps, reducer, threads)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    mean = s1 / reps
    var = max(s2 - reps * mean * mean, 0.0) / (reps - 1)
    stderr = math.sqrt(var / reps)
    return mean, stderr


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
    """Inverse of save_realization; values are bit-identical."""
    sidecar = path + ".json"
    if not os.path.exists(sidecar):
        raise ConfigError(f"missing sidecar header {sidecar}")
    with open(sidecar, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    shape = tuple(int(s) for s in header["shape"])
    domain = RectDomain(header["domain"]["lower"], header["domain"]["upper"])
    values = np.fromfile(path, dtype="<f8").reshape(shape)
    grid = GridSpec(domain, shape)
    return Realization(
        grid=grid,
        values=values,
        seed=int(header["seed"]),
        replicate=int(header["replicate"]),
    )
