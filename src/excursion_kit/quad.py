"""Deterministic quadrature: tensor Gauss-Legendre with dyadic refinement.

Three entry points share one adaptive core:

* :func:`integrate_face` integrates over the free coordinates of an open
  rectangle face.
* :func:`integrate_tail` integrates over a half-line [u, inf) through the
  rational map x = u + s/(1-s).
* :func:`integrate_cone` integrates over [u, inf) x (orthant cone), each
  semi-infinite axis mapped back to (0, 1) the same way; its dimension is
  capped at CONE_DIM_CAP.

Integrands are vectorised: they receive an (m, d) array of points and
return m values, or an (L, m) array holding L integrands that share the
points (one row each, e.g. one per level).

A box integrand can also be split: with ``split=k`` it receives the nodes
of the k leading axes, x of shape (n_x, k), and those of the d - k
trailing axes, y of shape (n_y, d - k), and returns its values over their
product in x-major order (value j * n_y + i belongs to (x_j, y_i)).  That
is the row-major order of the unsplit (m, d) nodes, so the weights, the
estimates and the refinement are unchanged; an integrand whose costly part
depends on x alone evaluates it at n_x points instead of m = n_x * n_y.
The mean-EC joint boxes split the face axes from the cone axes this way.

Convergence of a box is judged by comparing the tensor rule with the sum
over its 2^d dyadic children; boxes are split until the difference passes
``rel_tol`` (with an ABS_TOL floor for integrals that are numerically
zero), or until MAX_SUBDIVISIONS levels or MAX_BOXES evaluated boxes are
exhausted, in which case the result carries ``converged=False`` and a
QuadratureWarning.  Each row of an (L, m) integrand keeps its own
refinement tree, so its result is bit-identical to integrating that row
alone; one integrand call per box serves every row still refining it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, QuadratureError, QuadratureWarning
from .geometry import Face, OutwardCone

__all__ = [
    "QuadSpec",
    "QuadResult",
    "TailMap",
    "integrate_face",
    "integrate_box",
    "integrate_tail",
    "integrate_cone",
]

# dimension cap of integrate_cone, the x part included
CONE_DIM_CAP = 4
# safety cap on the number of boxes one integral evaluates
MAX_BOXES = 200_000
# dyadic depth cap of a box's refinement tree
MAX_SUBDIVISIONS = 12
# absolute difference under which a box counts as converged (zero integrals)
ABS_TOL = 1e-14


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature controls.

    order_per_axis: Gauss-Legendre nodes per axis of each box.
    rel_tol: relative acceptance threshold per box, positive and finite.
    The absolute floor ABS_TOL and the depth cap MAX_SUBDIVISIONS are
    module constants.
    """

    order_per_axis: int = 24
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.order_per_axis < 2:
            raise ValueError("order_per_axis must be at least 2")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")


class QuadResult(NamedTuple):
    value: float
    err_est: float
    converged: bool = True


@dataclass(frozen=True)
class TailMap:
    """Rational map of [origin, inf) onto s in [0, 1): x = origin + s/(1-s).

    ``weight`` is the Jacobian dx/ds = (1-s)^{-2}.
    """

    origin: float = 0.0

    def map(self, s):
        s = np.asarray(s, dtype=float)
        return self.origin + s / (1.0 - s)

    def weight(self, s):
        s = np.asarray(s, dtype=float)
        return (1.0 - s) ** -2.0


@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@functools.lru_cache(maxsize=None)
def _tensor_nodes(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-cube [0,1]^dim tensor nodes (m, dim) and weights (m,)."""
    x, w = _gl_nodes(order)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    grids = np.meshgrid(*([x01] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wt = functools.reduce(np.multiply.outer, [w01] * dim).ravel()
    return pts, wt


def _eval_box(f, lo, hi, order, rows=None, split=None) -> list[float]:
    """Tensor Gauss-Legendre estimates of f over the box [lo, hi].

    f returns (m,) values, read as one row, or (L, m) values.  The result
    holds the estimates of the listed rows (all by default), each one
    contiguous row dotted with the weights.  With ``split=k`` f is called
    as f(x, y) on the nodes of the k leading and of the trailing axes, and
    its values are read in x-major order, the row-major order of the
    unsplit nodes.
    """
    dim = lo.shape[0]
    pts01, wts = _tensor_nodes(order, dim)
    widths = hi - lo
    if split is None:
        pts = lo + pts01 * widths
        vals = np.asarray(f(pts), dtype=float)
    else:
        x = lo[:split] + _tensor_nodes(order, split)[0] * widths[:split]
        y = lo[split:] + _tensor_nodes(order, dim - split)[0] * widths[split:]
        vals = np.asarray(f(x, y), dtype=float)
    m = pts01.shape[0]
    if vals.ndim == 1:
        vals = vals[None, :]
    if vals.ndim != 2 or vals.shape[1] != m:
        raise QuadratureError(
            f"integrand returned shape {vals.shape}, expected ({m},) or (L, {m})"
        )
    vals = np.ascontiguousarray(vals)
    vol = float(np.prod(widths))
    out = []
    for r in range(vals.shape[0]) if rows is None else rows:
        bad = ~np.isfinite(vals[r])
        if bad.any():
            t_bad = lo + pts01[int(np.argmax(bad))] * widths
            raise QuadratureError(f"integrand non-finite at t = {t_bad.tolist()}")
        out.append(float(vals[r] @ wts) * vol)
    return out


def _split(lo, hi):
    """2^d dyadic children of a box."""
    dim = lo.shape[0]
    mid = 0.5 * (lo + hi)
    children = []
    for bits in range(1 << dim):
        clo = lo.copy()
        chi = hi.copy()
        for ax in range(dim):
            if bits >> ax & 1:
                clo[ax] = mid[ax]
            else:
                chi[ax] = mid[ax]
        children.append((clo, chi))
    return children


def integrate_box(f, lower, upper, spec: QuadSpec = QuadSpec(), *, split=None):
    """Adaptive tensor integration of f over a rectangle [lower, upper].

    An integrand returning (m,) values gives one QuadResult.  One returning
    (L, m) values gives a list of L QuadResults, each bit-identical to
    integrating its row alone: every row keeps its own refinement tree,
    depth and MAX_BOXES count, visited in the same depth-first order, and
    warns on its own when it does not converge.  A box is evaluated once
    for all rows still refining it.  The (L, m) value array is the only
    buffer that grows with L (about 5 MB for two rows of a 24^4-node box).

    With ``split=k`` (0 < k < d) f is called as f(x, y) on the nodes of the
    k leading axes and of the d - k trailing axes of every box, and returns
    its values over their product in x-major order (see the module
    docstring); the results are those of the unsplit integrand.
    """
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lower/upper must be matching vectors")
    if np.any(hi <= lo):
        raise ValueError("need lower < upper on every axis")
    if split is not None and not 0 < split < lo.shape[0]:
        raise ValueError("split must leave at least one axis on each side")
    order = spec.order_per_axis
    one_row = False

    def root(*nodes):
        nonlocal one_row
        vals = np.asarray(f(*nodes), dtype=float)
        one_row = vals.ndim == 1
        return vals

    coarse = _eval_box(root, lo, hi, order, split=split)
    n_rows = len(coarse)
    total = [0.0] * n_rows
    err = [0.0] * n_rows
    # the caps that stopped each row's unconverged boxes
    stops: list[set[str]] = [set() for _ in range(n_rows)]
    boxes_used = [1] * n_rows
    # stack holds (lo, hi, {row: coarse value} of the rows still refining
    # the box, depth)
    stack = [(lo, hi, dict(enumerate(coarse)), 0)]
    while stack:
        blo, bhi, bvals, depth = stack.pop()
        children = _split(blo, bhi)
        rows = list(bvals)
        cvals = [_eval_box(f, clo, chi, order, rows, split) for clo, chi in children]
        still_open = []
        for j, r in enumerate(rows):
            boxes_used[r] += len(children)
            refined = math.fsum(cv[j] for cv in cvals)
            diff = abs(refined - bvals[r])
            ok = diff <= spec.rel_tol * abs(refined) or diff <= ABS_TOL
            if ok or depth >= MAX_SUBDIVISIONS or boxes_used[r] > MAX_BOXES:
                total[r] += refined
                err[r] += diff
                if not ok:
                    stops[r].add(
                        f"depth {MAX_SUBDIVISIONS}"
                        if depth >= MAX_SUBDIVISIONS
                        else f"box cap {MAX_BOXES}"
                    )
            else:
                still_open.append(j)
        if still_open:
            for (clo, chi), cv in zip(children, cvals):
                stack.append((clo, chi, {rows[j]: cv[j] for j in still_open}, depth + 1))
    for r in range(n_rows):
        if stops[r]:
            row = "" if one_row else f"row {r}: "
            warnings.warn(
                f"{row}adaptive quadrature stopped at {' and '.join(sorted(stops[r]))} "
                f"with estimates {total[r]:.17g} (refined) and err ~ {err[r]:.3g}",
                QuadratureWarning,
                stacklevel=2,
            )
    results = [QuadResult(total[r], err[r], not stops[r]) for r in range(n_rows)]
    return results[0] if one_row else results


def integrate_face(face: Face, f, spec: QuadSpec = QuadSpec()):
    """Integrate f over the free coordinates of an open face (k >= 1).

    f receives an (m, k) array of free-coordinate points; as in
    :func:`integrate_box`, (L, m) values give a list of L results.
    """
    if face.k < 1:
        raise ValueError("face must have at least one free axis")
    lo, hi = face.free_bounds()
    return integrate_box(f, lo, hi, spec)


def integrate_tail(u: float, g, spec: QuadSpec = QuadSpec()) -> QuadResult:
    """Integrate g over [u, inf) via the rational tail map."""
    tm = TailMap(origin=float(u))

    def mapped(s):
        s1 = s[:, 0]
        return np.asarray(g(tm.map(s1)), dtype=float) * tm.weight(s1)

    return integrate_box(mapped, [0.0], [1.0], spec)


def integrate_cone(
    cone: OutwardCone, u: float | None, h, spec: QuadSpec = QuadSpec()
) -> QuadResult:
    """Integrate h over [u, inf) x E for the orthant cone E.

    The integrand sees points (x, y_1, ..., y_c) with the cone coordinates
    in the cone's listed axis order; pass ``u=None`` to drop the x part.
    Dimension (x included) is capped at CONE_DIM_CAP.
    """
    cdim = cone.dim
    dims = cdim + (0 if u is None else 1)
    if dims == 0:
        raise ValueError("nothing to integrate: empty cone and no x part")
    if dims > CONE_DIM_CAP:
        raise CapabilityError(
            f"cone integral dimension {dims} exceeds cap {CONE_DIM_CAP}; "
            "use the Monte Carlo fallback"
        )
    signs = cone.signs()
    has_x = u is not None
    x_map = TailMap(origin=float(u)) if has_x else None

    def mapped(s):
        m = s.shape[0]
        pts = np.empty((m, dims))
        jac = np.ones(m)
        col = 0
        if has_x:
            sx = s[:, 0]
            pts[:, 0] = x_map.map(sx)
            jac *= x_map.weight(sx)
            col = 1
        for i in range(cdim):
            si = s[:, col + i]
            pts[:, col + i] = signs[i] * si / (1.0 - si)
            jac *= (1.0 - si) ** -2.0
        return np.asarray(h(pts), dtype=float) * jac

    return integrate_box(mapped, np.zeros(dims), np.ones(dims), spec)
