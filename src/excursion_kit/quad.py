"""Deterministic quadrature: tensor Gauss-Legendre with dyadic refinement.

Three entry points share one refinement loop:

* :func:`integrate_box` integrates over a rectangle;
* :func:`integrate_face` integrates over the free coordinates of an open
  rectangle face, the one integral of every face term;
* :func:`integrate_cone` integrates over [u, inf) x (orthant cone), or over
  the cone alone; its dimension is capped at CONE_DIM_CAP.  It serves the
  Hermite tail check and the test oracles, not the face terms.

Every semi-infinite axis of :func:`integrate_cone` is mapped onto s in
[0, 1) by the one orthant map y = sign * s / (1 - s), with Jacobian
(1 - s)^-2 (:func:`_orthant_points`); its level axis is a +1 axis shifted
by u.

Integrands are vectorised: they receive an (m, d) array of points and
return m values, or an (L, m) array holding L integrands that share the
points (one row each, e.g. one per level).

Convergence of a box is judged by comparing two estimates of it.  On a
face (:func:`integrate_face`, so every mu and mean-EC face) the estimates
are the order-n tensor rule and the order-floor(3n/4) rule on the same
box, with n = ``order_per_axis``, one integrand call on each node set.  A
gap of one order (GL(n) against GL(n-1)) was rejected: nearly equal node
spacings let the two agree on a peak that neither resolves.  Where an axis
carries the orthant map (:func:`integrate_cone`) and in the public
:func:`integrate_box`, which cannot tell, a box is compared with the sum
over its 2^d dyadic children instead: the map leaves an essential
singularity at s = 1, where two rules on one box can agree while both are
off.  Boxes are split until the difference passes ``rel_tol``, or falls
within FLOOR times the row's integral of |f| over the whole domain (from
the first box's nodes; for rows far below their own scale), or until
MAX_SUBDIVISIONS levels or MAX_BOXES evaluated boxes are exhausted, in
which case the result carries ``converged=False`` and a
QuadratureWarning.  A box of more than MAX_BOX_NODES tensor nodes
(order_per_axis ** d) is a CapabilityError, raised before any node is
built.  Each row of an (L, m) integrand keeps its own refinement tree and
floor, so its result is bit-identical to integrating that row alone; one
integrand call per node set serves every row still refining the box.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, QuadratureError, QuadratureWarning, is_integer
from .geometry import Face, OutwardCone

__all__ = [
    "QuadSpec",
    "QuadResult",
    "integrate_face",
    "integrate_box",
    "integrate_cone",
]

# dimension cap of integrate_cone, the x part included
CONE_DIM_CAP = 4
# safety cap on the number of boxes one integral evaluates
MAX_BOXES = 200_000
# dyadic depth cap of a box's refinement tree
MAX_SUBDIVISIONS = 12
# a box converges when its difference is within FLOOR times its row's
# integral of |f| over the whole domain (rows far below their own scale)
FLOOR = 1e-14
# cap on the tensor nodes of one box, order_per_axis ** dim
MAX_BOX_NODES = 2**23


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature controls.

    order_per_axis: Gauss-Legendre nodes per axis of each box.
    rel_tol: relative acceptance threshold per box, positive and finite.
    The relative floor FLOOR and the depth cap MAX_SUBDIVISIONS are module
    constants.
    """

    order_per_axis: int = 24
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not is_integer(self.order_per_axis):
            raise ValueError(f"order_per_axis must be an integer, got {self.order_per_axis!r}")
        if self.order_per_axis < 2:
            raise ValueError("order_per_axis must be at least 2")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")


class QuadResult(NamedTuple):
    value: float
    err_est: float
    converged: bool = True


@functools.lru_cache(maxsize=None)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _unit_tensor(order: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-cube [0,1]^dim tensor nodes (m, dim) and weights (m,)."""
    x, w = _gl_nodes(order)
    x01 = 0.5 * (x + 1.0)
    w01 = 0.5 * w
    # row-major over the axes, as an "ij" meshgrid, without its temporaries
    pts = np.empty((order,) * dim + (dim,))
    for ax in range(dim):
        pts[..., ax] = x01.reshape((order,) + (1,) * (dim - 1 - ax))
    wt = functools.reduce(np.multiply.outer, [w01] * dim).ravel()
    return pts.reshape(-1, dim), wt


# the nodes of order_per_axis are shared by every box; the lower rule of a
# pair is rebuilt per box, which keeps a second tensor rule out of memory
_tensor_nodes = functools.lru_cache(maxsize=None)(_unit_tensor)


def _eval_box(f, lo, hi, order, rows=None, low=0, magnitude=False) -> list[tuple]:
    """Tensor Gauss-Legendre estimates of f over the box [lo, hi].

    f returns (m,) values, read as one row, or (L, m) values.  The result
    holds one tuple per listed row (all rows by default): the GL(order)
    estimate, then with ``low`` the GL(low) estimate of the same box, then
    with ``magnitude`` the GL(order) estimate of |f|.  Each is one
    contiguous row dotted with its weights.  With ``low`` f is called a
    second time, on the GL(low) nodes, built for this box from the 1-D
    rule.
    """
    dim = lo.shape[0]
    widths = hi - lo
    vol = float(np.prod(widths))
    pts01, wts = _tensor_nodes(order, dim)
    rules = [(_value_rows(f(lo + pts01 * widths), len(wts)), pts01, wts)]
    if low:
        low01, low_wts = _unit_tensor(low, dim)
        rules.append((_value_rows(f(lo + low01 * widths), len(low_wts)), low01, low_wts))
    out = []
    for r in range(len(rules[0][0])) if rows is None else rows:
        for v, nodes, _ in rules:
            bad = ~np.isfinite(v[r])
            if bad.any():
                t_bad = lo + nodes[int(np.argmax(bad))] * widths
                raise QuadratureError(f"integrand non-finite at t = {t_bad.tolist()}")
        est = tuple(float(v[r] @ w) * vol for v, _, w in rules)
        if magnitude:
            est += (float(np.abs(rules[0][0][r]) @ wts) * vol,)
        out.append(est)
    return out


def _value_rows(vals, m: int) -> np.ndarray:
    """Integrand values as a C-contiguous (L, m) array; (m,) is one row."""
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    if vals.ndim != 2 or vals.shape[1] != m:
        raise QuadratureError(
            f"integrand returned shape {vals.shape}, expected ({m},) or (L, {m})"
        )
    return np.ascontiguousarray(vals)


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


def integrate_box(f, lower, upper, spec: QuadSpec = QuadSpec()):
    """Adaptive tensor integration of f over a rectangle [lower, upper].

    Each box is judged by its 2^d dyadic children (see the module
    docstring), which stays sound where an axis carries the orthant map.
    An integrand returning (m,) values gives one QuadResult.  One returning
    (L, m) values gives a list of L QuadResults, each bit-identical to
    integrating its row alone: every row keeps its own refinement tree,
    floor, depth and MAX_BOXES count, visited in the same depth-first
    order, and warns on its own when it does not converge.  A box is
    evaluated once for all rows still refining it.  The (L, m) value array
    is the only buffer that grows with L (about 5 MB for two rows of a
    24^4-node box).

    CapabilityError when a box has more than MAX_BOX_NODES nodes.
    """
    return _adaptive(f, lower, upper, spec, pair=False)


def _adaptive(f, lower, upper, spec: QuadSpec, *, pair: bool):
    """The one refinement loop of :func:`integrate_box` and
    :func:`integrate_face`; ``pair`` picks the rule that judges a box.

    Either rule gives a box an estimate and a reference value.  The
    children rule: the GL(n) sum over its 2^d children and the box's own
    GL(n), evaluated with its siblings.  The pair rule: GL(n) and GL(low)
    on the box itself, low = floor(3n/4), evaluated with its siblings; a
    box's children are evaluated only when it is split.  A box passes when
    the two agree within ``rel_tol`` or within the row's floor, and adds
    its estimate to the value and the difference to err_est.
    """
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("lower/upper must be matching vectors")
    if np.any(hi <= lo):
        raise ValueError("need lower < upper on every axis")
    order = spec.order_per_axis
    if order ** lo.shape[0] > MAX_BOX_NODES:
        raise CapabilityError(
            f"{order}^{lo.shape[0]} quadrature nodes per box exceed cap {MAX_BOX_NODES}"
        )
    low = 3 * order // 4 if pair else 0
    one_row = False

    def root(nodes):
        nonlocal one_row
        vals = np.asarray(f(nodes), dtype=float)
        one_row = vals.ndim == 1
        return vals

    first = _eval_box(root, lo, hi, order, low=low, magnitude=True)
    n_rows = len(first)
    # from the root box alone, so a row's tree does not depend on the others
    floor = [FLOOR * est[-1] for est in first]
    total = [0.0] * n_rows
    err = [0.0] * n_rows
    # the caps that stopped each row's unconverged boxes
    stops: list[set[str]] = [set() for _ in range(n_rows)]
    boxes_used = [1] * n_rows

    def evaluate(blo, bhi, rows) -> dict:
        for r in rows:
            boxes_used[r] += 1
        return dict(zip(rows, _eval_box(f, blo, bhi, order, rows, low)))

    def children(blo, bhi, rows) -> list:
        return [(clo, chi, evaluate(clo, chi, rows)) for clo, chi in _split(blo, bhi)]

    # judge(box, its values per row) -> ({row: (estimate, reference)}, the
    # box's children and their values for a list of rows)
    if pair:

        def judge(blo, bhi, vals):
            return vals, lambda rows: children(blo, bhi, rows)

    else:

        def judge(blo, bhi, vals):
            kids = children(blo, bhi, list(vals))
            return (
                {r: (math.fsum(kv[r][0] for *_, kv in kids), v[0]) for r, v in vals.items()},
                lambda rows: kids,
            )

    # stack holds (lo, hi, {row: values} of the rows still refining the
    # box, depth)
    stack = [(lo, hi, {r: est[:-1] for r, est in enumerate(first)}, 0)]
    while stack:
        blo, bhi, bvals, depth = stack.pop()
        judged, kids = judge(blo, bhi, bvals)
        still_open = []
        for r, (est, ref) in judged.items():
            diff = abs(est - ref)
            ok = diff <= spec.rel_tol * abs(est) or diff <= floor[r]
            if ok or depth >= MAX_SUBDIVISIONS or boxes_used[r] > MAX_BOXES:
                total[r] += est
                err[r] += diff
                if not ok:
                    stops[r].add(
                        f"depth {MAX_SUBDIVISIONS}"
                        if depth >= MAX_SUBDIVISIONS
                        else f"box cap {MAX_BOXES}"
                    )
            else:
                still_open.append(r)
        if still_open:
            for clo, chi, kv in kids(still_open):
                stack.append((clo, chi, {r: kv[r] for r in still_open}, depth + 1))
    for r in range(n_rows):
        if stops[r]:
            row = "" if one_row else f"row {r}: "
            warnings.warn(
                f"{row}adaptive quadrature stopped at {' and '.join(sorted(stops[r]))} "
                f"with estimates {total[r]:.17g} (refined) and err ~ {err[r]:.3g}",
                QuadratureWarning,
                stacklevel=3,
            )
    results = [QuadResult(total[r], err[r], not stops[r]) for r in range(n_rows)]
    return results[0] if one_row else results


def _orthant_points(s: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (m, q) nodes s in [0, 1)^q onto the orthant of ``signs`` by
    y = sign * s / (1 - s); returns y and the Jacobian prod (1 - s)^-2."""
    return signs * s / (1.0 - s), np.prod((1.0 - s) ** -2.0, axis=1)


def integrate_face(face: Face, f, spec: QuadSpec = QuadSpec()):
    """Integrate f over the free coordinates of an open face (k >= 1).

    f receives an (m, k) array of free-coordinate points, and each box is
    judged by the pair GL(n), GL(floor(3n/4)) on the box: f is called on
    its n^k nodes, then on its floor(3n/4)^k nodes, and err_est sums
    |GL(n) - GL(floor(3n/4))| over the accepted boxes.  As in
    :func:`integrate_box`, (L, m) values give a list of L results, and a
    box passes within FLOOR times its row's integral of |f| (see the module
    docstring).
    """
    if face.k < 1:
        raise ValueError("face must have at least one free axis")
    lo, hi = face.free_bounds()
    return _adaptive(f, lo, hi, spec, pair=True)


def integrate_cone(
    cone: OutwardCone, u: float | None, h, spec: QuadSpec = QuadSpec()
) -> QuadResult:
    """Integrate h over [u, inf) x E for the orthant cone E.

    The integrand sees points (x, y_1, ..., y_c) with the cone coordinates
    in the cone's listed axis order; pass ``u=None`` to drop the x part.
    Dimension (x included) is capped at CONE_DIM_CAP.
    """
    has_x = u is not None
    signs = np.r_[1.0, cone.signs()] if has_x else cone.signs()
    dims = len(signs)
    if dims == 0:
        raise ValueError("nothing to integrate: empty cone and no x part")
    if dims > CONE_DIM_CAP:
        raise CapabilityError(f"cone integral dimension {dims} exceeds cap {CONE_DIM_CAP}")

    def mapped(s):
        pts, jac = _orthant_points(s, signs)
        if has_x:
            pts[:, 0] += u
        return np.asarray(h(pts), dtype=float) * jac

    return integrate_box(mapped, np.zeros(dims), np.ones(dims), spec)
