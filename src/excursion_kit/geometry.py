"""Face combinatorics for compact axis-aligned rectangles.

A rectangle T = prod_i [a_i, b_i] in R^N decomposes into 3^N relatively
open faces: every coordinate is either free (varies in the open interval)
or pinned to one of its two endpoints.  A face is recorded as the ascending
tuple ``sigma`` of free axes together with the endpoint selector ``epsilon``
(0 = lower, 1 = upper) for each pinned axis.  Axes are 0-based internally;
the string label produced by :func:`face_label` is 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapabilityError, DomainError

__all__ = [
    "DomainError",
    "RectDomain",
    "Face",
    "OutwardCone",
    "enumerate_faces",
    "embed_points",
    "outward_cone",
    "face_label",
    "face_of_point",
]

# Cap on the dimension for full face enumeration (3^N growth).
MAX_ENUM_DIM = 6


@dataclass(frozen=True)
class RectDomain:
    """Compact rectangle prod_i [lower_i, upper_i] with lower_i < upper_i."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __init__(self, lower: Sequence[float], upper: Sequence[float]):
        lo = tuple(float(x) for x in lower)
        hi = tuple(float(x) for x in upper)
        if len(lo) != len(hi):
            raise DomainError(
                f"lower has length {len(lo)} but upper has length {len(hi)}"
            )
        if not lo:
            raise DomainError("rectangle needs at least one axis")
        for i, (a, b) in enumerate(zip(lo, hi)):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise DomainError(f"axis {i + 1}: endpoints must be finite")
            if not a < b:
                raise DomainError(
                    f"axis {i + 1}: need lower < upper, got [{a}, {b}]"
                )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def lower_arr(self) -> np.ndarray:
        return np.asarray(self.lower, dtype=float)

    @property
    def upper_arr(self) -> np.ndarray:
        return np.asarray(self.upper, dtype=float)


@dataclass(frozen=True)
class Face:
    """Relatively open face of a rectangle.

    ``sigma`` lists the free axes in ascending order; ``epsilon`` pairs each
    pinned axis with its endpoint selector (0 lower / 1 upper), also in
    ascending axis order.  ``k = len(sigma)`` is the face dimension.
    """

    domain: RectDomain
    sigma: tuple[int, ...]
    epsilon: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.domain.dim
        sig = tuple(int(j) for j in self.sigma)
        eps = tuple((int(j), int(e)) for j, e in self.epsilon)
        if sig != tuple(sorted(set(sig))):
            raise DomainError(f"sigma must be strictly ascending, got {sig}")
        fixed = tuple(j for j, _ in eps)
        if fixed != tuple(sorted(set(fixed))):
            raise DomainError(f"fixed axes must be strictly ascending, got {fixed}")
        if set(sig) | set(fixed) != set(range(n)) or set(sig) & set(fixed):
            raise DomainError(
                f"free axes {sig} and fixed axes {fixed} must partition 0..{n - 1}"
            )
        for j, e in eps:
            if e not in (0, 1):
                raise DomainError(f"endpoint selector for axis {j + 1} must be 0 or 1")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "epsilon", eps)

    @property
    def k(self) -> int:
        return len(self.sigma)

    @property
    def fixed(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.epsilon)

    @property
    def eps_map(self) -> dict[int, int]:
        return dict(self.epsilon)

    def fixed_values(self) -> np.ndarray:
        """Coordinates of the pinned axes, in ascending axis order."""
        lo, hi = self.domain.lower, self.domain.upper
        return np.array([hi[j] if e else lo[j] for j, e in self.epsilon])

    def free_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) arrays of the free axes' intervals."""
        lo, hi = self.domain.lower_arr, self.domain.upper_arr
        sig = list(self.sigma)
        return lo[sig], hi[sig]


@dataclass(frozen=True)
class OutwardCone:
    """Outward half-space constraints attached to a face.

    Each entry (j, s) with s = 2*eps_j - 1 constrains coordinate y_j of a
    gradient-type vector to s * y_j >= 0.  Sorted by axis; empty for the
    interior face.
    """

    constraints: tuple[tuple[int, int], ...]

    def signs(self) -> np.ndarray:
        return np.array([s for _, s in self.constraints], dtype=float)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper orthant bounds in the listed axis order."""
        lo, hi = [], []
        for _, s in self.constraints:
            if s > 0:
                lo.append(0.0)
                hi.append(np.inf)
            else:
                lo.append(-np.inf)
                hi.append(0.0)
        return np.array(lo), np.array(hi)


def enumerate_faces(domain: RectDomain) -> list[Face]:
    """All 3^N faces in deterministic order.

    Sorted by k descending, then lexicographically by sigma, then by the
    epsilon bit-vector of the pinned axes.
    """
    n = domain.dim
    if n > MAX_ENUM_DIM:
        raise CapabilityError(f"face enumeration capped at N={MAX_ENUM_DIM} (got N={n})")
    faces = []
    for k in range(n, -1, -1):
        for sigma in itertools.combinations(range(n), k):
            fixed = [j for j in range(n) if j not in sigma]
            for bits in itertools.product((0, 1), repeat=len(fixed)):
                eps = tuple(zip(fixed, bits))
                faces.append(Face(domain, sigma, eps))
    return faces


def embed_points(face: Face, t_free: np.ndarray) -> np.ndarray:
    """Lift (m, k) free coordinates to (m, N) points of the face (unchecked)."""
    t_free = np.atleast_2d(np.asarray(t_free, dtype=float))
    m = t_free.shape[0]
    out = np.empty((m, face.domain.dim))
    for idx, j in enumerate(face.sigma):
        out[:, j] = t_free[:, idx]
    lo, hi = face.domain.lower, face.domain.upper
    for j, e in face.epsilon:
        out[:, j] = hi[j] if e else lo[j]
    return out


def outward_cone(face: Face) -> OutwardCone:
    """Outward cone of the face: sign 2e-1 for each pinned axis."""
    return OutwardCone(tuple((j, 2 * e - 1) for j, e in face.epsilon))


def face_label(face: Face) -> str:
    """Stable string form "k|{free axes}|{pinned axis: endpoint}", 1-based.

    Examples: interior of a square -> "2|{1,2}|{}"; its top edge (axis 2
    pinned high) -> "1|{1}|{2:1}".
    """
    sig = ",".join(str(j + 1) for j in face.sigma)
    eps = ",".join(f"{j + 1}:{e}" for j, e in face.epsilon)
    return f"{face.k}|{{{sig}}}|{{{eps}}}"


def face_of_point(domain: RectDomain, t: Sequence[float], tol: float = 1e-9) -> Face:
    """Face whose closure-relative interior contains t (with endpoint snap tol)."""
    t = np.asarray(t, dtype=float)
    if t.shape != (domain.dim,):
        raise DomainError(f"point has shape {t.shape}, expected ({domain.dim},)")
    sigma, eps = [], []
    for j in range(domain.dim):
        a, b = domain.lower[j], domain.upper[j]
        scale = max(abs(a), abs(b), 1.0)
        if abs(t[j] - a) <= tol * scale:
            eps.append((j, 0))
        elif abs(t[j] - b) <= tol * scale:
            eps.append((j, 1))
        elif a < t[j] < b:
            sigma.append(j)
        else:
            raise DomainError(f"axis {j + 1}: coordinate {t[j]} outside [{a}, {b}]")
    return Face(domain, tuple(sigma), tuple(eps))
