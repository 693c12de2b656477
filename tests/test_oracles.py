"""Independent oracles that the package itself does not use, with their
self-tests.

``ec_oracle_2d`` recomputes the Euler characteristic of a 2-D vertex mask by
a route unrelated to the cubical cell counts of ``mc.empirical_ec``:
connected components minus holes on a refined rasterization.

``hermite_tail_identity_check`` integrates He_k(x) exp(-x^2/2) over [u, inf)
numerically and returns its distance from the closed form He_{k-1}(u)
exp(-u^2/2) that the mu face terms rest on.
"""

import math

import numpy as np
from scipy import ndimage

from excursion_kit.errors import CapabilityError
from excursion_kit.gauss import hermite
from excursion_kit.geometry import OutwardCone
from excursion_kit.mc import empirical_ec
from excursion_kit.quad import QuadSpec, integrate_cone


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
    # outer component; ndimage.label's default 2-D structure is 4-connected
    holes = ndimage.label(~np.pad(ref, 1, constant_values=False))[1] - 1
    return ndimage.label(ref)[1] - holes


def hermite_tail_identity_check(k: int, u: float) -> float:
    """Residual of int_u^inf He_k(x) e^{-x^2/2} dx = He_{k-1}(u) e^{-u^2/2}.

    The left side is integrated numerically with the package's own
    quadrature over the level axis of an empty cone; returns
    |numeric - closed form|.
    """
    if k < 1:
        raise ValueError("identity requires k >= 1")

    def g(x):
        return hermite(k, x) * np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)

    res = integrate_cone(OutwardCone(()), float(u), lambda p: g(p[:, 0]), QuadSpec())
    rhs = hermite(k - 1, u) * math.exp(-0.5 * u * u)
    return abs(res.value - rhs)


def test_ec_oracle_matches_cell_counts():
    # 200 random masks agree with the cubical cell counts, and a block, a
    # ring and two blocks have chi 1, 0 and 2
    rng = np.random.Generator(np.random.Philox(key=np.array([99, 0], dtype=np.uint64)))
    for i in range(200):
        shape = (int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        mask = rng.random(shape) < rng.uniform(0.2, 0.8)
        assert empirical_ec(mask.astype(float), 0.5).chi == ec_oracle_2d(mask), i
    block = np.zeros((7, 7), dtype=bool)
    block[1:6, 1:6] = True
    ring = block.copy()
    ring[2:5, 2:5] = False
    two = np.zeros((5, 9), dtype=bool)
    two[1:4, 1:4] = True
    two[1:4, 5:8] = True
    assert (ec_oracle_2d(block), ec_oracle_2d(ring), ec_oracle_2d(two)) == (1, 0, 2)
