"""End-to-end acceptance checks, one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee.  Tolerances are part of the contract and are asserted
as-is; failing assertions carry the measured values in their messages.
"""

import math

import numpy as np
import pytest

import excursion_kit.mec as mec
from excursion_kit.field import CosineField, SpectralSumField
from excursion_kit.gauss import gauss_tail
from excursion_kit.geometry import Face, RectDomain, enumerate_faces
from excursion_kit.mc import empirical_ec, empirical_sup_prob, mc_mean_ec
from excursion_kit.mec import excursion_prob_mu, mean_euler_characteristic, tau_hessian
from excursion_kit.quad import QuadSpec
from test_oracles import ec_oracle_2d, hermite_tail_identity_check

PI = math.pi
SPEC = QuadSpec()
S5 = math.sqrt(5.0)


def cosine():
    return CosineField()


def test_01_hermite_tail_identity_residuals():
    worst = 0.0
    for k in range(1, 7):
        for u in (0.5, 1.0, 2.0, 3.0):
            worst = max(worst, hermite_tail_identity_check(k, u))
    assert worst < 1e-8, f"max residual {worst:.3e}"


def test_02_cosine_covariance_closed_forms():
    model = cosine()
    dom = RectDomain([0.0, 0.0], [PI, PI])
    interior = enumerate_faces(dom)[0]
    edge = Face(domain=dom, sigma=(0,), epsilon=((1, 1),))
    assert np.allclose(model.lambda_mat, 0.5 * np.eye(2), atol=1e-10)
    # theta^2 and gamma^2 from the face evaluator every face term runs
    interior_ctx, edge_ctx = mec.FaceContext(model, interior), mec.FaceContext(model, edge)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        t = rng.uniform(1e-3, PI - 1e-3, size=2)
        t1, t2 = t
        nu = 3.0 - math.cos(t1) - math.cos(t2)
        assert model.variance(t) == pytest.approx(nu, abs=1e-10)
        assert np.allclose(
            model.lambda_mat - model.lambda_at(t),
            0.5 * (np.eye(2) - np.diag([math.cos(t1), math.cos(t2)])),
            atol=1e-10,
        )
        c = 0.5 * model.grad_variance(t)
        assert np.allclose(c, [0.5 * math.sin(t1), 0.5 * math.sin(t2)], atol=1e-10)
        assert interior_ctx.arrays(t[None]).gamma_sq[0] == pytest.approx(
            nu - 0.5 * math.sin(t1) ** 2 - 0.5 * math.sin(t2) ** 2, abs=1e-10
        )
        assert edge_ctx.arrays(t[None, :1]).theta_sq[0] == pytest.approx(
            4.0 - math.cos(t1) - 0.5 * math.sin(t1) ** 2, abs=1e-10
        )


def test_03_quadrature_totals_track_reference_constants():
    # mu sums the vertex tails and face integrals of every face without the
    # outward-cone weight that mean EC carries.  A face whose peak conditional
    # variance sigma'^2 sits just below sigma_T^2 therefore adds a surplus over
    # the leading constant that decays only like
    # exp(-u^2 (1/(2 sigma'^2) - 1/(2 sigma_T^2))): exp(-u^2/40) for the two
    # upper edges of [0,3pi/2]^2 (sigma'^2 = 4, sigma_T^2 = 5).  So the mu
    # totals are held to their bands at u=16, and at u=8 only the ledger entry
    # of the host face (the one holding the variance maximizer of
    # nu = 3 - cos t1 - cos t2) is.  Mean EC weights the non-host faces by
    # the cone probability and is held to its band at u=8.
    levels = (5.0, 8.0, 12.0, 16.0)
    cases = [
        (
            "mu [0,pi/2]^2",
            RectDomain([0, 0], [PI / 2, PI / 2]),
            excursion_prob_mu,
            lambda u: gauss_tail(u / math.sqrt(3)),
            (0.98, 1.02),
            16.0,
            "0|{}|{1:1,2:1}",
        ),
        (
            "mu [0,3pi/2]x[0,pi/2]",
            RectDomain([0, 0], [1.5 * PI, PI / 2]),
            excursion_prob_mu,
            lambda u: math.sqrt(2) * gauss_tail(u / 2),
            (0.95, 1.05),
            16.0,
            "1|{1}|{2:1}",
        ),
        (
            "mu [0,3pi/2]^2",
            RectDomain([0, 0], [1.5 * PI, 1.5 * PI]),
            excursion_prob_mu,
            lambda u: 2 * gauss_tail(u / S5),
            (0.95, 1.05),
            16.0,
            "2|{1,2}|{}",
        ),
        (
            "mean_ec [0,pi]^2",
            RectDomain([0, 0], [PI, PI]),
            mean_euler_characteristic,
            lambda u: (3 + 2 * math.sqrt(2)) / 4 * gauss_tail(u / S5),
            (0.9, 1.1),
            8.0,
            None,
        ),
        (
            "mean_ec [0,3pi/2]x[0,pi]",
            RectDomain([0, 0], [1.5 * PI, PI]),
            mean_euler_characteristic,
            lambda u: (2 + math.sqrt(2)) / 2 * gauss_tail(u / S5),
            (0.9, 1.1),
            8.0,
            None,
        ),
    ]
    problems = []
    for name, dom, fn, ref, (lo, hi), band_level, host in cases:
        results = {res.u: res for res in fn(cosine(), dom, levels, SPEC)}
        ratios = {u: results[u].total / ref(u) for u in levels}
        r = ratios[band_level]
        if not (lo <= r <= hi):
            problems.append(
                f"{name}: ratio({band_level:g}) = {r:.6f} outside [{lo}, {hi}]"
            )
        gaps = [abs(ratios[u] - 1) for u in levels]
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            problems.append(
                f"{name}: |ratio-1| not strictly decreasing over u = {levels}: "
                + ", ".join(f"{g:.4f}" for g in gaps)
            )
        if host is not None:
            h8 = results[8.0].by_label()[host] / ref(8.0)
            if not (lo <= h8 <= hi):
                problems.append(
                    f"{name}: host face {host} ratio(8) = {h8:.6f} "
                    f"outside [{lo}, {hi}]"
                )
    assert not problems, "; ".join(problems)


def test_04_monte_carlo_agrees_with_analytic():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    problems = []

    # the paper's approximation of P(sup >= u) is the mean EC; at u=4 the
    # exact probability is still 1.17x the leading constant
    # (3 + 2 sqrt 2)/4 Psi(u/sqrt 5), so that constant is no target here
    [(p_hat, se)] = empirical_sup_prob(cosine(), dom, [4.0], 128, 200_000, seed=4, threads=4)
    target = mean_euler_characteristic(cosine(), dom, [4.0], SPEC)[0].total
    rel = abs(p_hat - target) / target
    if rel > 0.10:
        problems.append(
            f"sup prob: p_hat = {p_hat:.6f} +/- {se:.6f} vs {target:.6f} "
            f"(rel dev {rel:.2%} > 10%)"
        )

    [(_, _, mean_chi, chi_se)] = mc_mean_ec(cosine(), dom, [2.5], 128, 100_000, seed=3, threads=4)
    want = mean_euler_characteristic(cosine(), dom, [2.5], SPEC)[0].total
    tol = 3 * chi_se + 0.05 * abs(want)
    if abs(mean_chi - want) > tol:
        problems.append(
            f"mean EC: {mean_chi:.5f} +/- {chi_se:.5f} vs {want:.5f} (tol {tol:.5f})"
        )
    assert not problems, "; ".join(problems)


def test_05_vertex_term_factorizes_at_zero_gradient():
    # c = 0 with diagonal Lambda makes value and gradient independent, so the
    # orthant probability is exactly Psi(u / sqrt(nu)) / 2^N
    cases = []
    dom2 = RectDomain([0.0, 0.0], [PI, PI])
    v2 = Face(domain=dom2, sigma=(), epsilon=((0, 1), (1, 1)))
    cases.append((cosine(), v2, 3.0, 5.0, 2))

    m1 = SpectralSumField(freqs=np.array([[1.0]]), weights=np.array([0.5]), offset_var=1.0)
    v1 = Face(domain=RectDomain([0.5], [PI]), sigma=(), epsilon=((0, 1),))
    cases.append((m1, v1, 2.0, 3.0, 1))

    m3 = SpectralSumField(freqs=np.eye(3), weights=np.full(3, 0.5), offset_var=1.0)
    v3 = Face(
        domain=RectDomain([0.0] * 3, [PI] * 3),
        sigma=(),
        epsilon=((0, 1), (1, 1), (2, 1)),
    )
    cases.append((m3, v3, 3.0, 7.0, 3))

    for model, vert, u, nu, n in cases:
        [res] = mec._face_term(model, vert, (u,), SPEC, cone=True)
        want = gauss_tail(u / math.sqrt(nu)) / 2**n
        assert abs(res.p - want) <= 3 * max(res.err_est, 1e-12), (n, res.p, want)

    # headline case: quarter tail at the flat corner of [0, pi]^2
    [val] = mec._face_term(cosine(), v2, (3.0,), SPEC, cone=True)
    assert val.p == pytest.approx(0.25 * gauss_tail(3.0 / S5), rel=1e-5)


def test_06_euler_characteristic_routes_agree():
    rng = np.random.default_rng(12345)
    for i in range(500):
        r = int(rng.integers(1, 21))
        c = int(rng.integers(1, 21))
        p = float(rng.uniform(0.2, 0.8))
        mask = rng.random((r, c)) < p
        assert empirical_ec(mask.astype(float), 0.5).chi == ec_oracle_2d(mask), i

    block = np.zeros((8, 8))
    block[2:7, 1:6] = 1.0
    assert empirical_ec(block, 0.5).chi == 1
    ring = np.zeros((8, 8))
    ring[1:5, 1:5] = 1.0
    ring[2:4, 2:4] = 0.0
    assert empirical_ec(ring, 0.5).chi == 0
    two = np.zeros((8, 8))
    two[0:2, 0:2] = 1.0
    two[5:8, 4:8] = 1.0
    assert empirical_ec(two, 0.5).chi == 2


def test_07_structural_properties():
    for n in range(1, 7):
        dom = RectDomain([0.0] * n, [1.0] * n)
        assert len(enumerate_faces(dom)) == 3**n, n

    dom = RectDomain([0.0, 0.0], [PI, PI])
    interior = enumerate_faces(dom)[0]
    [a] = mec._face_term(cosine(), interior, (6.0,), SPEC, cone=True)
    [b] = mec._face_term(cosine(), interior, (6.0,), SPEC, cone=False)
    assert a == b

    [res] = excursion_prob_mu(cosine(), dom, [7.0], SPEC)
    assert res.total == pytest.approx(
        math.fsum(v for _, v in res.per_face), abs=1e-12 * max(1.0, abs(res.total))
    )

    [t1] = excursion_prob_mu(cosine(), dom, [7.0], SPEC, threads=1)
    [t4] = excursion_prob_mu(cosine(), dom, [7.0], SPEC, threads=4)
    assert t1.total == t4.total
    assert [v for _, v in t1.per_face] == [v for _, v in t4.per_face]
    p1 = empirical_sup_prob(cosine(), dom, [2.0], 17, 600, seed=6, threads=1)
    p4 = empirical_sup_prob(cosine(), dom, [2.0], 17, 600, seed=6, threads=4)
    assert p1 == p4


def test_08_tau_hessian_reference_values():
    edge_dom = RectDomain([0.0, 0.0], [1.5 * PI, PI / 2])
    edge = Face(domain=edge_dom, sigma=(0,), epsilon=((1, 1),))
    h_edge = tau_hessian(cosine(), edge, [PI, PI / 2])
    assert h_edge.shape == (1, 1)
    assert abs(h_edge[0, 0] + 2.0) < 1e-5, h_edge

    int_dom = RectDomain([0.0, 0.0], [1.5 * PI, 1.5 * PI])
    interior = enumerate_faces(int_dom)[0]
    h_int = tau_hessian(cosine(), interior, [PI, PI])
    assert np.abs(h_int + 2.0 * np.eye(2)).max() < 1e-5, h_int
