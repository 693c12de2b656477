import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excursion_kit.errors import CapabilityError
from excursion_kit.geometry import (
    DomainError,
    Face,
    RectDomain,
    embed_points,
    enumerate_faces,
    face_label,
    face_of_point,
    outward_cone,
)

PI = math.pi


def test_face_count_small_dims():
    for n in range(1, 5):
        dom = RectDomain([0.0] * n, [1.0] * n)
        assert len(enumerate_faces(dom)) == 3**n


def test_face_order_is_deterministic_and_k_descending():
    dom = RectDomain([0.0, 0.0], [1.0, 2.0])
    labels = [face_label(f) for f in enumerate_faces(dom)]
    assert labels == [
        "2|{1,2}|{}",
        "1|{1}|{2:0}",
        "1|{1}|{2:1}",
        "1|{2}|{1:0}",
        "1|{2}|{1:1}",
        "0|{}|{1:0,2:0}",
        "0|{}|{1:0,2:1}",
        "0|{}|{1:1,2:0}",
        "0|{}|{1:1,2:1}",
    ]


def test_face_partition_covers_axes():
    dom = RectDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    for face in enumerate_faces(dom):
        fixed_axes = {j for j, _ in face.epsilon}
        assert fixed_axes.isdisjoint(face.sigma)
        assert sorted(fixed_axes | set(face.sigma)) == [0, 1, 2]
        assert face.k == len(face.sigma)


def test_fixed_values_and_free_bounds():
    dom = RectDomain([0.0, -1.0], [2.0, 3.0])
    face = Face(domain=dom, sigma=(0,), epsilon=((1, 1),))
    assert face.fixed_values().tolist() == [3.0]
    lo, hi = face.free_bounds()
    assert lo.tolist() == [0.0] and hi.tolist() == [2.0]


def test_outward_cone_signs():
    dom = RectDomain([0.0, 0.0], [1.0, 1.0])
    upper = Face(domain=dom, sigma=(0,), epsilon=((1, 1),))
    lower = Face(domain=dom, sigma=(0,), epsilon=((1, 0),))
    assert outward_cone(upper).constraints == ((1, 1),)
    assert outward_cone(lower).constraints == ((1, -1),)
    vertex = Face(domain=dom, sigma=(), epsilon=((0, 0), (1, 1)))
    assert outward_cone(vertex).constraints == ((0, -1), (1, 1))


def test_outward_cone_contains():
    dom = RectDomain([0.0, 0.0], [1.0, 1.0])
    vertex = Face(domain=dom, sigma=(), epsilon=((0, 1), (1, 1)))
    cone = outward_cone(vertex)
    assert cone.constraints == ((0, 1), (1, 1))


def test_face_of_point_classifies():
    dom = RectDomain([0.0, 0.0], [PI, PI])
    assert face_of_point(dom, [PI / 2, PI / 2]).k == 2
    edge = face_of_point(dom, [PI / 2, 0.0])
    assert edge.sigma == (0,) and edge.epsilon == ((1, 0),)
    vert = face_of_point(dom, [PI, PI])
    assert vert.k == 0 and vert.epsilon == ((0, 1), (1, 1))
    # snapping within tolerance
    snap = face_of_point(dom, [PI / 2, 1e-12], tol=1e-9)
    assert snap.sigma == (0,)


def test_degenerate_domain_names_axis():
    with pytest.raises(DomainError, match="axis 2"):
        RectDomain([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError, match="axis 1"):
        RectDomain([2.0], [1.0])


def test_nonfinite_domain_rejected():
    with pytest.raises(DomainError):
        RectDomain([0.0], [math.inf])


def test_face_cap():
    dom = RectDomain([0.0] * 7, [1.0] * 7)
    with pytest.raises(CapabilityError):
        enumerate_faces(dom)


def test_face_cap_is_six():
    assert len(enumerate_faces(RectDomain([0.0] * 6, [1.0] * 6))) == 3**6
    dom = RectDomain([0.0] * 7, [1.0] * 7)
    with pytest.raises(CapabilityError, match="N=6"):
        enumerate_faces(dom)


@st.composite
def domains(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    lower = draw(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n)
    )
    widths = draw(st.lists(st.floats(0.1, 5), min_size=n, max_size=n))
    upper = [a + w for a, w in zip(lower, widths)]
    return RectDomain(lower, upper)


@given(domains(), st.data())
@settings(max_examples=60, deadline=None)
def test_embedding_round_trips_through_classification(dom, data):
    faces = enumerate_faces(dom)
    face = data.draw(st.sampled_from(faces))
    if face.k:
        lo, hi = face.free_bounds()
        free = [
            data.draw(st.floats(a + 1e-3 * (b - a), b - 1e-3 * (b - a)))
            for a, b in zip(lo, hi)
        ]
    else:
        free = []
    t = embed_points(face, [free])[0]
    assert np.all(t >= dom.lower_arr) and np.all(t <= dom.upper_arr)
    back = face_of_point(dom, t, tol=1e-12)
    assert back.sigma == face.sigma and back.epsilon == face.epsilon


@given(domains())
@settings(max_examples=40, deadline=None)
def test_face_counts_by_dimension(dom):
    faces = enumerate_faces(dom)
    n = dom.dim
    for k in range(n + 1):
        got = sum(1 for f in faces if f.k == k)
        assert got == math.comb(n, k) * 2 ** (n - k)


def test_labels_are_unique():
    dom = RectDomain([0.0] * 3, [1.0] * 3)
    labels = [face_label(f) for f in enumerate_faces(dom)]
    assert len(set(labels)) == 27
