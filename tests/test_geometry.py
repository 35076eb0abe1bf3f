"""Geometry tests built around an independent successive-mirror oracle,
plus the scalar image recursion and back-trace that the batched kernel
replaced, kept here as its bit-exact reference."""

import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nfchan import geometry
from nfchan.errors import InvalidGeometry, SingularGeometry
from nfchan.geometry import (
    ImagePath,
    OrthoMap2,
    Room,
    Wall,
    compose,
    enumerate_images,
    feasible_images,
    point_in_polygon,
    reflection_linear_part,
    validate_path,
    wrap_angle,
)


def oracle_mirror(p, a, b):
    """Reference mirror across the line through a, b (independent arithmetic:
    projection onto the unit normal instead of the tangent)."""
    p = np.asarray(p, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d = b - a
    n = np.array([-d[1], d[0]]) / np.hypot(d[0], d[1])
    return p - 2.0 * np.dot(p - a, n) * n


def oracle_image(point, walls):
    """Mirror ``point`` across each (a, b) wall line in sequence."""
    z = np.asarray(point, float)
    for a, b in walls:
        z = oracle_mirror(z, a, b)
    return z


EPS = 1e-9


def scalar_mirror(p, wall):
    """Mirror across ``wall``'s line in the scalar arithmetic the kernel
    vectorizes (tangent projection, not :func:`oracle_mirror`'s normal)."""
    (ax, ay), (tx, ty), (px, py) = wall.a.tolist(), wall.direction.tolist(), p.tolist()
    dx, dy = px - ax, py - ay
    k = 2.0 * (dx * tx + dy * ty)
    return np.array([ax + k * tx - dx, ay + k * ty - dy])


def scalar_images(room, tx, max_order, rx, bounce_loss):
    """The per-image recursion: (sequence, image, map, gain) in
    breadth-first, lexicographic order."""
    def gain(order, z):
        return complex(bounce_loss ** order / np.linalg.norm(z - rx))

    out = [((), tx, OrthoMap2(), gain(0, tx))]
    frontier = [((), tx, OrthoMap2())]
    for _ in range(max_order):
        nxt = []
        for seq, z, q in frontier:
            for w in room.reflective_indices():
                if seq and seq[-1] == w:
                    continue
                wall = room.walls[w]
                nxt.append((seq + (w,), scalar_mirror(z, wall),
                            compose(reflection_linear_part(wall), q)))
        out += [(seq, z, q, gain(len(seq), z)) for seq, z, q in nxt]
        frontier = nxt
    return out


def scalar_crossing(p, q, a, b):
    """(t, u) of the crossing p + t (q - p) = a + u (b - a), or None when
    the segments are parallel."""
    r, s = q - p, b - a
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-15 * max(1.0, math.hypot(r[0], r[1]) * math.hypot(s[0], s[1])):
        return None
    d = a - p
    return (d[0] * s[1] - d[1] * s[0]) / denom, (d[0] * r[1] - d[1] * r[0]) / denom


def scalar_validate(room, seq, tx, rx):
    """Per-candidate back-trace and occlusion test: (feasible, polyline),
    the polyline None when the back-trace itself fails."""
    images = [tx]
    for w in seq:
        images.append(scalar_mirror(images[-1], room.walls[w]))
    points, target = [rx], rx
    for k in range(len(seq), 0, -1):
        wall = room.walls[seq[k - 1]]
        hit = scalar_crossing(target, images[k], wall.a, wall.b)
        if hit is None or not (EPS < hit[0] < 1.0 - EPS and -EPS <= hit[1] <= 1.0 + EPS):
            return False, None
        target = target + hit[0] * (images[k] - target)
        points.append(target)
    poly = np.array([tx] + points[::-1])
    for p, q in zip(poly[:-1], poly[1:]):
        if math.hypot(q[0] - p[0], q[1] - p[1]) <= EPS:
            return False, poly
        for wall in room.walls:
            hit = scalar_crossing(p, q, wall.a, wall.b)
            if hit is not None and -EPS <= hit[1] <= 1.0 + EPS and EPS < hit[0] < 1.0 - EPS:
                return False, poly
    return True, poly


def image_record(path):
    """Sequence, order and the exact bits of an image path's fields."""
    return (path.wall_sequence, path.order, path.image_point.tobytes(),
            np.float64(path.map.alpha).tobytes(), path.map.parity,
            np.complex128(path.gain).tobytes())


def rect_room(reflective=None):
    return Room.from_polygon([(0, 0), (20, 0), (20, 10), (0, 10)], reflective=reflective)


def random_room(rng, n_min=3, n_max=7):
    """Random star-shaped polygon around a random center (always simple)."""
    n = rng.integers(n_min, n_max + 1)
    center = rng.uniform(-5, 5, 2)
    # One vertex per angular sector, jitter kept away from the sector edges
    # so every gap stays below pi and the center is strictly interior.
    angles = (np.arange(n) + rng.uniform(0.3, 0.7, n)) * 2 * np.pi / n
    radii = rng.uniform(2.0, 8.0, n)
    verts = center + np.c_[radii * np.cos(angles), radii * np.sin(angles)]
    return Room.from_polygon(verts, interior=center)


class TestWrapAngle:
    def test_range_and_fixed_points(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)

    def test_always_in_half_open_interval(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-50, 50, 1000)
        w = wrap_angle(x)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        assert np.allclose(np.exp(1j * w), np.exp(1j * x), atol=1e-12)


class TestReflection:
    def test_linear_part_frozen_matrices(self):
        m_v = reflection_linear_part(Wall((0, -1), (0, 1)))  # vertical line x=0
        assert np.allclose(m_v.matrix(), [[-1, 0], [0, 1]], atol=1e-12)
        assert m_v.parity == -1
        assert m_v.alpha == pytest.approx(np.pi)

        m_h = reflection_linear_part(Wall((-1, 0), (1, 0)))  # horizontal line y=0
        assert np.allclose(m_h.matrix(), [[1, 0], [0, -1]], atol=1e-12)
        assert m_h.alpha == pytest.approx(0.0)

        m_d = reflection_linear_part(Wall((0, 0), (1, 1)))  # 45 degree line
        assert np.allclose(m_d.matrix(), [[0, 1], [1, 0]], atol=1e-12)

    def test_linear_part_matches_point_mirror(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a, b = rng.uniform(-5, 5, (2, 2))
            if np.linalg.norm(b - a) < 1e-3:
                continue
            wall = Wall(a, b)
            q = reflection_linear_part(wall)
            for _ in range(3):
                p = rng.uniform(-5, 5, 2)
                # linear part acts on displacements from any anchor on the line
                assert np.allclose(q.apply(p - a), oracle_mirror(p, a, b) - a, atol=1e-10)


class TestOrthoMap2:
    def test_det_equals_parity(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            q = OrthoMap2(alpha=rng.uniform(-np.pi, np.pi), parity=int(rng.choice([1, -1])))
            assert np.linalg.det(q.matrix()) == pytest.approx(q.parity, abs=1e-12)

    def test_compose_is_matrix_product(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            q1 = OrthoMap2(rng.uniform(-np.pi, np.pi), int(rng.choice([1, -1])))
            q2 = OrthoMap2(rng.uniform(-np.pi, np.pi), int(rng.choice([1, -1])))
            assert np.allclose(compose(q1, q2).matrix(), q1.matrix() @ q2.matrix(), atol=1e-12)

    def test_compose_two_mirrors_is_rotation_by_pi(self):
        q_h = reflection_linear_part(Wall((-1, 0), (1, 0)))   # y = 0
        q_v = reflection_linear_part(Wall((0, -1), (0, 1)))   # x = 0
        q = compose(q_h, q_v)
        assert q.parity == +1
        assert abs(wrap_angle(q.alpha - np.pi)) < 1e-12

    def test_inverse(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            q = OrthoMap2(rng.uniform(-np.pi, np.pi), int(rng.choice([1, -1])))
            assert np.allclose(q.inverse().matrix(), np.linalg.inv(q.matrix()), atol=1e-12)


class TestEnumerateImages:
    def test_first_order_rectangle(self):
        room = rect_room()
        paths = enumerate_images(room, (5, 3), max_order=1)
        assert paths[0].wall_sequence == ()
        assert np.allclose(paths[0].image_point, (5, 3))
        got = sorted(tuple(np.round(p.image_point, 9)) for p in paths[1:])
        assert got == sorted([(-5.0, 3.0), (35.0, 3.0), (5.0, -3.0), (5.0, 17.0)])
        for p in paths[1:]:
            assert p.map.parity == -1

    def test_sequence_counts_match_bound(self):
        room = rect_room()
        w = 4
        for k_max in (1, 2, 3):
            paths = enumerate_images(room, (5, 3), max_order=k_max)
            for k in range(1, k_max + 1):
                n_k = sum(1 for p in paths if p.order == k)
                assert n_k == w * (w - 1) ** (k - 1)
            assert sum(1 for p in paths if p.order == 0) == 1

    def test_no_immediate_repeats(self):
        paths = enumerate_images(rect_room(), (5, 3), max_order=3)
        for p in paths:
            s = p.wall_sequence
            assert all(s[i] != s[i + 1] for i in range(len(s) - 1))

    def test_image_map_matches_mirror_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            room = random_room(rng)
            tx0 = np.asarray(room.interior, float)
            paths = enumerate_images(room, tx0, max_order=3)
            probes = tx0 + rng.uniform(-0.5, 0.5, (3, 2))
            for p in paths:
                seq_walls = [(room.walls[w].a, room.walls[w].b) for w in p.wall_sequence]
                assert np.allclose(p.image_point, oracle_image(tx0, seq_walls), atol=1e-9)
                for x in probes:
                    z = p.image_point + p.map.apply(x - tx0)
                    assert np.allclose(z, oracle_image(x, seq_walls), atol=1e-9)

    def test_parity_equals_det_and_bounce_count(self):
        paths = enumerate_images(rect_room(), (5, 3), max_order=3)
        for p in paths:
            assert p.map.parity == (-1) ** p.order
            assert np.linalg.det(p.map.matrix()) == pytest.approx(p.map.parity, abs=1e-12)

    def test_gain_model(self):
        room = rect_room()
        rx = np.array([15.0, 4.0])
        paths = enumerate_images(room, (5, 3), max_order=2, rx_ref=rx, bounce_loss=0.5)
        for p in paths:
            d = np.linalg.norm(p.image_point - rx)
            assert abs(p.gain) == pytest.approx(0.5 ** p.order / d, rel=1e-12)
            assert p.gain.imag == 0.0

    def test_tx_outside_raises(self):
        with pytest.raises(InvalidGeometry):
            enumerate_images(rect_room(), (25, 3), max_order=1)

    def test_reflective_subset(self):
        room = rect_room(reflective=[1, 2, 3])  # wall 0 (floor) absorbs
        paths = enumerate_images(room, (5, 3), max_order=1)
        assert len(paths) == 4  # LOS + 3
        assert all(0 not in p.wall_sequence for p in paths)

    @pytest.mark.parametrize("enumerate_", [
        lambda room, tx, rx: enumerate_images(room, tx, 1, rx_ref=rx),
        lambda room, tx, rx: feasible_images(room, tx, rx, 1, 0.7),
    ])
    def test_image_on_rx_ref_raises(self, enumerate_):
        # (5, -3) is the floor image of the TX; it is infeasible, but
        # still refused by both entry points
        with pytest.raises(SingularGeometry):
            enumerate_(rect_room(), (5, 3), (5, -3))

    @pytest.mark.parametrize("bad", [2.7, True, np.True_, 0.5])
    def test_image_path_refuses_non_index_walls(self, bad):
        # int() would read 2.7 as wall 2 and True as wall 1
        with pytest.raises(InvalidGeometry, match=f"wall indices, got {bad!r}"):
            ImagePath((0, bad), (1.0, 2.0), OrthoMap2())


class TestValidatePath:
    def test_ceiling_bounce_feasible(self):
        room = rect_room()  # walls: 0 floor, 1 right, 2 ceiling, 3 left
        assert validate_path(room, [2], (5, 3), (15, 4))[0]

    def test_los_always_feasible_in_convex_room(self):
        rng = np.random.default_rng(19)
        room = rect_room()
        for _ in range(20):
            tx = rng.uniform((1, 1), (19, 9))
            rx = rng.uniform((1, 1), (19, 9))
            assert validate_path(room, [], tx, rx)[0]

    def test_specular_point_beyond_segment_is_rejected(self):
        # top wall only spans x in [0, 2]; a bounce between tx=(8,3), rx=(9,4)
        # would need a specular point near x=8.5
        verts = [(0, 0), (12, 0), (12, 9), (2, 9), (2, 10), (0, 10)]
        room = Room.from_polygon(verts, interior=(1.0, 5.0))
        top = next(
            k for k, w in enumerate(room.walls)
            if np.allclose(sorted([w.a[1], w.b[1]]), [10, 10])
        )
        assert not validate_path(room, [top], (8, 3), (9, 4))[0]

    def test_occluded_leg_is_rejected(self):
        # U-shaped room: LOS between the two prongs is blocked by the middle spur
        verts = [(0, 0), (10, 0), (10, 8), (6, 8), (6, 3), (4, 3), (4, 8), (0, 8)]
        room = Room.from_polygon(verts, interior=(5.0, 1.0))
        assert not validate_path(room, [], (2, 6), (8, 6))[0]
        assert validate_path(room, [], (2, 6), (5, 1))[0]

    def test_non_reflective_wall_in_sequence(self):
        room = rect_room(reflective=[0, 1, 2])  # wall 3 absorbs
        assert not validate_path(room, [3], (5, 3), (15, 4))[0]

    def test_immediate_repeat_rejected(self):
        room = rect_room()
        assert not validate_path(room, [2, 2], (5, 3), (15, 4))[0]

    @pytest.mark.parametrize("seq", [[4], [-1], [1, 9]])
    def test_wall_index_out_of_range(self, seq):
        with pytest.raises(InvalidGeometry, match="out of range"):
            validate_path(rect_room(), seq, (5, 3), (15, 4))

    def test_absorbing_wall_rejected_before_later_indices_are_read(self):
        room = rect_room(reflective=[0, 1, 2])  # wall 3 absorbs
        assert validate_path(room, [3, 9], (5, 3), (15, 4)) == (False, None)

    @pytest.mark.parametrize("seq", [[2.7], [True], [1, np.True_], [2, 0.5]])
    def test_non_index_walls_refused(self, seq):
        # int() would read 2.7 as wall 2 and True as wall 1
        match = f"wall indices, got {seq[-1]!r}"
        with pytest.raises(InvalidGeometry, match=match):
            validate_path(rect_room(), seq, (5, 3), (15, 4))

    def test_returns_specular_polyline(self):
        room = rect_room()
        ok, poly = validate_path(room, [2], (5, 3), (15, 4))
        assert ok
        assert poly[0] == pytest.approx([5, 3])
        assert poly[-1] == pytest.approx([15, 4])
        assert poly[1][1] == pytest.approx(10.0)  # bounce on the ceiling

    def test_infeasible_gives_no_polyline(self):
        room = rect_room(reflective=[0, 1, 2])
        ok, poly = validate_path(room, [3], (5, 3), (15, 4))
        assert not ok and poly is None

    def test_endpoint_specular_point_counts(self):
        # ceiling split into two collinear walls at x=10; pick rx so the
        # specular point lands exactly on the shared endpoint (10, 10)
        verts = [(0, 0), (20, 0), (20, 10), (10, 10), (0, 10)]
        room = Room.from_polygon(verts, interior=(10.0, 5.0))
        tx = np.array([5.0, 3.0])      # image across y=10 is (5, 17)
        rx = np.array([13.0, 5.8])     # rx->image crosses y=10 at x=10 exactly
        assert validate_path(room, [2], tx, rx)[0]   # wall 2: (20,10)->(10,10)


class TestUnfoldedPolyline:
    def test_polyline_length_equals_image_distance(self):
        rng = np.random.default_rng(20)
        room = rect_room()
        tx = np.array([5.0, 3.0])
        count = 0
        for p in enumerate_images(room, tx, max_order=2):
            for _ in range(5):
                rx = rng.uniform((1, 1), (19, 9))
                ok, poly = validate_path(room, p.wall_sequence, tx, rx)
                if not ok:
                    continue
                length = np.sum(np.linalg.norm(np.diff(poly, axis=0), axis=1))
                assert length == pytest.approx(np.linalg.norm(p.image_point - rx), abs=1e-9)
                count += 1
        assert count > 10


def star_room(rng, concave):
    """Random polygon around the origin: convex (vertices on a circle) or
    concave (radii alternating long and short), sometimes with only some
    walls reflective."""
    n = int(rng.integers(4 if concave else 3, 8))
    # one vertex per angular sector keeps every gap below pi
    angles = (np.arange(n) + rng.uniform(0.3, 0.7, n)) * 2 * np.pi / n
    radii = np.full(n, rng.uniform(3.0, 8.0))
    if concave:
        radii = np.where(np.arange(n) % 2, rng.uniform(1.5, 3.0, n), rng.uniform(5.0, 8.0, n))
    verts = np.c_[radii * np.cos(angles), radii * np.sin(angles)]
    reflective = None
    if rng.random() < 0.3:
        reflective = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
    return Room.from_polygon(verts, reflective=reflective, interior=(0.0, 0.0))


def inside_point(rng, room):
    """A point strictly inside ``room`` by rejection, or None."""
    verts = room.vertices()
    for _ in range(100):
        p = rng.uniform(verts.min(axis=0), verts.max(axis=0))
        if room.contains(p):
            return p
    return None


class TestBatchedKernel:
    """The image tree and the batched feasibility test against the scalar
    recursion and back-trace above: the same candidates in the same order
    and the same bits."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), concave=st.booleans(),
           max_order=st.integers(0, 3), block=st.sampled_from([1, 7, geometry._BLOCK]))
    def test_matches_scalar_oracle(self, seed, concave, max_order, block):
        rng = np.random.default_rng(seed)
        room = star_room(rng, concave)
        tx, rx = inside_point(rng, room), inside_point(rng, room)
        assume(tx is not None and rx is not None)

        paths = enumerate_images(room, tx, max_order, rx_ref=rx, bounce_loss=0.6)
        oracle = scalar_images(room, tx, max_order, rx, 0.6)
        assert [image_record(p) for p in paths] == [image_record(ImagePath(*o)) for o in oracle]

        feasible = []
        for p in paths:
            ok, poly = scalar_validate(room, p.wall_sequence, tx, rx)
            got_ok, got_poly = validate_path(room, p.wall_sequence, tx, rx)
            assert got_ok == ok
            if ok:
                assert got_poly.tobytes() == poly.tobytes()
                feasible.append(image_record(p))
            else:
                assert got_poly is None

        # a small block splits every order past the LOS into several blocks
        with mock.patch.object(geometry, "_BLOCK", block):
            got = feasible_images(room, tx, rx, max_order, 0.6)
        assert [image_record(p) for p in got] == feasible

    @pytest.mark.parametrize("block", [1, 3, geometry._BLOCK])
    @pytest.mark.parametrize("max_order", [0, 1, 4])
    @pytest.mark.parametrize("reflective", [None, [1]])
    def test_search_costs_count_the_back_trace(self, reflective, block, max_order):
        # every candidate is back-traced once, an order-k block in k
        # steps; one reflective wall has no images past order 1
        room = rect_room(reflective)
        tx, rx = np.array([5.0, 3.0]), np.array([15.0, 6.0])
        images = steps = 0
        backtrace = geometry._backtrace

        def counted(room, levels, rows, rx):
            nonlocal images, steps
            images, steps = images + len(rows), steps + len(levels) - 1
            return backtrace(room, levels, rows, rx)

        with mock.patch.object(geometry, "_BLOCK", block), \
                mock.patch.object(geometry, "_backtrace", counted):
            feasible_images(room, tx, rx, max_order, 0.6)
            costs = list(geometry.search_costs(room, max_order))
        assert len(costs) == 1 + (max_order if reflective is None else min(max_order, 1))
        assert costs[-1] == (images, steps)

    def test_parallel_legs_raise_no_warning(self):
        # tx and rx share y = 3, so the LOS leg and the first legs of the
        # side-wall bounces run parallel to floor and ceiling; rx = (35, 8)
        # puts the back-trace of the right-wall bounce on the wall's line.
        room = rect_room()
        tx = np.array([5.0, 3.0])
        cases = [((), (15.0, 3.0)), ((1,), (15.0, 3.0)), ((3, 1), (15.0, 3.0)),
                 ((1,), (35.0, 8.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [validate_path(room, seq, tx, rx)[0] for seq, rx in cases]
            images = feasible_images(room, tx, (15.0, 3.0), 2, 0.7)
        assert got == [scalar_validate(room, seq, tx, np.array(rx))[0] for seq, rx in cases]
        assert got == [True, True, True, False]
        assert [p.wall_sequence for p in images] == [
            p.wall_sequence for p in enumerate_images(room, tx, 2)
            if scalar_validate(room, p.wall_sequence, tx, np.array([15.0, 3.0]))[0]]


class TestRoom:
    def test_needs_three_walls(self):
        with pytest.raises(InvalidGeometry):
            Room(walls=[Wall((0, 0), (1, 0)), Wall((1, 0), (0, 0))])

    def test_walls_must_chain(self):
        with pytest.raises(InvalidGeometry):
            Room(walls=[Wall((0, 0), (1, 0)), Wall((2, 0), (0, 1)), Wall((0, 1), (0, 0))])

    def test_interior_must_be_inside(self):
        with pytest.raises(InvalidGeometry):
            Room.from_polygon([(0, 0), (1, 0), (1, 1), (0, 1)], interior=(5, 5))

    @pytest.mark.parametrize("index", [4, -1])
    def test_reflective_index_out_of_range(self, index):
        with pytest.raises(InvalidGeometry, match="out of range"):
            rect_room(reflective=[1, index])

    @pytest.mark.parametrize("reflective", [[True, False, True, True],
                                            [1.5, 2], [float("nan")]])
    def test_non_index_entries_rejected(self, reflective):
        # True/False would otherwise read as walls 1 and 0, 1.5 as wall 1
        with pytest.raises(InvalidGeometry, match="wall indices"):
            rect_room(reflective=reflective)

    def test_contains(self):
        room = rect_room()
        assert room.contains((10, 5))
        assert not room.contains((25, 5))
        assert not room.contains((0, 5))  # boundary counts as outside


class TestPointInPolygon:
    def test_square(self):
        square = [(0, 0), (2, 0), (2, 2), (0, 2)]
        assert point_in_polygon((1, 1), square)
        assert not point_in_polygon((3, 1), square)
        assert not point_in_polygon((2, 1), square)  # on edge
        assert not point_in_polygon((0, 0), square)  # on vertex

    def test_concave(self):
        poly = [(0, 0), (4, 0), (4, 4), (2, 2), (0, 4)]
        assert point_in_polygon((1, 1), poly)
        assert not point_in_polygon((2, 3.5), poly)
