"""Geometry tests built around an independent successive-mirror oracle."""

import numpy as np
import pytest

from nfchan.errors import InvalidGeometry
from nfchan.geometry import (
    OrthoMap2,
    Room,
    Wall,
    compose,
    enumerate_images,
    point_in_polygon,
    reflect_point,
    reflection_linear_part,
    unfolded_polyline,
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
    def test_reflect_point_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, p = rng.uniform(-10, 10, (3, 2))
            if np.linalg.norm(b - a) < 1e-3:
                continue
            wall = Wall(a, b)
            assert np.allclose(reflect_point(p, wall), oracle_mirror(p, a, b), atol=1e-12)

    def test_reflect_is_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b, p = rng.uniform(-10, 10, (3, 2))
            if np.linalg.norm(b - a) < 1e-3:
                continue
            wall = Wall(a, b)
            assert np.allclose(reflect_point(reflect_point(p, wall), wall), p, atol=1e-10)

    def test_ceiling_example(self):
        wall = Wall((0, 10), (20, 10))
        assert np.allclose(reflect_point((5, 3), wall), (5, 17))

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

    def test_from_matrix_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            q = OrthoMap2(rng.uniform(-np.pi, np.pi), int(rng.choice([1, -1])))
            q2 = OrthoMap2.from_matrix(q.matrix())
            assert q2.parity == q.parity
            assert abs(wrap_angle(q2.alpha - q.alpha)) < 1e-12

    def test_from_matrix_rejects_non_orthogonal(self):
        with pytest.raises(InvalidGeometry):
            OrthoMap2.from_matrix([[2, 0], [0, 1]])


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

    def test_returns_specular_polyline(self):
        room = rect_room()
        ok, poly = validate_path(room, [2], (5, 3), (15, 4))
        assert ok
        np.testing.assert_allclose(
            poly, unfolded_polyline(room, [2], (5, 3), (15, 4)))
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
                if not validate_path(room, p.wall_sequence, tx, rx)[0]:
                    continue
                poly = unfolded_polyline(room, p.wall_sequence, tx, rx)
                length = np.sum(np.linalg.norm(np.diff(poly, axis=0), axis=1))
                assert length == pytest.approx(np.linalg.norm(p.image_point - rx), abs=1e-9)
                count += 1
        assert count > 10

    def test_infeasible_raises(self):
        verts = [(0, 0), (12, 0), (12, 9), (2, 9), (2, 10), (0, 10)]
        room = Room.from_polygon(verts, interior=(1.0, 5.0))
        top = next(
            k for k, w in enumerate(room.walls)
            if np.allclose(sorted([w.a[1], w.b[1]]), [10, 10])
        )
        with pytest.raises(InvalidGeometry):
            unfolded_polyline(room, [top], (8, 3), (9, 4))


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
