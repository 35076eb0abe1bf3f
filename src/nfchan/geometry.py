"""2-D specular reflection geometry via the image-source construction.

A room is a simple polygon whose edges act as (optionally) reflecting
mirrors.  A multipath component that bounces off walls ``(w1, ..., wn)``
behaves, as seen from the receiver, like a straight ray from a virtual
source: the transmitter mirrored successively across the infinite lines
carrying those walls.  The whole mirror composition is affine,

    z(x) = z0 + Q (x - x0),

where ``z0`` is the image of the transmit reference ``x0`` and ``Q`` is an
orthogonal 2x2 matrix.  ``Q`` is stored in polar form ``Q = R(alpha) * S``
with ``R(alpha)`` a rotation and ``S = diag(1, parity)``; ``det Q = parity``
is +1 for an even number of bounces and -1 for an odd number.

Feasibility (does the specular chain actually hit the finite wall
segments, unobstructed?) is a separate concern handled by
:func:`validate_path`; the image map itself is exact for the infinite
mirror lines regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometry, SingularGeometry
from .validation import as_vec2, as_points

__all__ = [
    "Wall",
    "Room",
    "OrthoMap2",
    "ImagePath",
    "wrap_angle",
    "reflect_point",
    "reflection_linear_part",
    "compose",
    "enumerate_images",
    "validate_path",
    "unfolded_polyline",
    "point_in_polygon",
]


def wrap_angle(theta):
    """Wrap angle(s) to the half-open interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


@dataclass(eq=False)
class Wall:
    """A finite wall segment from ``a`` to ``b``.

    ``reflective`` marks whether the wall produces specular images; every
    wall blocks propagation either way.  ``direction``, the unit vector
    from ``a`` to ``b``, is computed once here.
    """

    a: np.ndarray
    b: np.ndarray
    reflective: bool = True
    direction: np.ndarray = field(init=False)

    def __post_init__(self):
        self.a = as_vec2(self.a, "wall endpoint a")
        self.b = as_vec2(self.b, "wall endpoint b")
        d = self.b - self.a
        length = np.linalg.norm(d)
        if length <= 0.0:
            raise InvalidGeometry("wall endpoints coincide")
        self.direction = d / length

    def __repr__(self):
        flag = "" if self.reflective else ", reflective=False"
        return f"Wall(({self.a[0]:g}, {self.a[1]:g}) -> ({self.b[0]:g}, {self.b[1]:g}){flag})"


@dataclass(eq=False)
class Room:
    """A simple polygonal room given as an ordered wall list.

    The walls must chain into a closed polygon (wall k ends where wall k+1
    starts).  ``interior`` is a point strictly inside, used as a sanity
    reference; it defaults to the vertex centroid, which is correct for
    convex and mildly concave rooms.
    """

    walls: list[Wall]
    interior: np.ndarray = None

    def __post_init__(self):
        if len(self.walls) < 3:
            raise InvalidGeometry("a room needs at least 3 walls")
        verts = self.vertices()
        for k, w in enumerate(self.walls):
            nxt = self.walls[(k + 1) % len(self.walls)]
            if not np.allclose(w.b, nxt.a, atol=1e-12):
                raise InvalidGeometry(
                    f"wall {k} does not chain into wall {(k + 1) % len(self.walls)}"
                )
        if self.interior is None:
            self.interior = verts.mean(axis=0)
        self.interior = as_vec2(self.interior, "interior point")
        if not point_in_polygon(self.interior, verts):
            raise InvalidGeometry("interior reference point is not strictly inside the polygon")

    @classmethod
    def from_polygon(cls, vertices, reflective=None, interior=None) -> "Room":
        """Build a room from polygon vertices (consecutive pairs become walls).

        Parameters
        ----------
        vertices : (n, 2) array_like
            Polygon corners in order (either orientation).
        reflective : sequence of int, optional
            Indices of the reflective walls (wall ``k`` ends at vertex
            ``k + 1``); a bool or a fraction is refused, not read as a wall.
            Default: all walls reflective.
        """
        verts = as_points(vertices, "vertices")
        n = len(verts)
        if n < 3:
            raise InvalidGeometry("polygon needs at least 3 vertices")
        flags = [reflective is None] * n
        for idx in () if reflective is None else reflective:
            if isinstance(idx, (bool, np.bool_)) or idx % 1:
                raise InvalidGeometry(
                    f"reflective takes wall indices, got {idx!r}")
            if not 0 <= idx < n:
                raise InvalidGeometry(f"wall index {idx} out of range "
                                      f"(room has {n} walls)")
            flags[int(idx)] = True
        walls = [Wall(verts[k], verts[(k + 1) % n], flags[k]) for k in range(n)]
        return cls(walls=walls, interior=interior)

    def vertices(self) -> np.ndarray:
        return np.array([w.a for w in self.walls])

    def reflective_indices(self) -> list[int]:
        return [k for k, w in enumerate(self.walls) if w.reflective]

    def contains(self, point) -> bool:
        return point_in_polygon(as_vec2(point), self.vertices())


@dataclass(frozen=True)
class OrthoMap2:
    """Orthogonal part of a mirror composition, ``Q = R(alpha) @ diag(1, parity)``."""

    alpha: float = 0.0
    parity: int = +1

    def __post_init__(self):
        if self.parity not in (+1, -1):
            raise InvalidGeometry(f"parity must be +1 or -1, got {self.parity}")
        object.__setattr__(self, "alpha", float(wrap_angle(self.alpha)))
        object.__setattr__(self, "parity", int(self.parity))

    def matrix(self) -> np.ndarray:
        c, s = np.cos(self.alpha), np.sin(self.alpha)
        # R(alpha) @ diag(1, parity): the parity sign lands on the second column
        return np.array([[c, -self.parity * s], [s, self.parity * c]])

    def apply(self, vectors) -> np.ndarray:
        """Apply to displacement vector(s) of shape (2,) or (n, 2)."""
        v = np.asarray(vectors, dtype=float)
        return v @ self.matrix().T

    def inverse(self) -> "OrthoMap2":
        # Q^-1 = diag(1, s) R(-alpha) = R(-s*alpha) diag(1, s)
        return OrthoMap2(alpha=-self.parity * self.alpha, parity=self.parity)

    @classmethod
    def from_matrix(cls, m) -> "OrthoMap2":
        m = np.asarray(m, dtype=float)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(abs(det) - 1.0) > 1e-9:
            raise InvalidGeometry(f"matrix is not orthogonal (det={det})")
        parity = +1 if det > 0 else -1
        # first column is (cos alpha, sin alpha) for either parity
        return cls(alpha=float(np.arctan2(m[1, 0], m[0, 0])), parity=parity)


@dataclass(eq=False)
class ImagePath:
    """A virtual-source path: wall bounce sequence, image of the TX reference,
    orthogonal map for TX displacements, and a scalar path gain."""

    wall_sequence: tuple[int, ...]
    image_point: np.ndarray
    map: OrthoMap2
    gain: complex = 1.0 + 0.0j

    def __post_init__(self):
        self.wall_sequence = tuple(int(w) for w in self.wall_sequence)
        self.image_point = as_vec2(self.image_point, "image point")
        self.gain = complex(self.gain)

    @property
    def order(self) -> int:
        return len(self.wall_sequence)


def reflect_point(point, wall: Wall) -> np.ndarray:
    """Mirror ``point`` across the infinite line carrying ``wall``."""
    return _mirror(as_vec2(point), wall)


def _mirror(p, wall):
    """:func:`reflect_point` for a point that is already a finite (2,) array."""
    (ax, ay), (tx, ty), (px, py) = wall.a.tolist(), wall.direction.tolist(), p.tolist()
    dx, dy = px - ax, py - ay
    k = 2.0 * (dx * tx + dy * ty)
    return np.array([ax + k * tx - dx, ay + k * ty - dy])


def reflection_linear_part(wall: Wall) -> OrthoMap2:
    """Linear part of the mirror across ``wall``'s line.

    A line at angle theta reflects displacements by the Householder matrix
    [[cos 2t, sin 2t], [sin 2t, -cos 2t]] = R(2t) @ diag(1, -1).
    """
    d = wall.b - wall.a
    theta = np.arctan2(d[1], d[0])
    return OrthoMap2(alpha=2.0 * theta, parity=-1)


def compose(outer: OrthoMap2, inner: OrthoMap2) -> OrthoMap2:
    """Composition ``outer after inner`` in closed form.

    Using diag(1,-1) R(a) diag(1,-1) = R(-a):
    R(a1) S1 R(a2) S2 = R(a1 + s1*a2) S(s1*s2).
    """
    return OrthoMap2(
        alpha=outer.alpha + outer.parity * inner.alpha,
        parity=outer.parity * inner.parity,
    )


def enumerate_images(room: Room, tx_ref, max_order: int,
                     rx_ref=None, bounce_loss: float = 0.7) -> list[ImagePath]:
    """Enumerate virtual sources up to ``max_order`` bounces.

    Walks every sequence of reflective wall indices without immediate
    repeats (reflecting twice in a row off the same wall is the identity).
    The line-of-sight path (empty sequence, identity map) is always first;
    deeper orders follow in breadth-first, lexicographic order.

    Feasibility of the specular chain is *not* checked here; combine with
    :func:`validate_path` to keep only physically realizable paths.

    Gain model: magnitude ``bounce_loss**order`` times free-space ``1/d``
    to ``rx_ref`` when ``rx_ref`` is given (unit distance otherwise);
    phase zero.

    Parameters
    ----------
    room : Room
    tx_ref : array_like, shape (2,)
        TX reference point; must lie strictly inside the room.
    max_order : int
        Maximum number of bounces (0 = LOS only).
    rx_ref : array_like, optional
        RX reference for the 1/d gain factor.
    bounce_loss : float
        Amplitude kept per bounce.

    Returns
    -------
    list of ImagePath
    """
    tx0 = as_vec2(tx_ref, "tx_ref")
    if max_order < 0:
        raise InvalidGeometry("max_order must be >= 0")
    if not room.contains(tx0):
        raise InvalidGeometry("tx_ref must lie strictly inside the room")
    rx0 = None if rx_ref is None else as_vec2(rx_ref, "rx_ref")

    def _gain(order, image):
        g = bounce_loss ** order
        if rx0 is not None:
            d = np.linalg.norm(image - rx0)
            if d <= 0.0:
                raise SingularGeometry("image point coincides with rx_ref")
            g = g / d
        return complex(g)

    out = [ImagePath((), tx0.copy(), OrthoMap2(), _gain(0, tx0))]
    refl = room.reflective_indices()
    frontier = [((), tx0, OrthoMap2())]
    for _ in range(max_order):
        nxt = []
        for seq, z, q in frontier:
            for w in refl:
                if seq and seq[-1] == w:
                    continue
                wall = room.walls[w]
                z2 = _mirror(z, wall)
                q2 = compose(reflection_linear_part(wall), q)
                s2 = seq + (w,)
                out.append(ImagePath(s2, z2, q2, _gain(len(s2), z2)))
                nxt.append((s2, z2, q2))
        frontier = nxt
    return out


def _segment_intersection(p, q, a, b):
    """Intersection of segments [p,q] and [a,b].

    Returns (t, u) with the crossing at p + t (q - p) = a + u (b - a),
    or None when the segments are parallel (including collinear).
    """
    r = q - p
    s = b - a
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-15 * max(1.0, math.hypot(r[0], r[1]) * math.hypot(s[0], s[1])):
        return None
    d = a - p
    t = (d[0] * s[1] - d[1] * s[0]) / denom
    u = (d[0] * r[1] - d[1] * r[0]) / denom
    return t, u


_EPS = 1e-9


def _backtrace(room: Room, seq, txp, rxp):
    """Specular points for a bounce sequence, or None when infeasible.

    With ``I_k`` the TX image after the first k mirrors, the bounce point
    on wall ``w_k`` is where the segment from the next bounce point (or the
    RX) to ``I_k`` crosses that wall; wall-segment endpoints count as valid
    (closed segments).
    """
    images = [txp]
    for w in seq:
        images.append(_mirror(images[-1], room.walls[w]))
    points = [rxp]
    target = rxp
    for k in range(len(seq), 0, -1):
        wall = room.walls[seq[k - 1]]
        hit = _segment_intersection(target, images[k], wall.a, wall.b)
        if hit is None:
            return None
        t, u = hit
        if not (_EPS < t < 1.0 - _EPS):
            return None
        if not (-_EPS <= u <= 1.0 + _EPS):
            return None
        target = target + t * (images[k] - target)
        points.append(target)
    points.append(txp)
    return np.array(points[::-1])  # tx, s_1, ..., s_n, rx


def validate_path(room: Room, wall_sequence, tx, rx):
    """Check that a bounce sequence is a feasible specular path from tx to rx.

    The specular points are reconstructed by back-tracing the unfolded
    straight sight line (see :func:`_backtrace`); afterwards every leg of
    the folded polyline must be free of walls strictly between its
    endpoints.  Sequences touching non-reflective walls or repeating a wall
    twice in a row are rejected outright.

    Returns
    -------
    (bool, ndarray or None)
        Feasibility flag and, when feasible, the physical polyline
        ``[tx, s_1, ..., s_n, rx]`` through the specular points.
    """
    txp = as_vec2(tx, "tx")
    rxp = as_vec2(rx, "rx")
    seq = [int(w) for w in wall_sequence]
    for w in seq:
        if not (0 <= w < len(room.walls)):
            raise InvalidGeometry(f"wall index {w} out of range")
        if not room.walls[w].reflective:
            return False, None
    if any(seq[i] == seq[i + 1] for i in range(len(seq) - 1)):
        return False, None

    polyline = _backtrace(room, seq, txp, rxp)
    if polyline is None:
        return False, None

    for i in range(len(polyline) - 1):
        p, q = polyline[i], polyline[i + 1]
        if math.hypot(q[0] - p[0], q[1] - p[1]) <= _EPS:
            return False, None
        for wall in room.walls:
            hit = _segment_intersection(p, q, wall.a, wall.b)
            if hit is None:
                continue
            t, u = hit
            if -_EPS <= u <= 1.0 + _EPS and _EPS < t < 1.0 - _EPS:
                return False, None
    return True, polyline


def unfolded_polyline(room: Room, wall_sequence, tx, rx) -> np.ndarray:
    """The folded bounce polyline [tx, s_1, ..., s_n, rx] for a feasible path.

    Raises InvalidGeometry when the specular chain is infeasible; occlusion
    is not rechecked here (use :func:`validate_path` first when in doubt).
    """
    polyline = _backtrace(
        room, [int(w) for w in wall_sequence], as_vec2(tx, "tx"), as_vec2(rx, "rx")
    )
    if polyline is None:
        raise InvalidGeometry("specular chain is infeasible for this tx/rx pair")
    return polyline


def point_in_polygon(point, vertices) -> bool:
    """Ray-casting containment test (points on the boundary count as outside)."""
    p = as_vec2(point)
    verts = as_points(vertices, "vertices")
    n = len(verts)
    inside = False
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        ab = b - a
        ap = p - a
        cross = ab[0] * ap[1] - ab[1] * ap[0]
        if abs(cross) < 1e-12 * max(1.0, np.linalg.norm(ab)) and (
            min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12
        ):
            return False
        if (a[1] > p[1]) != (b[1] > p[1]):
            x_cross = a[0] + (p[1] - a[1]) * (b[0] - a[0]) / (b[1] - a[1])
            if p[0] < x_cross:
                inside = not inside
    return inside
