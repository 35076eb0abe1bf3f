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

Both run as array computations.  The image tree grows one order at a
time: every image of an order is mirrored across every reflective wall
except its last one in a single step.  The feasibility test back-traces
and occlusion-tests a block of candidates at once.
:func:`enumerate_images`, :func:`validate_path`,
:func:`unfolded_polyline` and :func:`feasible_images` are views of
these two kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
    "feasible_images",
    "search_costs",
    "validate_path",
    "unfolded_polyline",
    "point_in_polygon",
]


def wrap_angle(theta):
    """Wrap angle(s) to the half-open interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


def _wall_index(idx, what, n_walls=None):
    """``idx`` as an int wall index, in range of ``n_walls`` when given.

    A bool or a fraction is refused, not truncated to a wall.
    """
    if isinstance(idx, (bool, np.bool_)) or idx % 1:
        raise InvalidGeometry(f"{what} takes wall indices, got {idx!r}")
    if n_walls is not None and not 0 <= idx < n_walls:
        raise InvalidGeometry(f"wall index {idx} out of range "
                              f"(room has {n_walls} walls)")
    return int(idx)


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
            flags[_wall_index(idx, "reflective", n)] = True
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
        self.wall_sequence = tuple(_wall_index(w, "wall_sequence")
                                   for w in self.wall_sequence)
        self.image_point = as_vec2(self.image_point, "image point")
        self.gain = complex(self.gain)

    @property
    def order(self) -> int:
        return len(self.wall_sequence)


def reflect_point(point, wall: Wall) -> np.ndarray:
    """Mirror ``point`` across the infinite line carrying ``wall``."""
    return _mirror(as_vec2(point), wall.a, wall.direction)


def _mirror(p, a, t):
    """Mirror points ``p`` across the lines through ``a`` along the unit
    vectors ``t``; all three broadcast as ``(..., 2)`` arrays."""
    d = p - a
    k = 2.0 * (d[..., 0] * t[..., 0] + d[..., 1] * t[..., 1])
    return a + k[..., None] * t - d


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


class _Level(NamedTuple):
    """One order k of the image tree, one row per candidate.

    Row i mirrors row ``parent[i]`` of order k - 1 across wall
    ``wall[i]``, which puts the TX reference at ``image[i]``.  ``alpha``
    is the map angle before its wrap, so that :class:`OrthoMap2` wraps
    it once, as it does the result of :func:`compose`.  Every row of
    order k has parity ``(-1)**k``.
    """

    parent: np.ndarray
    wall: np.ndarray
    image: np.ndarray
    alpha: np.ndarray


def _wall_arrays(room: Room):
    """Start points, end points and unit directions of the walls, (n, 2) each."""
    return tuple(np.array([getattr(w, f) for w in room.walls])
                 for f in ("a", "b", "direction"))


def _root(tx) -> _Level:
    # wall -1 keeps every wall open to the first bounce
    return _Level(np.zeros(1, np.intp), np.full(1, -1), tx[None], np.zeros(1))


def _image_tree(room: Room, tx_ref, max_order: int) -> list[_Level]:
    """Orders 0 .. max_order of the image tree, in breadth-first,
    lexicographic order; it stops early at an order with no images."""
    tx0 = as_vec2(tx_ref, "tx_ref")
    if max_order < 0:
        raise InvalidGeometry("max_order must be >= 0")
    if not room.contains(tx0):
        raise InvalidGeometry("tx_ref must lie strictly inside the room")
    a, _, t = _wall_arrays(room)
    turn = np.array([reflection_linear_part(w).alpha for w in room.walls])
    refl = np.array(room.reflective_indices(), dtype=np.intp)
    levels = [_root(tx0)]
    while len(levels) <= max_order and levels[-1].wall.size:
        last = levels[-1]
        # parent-major, walls ascending: lexicographic within the order
        parent, col = np.nonzero(last.wall[:, None] != refl)
        wall = refl[col]
        levels.append(_Level(parent, wall,
                             _mirror(last.image[parent], a[wall], t[wall]),
                             turn[wall] - wrap_angle(last.alpha[parent])))
    return levels


def _chain(room: Room, tx, seq) -> list[_Level]:
    """The image tree of the one wall sequence ``seq``: one row per order,
    without map angles (the feasibility test does not read them)."""
    a, _, t = _wall_arrays(room)
    levels = [_root(tx)]
    for w in seq:
        image = _mirror(levels[-1].image, a[w], t[w])
        levels.append(_Level(np.zeros(1, np.intp), np.full(1, w), image, None))
    return levels


def _sequences(levels, rows) -> np.ndarray:
    """Wall sequences, shape (len(rows), k), of ``rows`` of the last order."""
    seq = np.empty((len(rows), len(levels) - 1), dtype=np.intp)
    for j in range(len(levels) - 1, 0, -1):
        seq[:, j - 1] = levels[j].wall[rows]
        rows = levels[j].parent[rows]
    return seq


def _image_paths(levels, rows, rx0, bounce_loss) -> list[ImagePath]:
    """Rows ``rows`` of the last order as :class:`ImagePath` objects.

    Gain model: ``bounce_loss**order`` times free-space ``1/d`` to
    ``rx0`` (unit distance when ``rx0`` is None), phase zero.
    """
    order, last = len(levels) - 1, levels[-1]
    out = []
    for row, seq in zip(rows, _sequences(levels, rows).tolist()):
        image = last.image[row].copy()
        gain = bounce_loss ** order
        if rx0 is not None:
            d = np.linalg.norm(image - rx0)
            if d <= 0.0:
                raise SingularGeometry("image point coincides with rx_ref")
            gain = gain / d
        out.append(ImagePath(tuple(seq), image,
                             OrthoMap2(last.alpha[row], (-1) ** order),
                             complex(gain)))
    return out


def enumerate_images(room: Room, tx_ref, max_order: int,
                     rx_ref=None, bounce_loss: float = 0.7) -> list[ImagePath]:
    """Enumerate virtual sources up to ``max_order`` bounces.

    Walks every sequence of reflective wall indices without immediate
    repeats (reflecting twice in a row off the same wall is the identity).
    The line-of-sight path (empty sequence, identity map) is always first;
    deeper orders follow in breadth-first, lexicographic order.  The image
    tree is built one order per array step; this wraps each of its rows
    in an :class:`ImagePath`.

    Feasibility of the specular chain is *not* checked here; combine with
    :func:`validate_path`, or call :func:`feasible_images`, to keep only
    physically realizable paths.

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
    levels = _image_tree(room, tx_ref, max_order)
    rx0 = None if rx_ref is None else as_vec2(rx_ref, "rx_ref")
    out = []
    for k, level in enumerate(levels):
        out += _image_paths(levels[:k + 1], np.arange(len(level.wall)),
                            rx0, bounce_loss)
    return out


def feasible_images(room: Room, tx_ref, rx_ref, max_order: int,
                    bounce_loss: float) -> list[ImagePath]:
    """The feasible paths among :func:`enumerate_images`'s, in its order.

    The same as keeping each image of ``enumerate_images(room, tx_ref,
    max_order, rx_ref, bounce_loss)`` that :func:`validate_path` accepts
    between ``tx_ref`` and ``rx_ref``, but without a Python call per
    candidate: each order of the image tree is back-traced and
    occlusion-tested in blocks of candidates, and only the feasible ones
    become :class:`ImagePath` objects.
    """
    levels = _image_tree(room, tx_ref, max_order)
    rx0 = as_vec2(rx_ref, "rx_ref")
    # enumerate_images refuses an image on rx_ref, feasible or not
    for level in levels:
        if np.any(np.linalg.norm(level.image - rx0, axis=1) <= 0.0):
            raise SingularGeometry("image point coincides with rx_ref")
    out = []
    for k, level in enumerate(levels):
        tree, n = levels[:k + 1], len(level.wall)
        for start in range(0, n, _BLOCK):
            rows = np.arange(start, min(start + _BLOCK, n))
            live = _unblocked(room, *_backtrace(room, tree, rows, rx0))
            out += _image_paths(tree, rows[live], rx0, bounce_loss)
    return out


def search_costs(room: Room, max_order: int):
    """Running totals of the work of :func:`feasible_images`.

    Yields ``(images, steps)`` after each order 0, 1, ... of the image
    tree, until ``max_order`` or an order with no images: the candidate
    images so far (``1 + sum_k r (r - 1)**(k - 1)`` over the ``r``
    reflective walls) and the sequential back-trace steps, ``k`` for
    each block of ``_BLOCK`` order-``k`` candidates.  Lazy, so a caller
    may stop at a cap without walking a huge ``max_order``.
    """
    r = len(room.reflective_indices())
    images, steps, term = 1, 0, r
    yield images, steps
    for order in range(1, max_order + 1):
        if not term:
            return
        images, steps = images + term, steps + order * -(-term // _BLOCK)
        term *= r - 1
        yield images, steps


_EPS = 1e-9
# Candidates per back-trace block and legs per occlusion block: the
# feasibility arrays stay this many rows long however many images the
# tree holds.
_BLOCK = 1024


def _crossing(p, q, a, b):
    """Crossings of segments [p, q] with segments [a, b], all broadcast as
    ``(..., 2)`` arrays.

    Returns ``t``, with the crossing at ``p + t (q - p)``, and ``hit``:
    the crossing lies strictly inside [p, q] and on the closed [a, b],
    both by ``_EPS``.  Parallel (including collinear) segments never
    cross; their ``t`` is NaN.
    """
    r, s, d = q - p, b - a, a - p
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    crosses = np.abs(denom) >= 1e-15 * np.maximum(
        1.0, np.hypot(r[..., 0], r[..., 1]) * np.hypot(s[..., 0], s[..., 1]))
    t = np.divide(d[..., 0] * s[..., 1] - d[..., 1] * s[..., 0], denom,
                  out=np.full(denom.shape, np.nan), where=crosses)
    u = np.divide(d[..., 0] * r[..., 1] - d[..., 1] * r[..., 0], denom,
                  out=np.full(denom.shape, np.nan), where=crosses)
    hit = (_EPS < t) & (t < 1.0 - _EPS) & (-_EPS <= u) & (u <= 1.0 + _EPS)
    return t, hit


def _backtrace(room: Room, levels, rows, rx):
    """Specular points of the candidates ``rows`` of the last order.

    With ``I_j`` a candidate's image after its first j mirrors (its
    ancestor in order j), the bounce point on wall ``w_j`` is where the
    segment from the next bounce point (or the RX) to ``I_j`` crosses
    that wall; wall-segment endpoints count as valid (closed segments).

    Returns the positions in ``rows`` whose every bounce point lands on
    its wall, and polylines ``[tx, s_1, ..., s_k, rx]`` for all of
    ``rows`` (those of the other positions are left unset).
    """
    a, b, _ = _wall_arrays(room)
    k = len(levels) - 1
    poly = np.empty((len(rows), k + 2, 2))
    poly[:, 0] = levels[0].image[0]
    poly[:, -1] = rx
    live, anc, target = np.arange(len(rows)), np.asarray(rows), poly[:, -1].copy()
    for j in range(k, 0, -1):
        level = levels[j]
        wall, image = level.wall[anc], level.image[anc]
        t, hit = _crossing(target, image, a[wall], b[wall])
        target = target[hit] + t[hit][:, None] * (image[hit] - target[hit])
        live, anc = live[hit], level.parent[anc[hit]]
        poly[live, j] = target
    return live, poly


def _unblocked(room: Room, live, poly):
    """The positions in ``live`` whose polyline legs are all longer than
    ``_EPS`` and cross no wall strictly between their endpoints."""
    a, b, _ = _wall_arrays(room)
    p, q = poly[live, :-1].reshape(-1, 2), poly[live, 1:].reshape(-1, 2)
    ok = np.hypot(*(q - p).T) > _EPS
    for start in range(0, len(ok), _BLOCK):
        legs = slice(start, start + _BLOCK)
        ok[legs] &= ~_crossing(p[legs, None], q[legs, None], a, b)[1].any(axis=1)
    return live[ok.reshape(len(live), poly.shape[1] - 1).all(axis=1)]


def validate_path(room: Room, wall_sequence, tx, rx):
    """Check that a bounce sequence is a feasible specular path from tx to rx.

    The specular points are reconstructed by back-tracing the unfolded
    straight sight line (see :func:`_backtrace`); afterwards every leg of
    the folded polyline must be free of walls strictly between its
    endpoints.  Sequences touching non-reflective walls or repeating a wall
    twice in a row are rejected outright; a wall index that is out of
    range, a bool or a fraction raises :class:`InvalidGeometry`.  This is
    the one-candidate case of the batched kernel that
    :func:`feasible_images` runs over whole orders of the image tree.

    Returns
    -------
    (bool, ndarray or None)
        Feasibility flag and, when feasible, the physical polyline
        ``[tx, s_1, ..., s_n, rx]`` through the specular points.
    """
    txp = as_vec2(tx, "tx")
    rxp = as_vec2(rx, "rx")
    seq = []
    for w in wall_sequence:
        seq.append(_wall_index(w, "wall_sequence", len(room.walls)))
        if not room.walls[seq[-1]].reflective:
            return False, None
    if any(seq[i] == seq[i + 1] for i in range(len(seq) - 1)):
        return False, None
    live, poly = _backtrace(room, _chain(room, txp, seq), [0], rxp)
    if not _unblocked(room, live, poly).size:
        return False, None
    return True, poly[0]


def unfolded_polyline(room: Room, wall_sequence, tx, rx) -> np.ndarray:
    """The folded bounce polyline [tx, s_1, ..., s_n, rx] for a feasible path.

    Raises InvalidGeometry when the specular chain is infeasible; occlusion
    is not rechecked here (use :func:`validate_path` first when in doubt).
    """
    seq = [_wall_index(w, "wall_sequence", len(room.walls))
           for w in wall_sequence]
    live, poly = _backtrace(room, _chain(room, as_vec2(tx, "tx"), seq), [0],
                            as_vec2(rx, "rx"))
    if not live.size:
        raise InvalidGeometry("specular chain is infeasible for this tx/rx pair")
    return poly[0]


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
