"""Multipath channel parameters and frequency-domain synthesis.

Every propagation path, direct or reflected, is summarized by a small
parameter tuple measured at a pair of reference points: a complex gain,
the absolute time of flight ``tau`` from the receive reference, the
arrival bearing ``aoa`` at the receive reference, the departure bearing
``aod`` at the transmit reference, and the ``parity`` of the cascaded
reflections.  Together with the orthogonal map tying transmit-side
displacements to displacements of the mirrored transmitter, these
numbers reproduce the exact path length for *any* nearby element pair,
which is what makes wideband synthesis over an aperture cheap.

Two distance models are provided: the exact mirrored-source form and its
first-order (plane-wave) approximation around the reference points.

Synthesis runs on one batched kernel.  :func:`path_lengths` writes both
distance formulas once and evaluates every path over the whole element
grid in one broadcast; :func:`tone_phasors` turns lengths into tone
phasors with a three-level split of the uniform comb (:func:`comb_phasors`,
tone ``i = a * M * B + m * B + b``, about ``cbrt(F)`` on each level), so
each length costs ``A + M + B`` complex exponentials (24 at F = 512)
and two outer products instead of ``F`` exponentials.  The estimator
builds its atom factors on the same kernel.  :func:`synth_channel` folds
each path's gain into its coarse factor and sums the terms ``gain_l *
phasor_l`` a chunk of paths at a time, in input order, which keeps every
path's contribution bit-identical however the paths are grouped.  The
one-path distance functions and the exact response atom of the estimator
are views of the same kernel.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyChannel, InvalidGeometry, SingularGeometry
from .geometry import ImagePath, OrthoMap2, wrap_angle
from .validation import (as_points, as_vec2, check_finite, check_parity,
                         check_positive)

SPEED_OF_LIGHT = 299_792_458.0
"""Propagation speed used throughout, in meters per second."""


def unit_vector(theta):
    """Unit vector(s) ``(cos theta, sin theta)`` with shape ``theta.shape + (2,)``."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def aod_from_aoa(aoa, alpha, parity):
    """Departure bearing implied by an arrival bearing and a reflection map.

    The mirrored transmitter sits along ``unit_vector(aoa)`` from the
    receive reference; pulling the reversed ray back through the
    reflection cascade gives the physical departure direction
    ``-inverse(Q) @ unit_vector(aoa)``, whose bearing reduces to
    ``parity * (aoa - alpha) + pi``.
    """
    return wrap_angle(np.asarray(parity) * (np.asarray(aoa) - np.asarray(alpha)) + np.pi)


def alpha_from_bearings(aoa, aod, parity):
    """Rotation phase of the reflection map recovered from the two bearings.

    Inverse of :func:`aod_from_aoa`: ``alpha = aoa - parity * (aod - pi)``.
    """
    return wrap_angle(np.asarray(aoa) - np.asarray(parity) * (np.asarray(aod) - np.pi))


@dataclass(eq=False)
class RmPathParams:
    """Mirrored-source description of one path.

    Parameters
    ----------
    gain : complex
        Path amplitude and phase, referenced to the element pair sitting
        exactly at the reference points.
    tau : float
        Absolute time of flight between the reference points, seconds.
    aoa : float
        Bearing of the mirrored transmitter seen from the receive
        reference, radians in ``(-pi, pi]``.
    aod : float
        Physical departure bearing at the transmit reference.
    parity : int
        ``+1`` after an even number of reflections, ``-1`` after an odd
        number.  Equals the determinant of the reflection map.

    The map's rotation phase ``alpha`` is derived from the bearings and
    the parity, so the three can never fall out of sync.
    """

    gain: complex
    tau: float
    aoa: float
    aod: float
    parity: int = 1

    def __post_init__(self):
        check_positive(self.tau, "tau")
        check_parity(self.parity)
        self.aoa = wrap_angle(check_finite(float(self.aoa), "aoa"))
        self.aod = wrap_angle(check_finite(float(self.aod), "aod"))
        self.gain = check_finite(complex(self.gain), "gain")

    @property
    def alpha(self):
        """Rotation phase of the reflection map."""
        return alpha_from_bearings(self.aoa, self.aod, self.parity)

    @property
    def map(self):
        """Orthogonal map from transmit displacements to image displacements."""
        return OrthoMap2(alpha=self.alpha, parity=self.parity)

    def image_point(self, rx_ref):
        """Mirrored-transmitter location implied by ``(tau, aoa)``."""
        rx_ref = as_vec2(rx_ref, "rx_ref")
        return rx_ref + SPEED_OF_LIGHT * self.tau * unit_vector(self.aoa)


def rm_from_alpha(gain, tau, aoa, alpha, parity):
    """Build :class:`RmPathParams` from the map phase instead of the aod."""
    return RmPathParams(
        gain=gain,
        tau=tau,
        aoa=aoa,
        aod=aod_from_aoa(aoa, alpha, parity),
        parity=parity,
    )


@dataclass(eq=False)
class PwaPathParams:
    """First-order description of one path over a measurement campaign.

    Parameters
    ----------
    gains : (K,) complex array
        One complex gain per measurement; captures lacking a shared
        phase reference force the gain to be placement-local.
    delta : float
        Relative delay in seconds, nonnegative by the convention that
        the earliest path of a set sits at zero.
    aoa, aod : float
        Arrival and departure bearings, radians.
    """

    gains: np.ndarray
    delta: float
    aoa: float
    aod: float

    def __post_init__(self):
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        self.delta = float(self.delta)
        if not np.isfinite(self.delta) or self.delta < 0:
            raise InvalidGeometry("delta must be finite and nonnegative")
        self.aoa = wrap_angle(float(self.aoa))
        self.aod = wrap_angle(float(self.aod))

    @property
    def strength(self):
        """Sum of squared gain magnitudes; ranks paths by absorbed energy."""
        return float(np.sum(np.abs(self.gains) ** 2))

    def amplitude(self):
        """Root-mean-square gain magnitude across measurements."""
        return float(np.sqrt(np.mean(np.abs(self.gains) ** 2)))


def image_to_rm_params(path: ImagePath, tx_ref, rx_ref) -> RmPathParams:
    """Parameter tuple of a geometric image path at a reference pair.

    ``tx_ref`` must be the point the image geometry was enumerated from;
    it fixes the convention and is kept explicit because every parameter
    is meaningless without its reference pair.
    """
    as_vec2(tx_ref, "tx_ref")
    rx_ref = as_vec2(rx_ref, "rx_ref")
    sep = path.image_point - rx_ref
    dist = float(np.hypot(*sep))
    if dist <= 0.0:
        raise SingularGeometry(
            "mirrored transmitter coincides with the receive reference")
    aoa = float(np.arctan2(sep[1], sep[0]))
    return rm_from_alpha(
        gain=path.gain,
        tau=dist / SPEED_OF_LIGHT,
        aoa=aoa,
        alpha=path.map.alpha,
        parity=path.map.parity,
    )


def path_lengths(paths, x_r, x_t, rx_ref, tx_ref, model="rm"):
    """Lengths of every path for element positions ``x_r`` and ``x_t``.

    ``model="rm"`` gives the exact mirrored-source length.  The mirrored
    transmitter for an element at ``x_t`` sits at ``z0 + Q (x_t -
    tx_ref)`` with ``z0`` the image of the reference, so the
    straight-line distance from ``x_r`` is

    ``|| (x_r - rx_ref) - c * tau * u(aoa) - Q (x_t - tx_ref) ||``.

    ``model="pwa"`` gives its first-order expansion around the reference
    points, ``c * tau - u(aoa) . (x_r - rx_ref) - u(aod) . (x_t -
    tx_ref)``: exact at the references and accurate to second order in
    the displacements.

    ``x_r`` and ``x_t`` may carry leading batch dimensions; they
    broadcast against each other, and the result has shape ``(L,) +
    batch`` for ``L`` paths.
    """
    if model not in ("rm", "pwa"):
        raise ValueError(f"unknown distance model {model!r}")
    dr = np.asarray(x_r, dtype=float) - as_vec2(rx_ref, "rx_ref")
    dt = np.asarray(x_t, dtype=float) - as_vec2(tx_ref, "tx_ref")
    batch = np.broadcast_shapes(dr.shape[:-1], dt.shape[:-1])

    def column(values):
        return np.array(values, dtype=float).reshape((-1,) + (1,) * len(batch))

    base = SPEED_OF_LIGHT * column([p.tau for p in paths])
    aoa = column([p.aoa for p in paths])
    aod = column([p.aod for p in paths])
    rx, ry, tx, ty = dr[..., 0], dr[..., 1], dt[..., 0], dt[..., 1]
    if model == "pwa":
        return (base - (rx * np.cos(aoa) + ry * np.sin(aoa))
                - (tx * np.cos(aod) + ty * np.sin(aod)))
    parity = column([p.parity for p in paths])
    alpha = alpha_from_bearings(aoa, aod, parity)
    c, s = np.cos(alpha), np.sin(alpha)
    # Q = R(alpha) @ diag(1, parity), as in OrthoMap2.matrix
    sep_x = rx - base * np.cos(aoa) - (c * tx - parity * s * ty)
    sep_y = ry - base * np.sin(aoa) - (s * tx + parity * c * ty)
    return np.hypot(sep_x, sep_y)


def path_distance_rm(params: RmPathParams, x_r, x_t, rx_ref, tx_ref):
    """Exact path length of one path; see :func:`path_lengths`.

    ``x_r`` and ``x_t`` may carry leading batch dimensions; they
    broadcast against each other and the result drops the trailing axis.
    """
    return path_lengths([params], x_r, x_t, rx_ref, tx_ref, "rm")[0]


def path_distance_tx_form(params: RmPathParams, x_r, x_t, rx_ref, tx_ref):
    """Same length as :func:`path_distance_rm`, written from the transmit side.

    Mirrors the receive element back through the inverse map instead of
    mirroring the transmitter forward; the two forms agree to rounding
    because the map is orthogonal.
    """
    x_r = np.asarray(x_r, dtype=float)
    x_t = np.asarray(x_t, dtype=float)
    rx_ref = as_vec2(rx_ref, "rx_ref")
    tx_ref = as_vec2(tx_ref, "tx_ref")
    inv = params.map.inverse()
    sep = (x_t - tx_ref) - SPEED_OF_LIGHT * params.tau * unit_vector(params.aod)
    sep = sep - (x_r - rx_ref) @ inv.matrix().T
    return np.linalg.norm(sep, axis=-1)


def path_distance_pwa(params, x_r, x_t, rx_ref, tx_ref):
    """First-order path length of one path; see :func:`path_lengths`."""
    return path_lengths([params], x_r, x_t, rx_ref, tx_ref, "pwa")[0]


@dataclass(eq=False)
class FrequencyGrid:
    """Uniform tone comb of ``num_tones`` frequencies across ``bandwidth``.

    Tone ``i`` sits at ``center - bandwidth/2 + i * bandwidth /
    num_tones``, so the spacing is ``bandwidth / num_tones`` and an
    inverse DFT over the tones yields delay bins ``1 / bandwidth``
    apart.
    """

    center: float
    bandwidth: float
    num_tones: int

    def __post_init__(self):
        check_positive(self.center, "center")
        check_positive(self.bandwidth, "bandwidth")
        if int(self.num_tones) != self.num_tones or self.num_tones < 2:
            raise InvalidGeometry("num_tones must be an integer >= 2")
        self.num_tones = int(self.num_tones)
        if self.center <= self.bandwidth / 2.0:
            raise InvalidGeometry("band edge reaches below zero frequency")

    @property
    def spacing(self):
        return self.bandwidth / self.num_tones

    @property
    def comb(self):
        """The tones as a :class:`ToneComb`."""
        return ToneComb(self.center - self.bandwidth / 2.0, self.spacing,
                        self.num_tones)

    def tones(self):
        """All tone frequencies in Hz, shape ``(num_tones,)``."""
        return self.comb.tones()


class ToneComb(NamedTuple):
    """Uniform comb of ``n`` frequencies ``start + i * spacing``."""

    start: float
    spacing: float
    n: int

    def tones(self):
        return self.start + np.arange(self.n, dtype=float) * self.spacing


@functools.lru_cache(maxsize=64)
def _level_offsets(comb: ToneComb):
    """Frequencies of the coarse, mid and fine levels of ``comb``.

    Tone ``i = a * M * B + m * B + b`` sits at ``coarse[a] + mid[m] +
    fine[b]``, with the start in the coarse level.  The lengths ``(A, M,
    B)`` are the split with the fewest exponentials ``A + M + B`` whose
    product covers the comb, then the fewest padded tones, then the
    shortest coarse level: (8, 8, 8) at ``n = 512``, (4, 4, 8) at 128.
    All three equal to ``ceil(cbrt(n))`` covers the comb, so no level of
    the best split is longer than ``3 * ceil(cbrt(n)) - 2``.  Read-only
    arrays, cached per comb.
    """
    n, c = comb.n, 1
    while c ** 3 < n:
        c += 1
    sizes = range(1, 3 * c - 1)
    a, m, b = min(((-(-n // (m * b)), m, b) for m in sizes for b in sizes),
                  key=lambda s: (sum(s), math.prod(s), s))
    levels = (comb.start + np.arange(0, a * m * b, m * b, dtype=float) * comb.spacing,
              np.arange(0, m * b, b, dtype=float) * comb.spacing,
              np.arange(b, dtype=float) * comb.spacing)
    for level in levels:
        level.setflags(write=False)
    return levels


def _comb_factors(x, k, comb: ToneComb):
    """The two factors of :func:`comb_phasors` before their outer product.

    ``coarse`` has shape ``x.shape + (A,)`` and ``inner``, the mid and
    fine levels already multiplied out, ``x.shape + (M * B,)``; tone ``i
    = a * M * B + j`` is ``coarse[..., a] * inner[..., j]``.
    """
    coarse_f, mid_f, fine_f = _level_offsets(comb)
    kx = k * np.asarray(x, dtype=float)[..., None]
    inner = np.exp(kx * mid_f)[..., :, None] * np.exp(kx * fine_f)[..., None, :]
    return (np.exp(kx * coarse_f),
            inner.reshape(kx.shape[:-1] + (mid_f.size * fine_f.size,)))


def _comb_product(coarse, inner, n):
    """The phasors of :func:`_comb_factors`' ``coarse`` and ``inner``:
    their outer product over the last axis, flattened to tone order and
    truncated to the comb's ``n`` tones (a view when the split pads)."""
    out = coarse[..., :, None] * inner[..., None, :]
    size = coarse.shape[-1] * inner.shape[-1]
    return out.reshape(out.shape[:-2] + (size,))[..., :n]


def comb_phasors(x, k, comb: ToneComb):
    """``exp(k * x * f_i)`` of every ``x`` at every tone of ``comb``.

    The tone index is split on three levels, ``i = a * M * B + m * B +
    b`` (:func:`_level_offsets`), so ``f_i`` is the sum of a coarse
    frequency (which holds the start), a mid one and a fine one, and
    each phasor is the product of their three exponentials: ``A + M +
    B`` complex exponentials per ``x`` instead of ``n`` (24 at ``n =
    512``, 16 at 128).  The mid and fine factors are multiplied out
    first, so the long ``M * B`` axis is innermost in both outer
    products, and the result is truncated to ``n`` tones.  Each factor's
    phase carries the same relative rounding as the direct phase, so the
    product differs from the direct exponential by a few ``eps * |k x
    f|``.

    Returns an array of shape ``x.shape + (n,)``, which may be a view
    into a slightly longer comb.
    """
    return _comb_product(*_comb_factors(x, k, comb), comb.n)


def tone_phasors(lengths, grid: FrequencyGrid):
    """Phasors ``exp(-2j pi f_i d / c)`` of every length at every tone,
    shape ``lengths.shape + (F,)``, by the three-level tone split of
    :func:`comb_phasors`: ``A + M + B`` complex exponentials per length
    (24 at F = 512) instead of ``F``."""
    return comb_phasors(lengths, -2j * np.pi / SPEED_OF_LIGHT, grid.comb)


# Complex samples of (paths, M, N, tones) terms summed at once by
# synth_channel: 512 kB, the bound on a chunk's temporary.  Smaller
# chunks synthesized the benchmark campaign more slowly, larger ones
# no faster.
_SUM_CHUNK = 1 << 15


def synth_channel(paths, tx_positions, rx_positions, grid: FrequencyGrid,
                  refs, model="rm"):
    """Frequency response of a multipath channel over an element grid.

    Parameters
    ----------
    paths : sequence of RmPathParams
        One parameter tuple per propagation path.
    tx_positions : (N, 2) array_like
    rx_positions : (M, 2) array_like
    grid : FrequencyGrid
    refs : pair of (2,) array_like
        ``(tx_ref, rx_ref)``, the reference points the path parameters
        were measured at.
    model : {"rm", "pwa"}
        Exact mirrored-source distances (the default ground truth) or
        their plane-wave approximation, exposed for analysis.

    Returns
    -------
    (M, N, F) complex ndarray
        ``H[m, n, i] = sum_l gain_l * exp(-2j pi f_i d_l(m, n) / c)``.

    All path lengths come from one :func:`path_lengths` call and the
    factors of all phasors from one tone split (:func:`comb_phasors`),
    with each path's gain folded into its coarse factor.  The terms
    ``gain_l * phasor_l`` are then formed a chunk of paths at a time
    and summed in input order: the running sum is added into the chunk's
    first term and the chunk is reduced over its path axis, which adds
    its terms one after another.  A path's term takes the same bits
    whether it is synthesized alone or with others, and so does the sum,
    while no (L, M, N, F) array is ever built.
    """
    paths = list(paths)
    if not paths:
        raise EmptyChannel("cannot synthesize a channel with no paths")
    tx_ref, rx_ref = refs
    tx_positions = as_points(tx_positions, "tx_positions")
    rx_positions = as_points(rx_positions, "rx_positions")
    lengths = path_lengths(paths, rx_positions[:, None, :],
                           tx_positions[None, :, :], rx_ref, tx_ref, model)
    coarse, inner = _comb_factors(lengths, -2j * np.pi / SPEED_OF_LIGHT,
                                  grid.comb)
    coarse *= np.array([p.gain for p in paths]).reshape(-1, 1, 1, 1)
    chunk = max(1, _SUM_CHUNK // (coarse[0].size * inner.shape[-1]))
    out = None
    for lo in range(0, len(paths), chunk):
        terms = _comb_product(coarse[lo:lo + chunk], inner[lo:lo + chunk],
                              grid.num_tones)
        if out is not None:
            terms[0] += out
        out = terms.sum(axis=0)
    return out
