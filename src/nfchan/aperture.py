"""Synthetic-aperture measurement planning and campaign simulation.

A campaign is a sequence of K placements of a small receive array along
a track, each one capturing an (M, N, F) frequency response against the
same N fixed transmit elements.  The placements are not phase-locked:
every capture k is rotated by its own unknown phase, which is what the
estimation stage has to live with.  Randomness is organized so that a
campaign is reproducible from a single integer seed and each placement
draws from its own independent substream.
"""

from dataclasses import dataclass

import numpy as np

from .channel import FrequencyGrid, synth_channel
from .errors import EmptyChannel, InvalidGeometry
from .validation import as_points, as_vec2, check_finite

# Placements whose receive-array centroids agree within this many metres
# in both coordinates stand at one track position; two layouts whose
# element positions agree within it are the same layout.
CENTROID_ATOL_M = 1e-9


@dataclass(eq=False)
class MeasurementPlan:
    """Element positions for every placement of a campaign.

    A placement's track position is its receive elements' centroid;
    :func:`~nfchan.pipeline.subset_groups` groups placements by it, so a
    plan needs no other per-placement metadata.

    Attributes
    ----------
    rx_positions : (K, M, 2) ndarray
        Receive element positions for each placement.
    tx_positions : (N, 2) ndarray
        Transmit element positions, shared by all placements.
    rx_ref, tx_ref : (2,) ndarray
        Reference points path parameters are defined against.  By
        default the centroids of the element positions, which keeps
        first-order models balanced across the whole track.
    """

    rx_positions: np.ndarray
    tx_positions: np.ndarray
    rx_ref: np.ndarray = None
    tx_ref: np.ndarray = None

    def __post_init__(self):
        rx = np.asarray(self.rx_positions, dtype=float)
        if rx.ndim != 3 or rx.shape[-1] != 2 or rx.shape[0] < 1 or rx.shape[1] < 1:
            raise InvalidGeometry(
                f"rx_positions must have shape (K, M, 2), got {rx.shape}"
            )
        if not np.all(np.isfinite(rx)):
            raise InvalidGeometry("rx_positions must be finite")
        self.rx_positions = rx
        self.tx_positions = as_points(self.tx_positions, "tx_positions")
        if self.rx_ref is None:
            self.rx_ref = rx.reshape(-1, 2).mean(axis=0)
        if self.tx_ref is None:
            self.tx_ref = self.tx_positions.mean(axis=0)
        self.rx_ref = as_vec2(self.rx_ref, "rx_ref")
        self.tx_ref = as_vec2(self.tx_ref, "tx_ref")

    @property
    def n_placements(self):
        return self.rx_positions.shape[0]

    @property
    def n_rx(self):
        return self.rx_positions.shape[1]

    @property
    def n_tx(self):
        return self.tx_positions.shape[0]

    def subset(self, indices):
        """Plan restricted to some placements.

        The receive reference moves to the centroid of the kept elements,
        so parameters estimated from the subset are expressed about its
        own middle.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        rx = self.rx_positions[indices]
        return MeasurementPlan(
            rx_positions=rx,
            tx_positions=self.tx_positions,
            tx_ref=self.tx_ref,
        )


def plan_linear_track(rx_ref, offsets, spacings, tx_positions, n_rx=2):
    """Campaign plan for a horizontal track of small uniform arrays.

    One placement is generated per (offset, spacing) combination, offsets
    major.  Placement elements sit at ``rx_ref + (offset + (i - (M-1)/2) *
    spacing, 0)`` for ``i = 0..M-1``, so each little array is centered on
    its track offset.  The receive reference is the elements' centroid,
    which balances the first-order model across the track.

    Parameters
    ----------
    rx_ref : (2,) array_like
        Track origin; offsets are measured from here along +x.
    offsets : sequence of float
    spacings : sequence of float
        Element spacings to cycle through at every offset.
    tx_positions : (N, 2) array_like
    n_rx : int
        Elements per placement.

    Returns
    -------
    MeasurementPlan
    """
    origin = as_vec2(rx_ref, "rx_ref")
    offsets = np.asarray(offsets, dtype=float).reshape(-1)
    spacings = np.asarray(spacings, dtype=float).reshape(-1)
    if offsets.size == 0 or spacings.size == 0:
        raise InvalidGeometry("offsets and spacings must be non-empty")
    if np.any(spacings <= 0):
        raise InvalidGeometry("spacings must be positive")
    if n_rx < 1:
        raise InvalidGeometry("n_rx must be at least 1")
    centered = (np.arange(n_rx) - (n_rx - 1) / 2.0)
    rx = np.zeros((offsets.size * spacings.size, n_rx, 2))
    k = 0
    for o in offsets:
        for a in spacings:
            rx[k, :, 0] = origin[0] + o + centered * a
            rx[k, :, 1] = origin[1]
            k += 1
    return MeasurementPlan(rx_positions=rx, tx_positions=tx_positions)


@dataclass(eq=False)
class MeasurementSet:
    """Captured campaign data plus everything needed to interpret it."""

    responses: np.ndarray
    plan: MeasurementPlan
    grid: FrequencyGrid
    snr_db: float = None
    coherent: bool = False
    seed: int = 0

    def __post_init__(self):
        responses = np.asarray(self.responses, dtype=complex)
        want = (self.plan.n_placements, self.plan.n_rx, self.plan.n_tx,
                self.grid.num_tones)
        if responses.shape != want:
            raise InvalidGeometry(
                f"responses shape {responses.shape} does not match plan/grid {want}"
            )
        if not np.isfinite(responses).all():
            k, m, n, f = np.argwhere(~np.isfinite(responses))[0].tolist()
            raise InvalidGeometry(
                f"responses hold a non-finite sample at (k, m, n, f) = "
                f"({k}, {m}, {n}, {f})"
            )
        self.responses = responses
        if self.snr_db is not None:
            check_finite(float(self.snr_db), "snr_db")

    def energy(self):
        return float(np.sum(np.abs(self.responses) ** 2))


def simulate_campaign(paths, plan, grid, snr_db=None, coherent=False,
                      seed=0, model="rm"):
    """Simulate a measurement campaign over a plan.

    Each placement k gets the synthesized (M, N, F) response, rotated by
    an unknown phase drawn uniformly on the circle (skipped when
    ``coherent``), plus circular complex noise when ``snr_db`` is set.
    The noise level is referenced to the strongest path:
    ``sigma^2 = max_l |gain_l|^2 / 10**(snr_db / 10)`` per sample.

    Every placement consumes its own Philox substream spawned from
    ``seed``, and the phase is always drawn before the noise even when
    coherent, so toggling coherence never changes the noise realization.

    Returns
    -------
    MeasurementSet
    """
    paths = list(paths)
    if not paths:
        raise EmptyChannel("cannot simulate a campaign with no propagation paths")
    if snr_db is not None:
        snr = check_finite(float(snr_db), "snr_db")
        peak = max(abs(p.gain) for p in paths)
        if peak == 0:
            raise EmptyChannel("all path gains are zero; snr is undefined")
        try:
            sigma2 = peak * peak / 10.0 ** (snr / 10.0)
        except (OverflowError, ZeroDivisionError):
            raise InvalidGeometry(
                f"snr_db = {snr:g} puts the noise level out of floating-point range"
            ) from None
    children = np.random.SeedSequence(seed).spawn(plan.n_placements)
    shape = (plan.n_rx, plan.n_tx, grid.num_tones)
    responses = np.zeros((plan.n_placements,) + shape, dtype=complex)
    for k in range(plan.n_placements):
        h = synth_channel(paths, plan.tx_positions, plan.rx_positions[k],
                          grid, (plan.tx_ref, plan.rx_ref), model=model)
        rng = np.random.Generator(np.random.Philox(children[k]))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        if not coherent:
            h = h * np.exp(1j * theta)
        if snr_db is not None:
            scale = np.sqrt(sigma2 / 2.0)
            h = h + (rng.normal(scale=scale, size=shape)
                     + 1j * rng.normal(scale=scale, size=shape))
        responses[k] = h
    return MeasurementSet(responses=responses, plan=plan, grid=grid,
                          snr_db=snr_db, coherent=coherent, seed=seed)


@dataclass(eq=False)
class Pdp:
    """Power-delay profile: RMS magnitude per delay bin."""

    delay_bins: np.ndarray
    magnitudes: np.ndarray

    def peak_bin(self):
        return int(np.argmax(self.magnitudes))

    def peak_delay(self):
        return float(self.delay_bins[self.peak_bin()])


def _window(name, n):
    if name == "rectangular":
        return np.ones(n)
    if name == "hann":
        w = np.hanning(n)
        return w / np.sqrt(np.mean(w * w))
    raise ValueError(f"unknown window {name!r}")


def compute_pdp(response, grid: FrequencyGrid, window="rectangular"):
    """Power-delay profile of one or more frequency responses.

    Parameters
    ----------
    response : (..., F) array_like
        Frequency response(s); leading axes are averaged after the
        magnitude-square, so per-capture phases drop out.
    grid : FrequencyGrid
    window : {"rectangular", "hann"}
        Tone taper applied before the inverse transform.  The hann taper
        trades main-lobe width for sidelobe suppression and is scaled to
        unit mean-square so overall power is preserved.

    Returns
    -------
    Pdp
        ``delay_bins[q] = q / bandwidth`` and the root-mean-square bin
        magnitudes, so ``sum(magnitudes**2)`` equals the mean per-capture
        power (the orthonormal transform preserves it exactly).
    """
    response = np.asarray(response, dtype=complex)
    if response.shape[-1] != grid.num_tones:
        raise InvalidGeometry(
            f"response has {response.shape[-1]} tones, grid expects {grid.num_tones}"
        )
    w = _window(window, grid.num_tones)
    prof = np.fft.ifft(response * w, norm="ortho", axis=-1)
    power = np.abs(prof) ** 2
    power = power.reshape(-1, grid.num_tones).mean(axis=0)
    delay_bins = np.arange(grid.num_tones) / grid.bandwidth
    return Pdp(delay_bins=delay_bins, magnitudes=np.sqrt(power))


def mean_pdp(mset: MeasurementSet, window="rectangular"):
    """Campaign-averaged power-delay profile.

    Averages over placements and element pairs; immune to the unknown
    per-placement phases since only magnitudes enter.
    """
    return compute_pdp(mset.responses, mset.grid, window=window)
