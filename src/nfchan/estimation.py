"""Sparse path recovery from non-coherent aperture measurements.

The measurement model treats every capture as a superposition of a few
parametric atoms, one per propagation path, each multiplied by a free
complex gain per placement (the unknown capture phases make the gains
placement-local).  Recovery proceeds in stages:

1. one matching-pursuit loop over a separable (aoa, aod, delay) grid:
   each round scores every candidate atom by the energy it can absorb
   across all placements at once, adds the best one and polishes all
   paths held so far off the grid;
2. a final joint coordinate refinement of the paths off the grid;
3. bearing triangulation across track offsets to pin the mirrored
   transmitter of one anchor path in the plane, which restores the
   absolute time scale the capture phases destroyed;
4. a curvature test deciding each path's reflection parity by refitting
   the exact mirrored-source model under both hypotheses.

Delays inside the sweep are only meaningful relative to one another;
extraction reports them shifted so the earliest path sits at zero, and
stage 3 reattaches the absolute scale.

The first-order atom factors exactly into a delay factor (F), a receive
factor (K, M, F) and a transmit factor (N, F), and stages 1-2 never
build a full (K, M, N, F) atom to score one.  The sweep contracts the
residual with the receive and transmit factors of a whole block, then
correlates the delay axis either with one GEMM against the dictionary's
own delays or, for delays on the half-bin comb that are dense enough
for a fixed cost rule on the dictionary shape, with a zero-padded
inverse FFT over every bin.  The FFT is unnormalized, so its bins are
the correlations themselves.  numpy's ``ifft`` runs it in place
(``out=``) in a buffer the block's rows were written into, with no
temporary the size of the buffer, and the scores are squared and summed
on every bin before the dictionary's bins are picked out.  The package
needs numpy alone: no path loads scipy.  Every factor is built by the
three-level tone split that synthesis uses
(:func:`~nfchan.channel.comb_phasors`), so a delay costs ``A + M + B``
exponentials instead of ``F``.  The sweep keeps its receive filters as
the split's two factors, a coarse level and the inner levels multiplied
out, and multiplies them out only for the arrival angle at hand:
every receive phasor is a product of the two, so no bank of
(aoa, placement, element, tone) phasors is held.

The off-grid polish moves one coordinate of one path at a time, by a
safeguarded Newton ascent inside one grid step on the score and its
closed-form first and second derivatives, which climbs in about three
evaluations and never ends below where it started
(:mod:`nfchan.linesearch`).  Each path keeps its three factors, and a
factor is built again only when its coordinate moved.  When a path's
turn comes, its conjugated atom times its peeled data is expanded once
into tone moments, one GEMM over the element rows; every aoa and aod
evaluation then reads its score off a short power series in each
element pair's delay offset, and builds no phasor.  The delay search
contracts the peeled data with the two angle factors once and builds
one phasor row per evaluation.  The polish runs S independent problems
(one per placement subset) in lockstep on one stacked placement axis,
so S problems pay one call's overhead; the sweep is the case S = 1.

Every gain comes from one fit (:func:`per_placement_lsq`): joint
least squares per placement, all placements' normal equations solved in
one batch.  The polish refits after every path it moves, and a move
changes one atom, so it keeps the fit's placement-major atom stack,
Grams and right-hand sides and recomputes only that atom's Gram row and
right-hand side.  After a full pass over the paths in index order its
gains and residual are bit-equal to the fit built from scratch.

The sweep's argmax is an exact branch and bound over (aoa, aod) rows.
Delay factors have unit modulus, so by Cauchy-Schwarz no score in a row
exceeds ``F`` times the row's energy after the receive and transmit
contractions.  That energy is a sum over element pairs whose phasors
turn by a fraction of a radian across a block of tones, so moments of
the residual's pair products over a few such blocks, expanded to first
order about each block's centre, bound it from above with a small
remainder, for every row at once (:mod:`nfchan.rowbounds`).  Arrival
angles are visited by descending best-row bound, and only rows whose
bound (widened for rounding) still reaches the best score so far are
scored, so the winner, with ties going to the lowest (aoa, aod, delay)
index triple, is the full scan's.  Rows that repeat a lower row's
receive or transmit factor are the same atoms and are never scored, so
such a tie does not depend on rounding.
"""

from dataclasses import dataclass

import numpy as np

from .aperture import MeasurementPlan, MeasurementSet, Pdp, _window
from .channel import (
    SPEED_OF_LIGHT,
    FrequencyGrid,
    PwaPathParams,
    RmPathParams,
    _comb_factors,
    _comb_product,
    comb_phasors,
    path_lengths,
    tone_phasors,
    unit_vector,
)
from .errors import (
    DegenerateTriangulation,
    EmptyChannel,
    InconsistentAnchor,
    InvalidGeometry,
)
from .geometry import wrap_angle
from .linesearch import AngleLines, delay_line, newton_ascent
from .rowbounds import RowBounds
from .validation import as_vec2, check_positive, check_strictly_increasing

_PARALLEL_TOL = 1e-6
# Delay-profile peaks more than this far (power) below the strongest are
# not path candidates.
PDP_THRESHOLD_DB = 30.0
# Sharpness of the localization heatmap: the weight of a cell's summed
# squared bearing gaps in its log score.
HEATMAP_CONCENTRATION = 400.0


def _median_step(axis):
    return float(np.median(np.diff(axis))) if axis.size > 1 else 0.0


@dataclass(eq=False)
class DictionaryGrid:
    """Candidate (aoa, aod, delay) axes for the matching-pursuit sweep.

    Axes must be strictly increasing.  The engine scores the delay axis
    with one GEMM against these delays; when they all sit on bins
    ``q / (2 * bandwidth)`` and are many enough for the FFT to cost less
    (:func:`_fft_beats_gemm`), it reads them off a zero-padded inverse
    FFT over every bin instead.
    """

    aoas: np.ndarray
    aods: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        self.aoas = check_strictly_increasing(self.aoas, "aoas")
        self.aods = check_strictly_increasing(self.aods, "aods")
        self.delays = check_strictly_increasing(self.delays, "delays")
        if np.any(self.delays < 0):
            raise InvalidGeometry("dictionary delays must be nonnegative")

    @property
    def shape(self):
        return (self.aoas.size, self.aods.size, self.delays.size)

    def aoa_step(self):
        return _median_step(self.aoas)

    def aod_step(self):
        return _median_step(self.aods)

    def delay_step(self):
        """Smallest delay increment, the natural polish radius for unions
        of windows cut from a common comb."""
        return float(np.min(np.diff(self.delays))) if self.delays.size > 1 else 0.0


def fft_delay_bins(grid: FrequencyGrid, lo=0.0, hi=None):
    """Delay candidates on the half-bin comb ``q / (2 * bandwidth)``.

    These are exactly the delays the sweep engine can score via FFT; it
    does so only when a dictionary holds enough of them for the FFT to
    beat a GEMM over just those delays.  ``hi`` defaults to the full
    unambiguous span of the tone comb.
    """
    step = 1.0 / (2.0 * grid.bandwidth)
    n_max = 2 * grid.num_tones
    if hi is None:
        hi = (n_max - 1) * step
    q_lo = max(0, int(np.ceil(lo / step - 1e-9)))
    q_hi = min(n_max - 1, int(np.floor(hi / step + 1e-9)))
    if q_hi < q_lo:
        raise InvalidGeometry("empty delay range")
    return np.arange(q_lo, q_hi + 1) * step


@dataclass(eq=False)
class ExtractionResult:
    """Outcome of a matching-pursuit extraction.

    ``paths`` hold :class:`~nfchan.channel.PwaPathParams` sorted by
    descending strength, with deltas shifted so the earliest is zero;
    ``delay_origin`` is the sweep delay that shift removed, so the atom
    of any path lives at ``delta + delay_origin``.  ``selections`` keeps
    the raw grid index triples in pick order and ``residual_history``
    the residual energy after every pick; element 0 is the input energy,
    so the history is never empty.

    The energies are those of the responses the stages ran on, which
    may be the input scaled by ``2**-energy_exponent`` (the pipeline
    runs at unit scale); :meth:`input_energy` converts one to input
    units, where it may leave the float range.
    """

    paths: list
    selections: list
    residual_history: list
    delay_origin: float = 0.0
    energy_exponent: int = 0

    def __post_init__(self):
        if not self.residual_history:
            raise InvalidGeometry("residual_history must not be empty")

    @property
    def initial_energy(self):
        return self.residual_history[0]

    @property
    def residual_energy(self):
        return self.residual_history[-1]

    @property
    def iterations(self):
        return len(self.selections)

    def residual_fraction(self):
        if self.initial_energy == 0:
            return 0.0
        return self.residual_energy / self.initial_energy

    def input_energy(self, energy):
        """``energy`` times ``4**energy_exponent``: inf or 0 past the
        float range."""
        with np.errstate(over="ignore"):
            return float(np.ldexp(energy, 2 * self.energy_exponent))


def _phase_factor(tau, comb):
    """``exp(-2j pi f tau)`` of every ``tau`` at every tone of the
    :class:`~nfchan.channel.ToneComb` ``comb``, shape ``tau.shape +
    (F,)``, built by the three-level tone split (:func:`comb_phasors`,
    ``A + M + B`` exponentials per ``tau``).
    """
    return comb_phasors(tau, -2j * np.pi, comb)


def _plane_delay(angle, disp):
    """Plane-wave delay offsets ``-u(angle).disp / c`` of S stacked
    problems, the one projection behind every receive and transmit
    factor of the first-order atom.

    ``angle`` (S, X) holds each problem's angles and ``disp`` (S, ...,
    2) its element displacements; an S of 1 on either side broadcasts.
    Shape (S, X) + ``disp.shape[1:-1]``: every angle of a problem
    against every displacement of that problem, one small product per
    problem, so a problem's bits do not depend on what it is stacked
    with.
    """
    u = unit_vector(angle)  # (S, X, 2)
    proj = u @ disp.reshape(disp.shape[0], -1, 2).transpose(0, 2, 1)
    return proj.reshape(proj.shape[:2] + disp.shape[1:-1]) / -SPEED_OF_LIGHT


def _repeats(tau):
    """Which rows of ``tau`` equal a lower-index row.  ``np.unique``
    compares rows by value, element by element, so -0.0 equals 0.0."""
    rep = np.ones(len(tau), dtype=bool)
    first = np.unique(tau.reshape(len(tau), -1), axis=0, return_index=True)[1]
    rep[first] = False
    return rep


def _fft_beats_gemm(n_tones, n_delays):
    """Cost rule for the delay axis of a sweep block.

    Per (aod, placement) row, a GEMM against the (D, F) delay matrix
    costs F * D multiply-adds whatever the comb, while the zero-padded
    FFT over ``2F`` bins costs about ``6 * 2F * log2(2F)`` whatever D.
    The constant 6 puts the switch at D > 12 log2(2F): 96 delays at
    F = 128, where the two block times of :meth:`ScoreEngine._score_rows`
    cross on a single-threaded OpenBLAS x86-64 host, and 120 at
    F = 512, where they cross near 140 and the FFT is at most a few
    percent slower in between.
    """
    n_fft = 2 * n_tones
    return n_tones * n_delays > 6 * n_fft * np.log2(n_fft)


class ScoreEngine:
    """Evaluates atom correlations against campaign data.

    Precomputes the conjugated receive, transmit and delay factors of a
    dictionary, then scores blocks of candidates one arrival angle at a
    time so the full score tensor never has to be materialized.  The
    receive factors are held as their two comb factors
    (:func:`~nfchan.channel._comb_factors`, ``C + L`` phasors per delay
    instead of ``F``), and :meth:`_receive` multiplies out one arrival
    angle's filters, bit for bit as :func:`_phase_factor` would.  On
    room-20x10's coarse dictionary at 512 tones the engine holds 3.3
    MiB, where the multiplied-out receive bank alone would take 8.6
    MiB.  The
    delay axis is a GEMM against the dictionary's own delays, or, when
    every delay sits on the half-bin comb and :func:`_fft_beats_gemm`
    says so, a zero-padded inverse FFT over all ``2F`` bins
    (``_use_fft``).  The transmit contraction writes a block's rows
    straight into the first ``F`` bins of a buffer kept for the
    engine's life, and ``np.fft.ifft(..., out=)`` transforms the buffer
    in place, all (aod, placement) lines in one call.  On a (256, 60, 9)
    block, refill included, that takes as long as ``scipy.fft`` with
    ``overwrite_x`` (about 0.7 ms on a 2-vCPU Xeon VM), gives the same
    bits and allocates no temporary of the buffer's size; zero-padding
    with ``n=2F`` instead copies the rows and took 1.6 times as long.
    The FFT is unnormalized (``norm="forward"``), so its bins need no
    rescale.
    Either way a row's scores are one ``einsum`` over the float view of
    its correlations; on the FFT path that runs on all ``2F`` bins, and
    the dictionary's bins are gathered from the real (2F, R) result
    when it holds fewer than ``2F`` delays.

    :meth:`best` only scores the (aoa, aod) rows whose upper bound
    (``_row_bounds``, a :class:`~nfchan.rowbounds.RowBounds`) can still
    reach the best score found so far, and never a row whose receive or
    transmit factor repeats a lower row's; ``rows_scored`` counts the
    rows it has scored over the engine's life.  A row's bound is its
    Cauchy-Schwarz bound, the energy of the residual contracted with the
    row's receive and transmit filters, plus a small remainder, read off
    moments of the residual's element-pair products over a few blocks of
    tones.
    """

    def __init__(self, plan: MeasurementPlan, grid: FrequencyGrid,
                 dictionary: DictionaryGrid):
        self.plan = plan
        self.grid = grid
        self.dictionary = dictionary
        comb = grid.comb
        # Matched filters: multiplying the residual by these and summing
        # realizes <atom, residual> without forming atoms.
        tau_r = _plane_delay(dictionary.aoas[None],
                             (plan.rx_positions - plan.rx_ref)[None])[0]
        tau_t = _plane_delay(dictionary.aods[None],
                             (plan.tx_positions - plan.tx_ref)[None])[0]
        # Receive filters as the two comb factors of _phase_factor,
        # coarse (A, K, M, C) and inner (A, K, M, L), multiplied out one
        # arrival angle at a time: the (A, K, M, F) bank they make would
        # be the engine's largest array.
        self._rc, self._ri = _comb_factors(-tau_r, -2j * np.pi, comb)
        # Transmit filters tone-major, (F, B, N): the products of
        # _phase_factor written in that order, with no transposed copy.
        coarse, inner = _comb_factors(-tau_t, -2j * np.pi, comb)
        self._wt = np.multiply(np.moveaxis(coarse, -1, 0)[:, None],
                               np.moveaxis(inner, -1, 0)[None], order="C")
        self._wt = self._wt.reshape((-1,) + tau_t.shape)[:grid.num_tones]
        self._row_bounds = RowBounds(tau_r, tau_t, comb)
        # Rows whose factor repeats a lower row's (mirror arrival angles
        # on an unfolded collinear track, every aod row with one
        # transmit element): the same atoms, which best() never scores.
        self._repeat_aoa = _repeats(tau_r)
        self._repeat_aod = _repeats(tau_t)
        self.mnf = plan.n_rx * plan.n_tx * grid.num_tones
        self.rows_scored = 0

        n_fft = 2 * grid.num_tones
        q = dictionary.delays * (2.0 * grid.bandwidth)
        q_round = np.round(q)
        on_comb = (np.all(np.abs(q - q_round) < 1e-6)
                   and (q_round.size == 0 or q_round.max() < n_fft))
        self._use_fft = bool(
            on_comb and _fft_beats_gemm(grid.num_tones, q.size))
        if self._use_fft:
            # Strictly increasing bins below n_fft: when there are n_fft
            # of them they are every bin, read without a gather.
            self._q_idx = None if q.size == n_fft else q_round.astype(int)
            # The rows, their zero pad and the FFT share one buffer kept
            # for the engine's life, transformed in place.  A fresh
            # (2F, B, K) array per call would be the largest the sweep
            # allocates, and glibc maps a request that large anew, with
            # page faults, on every call unless a larger array happened
            # to be freed first.
            self._fft_out = np.empty(
                (n_fft, dictionary.aods.size, plan.n_placements), dtype=complex)
        else:
            # Offsets from the first tone, as the FFT's bin phases are:
            # the common phase exp(-2j pi f0 delta) cancels in |.|^2.
            self._dmat = np.ascontiguousarray(_phase_factor(
                -dictionary.delays, comb._replace(start=0.0)))

    def _receive(self, residual, ia):
        """Residual contracted with the receive factor of arrival angle
        ``ia``, multiplied out of its comb factors as
        :func:`_phase_factor` does: (K, N, F)."""
        wr = _comb_product(self._rc[ia], self._ri[ia], residual.shape[-1])
        return np.einsum("kmf,kmnf->knf", wr, residual)

    def _delay_scores(self, w, r):
        """(R, D) scores of the aod rows whose transmit filters are ``w``
        (F, R, N), at one arrival angle's receive-contracted residual
        ``r`` (F, N, K).

        On the FFT path the rows ``w @ r`` fill the first F bins of the
        engine's buffer and the F pad bins are zeroed again, since the
        last call's in-place transform left its output there; the
        squared magnitudes are summed over placements on every bin
        before the dictionary's bins are gathered.
        """
        if self._use_fft:
            f = r.shape[0]
            c = self._fft_out[:, :w.shape[1]]  # (2F, R, K)
            np.matmul(w, r, out=c[:f])
            c[f:] = 0.0
            np.fft.ifft(c, axis=0, norm="forward", out=c)
        else:
            c = self._dmat @ np.matmul(w, r).reshape(r.shape[0], -1)
            c = c.reshape(-1, w.shape[1], r.shape[2])  # (D, R, K)
        v = c.view(float)  # (., R, 2K): sum_k |c|^2 is a plain dot
        e = np.einsum("...k,...k->...", v, v)
        if self._use_fft and self._q_idx is not None:
            e = e[self._q_idx]
        return e.T / self.mnf

    def scores(self, residual):
        """Full (A, B, D) score tensor, the scan :meth:`best` must agree
        with.  Meant for small dictionaries."""
        a, b, d = self.dictionary.shape
        out = np.empty((a, b, d))
        for ia in range(a):
            out[ia] = self._delay_scores(self._wt,
                                         self._receive(residual, ia).T)
        return out

    def best(self, residual):
        """Argmax over the whole dictionary without materializing it.

        Exact branch and bound over (aoa, aod) rows.  Every row gets an
        upper bound (:class:`~nfchan.rowbounds.RowBounds`), widened for
        rounding twice: by a relative ``1e-9``, which covers rounding
        relative to the row's own energy (the scores'), and by the
        bounds' ``margin`` times the residual's energy, which covers the
        bound's rounding however far below that energy it lies (about
        ``3e-13`` of the energy on room-20x10).  The row with the highest
        bound is scored first to seed the best score; arrival angles are
        then visited by descending best-row bound, each scoring only the rows
        whose bound still reaches the best score so far (the seed row is
        not scored again), until the next angle's bound falls below it.
        Ties between equal scores resolve to the lowest (aoa, aod,
        delay) index triple, as in a flat C-order argmax of
        :meth:`scores`.  A row whose receive or transmit factor repeats
        a lower row's is the same atom and gets bound ``-inf``, so it is
        never scored and the lower row wins its tie whatever block
        either would be scored in.
        """
        energy = np.vdot(residual, residual).real
        bound = (self._row_bounds(residual) * (1.0 + 1e-9)
                 + self._row_bounds.margin * energy)
        bound[self._repeat_aoa] = -np.inf
        bound[:, self._repeat_aod] = -np.inf
        top = bound.max(axis=1)
        order = np.argsort(-top, kind="stable")
        seed = np.argmax(bound[order[0]], keepdims=True)
        best_val, best_idx = self._score_rows(residual, order[0], seed)
        bound[order[0], seed] = -np.inf  # scored; its angle skips it
        for ia in order:
            if top[ia] < best_val:
                break
            rows = np.flatnonzero(bound[ia] >= best_val)
            if not rows.size:
                continue
            val, idx = self._score_rows(residual, ia, rows)
            if val > best_val or (val == best_val and idx < best_idx):
                best_val, best_idx = val, idx
        return best_idx, best_val

    def _score_rows(self, residual, ia, rows):
        """Best (score, index triple) over the given aod rows of one
        arrival angle, ties going to the lowest (aod, delay) pair."""
        w = self._wt if rows.size == self._wt.shape[1] else self._wt[:, rows]
        block = self._delay_scores(w, self._receive(residual, ia).T)
        self.rows_scored += rows.size
        flat = int(np.argmax(block))
        ir, idl = np.unravel_index(flat, block.shape)
        return float(block.flat[flat]), (int(ia), int(rows[ir]), int(idl))


def response_atom(plan: MeasurementPlan, grid: FrequencyGrid, aoa, aod, delta):
    """First-order unit-modulus response of a path over a whole plan.

    Shape (K, M, N, F): ``exp(-2j pi f d / c)`` with the plane-wave
    distance ``d = c delta - u(aoa).dr - u(aod).dt``, formed as the
    product of its delay, receive and transmit factors.
    """
    comb = grid.comb
    tau_r = _plane_delay(np.reshape(aoa, (1, 1)),
                         (plan.rx_positions - plan.rx_ref)[None])[0, 0]
    tau_t = _plane_delay(np.reshape(aod, (1, 1)),
                         (plan.tx_positions - plan.tx_ref)[None])[0, 0]
    e = _phase_factor(np.asarray(delta, dtype=float), comb)
    return (e * _phase_factor(tau_r, comb)[:, :, None, :]
            * _phase_factor(tau_t, comb))


def rm_response_atom(plan: MeasurementPlan, grid: FrequencyGrid,
                     tau, aoa, aod, parity):
    """Exact mirrored-source response atom (K, M, N, F) for unit gain.

    The same kernel :func:`~nfchan.channel.synth_channel` synthesizes
    with: :func:`path_lengths` over the whole plan, then
    :func:`tone_phasors`.
    """
    d = path_lengths(
        [RmPathParams(1.0, tau, aoa, aod, parity)],
        plan.rx_positions[:, :, None, :],
        plan.tx_positions[None, None, :, :],
        plan.rx_ref,
        plan.tx_ref,
    )
    return tone_phasors(d[0], grid)


def per_placement_lsq(atoms, data):
    """Joint least-squares gains per placement and the residual they leave.

    atoms: (L, K, M, N, F), data: (K, M, N, F) -> (gains (L, K),
    residual ``data`` minus the gain-weighted atom sum).  This is the one
    gain fit, :class:`_GainFit`, built from scratch: each atom is written
    into the placement-major stack and its Gram row formed, in index
    order, then the normal equations of all placements are solved in
    one batch; should any Gram be singular, every placement falls back
    to ``lstsq``.  The polish keeps the same fit current one row per
    moved path, so after a full in-order pass its gains and residual
    are bit-equal to this function's on the final atoms.
    """
    fit = _GainFit(data, len(atoms))
    for j, atom in enumerate(atoms):
        fit.atom(j)[...] = atom
        fit.update(j)
    return fit.solve()


def _model(stack, gains):
    """(K, 1, P) model of the placement-major atoms ``stack`` (K, L, P)
    under gains (L, K): one batched BLAS product, placement by
    placement."""
    return gains.T[:, None, :] @ stack


class _GainFit:
    """Joint per-placement least-squares gains of L atoms, kept current
    one atom at a time.

    For the K placements of ``data`` (K, M, N, F) it holds the atoms in
    placement-major layout, ``stack`` (K, L, P) with P = M N F, their
    (K, L, L) Gram matrices ``conj(A) A^T`` and their (K, L, 1)
    right-hand sides ``conj(A) y``.  A new atom j is written straight
    into its slot (:meth:`atom`), and :meth:`update` recomputes only
    Gram row j, as one batched ``conj(a_j) @ A^T`` of shape (K, 1, P) @
    (K, P, L), sets column j to its conjugate and recomputes right-hand
    side j.  A Gram entry depends only on its two atoms, so once every
    atom has been updated in index order the Grams and right-hand sides
    are the bits of a fit built from scratch on the same atoms.
    """

    def __init__(self, data, n_atoms):
        k = len(data)
        self.data = data
        self.y = data.reshape(k, -1, 1)
        # Zeros: a row update multiplies every slot, filled or not.
        self.stack = np.zeros((k, n_atoms, self.y.shape[1]), dtype=complex)
        self.gram = np.zeros((k, n_atoms, n_atoms), dtype=complex)
        self.rhs = np.zeros((k, n_atoms, 1), dtype=complex)

    def atom(self, j):
        """Atom j's (K, M, N, F) slot, a view to write it into."""
        return self.stack[:, j].reshape(self.data.shape)

    def update(self, j):
        """Gram row and column j and right-hand side j, after atom j was
        written."""
        aj = self.stack[:, j:j + 1].conj()  # (K, 1, P): one atom
        row = (aj @ self.stack.transpose(0, 2, 1))[:, 0]  # (K, L)
        self.gram[:, :, j] = row.conj()
        self.gram[:, j] = row
        self.rhs[:, j] = (aj @ self.y)[:, 0]

    def solve(self):
        """(gains (L, K), residual ``data - _model``) of the atoms held:
        every placement's normal equations in one batched ``solve``, or
        ``lstsq`` per placement should any Gram be singular to working
        precision.  That is, a Cholesky pivot ``|a_j|^2 sin^2`` (the angle
        between atom j and the span of the atoms before it) is at most
        ``P eps |a_j|^2``, which the Gram's rounding cannot tell from
        zero.  An atom that duplicates another gives such a pivot, while
        LU does not always meet an exact zero pivot on it."""
        tol = self.y.shape[1] * np.finfo(float).eps
        try:
            pivots = np.linalg.cholesky(self.gram).diagonal(axis1=1, axis2=2)
            norms = self.gram.diagonal(axis1=1, axis2=2).real
            if np.any(pivots.real ** 2 <= tol * norms):
                raise np.linalg.LinAlgError("Gram singular to working precision")
            gains = np.linalg.solve(self.gram, self.rhs)[..., 0]
        except np.linalg.LinAlgError:
            gains = np.stack([np.linalg.lstsq(a.T, y[:, 0], rcond=None)[0]
                              for a, y in zip(self.stack, self.y)])
        gains = np.ascontiguousarray(gains.T)
        residual = _model(self.stack, gains).reshape(self.data.shape)
        np.subtract(self.data, residual, out=residual)
        return gains, residual


def _package(raw, gains, selections, history):
    """Extraction result of raw [aoa, aod, sweep_delay] triples and their
    (L, K) gains: deltas shifted to a zero floor, paths sorted by
    descending strength."""
    origin = min((p[2] for p in raw), default=0.0)
    paths = sorted((PwaPathParams(gains=g, delta=d - origin, aoa=aoa, aod=aod)
                    for (aoa, aod, d), g in zip(raw, gains)),
                   key=lambda p: -p.strength)
    return ExtractionResult(paths=paths, selections=selections,
                            residual_history=history,
                            delay_origin=float(origin))


class _PolishBatch:
    """S independent polish problems stacked on one placement axis.

    Problem ``s`` is measured on ``plans[s]``; the plans share their
    transmit elements, transmit reference and receive array size, and
    each holds the same number ``k`` of placements.  ``data`` is the
    problems' (S * k, M, N, F) responses, problem-major, and serves as
    the stacked data ``y`` as it is.

    A path's conjugated factors ``[r, t, e]`` are stacked the same way:
    ``r`` (S * k, M, F), each placement against its own problem's
    receive reference, ``t`` (S, N, F) and ``e`` (S, F).
    """

    def __init__(self, plans, data):
        self.size = len(plans)
        self.k = plans[0].n_placements
        if (any(p.n_placements != self.k for p in plans)
                or len(data) != self.size * self.k):
            raise InvalidGeometry(
                "polish problems need equal placement counts, got "
                f"{[p.n_placements for p in plans]} for {len(data)} "
                "placements of data")
        self.tx = (plans[0].tx_positions - plans[0].tx_ref)[None]  # (1, N, 2)
        self.rx = np.stack([p.rx_positions - p.rx_ref for p in plans])
        self.y = data

    def delay(self, coord, x, idx):
        """Delays ``tau`` of one factor of problems ``idx`` at values
        ``x`` (n, X), row i against problem ``idx[i]``'s elements:
        (n, X, k, M) for the receive factor, (n, X, N) for the
        transmit factor (:func:`_plane_delay`), ``x`` for the delay
        factor."""
        if coord == 2:
            return x
        if coord == 1:
            return _plane_delay(x, self.tx)
        rx = self.rx if len(idx) == self.size else self.rx[idx]
        return _plane_delay(x, rx)

    def factor(self, coord, x, comb):
        """Conjugated factor ``coord`` of every problem at values ``x``
        (S,), in the stacked shapes of the class docstring."""
        tau = self.delay(coord, x[:, None], range(self.size))[:, 0]
        phi = _phase_factor(-tau, comb)
        return phi.reshape((-1,) + phi.shape[2:]) if coord == 0 else phi

    def atom(self, factors, out):
        """Write the (S * k, M, N, F) atom of conjugated stacked
        factors into ``out``, the same bits as :func:`response_atom` on
        each problem's plan."""
        r, t, e = factors
        m, f = r.shape[1:]
        r = r.reshape(self.size, -1, m, 1, f)
        np.multiply(e[:, None, None, None, :] * r, t[:, None, None],
                    out=out.reshape(r.shape[:3] + t.shape[1:]))
        np.conjugate(out, out=out)

    def split(self, params, gains, residual):
        """Per-problem (params, gains, residual) lists."""
        return (params.tolist(),
                list(gains.reshape(len(gains), self.size, self.k)
                     .swapaxes(0, 1)),
                list(residual.reshape((self.size, self.k)
                                      + residual.shape[1:])))


def _cyclic_polish(plans, grid, params, data, steps, passes):
    """Cyclic coordinate ascent of every path against its peeled
    residual, in S independent problems at once.

    Problem ``s`` fits ``params[s]``, a list of L [aoa, aod, raw_delay]
    triples (L the same in every problem), to its K placements of
    ``data`` (S * K, M, N, F), problem-major, measured on ``plans[s]``;
    the plans share their transmit elements and each holds K placements.
    The problems run in lockstep on one stacked placement axis
    (:class:`_PolishBatch`).
    Each path in turn is peeled out of the running residual (``residual
    + atom_j * gains_j``, written into one buffer kept for the call) and
    expanded once into tone moments
    (:class:`~nfchan.linesearch.AngleLines`), whose ``y`` overwrites the
    spent residual.  Then the aoa, the aod
    and the delay (:func:`~nfchan.linesearch.delay_line`) in turn climb
    their line scores by safeguarded Newton ascents inside +-1 step
    (:func:`~nfchan.linesearch.newton_ascent`), one per problem, each
    of which never ends below the current value; the aod's score reads
    the aoa its pass has just moved off the same expansion, so no
    angle evaluation builds a phasor.  Gains are refit after every path
    update, every placement of every problem in one batch, so each
    problem's joint residual is non-increasing.  A problem's results
    are those of the same call on that problem alone; the sweep and its
    refinement are the ``S = 1`` case.

    Each path keeps its three conjugated factors; a factor is rebuilt
    only when an ascent moved its coordinate, and the path's atom is
    the conjugate of their product, the same bits as
    :func:`response_atom`.  The atom is written straight into the gain
    fit's stack (:class:`_GainFit`), whose refit recomputes one Gram row
    and one right-hand side, so after each full pass the gains and
    residual are bit-equal to :func:`per_placement_lsq` on the final
    atoms.

    Returns (params, gains, residuals), lists over the problems of L
    triples, (L, K) gains and (K, M, N, F) residuals.
    """
    comb = grid.comb
    batch = _PolishBatch(plans, data)
    p = np.array(params, dtype=float).reshape(batch.size, -1, 3)
    factors = [[batch.factor(c, p[:, j, c], comb) for c in range(3)]
               for j in range(p.shape[1])]
    fit = _GainFit(batch.y, len(factors))
    for j, fac in enumerate(factors):
        batch.atom(fac, out=fit.atom(j))
        fit.update(j)
    gains, residual = fit.solve()
    lines = AngleLines(batch, comb, steps)
    peeled = np.empty_like(batch.y)
    for _ in range(max(passes, 0)):
        for j, fac in enumerate(factors):
            np.multiply(fit.atom(j), gains[j][:, None, None, None], out=peeled)
            peeled += residual
            # The spent residual takes the expansion's y, and the refit
            # below forms the next one: beside the data and the atoms,
            # only the peeled buffer and one refit temporary of the
            # data's size are alive at once.
            if max(steps[:2]) > 0:
                lines.expand(fit.atom(j), peeled, p[:, j, :2], out=residual)
            del residual
            for coord in range(3):
                if steps[coord] > 0:
                    score = (lines.score(coord, p[:, j, :2]) if coord < 2
                             else delay_line(batch, comb, fac, peeled))
                    x = newton_ascent(score, p[:, j, coord], steps[coord])
                    if np.any(x != p[:, j, coord]):
                        fac[coord] = batch.factor(coord, x, comb)
                    p[:, j, coord] = x
            batch.atom(fac, out=fit.atom(j))
            fit.update(j)
            gains, residual = fit.solve()
    return batch.split(p, gains, residual)


def _energy(x):
    return float(np.sum(np.abs(x) ** 2))


def _noise_energy(residual):
    """Noise energy in ``residual``, from the median of its Hann-windowed
    delay profile over every (placement, element, delay) bin.

    For white noise of variance ``s2`` every bin of the unit-power
    windowed orthonormal transform is complex Gaussian of variance
    ``s2``, so ``|bin|^2`` has median ``s2 ln 2``; the estimate is
    ``residual.size * median / ln 2``.  The taper keeps path sidelobes
    out of the other bins.  Read it off a residual, not the raw data: at
    16 tones the paths fill most delay bins, and on room-20x10 at 20 dB
    the raw-data estimate reads 78 times the noise.
    """
    prof = np.fft.ifft(residual * _window("hann", residual.shape[-1]),
                       norm="ortho", axis=-1)
    median = float(np.median(prof.real ** 2 + prof.imag ** 2))
    return residual.size * median / np.log(2.0)


def omp_extract(mset: MeasurementSet, dictionary: DictionaryGrid,
                l_max, stop_fraction=0.0, polish_passes=0):
    """Greedy block matching pursuit over a parameter dictionary.

    One loop, as in Newtonized OMP: each round scores every dictionary
    atom against the residual, adds the best one to the paths held and
    runs ``polish_passes`` cyclic coordinate passes over all of them
    (:func:`_cyclic_polish`), which refit every gain jointly per
    placement against the raw data.  Polishing slides atoms off the grid
    before the next residual is formed, which keeps an off-grid path
    from leaking into a second, spurious pick; 0 passes keep the picks
    on the grid, which is plain OMP.

    The sweep ends after ``l_max`` rounds, once the residual energy
    falls to ``N + stop_fraction * (E - N)``, or on either of two rules:
    the pick equals a path already held, or the round fails to lower the
    residual energy by more than a relative ``1e-12``; that round is
    rolled back, so an atom that captures nothing is never kept.  ``E``
    is the input energy and ``N`` the noise energy estimated from the
    round's residual (:func:`_noise_energy`), so ``stop_fraction`` is
    the model floor above the noise floor, as in NOMP: noise alone never
    buys a round.

    Returns
    -------
    ExtractionResult
        Paths sorted by descending strength with deltas floored at
        zero; ``selections`` keeps the grid index triples in pick order
        for reproducibility checks, and ``residual_history`` the energy
        trajectory, which is decreasing by construction.
    """
    if l_max < 1:
        raise InvalidGeometry("l_max must be at least 1")
    engine = ScoreEngine(mset.plan, mset.grid, dictionary)
    data = mset.responses
    initial = _energy(data)
    if initial == 0.0:
        raise EmptyChannel("measurement set carries no energy")
    steps = (dictionary.aoa_step(), dictionary.aod_step(),
             dictionary.delay_step())
    residual = data
    selections = []
    params = []
    gains = []
    history = [initial]
    for _ in range(l_max):
        idx, _ = engine.best(residual)
        picked = [float(axis[i]) for axis, i in zip(
            (dictionary.aoas, dictionary.aods, dictionary.delays), idx)]
        if picked in params:
            break
        ([trial], [new_gains], [new_residual]) = _cyclic_polish(
            plans=[mset.plan], grid=mset.grid,
            params=[params + [picked]], data=data,
            steps=steps, passes=polish_passes)
        new_energy = _energy(new_residual)
        if new_energy >= history[-1] * (1.0 - 1e-12):
            break
        params = trial
        selections.append(idx)
        gains = new_gains
        residual = new_residual
        history.append(new_energy)
        noise = _noise_energy(new_residual)
        if new_energy <= noise + stop_fraction * (initial - noise):
            break
    return _package(params, gains, selections, history)


def refine_extraction(mset: MeasurementSet, result: ExtractionResult,
                      aoa_step, aod_step, passes=2):
    """Push extracted paths off the grid by cyclic coordinate search.

    Each path in turn is scored against its own peeled residual (data
    minus the other paths) while one coordinate at a time is optimized
    inside +-1 step: the given angle steps and the half-bin
    ``1 / (2 * bandwidth)`` in delay.  Gains are refit jointly after
    every path update.  Two passes are normally enough for the remaining
    motion to be far below a grid step.  The energies of the result are
    at the scale of ``mset``, which ``result``'s input units must be.
    """
    # Work in raw sweep delays so the zero floor does not clip the search
    params = [[p.aoa, p.aod, p.delta + result.delay_origin]
              for p in result.paths]
    if not params:
        return result
    ([params], [gains], [residual]) = _cyclic_polish(
        plans=[mset.plan], grid=mset.grid, params=[params],
        data=mset.responses,
        steps=(aoa_step, aod_step, 1.0 / (2.0 * mset.grid.bandwidth)),
        passes=passes)
    history = [result.input_energy(x) for x in result.residual_history]
    return _package(params, gains, list(result.selections),
                    history + [_energy(residual)])


@dataclass(eq=False)
class PdpPeaks:
    delays: np.ndarray
    magnitudes: np.ndarray
    bins: np.ndarray


def detect_paths_pdp(pdp: Pdp):
    """Candidate path delays from a delay profile.

    The profile's circular local maxima (at least the bin before, more
    than the bin after) within :data:`PDP_THRESHOLD_DB` (power) of the
    strongest, in ascending bin order.  Two such maxima are never
    adjacent, so the peaks are at least two bins apart.
    """
    m = np.asarray(pdp.magnitudes, dtype=float)
    if m.size == 0 or m.max() == 0.0:
        kept = np.empty(0, dtype=int)
    else:
        floor = m.max() * 10.0 ** (-PDP_THRESHOLD_DB / 20.0)
        kept = np.flatnonzero((m >= np.roll(m, 1)) & (m > np.roll(m, -1))
                              & (m >= floor))
    return PdpPeaks(delays=np.asarray(pdp.delay_bins, dtype=float)[kept],
                    magnitudes=m[kept], bins=kept)


@dataclass(eq=False)
class Bearing:
    """A ray observed from a known position: bearing angle plus a weight."""

    position: np.ndarray
    angle: float
    weight: float = 1.0

    def __post_init__(self):
        self.position = as_vec2(self.position, "position")
        self.angle = float(self.angle)
        if not np.isfinite(self.angle):
            raise InvalidGeometry("bearing angle must be finite")
        if self.weight <= 0 or not np.isfinite(self.weight):
            raise InvalidGeometry("bearing weight must be positive")


@dataclass(eq=False)
class TriangulationResult:
    point: np.ndarray
    behind: np.ndarray
    residual: float


def triangulate(bearings):
    """Weighted least-squares intersection of bearing rays.

    Minimizes the weighted sum of squared normal distances to the
    bearing lines; the achieved minimum is returned as ``residual``.
    Raises :class:`DegenerateTriangulation` when fewer than two bearings
    are given or all bearings are parallel.  ``behind`` flags bearings
    whose ray points away from the solution.
    """
    bearings = list(bearings)
    if len(bearings) < 2:
        raise DegenerateTriangulation("need at least two bearings")
    angles = np.array([b.angle for b in bearings])
    if np.all(np.abs(wrap_angle(2 * (angles - angles[0]))) < 2 * _PARALLEL_TOL):
        raise DegenerateTriangulation("bearings are parallel; no intersection")
    normals = [np.array([-np.sin(b.angle), np.cos(b.angle)]) for b in bearings]
    a = np.zeros((2, 2))
    rhs = np.zeros(2)
    for b, n in zip(bearings, normals):
        a += b.weight * np.outer(n, n)
        rhs += b.weight * n * (n @ b.position)
    try:
        point = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateTriangulation("bearing geometry is singular")
    behind = np.array([
        (point - b.position) @ unit_vector(b.angle) < 0 for b in bearings
    ])
    errs = [b.weight * ((point - b.position) @ n) ** 2
            for b, n in zip(bearings, normals)]
    return TriangulationResult(
        point=point,
        behind=behind,
        residual=float(sum(errs)),
    )


@dataclass(eq=False)
class Heatmap:
    """Cell-centered score image anchored at ``origin`` with square cells."""

    origin: np.ndarray
    cell: float
    scores: np.ndarray

    def __post_init__(self):
        self.origin = as_vec2(self.origin, "origin")
        self.cell = float(self.cell)
        check_positive(self.cell, "cell")
        self.scores = np.asarray(self.scores, dtype=float)
        if self.scores.ndim != 2:
            raise InvalidGeometry("scores must be a 2-D array (rows = y)")

    @property
    def xs(self):
        return self.origin[0] + (np.arange(self.scores.shape[1]) + 0.5) * self.cell

    @property
    def ys(self):
        return self.origin[1] + (np.arange(self.scores.shape[0]) + 0.5) * self.cell


def localization_heatmap(bearings, region, cell,
                         concentration=HEATMAP_CONCENTRATION):
    """Bearing-consistency likelihood image over a rectangle.

    Cell value ``exp(-concentration * sum_j w_j * angdiff_j^2)`` where
    ``angdiff_j`` is the angular gap between bearing j and the direction
    from its origin to the cell center; normalized to unit total mass.

    Parameters
    ----------
    region : (xmin, xmax, ymin, ymax)
    cell : float
        Square cell edge in meters; the rectangle is covered by however
        many whole cells it takes.
    """
    bearings = list(bearings)
    if not bearings:
        raise DegenerateTriangulation("need at least one bearing for a heatmap")
    xmin, xmax, ymin, ymax = map(float, region)
    cell = float(cell)
    check_positive(cell, "cell")
    if not (xmax > xmin and ymax > ymin):
        raise InvalidGeometry("heatmap region is empty")
    nx = max(1, int(np.ceil((xmax - xmin) / cell - 1e-9)))
    ny = max(1, int(np.ceil((ymax - ymin) / cell - 1e-9)))
    xs = xmin + (np.arange(nx) + 0.5) * cell
    ys = ymin + (np.arange(ny) + 0.5) * cell
    gx, gy = np.meshgrid(xs, ys)
    cost = np.zeros((ny, nx))
    for b in bearings:
        ang = np.arctan2(gy - b.position[1], gx - b.position[0])
        diff = wrap_angle(ang - b.angle)
        cost += b.weight * diff * diff
    cost -= cost.min()
    scores = np.exp(-float(concentration) * cost)
    total = scores.sum()
    if total == 0 or not np.isfinite(total):
        scores = np.full((ny, nx), 1.0 / (nx * ny))
    else:
        scores = scores / total
    return Heatmap(origin=np.array([xmin, ymin]), cell=cell, scores=scores)


def image_from_polar(origin, angle, delay):
    """Point at range ``c * delay`` from ``origin`` along ``angle``."""
    origin = as_vec2(origin, "origin")
    angle = np.asarray(angle, dtype=float)
    delay = np.asarray(delay, dtype=float)
    return origin + SPEED_OF_LIGHT * delay[..., None] * unit_vector(angle)


def recover_abs_delays(tau_anchor, delta_anchor, deltas):
    """Anchor relative sweep deltas to an absolute time of flight.

    ``tau[l] = tau_anchor + (deltas[l] - delta_anchor)``.  Raises
    :class:`InconsistentAnchor` if any anchored delay comes out
    nonpositive, which means the anchor assignment cannot be right.
    """
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    if tau_anchor <= 0 or not np.isfinite(tau_anchor):
        raise InconsistentAnchor("anchor time of flight must be positive")
    out = float(tau_anchor) + (deltas - float(delta_anchor))
    if np.any(out <= 0):
        raise InconsistentAnchor(
            "anchoring produced a nonpositive time of flight; "
            "anchor path or its absolute delay is inconsistent"
        )
    return out


@dataclass(eq=False)
class ParityDecision:
    parity: int
    ambiguous: bool
    energies: dict
    margin: float


def estimate_parity(mset: MeasurementSet, path: PwaPathParams, tau, residual):
    """Decide reflection parity by exact-model fits of one path.

    Both hypotheses share the path's measured (aoa, aod, tau); each one
    implies its own reflection map, and the mirrored-source responses it
    predicts are fit with free per-placement gains only.  The two models
    agree to first order in the displacements by construction, so the
    decision rides on how transmit-side displacements bend the wavefront
    when seen from different placements: a reflected array is chiral,
    and a rotation cannot mimic it once the observation directions
    spread out.  The hypothesis with the lower residual energy wins.
    ``tau`` must already be absolute.

    Bearings are deliberately not refit here.  On a collinear track a
    free refit could always find an equivalent opposite-parity solution
    (the track direction alone cannot tell a rotation from a
    reflection), erasing the very curvature signal being tested.

    Parameters
    ----------
    residual : (K, M, N, F) array
        Data with the other paths peeled off.

    Returns
    -------
    ParityDecision
        ``ambiguous`` is set when the energy gap is within rounding of
        zero, in which case ``parity`` falls back to +1.
    """
    y = np.asarray(residual, dtype=complex)
    total = _energy(y)
    if total == 0.0:
        raise EmptyChannel("nothing to fit a parity against")
    if tau <= 0:
        raise InconsistentAnchor("parity needs a positive absolute delay")
    plan, grid = mset.plan, mset.grid
    energies = {}
    for s in (+1, -1):
        atom = rm_response_atom(plan, grid, float(tau), path.aoa, path.aod, s)
        energies[s] = _energy(per_placement_lsq(atom[None], y)[1])
    margin = abs(energies[+1] - energies[-1])
    ambiguous = margin <= 1e-12 * total
    parity = +1 if ambiguous or energies[+1] <= energies[-1] else -1
    return ParityDecision(
        parity=parity,
        ambiguous=ambiguous,
        energies=energies,
        margin=margin,
    )


def assemble_rm(result: ExtractionResult, taus, anchor_index, parities):
    """Package every path of an extraction at its absolute delay.

    ``taus`` are the paths' absolute times of flight, anchored on the
    path ``anchor_index`` of ``result.paths``
    (:func:`recover_abs_delays`).  Gain magnitudes are the RMS over
    placements; phases are all read off the placement where the anchor
    path is strongest, the only deterministic common reference left once
    captures carry independent phases.  Each path's reflection map
    follows from its (aoa, aod, parity), so none is taken as input.

    Parameters
    ----------
    taus, parities : sequences
        One delay and one parity per path, aligned with ``result.paths``.

    Returns
    -------
    list of RmPathParams
    """
    paths = result.paths
    if not paths:
        raise EmptyChannel("extraction holds no paths to assemble")
    if not 0 <= anchor_index < len(paths):
        raise InconsistentAnchor(f"anchor index {anchor_index} out of range")
    parities = [int(s) for s in parities]
    if len(parities) != len(paths) or len(taus) != len(paths):
        raise InvalidGeometry("need exactly one delay and one parity per path")
    k_star = int(np.argmax(np.abs(paths[anchor_index].gains)))
    out = []
    for p, tau, parity in zip(paths, taus, parities):
        gain = p.amplitude() * np.exp(1j * np.angle(p.gains[k_star]))
        out.append(RmPathParams(gain=gain, tau=float(tau),
                                aoa=p.aoa, aod=p.aod, parity=parity))
    return out
