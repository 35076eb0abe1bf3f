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
the correlations themselves, read in place when the dictionary holds
every bin.  Every factor is built by the three-level tone split that
synthesis uses (:func:`~nfchan.channel.comb_phasors`), so a delay costs
``A + M + B`` exponentials instead of ``F``.

The off-grid polish moves one coordinate of one path at a time.  Each
path keeps its three factors, and a factor is built again only when its
coordinate moved.  A coordinate search contracts the peeled data with
the two fixed factors once, and each evaluation builds only the moving
factor; that one build gives the score and its closed-form first and
second derivatives, since the factor's derivatives are the factor times
``2j pi f tau'`` and its square.  A safeguarded Newton ascent inside one
grid step climbs the score in about three evaluations and never ends
below where it started.

The sweep's argmax is an exact branch and bound over (aoa, aod) rows.
Delay factors have unit modulus, so by Cauchy-Schwarz no score in a row
exceeds ``F`` times the row's energy after the receive and transmit
contractions.  Receive phasors have unit modulus as well, so that energy
is the transmit-contracted residual's energy plus a cross term over
receive-element pairs, and one real GEMM per block of tones gives the
cross term of every row.  Arrival angles are visited
by descending best-row bound, and only rows whose bound (widened by a
relative ``1e-9`` for rounding) still reaches the best score so far are
scored, so the winner, with ties going to the lowest (aoa, aod, delay)
index triple, is the full scan's.
"""

from dataclasses import dataclass

import numpy as np

from .aperture import MeasurementPlan, MeasurementSet, Pdp, _window
from .channel import (
    SPEED_OF_LIGHT,
    FrequencyGrid,
    PwaPathParams,
    RmPathParams,
    alpha_from_bearings,
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
from .validation import as_vec2, check_positive, check_strictly_increasing

_PARALLEL_TOL = 1e-6
# The polish's Newton ascent stops once a step would move less than this
# fraction of its window, or after this many steps.
_NEWTON_TOL = 1e-7
_NEWTON_MAX_STEPS = 30


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
        return float(np.median(np.diff(self.aoas))) if self.aoas.size > 1 else 0.0

    def aod_step(self):
        return float(np.median(np.diff(self.aods))) if self.aods.size > 1 else 0.0

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
    """Plane-wave delay offsets ``-u(angle).disp / c``.

    Shape ``angle.shape + disp.shape[:-1]``: every angle against every
    displacement.
    """
    u = unit_vector(angle)
    proj = u.reshape(-1, 2) @ disp.reshape(-1, 2).T
    return proj.reshape(u.shape[:-1] + disp.shape[:-1]) / -SPEED_OF_LIGHT


def _factor_delay(plan, coord, value):
    """Delays ``tau`` of one separable atom factor (see
    :func:`_atom_factor`): (..., K, M) plane-wave offsets for the
    receive factor, (..., N) for the transmit factor, ``value`` itself
    for the delay factor."""
    if coord == 0:
        return _plane_delay(value, plan.rx_positions - plan.rx_ref)
    if coord == 1:
        return _plane_delay(value, plan.tx_positions - plan.tx_ref)
    return np.asarray(value, dtype=float)


def _atom_factor(plan, coord, value, comb, conj=False):
    """One separable factor of the first-order atom.

    The atom is exactly ``e[f] * r[k, m, f] * t[n, f]``.  ``coord``
    names the factor the way a path is a triple ``[aoa, aod, delay]``:
    0 gives the receive factor ``r`` (..., K, M, F), 1 the transmit
    factor ``t`` (..., N, F) and 2 the delay factor ``e`` (..., F), an
    array ``value`` prepending its shape.  ``conj`` gives the conjugate,
    the matched filter that correlates data against the factor.
    ``comb`` is what :func:`_phase_factor` takes.
    """
    tau = _factor_delay(plan, coord, value)
    return _phase_factor(-tau if conj else tau, comb)


def _fft_beats_gemm(n_tones, n_delays):
    """Cost rule for the delay axis of a sweep block.

    Per (aod, placement) row, a GEMM against the (D, F) delay matrix
    costs F * D multiply-adds whatever the comb, while the zero-padded
    FFT over ``2F`` bins costs about ``12 * 2F * log2(2F)`` whatever D.
    The constant 12 puts the switch at D > 24 log2(2F) (192 delays at
    F = 128, 240 at F = 512), where the two measured block times cross
    on a single-threaded OpenBLAS x86-64 host.
    """
    n_fft = 2 * n_tones
    return n_tones * n_delays > 12 * n_fft * np.log2(n_fft)


class ScoreEngine:
    """Evaluates atom correlations against campaign data.

    Precomputes the conjugated receive, transmit and delay factors of a
    dictionary, then scores blocks of candidates one arrival angle at a
    time so the full score tensor never has to be materialized.  The
    delay axis is a GEMM against the dictionary's own delays, or, when
    every delay sits on the half-bin comb and :func:`_fft_beats_gemm`
    says so, a zero-padded inverse FFT over all ``2F`` bins
    (``_use_fft``).  That FFT is unnormalized (``norm="forward"``), so
    its bins need no rescale; they are gathered only when the
    dictionary holds fewer than ``2F`` delays.  Either way a row's
    scores are one ``einsum`` over the float view of its correlations.

    :meth:`best` only scores the (aoa, aod) rows whose upper bound
    (:meth:`_row_bounds`) can still reach the best score found so far;
    ``rows_scored`` counts the rows it has scored over the engine's
    life.  The bounds of all rows take one batched transmit contraction
    and one real GEMM per block of tones, which pairs the receive
    elements of every arrival angle with those of every departure row;
    nothing in them runs per angle.
    """

    def __init__(self, plan: MeasurementPlan, grid: FrequencyGrid,
                 dictionary: DictionaryGrid):
        self.plan = plan
        self.grid = grid
        self.dictionary = dictionary
        comb = grid.comb
        # Matched filters: multiplying the residual by these and summing
        # realizes <atom, residual> without forming atoms.
        self._wr = np.ascontiguousarray(
            _atom_factor(plan, 0, dictionary.aoas, comb, conj=True))
        self._wt = np.ascontiguousarray(
            _atom_factor(plan, 1, dictionary.aods, comb, conj=True)
            .transpose(2, 0, 1))
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
            # The FFT writes into one buffer kept for the engine's life.
            # A fresh (2F, B, K) array per call would be the largest the
            # sweep allocates, and glibc maps a request that large anew,
            # with page faults, on every call unless a larger array
            # happened to be freed first.  (ifft's out= needs numpy 2.)
            self._fft_out = np.empty(
                (n_fft, dictionary.aods.size, plan.n_placements), dtype=complex)
        else:
            # Offsets from the first tone, as the FFT's bin phases are:
            # the common phase exp(-2j pi f0 delta) cancels in |.|^2.
            self._dmat = np.ascontiguousarray(_atom_factor(
                plan, 2, dictionary.delays, comb._replace(start=0.0),
                conj=True))

    def _receive(self, residual, ia):
        """Residual contracted with the receive factor of arrival angle
        ``ia``: (K, N, F)."""
        return np.einsum("kmf,kmnf->knf", self._wr[ia], residual)

    def _delay_scores(self, t):
        """(R, D) scores of the transmit-contracted rows ``t`` (F, R, K)."""
        if self._use_fft:
            c = np.fft.ifft(t, n=self._fft_out.shape[0], axis=0,
                            norm="forward", out=self._fft_out[:, :t.shape[1]])
            if self._q_idx is not None:
                c = c[self._q_idx]
        else:
            c = self._dmat @ t.reshape(t.shape[0], -1)
            c = c.reshape(-1, *t.shape[1:])  # (D, R, K)
        v = c.view(float)  # (D, R, 2K): sum_k |c|^2 is a plain dot
        return np.einsum("...k,...k->...", v, v).T / self.mnf

    def _row_bounds(self, residual):
        """(A, B) upper bounds on every score of each (aoa, aod) row.

        Every delay factor has unit modulus, so by Cauchy-Schwarz over
        tones a row's scores are at most ``sum_{f,k} |t[f,b,k]|^2 /
        (M N)``, with ``t = sum_m wr[a,k,m,f] h[f,b,k,m]`` and ``h =
        sum_n wt[f,b,n] res[k,m,n,f]`` the transmit side contracted
        first (one batched matmul).  The receive phasors have unit
        modulus too, so ``sum_{k,f} |t|^2 = D[b] + 2 Re sum_{k,m<m',f}
        W[a,k,m,m',f] V[b,k,m,m',f]`` with ``D = sum |h|^2``, ``W =
        wr_m conj(wr_m')`` and ``V = h_m conj(h_m')``: the cross term is
        one real GEMM of the float views of ``conj(W)`` and ``V``.  Tones
        go a block at a time, about 1 MB of ``h`` per block.
        """
        k, m, n, f = residual.shape
        a, b = self._wr.shape[0], self._wt.shape[1]
        r = np.ascontiguousarray(residual.reshape(k * m, n, f).T)  # (F, N, KM)
        out = np.zeros((a, b))
        step = max(1, (1 << 20) // (16 * b * k * m))
        for lo in range(0, f, step):
            h = np.matmul(self._wt[lo:lo + step], r[lo:lo + step])
            fb = h.shape[0]
            hv = h.view(float).reshape(fb, b, -1)
            out += np.einsum("fbx,fbx->b", hv, hv)
            h = h.reshape(fb, b, k, m).transpose(1, 2, 3, 0)  # (B, K, M, Fb)
            wr = self._wr[..., lo:lo + step]
            # The P pairs m < m', grouped by m, in V and conj(W) alike.
            p = m * (m - 1) // 2
            v = np.empty((b, k, p, fb), dtype=complex)
            w = np.empty((a, k, p, fb), dtype=complex)
            j = 0
            for i in range(m - 1):
                pairs = slice(j, j + m - 1 - i)
                np.multiply(h[:, :, i:i + 1], h[:, :, i + 1:].conj(),
                            out=v[:, :, pairs])
                np.multiply(wr[:, :, i:i + 1].conj(), wr[:, :, i + 1:],
                            out=w[:, :, pairs])
                j = pairs.stop
            out += 2.0 * (w.reshape(a, -1).view(float)
                          @ v.reshape(b, -1).view(float).T)
        return out / (m * n)

    def scores(self, residual):
        """Full (A, B, D) score tensor, the scan :meth:`best` must agree
        with.  Meant for small dictionaries."""
        a, b, d = self.dictionary.shape
        out = np.empty((a, b, d))
        for ia in range(a):
            out[ia] = self._delay_scores(
                np.matmul(self._wt, self._receive(residual, ia).T))
        return out

    def best(self, residual):
        """Argmax over the whole dictionary without materializing it.

        Exact branch and bound over (aoa, aod) rows.  Every row gets an
        upper bound (:meth:`_row_bounds`), widened by a relative margin
        of ``1e-9`` for rounding.  The row with the highest bound is
        scored first to seed the best score; arrival angles are then
        visited by descending best-row bound, each scoring only the rows
        whose bound still reaches the best score so far (the seed row is
        not scored again), until the next angle's bound falls below it.
        Ties resolve to the lowest (aoa, aod, delay) index triple, same
        as a flat C-order argmax of :meth:`scores`.
        """
        bound = self._row_bounds(residual) * (1.0 + 1e-9)
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
        block = self._delay_scores(np.matmul(w, self._receive(residual, ia).T))
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
    e = _atom_factor(plan, 2, delta, comb)
    r = _atom_factor(plan, 0, aoa, comb)
    t = _atom_factor(plan, 1, aod, comb)
    return e * r[:, :, None, :] * t


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
    residual ``data - model_sum(atoms, gains)``).  The normal equations
    of all placements are formed and solved in one batch; should any
    Gram be singular, every placement falls back to ``lstsq``.
    """
    l, k = atoms.shape[0], atoms.shape[1]
    a = atoms.reshape(l, k, -1).transpose(1, 0, 2)  # (K, L, P)
    y = data.reshape(k, -1, 1)
    ac = a.conj()
    try:
        gains = np.linalg.solve(ac @ a.transpose(0, 2, 1), ac @ y)[..., 0]
    except np.linalg.LinAlgError:
        gains = np.stack([np.linalg.lstsq(a[j].T, y[j, :, 0], rcond=None)[0]
                          for j in range(k)])
    gains = np.ascontiguousarray(gains.T)
    return gains, data - model_sum(atoms, gains)


def model_sum(atoms, gains):
    """Model responses (K, M, N, F) of atoms (L, K, M, N, F) under gains (L, K)."""
    return np.einsum("lk...,lk->k...", atoms, gains)


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


def _line_score(plan, comb, factors, coord, peeled):
    """Energy an atom captures from ``peeled`` as one coordinate moves.

    ``factors`` holds the atom's three conjugated factors ``[r, t, e]``
    (:func:`_atom_factor` with ``conj=True``, in the coordinate order
    [aoa, aod, delay]); ``factors[coord]`` is not read.  Returns
    ``score(x)``, the triple ``(s, s', s'')`` in ``x`` of ``s = sum_k
    |c_k|^2 / (M N F)`` with ``c_k = <atom_k, peeled_k>`` of that atom
    with coordinate ``coord`` moved to ``x``.  The two fixed factors are
    contracted with ``peeled`` once, so each call builds only the moving
    factor, through :func:`_phase_factor` on the tone comb ``comb``: K*M,
    N or 1 delays for the aoa, the aod and the delay.

    The conjugated moving factor is ``phi = exp(2j pi f tau(x))``, so
    ``phi' = 2j pi f tau' phi`` and ``phi'' = (2j pi f tau'' + (2j pi f
    tau')^2) phi``, with ``tau' = 1, tau'' = 0`` for the delay and
    ``tau' = -u'(x).d / c, tau'' = -tau`` for an angle.  The product of
    ``phi`` with the contracted data and its first three tone moments
    therefore give ``c``, ``c'`` and ``c''`` from one build, and ``s' = 2
    Re sum_k conj(c_k) c'_k / (M N F)``, ``s'' = 2 sum_k (|c'_k|^2 + Re
    conj(c_k) c''_k) / (M N F)``.
    """
    k, m, n, f = peeled.shape
    mnf = m * n * f
    r, t, e = factors
    if coord == 0:
        h = np.einsum("nf,kmnf->kmf", t * e, peeled)
    elif coord == 1:
        h = np.einsum("kmf,kmnf->knf", r * e, peeled)
    else:
        h = np.einsum("nf,knf->kf", t, np.einsum("kmf,kmnf->knf", r, peeled))
    freqs = comb.tones()
    powers = np.stack([np.ones(f), freqs, freqs * freqs], axis=1).astype(complex)

    def score(x):
        if coord == 2:
            tau, dtau = x, 1.0
        else:
            # u'(x) = u(x + pi/2): tau and tau' from one projection
            tau, dtau = _factor_delay(plan, coord, [x, x + np.pi / 2])
        p = (_phase_factor(-tau, comb) * h).reshape(k, -1, f)
        q = p @ powers  # (K, R, 3) tone moments
        d1 = 2j * np.pi * dtau
        d2 = 0.0 if coord == 2 else -2j * np.pi * tau
        c0 = q[..., 0].sum(axis=1)
        c1 = (d1 * q[..., 1]).sum(axis=1)
        c2 = (d2 * q[..., 1] + d1 * d1 * q[..., 2]).sum(axis=1)
        return (float(np.sum(c0.real ** 2 + c0.imag ** 2)) / mnf,
                2.0 * float(np.sum((c0.conj() * c1).real)) / mnf,
                2.0 * float(np.sum(c1.real ** 2 + c1.imag ** 2
                                   + (c0.conj() * c2).real)) / mnf)

    return score


def _newton_ascent(score, center, step):
    """Safeguarded Newton ascent of ``score`` inside ``center +- step``.

    From the current point, a Newton step on ``(s, s', s'')`` when
    ``s'' < 0``, else a step to the window's edge in the direction of
    ``s'``; the target is clamped to the window and the step halved
    until the score is not worse.  Starting at ``center`` and moving
    only uphill, it never returns a point scoring below ``center``.
    Stops once a step would move less than ``_NEWTON_TOL * step``.
    """
    lo, hi = center - step, center + step
    tol = _NEWTON_TOL * step
    x = center
    s, d1, d2 = score(x)
    for _ in range(_NEWTON_MAX_STEPS):
        target = x - d1 / d2 if d2 < 0 else (hi if d1 > 0 else lo)
        dx = min(max(target, lo), hi) - x
        while abs(dx) > tol:
            trial = score(x + dx)
            if trial[0] >= s:
                break
            dx /= 2.0
        if abs(dx) <= tol:
            break
        x += dx
        s, d1, d2 = trial
    return x


def _cyclic_polish(plan, grid, params, data, steps, passes):
    """Cyclic coordinate ascent of every path against its peeled residual.

    ``params`` is a list of [aoa, aod, raw_delay] triples, modified in
    place.  Each path in turn is peeled out of the running residual
    (``residual + atom_j * gains_j``), then each coordinate climbs its
    separable score (:func:`_line_score`) by a safeguarded Newton ascent
    inside +-1 step (:func:`_newton_ascent`), which never ends below the
    current value.  Gains are refit jointly after every path update, so
    the joint residual is non-increasing.

    Each path keeps its three conjugated factors; a factor is rebuilt
    only when the ascent moved its coordinate, and the path's atom is
    the conjugate of their product, the same bits as
    :func:`response_atom`.

    Returns (params, gains, residual).
    """
    comb = grid.comb
    factors = [[_atom_factor(plan, c, p[c], comb, conj=True) for c in range(3)]
               for p in params]
    stack = np.stack([_conj_atom(fac) for fac in factors])
    gains, residual = per_placement_lsq(stack, data)
    for _ in range(max(passes, 0)):
        for j, fac in enumerate(factors):
            peeled = residual + stack[j] * gains[j][:, None, None, None]
            for coord in range(3):
                if steps[coord] > 0:
                    score = _line_score(plan, comb, fac, coord, peeled)
                    x = float(_newton_ascent(score, params[j][coord],
                                             steps[coord]))
                    if x != params[j][coord]:
                        fac[coord] = _atom_factor(plan, coord, x, comb,
                                                  conj=True)
                    params[j][coord] = x
            stack[j] = _conj_atom(fac)
            gains, residual = per_placement_lsq(stack, data)
    return params, gains, residual


def _conj_atom(factors):
    """The (K, M, N, F) atom of conjugated factors ``[r, t, e]``."""
    r, t, e = factors
    return (e * r[:, :, None, :] * t).conj()


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
        trial, new_gains, new_residual = _cyclic_polish(
            plan=mset.plan, grid=mset.grid,
            params=[list(p) for p in params] + [picked], data=data,
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
    params, gains, residual = _cyclic_polish(
        plan=mset.plan, grid=mset.grid, params=params, data=mset.responses,
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


def detect_paths_pdp(pdp: Pdp, threshold_db=30.0, min_separation_bins=2):
    """Candidate path delays from a delay profile.

    Finds circular local maxima of the profile, keeps those within
    ``threshold_db`` (power) of the strongest, then greedily suppresses
    neighbors closer than ``min_separation_bins``, strongest first with
    ties going to the lower bin.  Returned peaks are sorted by delay.
    """
    if threshold_db <= 0:
        raise InvalidGeometry("threshold_db must be positive")
    if min_separation_bins < 1:
        raise InvalidGeometry("min_separation_bins must be at least 1")
    m = np.asarray(pdp.magnitudes, dtype=float)
    empty = PdpPeaks(delays=np.empty(0), magnitudes=np.empty(0),
                     bins=np.empty(0, dtype=int))
    if m.size == 0 or m.max() == 0.0:
        return empty
    up = m >= np.roll(m, 1)
    down = m > np.roll(m, -1)
    cand = np.flatnonzero(up & down)
    floor = m.max() * 10.0 ** (-threshold_db / 20.0)
    cand = cand[m[cand] >= floor]
    if cand.size == 0:
        return empty
    order = cand[np.argsort(-m[cand], kind="stable")]
    kept = []
    n = m.size
    for i in order:
        dist = [min(abs(i - j), n - abs(i - j)) for j in kept]
        if all(d >= min_separation_bins for d in dist):
            kept.append(int(i))
    kept.sort()
    kept = np.asarray(kept, dtype=int)
    return PdpPeaks(delays=np.asarray(pdp.delay_bins)[kept],
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
    spread = np.abs(np.angle(np.exp(2j * (angles - angles[0]))))
    if np.all(spread < 2 * _PARALLEL_TOL):
        raise DegenerateTriangulation("bearings are parallel; no intersection")
    a = np.zeros((2, 2))
    rhs = np.zeros(2)
    for b in bearings:
        n = np.array([-np.sin(b.angle), np.cos(b.angle)])
        a += b.weight * np.outer(n, n)
        rhs += b.weight * n * (n @ b.position)
    try:
        point = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateTriangulation("bearing geometry is singular")
    behind = np.array([
        (point - b.position) @ unit_vector(b.angle) < 0 for b in bearings
    ])
    errs = [
        b.weight * ((point - b.position)
                    @ np.array([-np.sin(b.angle), np.cos(b.angle)])) ** 2
        for b in bearings
    ]
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


def localization_heatmap(bearings, region, cell, concentration=200.0):
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
        diff = np.angle(np.exp(1j * (ang - b.angle)))
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
    aoa: float
    aod: float
    margin: float

    @property
    def alpha(self):
        """Reflection-map phase implied by the winning hypothesis."""
        return alpha_from_bearings(self.aoa, self.aod, self.parity)


def estimate_parity(mset: MeasurementSet, path: PwaPathParams, tau,
                    residual=None):
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
    residual : optional (K, M, N, F) array
        Data with other paths peeled off; defaults to the raw captures.

    Returns
    -------
    ParityDecision
        ``ambiguous`` is set when the energy gap is within rounding of
        zero, in which case ``parity`` falls back to +1.
    """
    y = mset.responses if residual is None else np.asarray(residual, dtype=complex)
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
        aoa=path.aoa,
        aod=path.aod,
        margin=margin,
    )


def assemble_rm(result: ExtractionResult, anchor_tau, anchor_index, parities):
    """Anchor an extraction to absolute time and package every path.

    ``anchor_index`` names the path in ``result.paths`` whose absolute
    time of flight ``anchor_tau`` is known (from triangulation); every
    delta is shifted accordingly.  Gain magnitudes are the RMS over
    placements; phases are all read off the placement where the anchor
    path is strongest, the only deterministic common reference left once
    captures carry independent phases.  Each path's reflection map
    follows from its (aoa, aod, parity), so none is taken as input.

    Parameters
    ----------
    parities : sequence of int
        One parity per path, aligned with ``result.paths``.

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
    if len(parities) != len(paths):
        raise InvalidGeometry("need exactly one parity per path")
    taus = recover_abs_delays(anchor_tau, paths[anchor_index].delta,
                              [p.delta for p in paths])
    k_star = int(np.argmax(np.abs(paths[anchor_index].gains)))
    out = []
    for p, tau, parity in zip(paths, taus, parities):
        gain = p.amplitude() * np.exp(1j * np.angle(p.gains[k_star]))
        out.append(RmPathParams(gain=gain, tau=float(tau),
                                aoa=p.aoa, aod=p.aod, parity=parity))
    return out
