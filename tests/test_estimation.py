import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfchan.aperture import (MeasurementPlan, Pdp, mean_pdp,
                             plan_linear_track, simulate_campaign)
from nfchan.channel import (
    SPEED_OF_LIGHT as C,
    FrequencyGrid,
    PwaPathParams,
    RmPathParams,
    alpha_from_bearings,
    rm_from_alpha,
    unit_vector,
    wrap_angle,
)
from nfchan.errors import (
    DegenerateTriangulation,
    InconsistentAnchor,
    InvalidGeometry,
)
from nfchan.estimation import (
    PDP_THRESHOLD_DB,
    Bearing,
    DictionaryGrid,
    ExtractionResult,
    ScoreEngine,
    assemble_rm,
    detect_paths_pdp,
    estimate_parity,
    fft_delay_bins,
    image_from_polar,
    localization_heatmap,
    omp_extract,
    per_placement_lsq,
    recover_abs_delays,
    refine_extraction,
    response_atom,
    triangulate,
)
from nfchan.estimation import (_GainFit, _PolishBatch, _cyclic_polish,
                               _line_score, _model, _newton_ascent,
                               _noise_energy, _phase_factor, _plane_delay,
                               _repeats)
from nfchan.pipeline import (
    COARSE_AOA_STEP_DEG,
    COARSE_AOD_STEP_DEG,
    _angle_comb,
    _fold,
    _fold_setup,
    _pdp_delay_support,
)
from nfchan.scenario import (
    build_grid,
    build_plan,
    build_room,
    load_preset,
    true_paths,
)

WL = C / 10e9
TX3 = np.array([[12.0, 7.5], [12.0 - WL / 2, 7.5], [12.0, 7.5 + WL / 2]])


def grid64():
    return FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=64)


def small_plan():
    return plan_linear_track([1.0, 1.0], [0.0, 0.4, 0.8],
                             [WL / 2, WL], TX3)


def model_sum(atoms, gains):
    """Model responses (K, M, N, F) of atoms (L, K, M, N, F) under gains
    (L, K), formed by the gain fit's own product."""
    stack = atoms.reshape(*atoms.shape[:2], -1).transpose(1, 0, 2)
    return _model(stack, gains).reshape(atoms.shape[1:])


def abs_delays(result):
    """Sweep-absolute delays of an extraction, in path order."""
    return [p.delta + result.delay_origin for p in result.paths]


def room_coarse_sweep(n_tones=512):
    """room-20x10's plan, grid, true paths and folded coarse dictionary."""
    cfg = replace(load_preset("room-20x10"), n_tones=n_tones)
    plan, grid = build_plan(cfg), build_grid(cfg)
    truth = true_paths(cfg, plan)
    delays = _pdp_delay_support(simulate_campaign(truth, plan, grid))
    dic = DictionaryGrid(
        aoas=_fold(_angle_comb(COARSE_AOA_STEP_DEG),
                   *_fold_setup(plan, build_room(cfg))),
        aods=_angle_comb(COARSE_AOD_STEP_DEG),
        delays=delays)
    return plan, grid, truth, dic


def naive_scores(plan, grid, dictionary, residual):
    """Direct triple loop over the dictionary, atom by atom."""
    a, b, d = dictionary.shape
    mnf = plan.n_rx * plan.n_tx * grid.num_tones
    out = np.zeros((a, b, d))
    for ia in range(a):
        for ib in range(b):
            for idl in range(d):
                atom = response_atom(plan, grid,
                                     dictionary.aoas[ia],
                                     dictionary.aods[ib],
                                     dictionary.delays[idl])
                corr = np.einsum("kmnf,kmnf->k", atom.conj(), residual)
                out[ia, ib, idl] = np.sum(np.abs(corr) ** 2) / mnf
    return out


def cs_energy(engine, residual):
    """(A, B) Cauchy-Schwarz bounds of every row times M N: the energy of
    scores()'s own contraction over tones and placements."""
    return np.stack([
        np.sum(np.abs(np.matmul(engine._wt,
                                engine._receive(residual, ia).T)) ** 2,
               axis=(0, 2))
        for ia in range(engine.dictionary.shape[0])])


def assert_bound_bracket(engine, residual):
    """The row bounds lie between the Cauchy-Schwarz bound and that bound
    plus twice the remainder term of nfchan.rowbounds: ``4 pi^2
    sum_{k,e,e'} dtau^2 Q_e / (M N)``, with ``dtau`` the delay difference
    of element pairs e = (m, n) and e' = (m', n') and ``Q_e = sum_f o^2
    |x_e|^2``, ``o`` a tone's offset from the centre of its tone block.
    Returns the bounds."""
    plan, grid, dic = engine.plan, engine.grid, engine.dictionary
    mn = plan.n_rx * plan.n_tx
    tau_r = _plane_delay(dic.aoas[None],
                         (plan.rx_positions - plan.rx_ref)[None])[0]
    tau_t = _plane_delay(dic.aods[None],
                         (plan.tx_positions - plan.tx_ref)[None])[0]
    dr = tau_r[:, :, :, None] - tau_r[:, :, None, :]  # (A, K, M, M')
    dt = tau_t[:, :, None] - tau_t[:, None, :]  # (B, N, N')
    dtau = (dr[:, None, :, :, None, :, None]
            + dt[None, :, None, None, :, None, :])  # (A, B, K, M, N, M', N')
    lb = engine._row_bounds.blocks[1]
    tone = np.arange(grid.num_tones)
    o = (tone % lb - (lb - 1) / 2) * grid.spacing
    q = np.sum(o ** 2 * np.abs(residual) ** 2, axis=-1)  # (K, M, N)
    slack = 4 * np.pi ** 2 * np.einsum("abkmnpq,kmn->ab", dtau ** 2, q) / mn
    exact = cs_energy(engine, residual) / mn
    bound = engine._row_bounds(residual)
    assert np.all(bound >= exact * (1.0 - 1e-12))
    assert np.all(bound <= exact + slack + 1e-12 * exact.max())
    return bound


# Whole-degree angles, and arrival angles from either side of a track
# along x, where +-theta are the same atom.
DEGREES = st.lists(st.integers(1, 179), min_size=1, max_size=5,
                   unique=True).map(lambda d: np.deg2rad(sorted(d)))
SIDES = st.lists(
    st.tuples(st.integers(1, 179), st.sampled_from([(1,), (-1,), (-1, 1)])),
    min_size=1, max_size=4, unique_by=lambda p: p[0]).map(
        lambda ds: np.deg2rad(sorted(s * d for d, ss in ds for s in ss)))


def draw_residual(draw, plan, grid, dic):
    """A residual of noise, of one off-grid path, or of one first-order
    path on a dictionary node (which meets its bound)."""
    kind = draw(st.sampled_from(["noise", "path", "node"]))
    if kind == "noise":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        shape = (plan.n_placements, plan.n_rx, plan.n_tx, grid.num_tones)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "path":
        path = rm_from_alpha(1.0, draw(st.floats(39e-9, 45e-9)),
                             draw(st.floats(0.1, 3.0)),
                             draw(st.floats(-np.pi, np.pi)),
                             draw(st.sampled_from([1, -1])))
        return simulate_campaign([path], plan, grid).responses
    path = RmPathParams(1.0, draw(st.sampled_from(list(dic.delays))),
                        draw(st.sampled_from(list(dic.aoas))),
                        draw(st.sampled_from(list(dic.aods))))
    return simulate_campaign([path], plan, grid, model="pwa").responses


def assert_best_is_full_scan(engine, residual):
    """Every row's scores stay under its bound, which brackets the
    Cauchy-Schwarz bound, and best() returns the flat argmax of scores()
    with ties going to the lowest index triple."""
    scores = engine.scores(residual)
    bound = assert_bound_bracket(engine, residual)
    assert np.all(scores.max(axis=2) <= bound * (1.0 + 1e-9))
    idx, val = engine.best(residual)
    want = np.unravel_index(int(np.argmax(scores)), scores.shape)
    if engine.plan.n_tx == 1:
        # Every aod row is the same atom: best() scores only the
        # first, while within scores()' blocks the rows tie but for
        # rounding that depends on where in the block a row sits.
        assert idx[1] == 0
        idx, want = idx[::2], want[::2]
    assert idx == want
    assert val == pytest.approx(scores.max(), rel=1e-12)


class TestResponseAtom:
    def test_zero_displacement_is_pure_delay(self):
        # one element at each reference: the atom is the delay factor alone
        tx_ref, rx_ref = np.array([3.0, 4.0]), np.array([0.0, 1.0])
        plan = MeasurementPlan(rx_positions=rx_ref[None, None, :],
                               tx_positions=tx_ref[None, :])
        grid = grid64()
        got = response_atom(plan, grid, 0.3, 2.0, 10e-9)
        want = np.exp(-2j * np.pi * grid.tones() * 10e-9)
        assert got.shape == (1, 1, 1, 64)
        assert got[0, 0, 0] == pytest.approx(want, rel=1e-12)


class TestScoreEngine:
    def test_matches_naive_fft_delays(self):
        grid = grid64()
        plan = small_plan()
        dic = DictionaryGrid(
            aoas=np.linspace(0.2, 1.0, 5),
            aods=np.linspace(-2.0, -1.0, 4),
            delays=fft_delay_bins(grid, 35e-9, 47e-9),
        )
        paths = [rm_from_alpha(1.0, 41.5e-9, 0.55, 0.0, 1),
                 rm_from_alpha(0.4, 44.0e-9, 0.8, 0.3, -1)]
        m = simulate_campaign(paths, plan, grid, snr_db=15, seed=1)
        engine = ScoreEngine(plan, grid, dic)
        got = engine.scores(m.responses)
        want = naive_scores(plan, grid, dic, m.responses)
        assert np.allclose(got, want, rtol=1e-10)

    def test_matches_naive_arbitrary_delays(self):
        grid = grid64()
        plan = small_plan()
        dic = DictionaryGrid(
            aoas=np.linspace(0.2, 1.0, 4),
            aods=np.linspace(-2.0, -1.0, 3),
            delays=np.array([40.1e-9, 41.77e-9, 43.9e-9]),
        )
        paths = [rm_from_alpha(1.0, 41.5e-9, 0.55, 0.0, 1)]
        m = simulate_campaign(paths, plan, grid, snr_db=20, seed=2)
        engine = ScoreEngine(plan, grid, dic)
        assert not engine._use_fft
        got = engine.scores(m.responses)
        want = naive_scores(plan, grid, dic, m.responses)
        assert np.allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("span, use_fft", [
        ((38e-9, 46e-9), False),   # sparse on-comb support: GEMM
        ((20e-9, 219e-9), True),   # 200 of the 256 bins: FFT, then a gather
        ((0.0, None), True),       # full comb: FFT
    ])
    def test_cost_rule_picks_delay_path(self, span, use_fft):
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=128)
        plan = small_plan()
        dic = DictionaryGrid(
            aoas=np.array([0.3, 0.55, 0.9]),
            aods=np.array([-2.0, -1.2]),
            delays=fft_delay_bins(grid, *span),
        )
        m = simulate_campaign([rm_from_alpha(1.0, 41.5e-9, 0.55, 0.0, 1)],
                              plan, grid, snr_db=15, seed=5)
        engine = ScoreEngine(plan, grid, dic)
        assert engine._use_fft == use_fft
        got = engine.scores(m.responses)
        want = naive_scores(plan, grid, dic, m.responses)
        assert np.allclose(got, want, rtol=1e-10)

    def test_best_equals_scores_argmax(self):
        grid = grid64()
        plan = small_plan()
        dic = DictionaryGrid(
            aoas=np.linspace(0.1, 1.2, 6),
            aods=np.linspace(-2.2, -0.8, 5),
            delays=fft_delay_bins(grid, 38e-9, 46e-9),
        )
        m = simulate_campaign([rm_from_alpha(1.0, 41.5e-9, 0.55, 0.0, 1)],
                              plan, grid, snr_db=10, seed=3)
        engine = ScoreEngine(plan, grid, dic)
        scores = engine.scores(m.responses)
        idx, val = engine.best(m.responses)
        flat = int(np.argmax(scores))
        assert idx == np.unravel_index(flat, scores.shape)
        assert val == pytest.approx(scores.max(), rel=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_best_matches_full_scan(self, data):
        # Angles are whole degrees.  The receive track lies along x, so
        # arrival angles come from both sides and +-theta, the same
        # atom, occur as pairs of rows.  Departure angles stay in
        # (0, 180): a two-element transmitter lies along x too.
        draw = data.draw
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=128)
        plan = plan_linear_track(
            [1.0, 1.0],
            draw(st.lists(st.sampled_from([0.0, 0.2, 0.4, 0.8]),
                          min_size=1, max_size=3, unique=True)),
            draw(st.lists(st.sampled_from([WL / 2, WL, 2 * WL]),
                          min_size=1, max_size=2, unique=True)),
            TX3[:draw(st.integers(1, 3))],
            n_rx=draw(st.integers(1, 3)))
        span, use_fft = draw(st.sampled_from([((38e-9, 46e-9), False),
                                              ((20e-9, 219e-9), True),
                                              ((0.0, None), True)]))
        dic = DictionaryGrid(aoas=draw(SIDES), aods=draw(DEGREES),
                             delays=fft_delay_bins(grid, *span))
        residual = draw_residual(draw, plan, grid, dic)
        engine = ScoreEngine(plan, grid, dic)
        assert engine._use_fft == use_fft
        assert_best_is_full_scan(engine, residual)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_wide_apertures_keep_bound_and_argmax(self, data):
        # Receive spacings up to 16 wavelengths: the element-pair delay
        # differences grow sixteenfold and the row bounds' tone blocks
        # shrink toward single tones.  Track offsets up to 3.2 m give
        # the filters phases of hundreds of radians, and 97 tones pad
        # the last block.
        draw = data.draw
        grid = FrequencyGrid(center=10e9, bandwidth=500e6,
                             num_tones=draw(st.sampled_from([97, 128])))
        plan = plan_linear_track(
            [1.0, 1.0],
            draw(st.lists(st.sampled_from([0.0, 0.4, 1.6, 3.2]),
                          min_size=1, max_size=3, unique=True)),
            draw(st.lists(st.sampled_from([WL / 2, 4 * WL, 16 * WL]),
                          min_size=1, max_size=2, unique=True)),
            TX3[:draw(st.integers(1, 3))],
            n_rx=draw(st.integers(1, 3)))
        dic = DictionaryGrid(aoas=draw(SIDES), aods=draw(DEGREES),
                             delays=fft_delay_bins(grid, 38e-9, 46e-9))
        residual = draw_residual(draw, plan, grid, dic)
        assert_best_is_full_scan(ScoreEngine(plan, grid, dic), residual)

    def test_repeats_compare_values(self):
        # -0.0 and 0.0 are one value; the first of equal rows is kept
        tau = np.array([[[0.0, 1.0]], [[-0.0, 1.0]], [[1.0, 0.0]],
                        [[0.0, 1.0]], [[1.0, 0.0]], [[1.0, 2.0]]])
        assert _repeats(tau).tolist() == [False, True, False, True, True,
                                          False]

    def test_zero_residual_ties_to_first_triple(self):
        grid = grid64()
        plan = small_plan()
        dic = DictionaryGrid(aoas=np.linspace(0.2, 1.0, 4),
                             aods=np.linspace(-2.0, -1.0, 3),
                             delays=fft_delay_bins(grid, 38e-9, 46e-9))
        engine = ScoreEngine(plan, grid, dic)
        zero = np.zeros((plan.n_placements, plan.n_rx, plan.n_tx,
                         grid.num_tones), dtype=complex)
        assert engine.best(zero) == ((0, 0, 0), 0.0)

    def test_every_row_scored_once(self, monkeypatch):
        # The seed row is scored alone first and left out of its angle's
        # block: a zero residual ties every row at 0 and prunes none, so
        # each of the A * B rows is scored exactly once.
        grid = grid64()
        plan = small_plan()
        dic = DictionaryGrid(aoas=np.linspace(0.2, 1.0, 4),
                             aods=np.linspace(-2.0, -1.0, 3),
                             delays=fft_delay_bins(grid, 38e-9, 46e-9))
        scored = []
        score_rows = ScoreEngine._score_rows

        def recording(engine, residual, ia, rows):
            scored.extend((int(ia), int(r)) for r in rows)
            return score_rows(engine, residual, ia, rows)

        monkeypatch.setattr(ScoreEngine, "_score_rows", recording)
        engine = ScoreEngine(plan, grid, dic)
        zero = np.zeros((plan.n_placements, plan.n_rx, plan.n_tx,
                         grid.num_tones), dtype=complex)
        assert engine.best(zero) == ((0, 0, 0), 0.0)
        assert engine.rows_scored == len(scored) == 4 * 3
        assert len(set(scored)) == len(scored)
        rng = np.random.default_rng(5)
        for _ in range(3):
            scored.clear()
            before = engine.rows_scored
            residual = (rng.normal(size=zero.shape)
                        + 1j * rng.normal(size=zero.shape))
            idx, _ = engine.best(residual)
            scores = engine.scores(residual)
            assert idx == np.unravel_index(int(np.argmax(scores)),
                                           scores.shape)
            assert engine.rows_scored - before == len(scored)
            assert len(set(scored)) == len(scored)

    def test_single_path_prunes_coarse_preset_rows(self):
        # The room-20x10 coarse sweep: every true path alone, and all
        # four together, must be found after scoring under a quarter of
        # the (aoa, aod) rows.
        plan, grid, truth, dic = room_coarse_sweep()
        rows = dic.shape[0] * dic.shape[1]
        for paths in [[p] for p in truth] + [truth]:
            residual = simulate_campaign(paths, plan, grid).responses
            engine = ScoreEngine(plan, grid, dic)
            idx, val = engine.best(residual)
            scores = engine.scores(residual)
            assert idx == np.unravel_index(int(np.argmax(scores)),
                                           scores.shape)
            assert val == pytest.approx(scores.max(), rel=1e-12)
            assert engine.rows_scored < 0.25 * rows

    def test_best_peak_memory(self):
        # One sweep round on room-20x10's coarse dictionary at 20 dB.  The
        # row bounds take 0.6 MiB, a conjugated copy of the residual and
        # its tone-block moments: nothing in them runs per tone and row,
        # where a transmit-contracted residual alone would take 8.8 MB.
        # The blocks of rows scored set the peak.
        plan, grid, truth, dic = room_coarse_sweep()
        residual = simulate_campaign(truth, plan, grid, snr_db=20,
                                     seed=1).responses
        engine = ScoreEngine(plan, grid, dic)
        tracemalloc.start()
        try:
            engine.best(residual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20

    def test_best_peak_memory_fft(self):
        # The same round at 128 tones and 0 dB over all 256 half-bins:
        # the FFT path, transformed in place in the engine's buffer.  A
        # block of rows sets best()'s peak of 0.3 MiB, the row bounds
        # taking 0.25 MiB, so one block of every aod row is measured as
        # well: a copy of its (2F, B, K) rows would add 2.1 MiB to the
        # 0.3 MiB it takes.
        plan, grid, truth, dic = room_coarse_sweep(n_tones=128)
        dic = DictionaryGrid(aoas=dic.aoas, aods=dic.aods,
                             delays=fft_delay_bins(grid))
        residual = simulate_campaign(truth, plan, grid, snr_db=0,
                                     seed=3).responses
        engine = ScoreEngine(plan, grid, dic)
        assert engine._use_fft
        tracemalloc.start()
        try:
            engine.best(residual)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            engine._score_rows(residual, 0, np.arange(dic.aods.size))
            block_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20
        assert block_peak <= 2 ** 20

    def test_engine_memory(self):
        # The receive filters are held as comb factors: the (61, 9, 2,
        # 512) bank multiplied out would alone take 8.6 MiB.  The row
        # bounds keep element-pair phasors per tone block, not per tone
        # (0.3 MiB over 4 blocks).
        plan, grid, _, dic = room_coarse_sweep()
        tracemalloc.start()
        try:
            engine = ScoreEngine(plan, grid, dic)  # alive while measured
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del engine
        assert held <= 4 * 2 ** 20
        assert peak <= 6 * 2 ** 20

    def test_padded_comb(self):
        # 97 tones split 4 * 5 * 5 = 100, so the filters' comb factors
        # cover 3 tones past the grid.  The row bounds cut the tones into
        # 4 blocks of 25, so their last block is zero-padded by 3 tones.
        plan, grid, truth, dic = room_coarse_sweep(n_tones=97)
        residual = simulate_campaign(truth, plan, grid, snr_db=20,
                                     seed=4).responses
        engine = ScoreEngine(plan, grid, dic)
        assert engine._row_bounds.blocks == (4, 25)
        tau_r = _plane_delay(dic.aoas[None],
                             (plan.rx_positions - plan.rx_ref)[None])[0]
        wr = _phase_factor(-tau_r, grid.comb)
        for ia in range(dic.shape[0]):
            assert np.array_equal(
                engine._receive(residual, ia),
                np.einsum("kmf,kmnf->knf", wr[ia], residual))
        scores = engine.scores(residual)
        bound = assert_bound_bracket(engine, residual)
        assert np.all(scores.max(axis=2) <= bound * (1.0 + 1e-9))
        idx, val = engine.best(residual)
        assert idx == np.unravel_index(int(np.argmax(scores)), scores.shape)
        assert val == pytest.approx(scores.max(), rel=1e-12)

    @pytest.mark.parametrize("n_tones, snr_db, seed, use_fft", [
        (512, 20, 1, False),
        (128, 0, 3, True),
    ])
    def test_pruning_matches_exact_bounds(self, n_tones, snr_db, seed,
                                          use_fft):
        # The moment bounds sit a few parts in 10^4 above the exact
        # Cauchy-Schwarz ones, so best() scores at most 1% more rows than
        # those whose exact bound reaches the score it returns.
        plan, grid, truth, dic = room_coarse_sweep(n_tones=n_tones)
        if use_fft:
            dic = DictionaryGrid(aoas=dic.aoas, aods=dic.aods,
                                 delays=fft_delay_bins(grid))
        residual = simulate_campaign(truth, plan, grid, snr_db=snr_db,
                                     seed=seed).responses
        engine = ScoreEngine(plan, grid, dic)
        assert engine._use_fft == use_fft
        _, val = engine.best(residual)
        exact = cs_energy(engine, residual) / (plan.n_rx * plan.n_tx)
        exact[engine._repeat_aoa] = -np.inf
        exact[:, engine._repeat_aod] = -np.inf
        assert engine.rows_scored <= 1.01 * np.count_nonzero(exact >= val)

    def test_dictionary_validation(self):
        with pytest.raises(InvalidGeometry):
            DictionaryGrid(aoas=[0.2, 0.1], aods=[0.0], delays=[1e-9])
        with pytest.raises(InvalidGeometry):
            DictionaryGrid(aoas=[0.1], aods=[0.0], delays=[-1e-9, 1e-9])

    def test_fft_delay_bins(self):
        grid = grid64()
        d = fft_delay_bins(grid, 0.0, 5e-9)
        step = 1 / (2 * grid.bandwidth)
        assert d[0] == 0.0
        assert np.allclose(np.diff(d), step)
        assert d[-1] <= 5e-9
        with pytest.raises(InvalidGeometry):
            fft_delay_bins(grid, 5e-9, 4e-9)


class TestPhaseFactor:
    @pytest.mark.parametrize("n_tones", [2, 3, 97, 128, 512])
    def test_tone_split_matches_direct_exp(self, n_tones):
        # the tone comb (atom factors) and the start-at-zero comb (the
        # sweep's delay matrix); the bound is channel's tone_phasors
        # bound, 4 eps (max phase + 1)
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=n_tones)
        taus = np.random.default_rng(n_tones).uniform(-300e-9, 300e-9, (4, 3))
        eps = np.finfo(float).eps
        for comb in (grid.comb, grid.comb._replace(start=0.0)):
            phase = -2j * np.pi * (taus[..., None] * comb.tones())
            got = _phase_factor(taus, comb)
            assert got.shape == taus.shape + (n_tones,)
            assert (np.max(np.abs(got - np.exp(phase)))
                    <= 4 * eps * (np.max(np.abs(phase)) + 1))


class TestPlaneDelay:
    @pytest.mark.parametrize("n_angles", [None, 2, 61])
    def test_matches_tensordot(self, n_angles):
        # every angle against every displacement, the same bits as the
        # tensordot form: receive (K, M, 2) and transmit (N, 2) offsets
        plan = small_plan()
        rng = np.random.default_rng(61)
        angle = (rng.uniform(-np.pi, np.pi) if n_angles is None
                 else rng.uniform(-np.pi, np.pi, n_angles))
        for disp in (plan.rx_positions - plan.rx_ref,
                     plan.tx_positions - plan.tx_ref):
            got = _plane_delay(np.reshape(angle, (1, -1)), disp[None])
            want = np.tensordot(unit_vector(angle), disp,
                                axes=(-1, -1)) / -C
            assert got.shape == (1, np.size(angle)) + disp.shape[:-1]
            assert np.array_equal(got.reshape(want.shape), want)

    def test_stacked_problems_match_tensordot(self):
        # S = 3 different problems, one angle each: row s against
        # problem s's receive displacements only, and against the shared
        # transmit displacements broadcast over S
        rng = np.random.default_rng(62)
        tx = rng.uniform(-0.05, 0.05, (3, 2))
        rx = rng.uniform(-1.0, 1.0, (3, 4, 2, 2))  # (S, K, M, 2)
        angle = rng.uniform(-np.pi, np.pi, (3, 1))
        got_r = _plane_delay(angle, rx)
        got_t = _plane_delay(angle, tx[None])
        assert got_r.shape == (3, 1, 4, 2)
        assert got_t.shape == (3, 1, 3)
        for s in range(3):
            u = unit_vector(angle[s])
            assert np.array_equal(
                got_r[s], np.tensordot(u, rx[s], axes=(-1, -1)) / -C)
            assert np.array_equal(
                got_t[s], np.tensordot(u, tx, axes=(-1, -1)) / -C)


def line_score(plan, comb, params, coord, data):
    """:func:`_line_score` of one problem at ``params``, as a scalar
    function returning the float triple (s, s', s'')."""
    batch = _PolishBatch([plan], data)
    factors = [batch.factor(c, np.array([params[c]]), comb) for c in range(3)]
    score = _line_score(batch, comb, factors, coord, batch.y)
    return lambda x: tuple(float(v[0]) for v in score(np.array([x]), [0]))


class TestLineScore:
    def test_matches_full_atom_score(self):
        grid = grid64()
        plan = small_plan()
        paths = [rm_from_alpha(1.0, 41.5e-9, 0.55, 0.0, 1),
                 rm_from_alpha(0.4, 44.0e-9, 0.8, 0.3, -1)]
        m = simulate_campaign(paths, plan, grid, snr_db=15, seed=4)
        mnf = plan.n_rx * plan.n_tx * grid.num_tones
        p = paths[0]
        params = [p.aoa + 0.013, p.aod - 0.021, p.tau + 0.37e-9]
        offsets = {0: (-0.017, 0.004, 0.029), 1: (-0.031, 0.011, 0.022),
                   2: (-0.61e-9, 0.13e-9, 0.83e-9)}
        for coord, deltas in offsets.items():
            score = line_score(plan, grid.comb, params, coord, m.responses)
            for dx in deltas:
                trial = list(params)
                trial[coord] += dx
                atom = response_atom(plan, grid, *trial)
                corr = np.einsum("kmnf,kmnf->k", atom.conj(), m.responses)
                want = np.sum(np.abs(corr) ** 2) / mnf
                assert score(trial[coord])[0] == pytest.approx(want, rel=1e-12)

    def test_derivatives_match_central_differences(self):
        grid = grid64()
        plan = small_plan()
        paths = [rm_from_alpha(1.0, 41.5e-9, 0.55, 0.0, 1),
                 rm_from_alpha(0.4, 44.0e-9, 0.8, 0.3, -1)]
        m = simulate_campaign(paths, plan, grid, snr_db=15, seed=4)
        p = paths[0]
        params = [p.aoa + 0.013, p.aod - 0.021, p.tau + 0.37e-9]
        # off-grid points on the flanks, where s' is far from zero
        points = {0: (-0.017, 0.029), 1: (-0.031, 0.022),
                  2: (-0.61e-9, 0.83e-9)}
        widths = {0: 1e-3, 1: 1e-3, 2: 1e-11}
        for coord, deltas in points.items():
            score = line_score(plan, grid.comb, params, coord, m.responses)
            h = widths[coord]
            for dx in deltas:
                x = params[coord] + dx
                s, d1, d2 = score(x)
                # fourth-order central differences
                sp1, sm1 = score(x + h)[0], score(x - h)[0]
                sp2, sm2 = score(x + 2 * h)[0], score(x - 2 * h)[0]
                fd1 = (8 * (sp1 - sm1) - (sp2 - sm2)) / (12 * h)
                fd2 = (16 * (sp1 + sm1) - (sp2 + sm2) - 30 * s) / (12 * h * h)
                assert d1 == pytest.approx(fd1, rel=1e-6)
                assert d2 == pytest.approx(fd2, rel=1e-6)


class TestPerPlacementLsq:
    @staticmethod
    def random_complex(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def assert_lstsq_fit(atoms, data, gains, residual):
        """(gains, residual) agree with one ``lstsq`` per placement."""
        l, k = atoms.shape[:2]
        a, y = atoms.reshape(l, k, -1), data.reshape(k, -1)
        want = np.stack([np.linalg.lstsq(a[:, j].T, y[j], rcond=None)[0]
                         for j in range(k)], axis=1)
        want_res = data - model_sum(atoms, want)
        assert gains.shape == (l, k)
        assert np.linalg.norm(gains - want) <= 1e-10 * np.linalg.norm(want)
        assert (np.linalg.norm(residual - want_res)
                <= 1e-10 * np.linalg.norm(want_res))

    @staticmethod
    def gain_fit(atoms, data):
        """A :class:`_GainFit` of ``atoms`` built row by row in index
        order, as ``per_placement_lsq`` builds it."""
        fit = _GainFit(data, len(atoms))
        for j, atom in enumerate(atoms):
            fit.atom(j)[...] = atom
            fit.update(j)
        return fit

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(l=st.integers(1, 4), k=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_lstsq_per_placement(self, l, k, seed):
        rng = np.random.default_rng(seed)
        atoms = self.random_complex(rng, (l, k, 2, 3, 4))
        data = self.random_complex(rng, (k, 2, 3, 4))
        self.assert_lstsq_fit(atoms, data, *per_placement_lsq(atoms, data))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(l=st.integers(1, 4), k=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_in_order_updates_give_from_scratch_fit(self, l, k, seed):
        # the polish's contract: from whatever atoms the fit holds, one
        # update per atom in index order leaves the from-scratch bits
        rng = np.random.default_rng(seed)
        start = self.random_complex(rng, (l, k, 2, 3, 4))
        atoms = self.random_complex(rng, (l, k, 2, 3, 4))
        data = self.random_complex(rng, (k, 2, 3, 4))
        fit = self.gain_fit(start, data)
        for j in range(l):
            fit.atom(j)[...] = atoms[j]
            fit.update(j)
        gains, residual = fit.solve()
        want_gains, want_residual = per_placement_lsq(atoms, data)
        assert np.array_equal(gains, want_gains)
        assert np.array_equal(residual, want_residual)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(l=st.integers(1, 4), k=st.integers(1, 4), j=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_single_update_matches_lstsq(self, l, k, j, seed):
        rng = np.random.default_rng(seed)
        atoms = self.random_complex(rng, (l, k, 2, 3, 4))
        data = self.random_complex(rng, (k, 2, 3, 4))
        fit = self.gain_fit(atoms, data)
        j %= l
        atoms[j] = self.random_complex(rng, atoms.shape[1:])
        fit.atom(j)[...] = atoms[j]
        fit.update(j)
        self.assert_lstsq_fit(atoms, data, *fit.solve())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(l=st.integers(2, 4), k=st.integers(1, 4), i=st.integers(0, 3),
           shift=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_duplicating_update_falls_back_to_lstsq(self, l, k, i, shift,
                                                    seed):
        rng = np.random.default_rng(seed)
        atoms = self.random_complex(rng, (l, k, 2, 3, 4))
        data = self.random_complex(rng, (k, 2, 3, 4))
        fit = self.gain_fit(atoms, data)
        i, j = i % l, (i + shift) % l
        j = j if j != i else (i + 1) % l
        atoms[j] = atoms[i]
        fit.atom(j)[...] = atoms[j]
        fit.update(j)
        with mock.patch.object(np.linalg, "lstsq",
                               wraps=np.linalg.lstsq) as lstsq:
            gains, residual = fit.solve()
        assert lstsq.call_count == k
        assert np.all(np.isfinite(gains))
        assert np.array_equal(residual, data - model_sum(atoms, gains))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(l=st.integers(1, 4), k=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_model_sum_matches_einsum(self, l, k, seed):
        rng = np.random.default_rng(seed)
        atoms = self.random_complex(rng, (l, k, 2, 3, 4))
        gains = self.random_complex(rng, (l, k))
        want = np.einsum("lk...,lk->k...", atoms, gains)
        got = model_sum(atoms, gains)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_singular_gram_falls_back_to_lstsq(self, monkeypatch):
        rng = np.random.default_rng(3)
        atom = self.random_complex(rng, (1, 3, 2, 3, 4))
        atoms = np.concatenate([atom, atom])
        data = self.random_complex(rng, (3, 2, 3, 4))
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        gains, residual = per_placement_lsq(atoms, data)
        assert len(calls) == 3
        assert np.all(np.isfinite(gains))
        assert np.array_equal(residual, data - model_sum(atoms, gains))
        # the duplicated atom still absorbs what one copy of it can
        _, single = per_placement_lsq(atom, data)
        assert np.allclose(residual, single, rtol=0, atol=1e-12)


class TestExtractionResult:
    def test_energies_and_iterations_are_derived(self):
        res = ExtractionResult(paths=[], selections=[(0, 1, 2), (1, 1, 0)],
                               residual_history=[4.0, 1.0, 0.5])
        assert res.initial_energy == 4.0
        assert res.residual_energy == 0.5
        assert res.iterations == 2
        assert res.residual_fraction() == 0.125

    def test_empty_history_is_refused(self):
        with pytest.raises(InvalidGeometry, match="residual_history"):
            ExtractionResult(paths=[], selections=[], residual_history=[])


class TestPolish:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(offsets=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
           snr_db=st.sampled_from([None, 10.0]))
    def test_never_lowers_energy_or_leaves_window(self, offsets, snr_db):
        grid = grid64()
        plan = small_plan()
        paths = [rm_from_alpha(1.0, 41.5e-9, 0.55, 0.0, 1),
                 rm_from_alpha(0.4, 44.0e-9, 0.8, 0.3, -1)]
        m = simulate_campaign(paths, plan, grid, snr_db=snr_db, seed=4)
        steps = (np.deg2rad(3.0), np.deg2rad(6.0), 1.0 / (2 * grid.bandwidth))
        start = [[p.aoa + offsets[2 * j] * steps[0],
                  p.aod + offsets[2 * j + 1] * steps[1],
                  p.tau + (offsets[2 * j] - offsets[2 * j + 1]) * steps[2]]
                 for j, p in enumerate(paths)]
        atoms = np.stack([response_atom(plan, grid, *q) for q in start])
        before = np.sum(np.abs(per_placement_lsq(atoms, m.responses)[1]) ** 2)
        [params], _, [residual] = _cyclic_polish(
            [plan], grid, [[list(q) for q in start]], m.responses, steps, 1)
        assert np.sum(np.abs(residual) ** 2) <= before * (1 + 1e-12)
        for old, new in zip(start, params):
            for c in range(3):
                assert abs(new[c] - old[c]) <= steps[c] * (1 + 1e-12)

    def test_cached_factors_give_response_atom_fit(self):
        # the polish builds atoms from factors it updates in place; the
        # atoms of its returned params, built afresh, must give the very
        # gains and residual it returns
        grid = grid64()
        plan = small_plan()
        paths = [rm_from_alpha(1.0, 41.5e-9, 0.55, 0.0, 1),
                 rm_from_alpha(0.4, 44.0e-9, 0.8, 0.3, -1)]
        m = simulate_campaign(paths, plan, grid, snr_db=10.0, seed=4)
        steps = (np.deg2rad(3.0), np.deg2rad(6.0), 1.0 / (2 * grid.bandwidth))
        start = [[p.aoa + 0.4 * steps[0], p.aod - 0.3 * steps[1],
                  p.tau + 0.2 * steps[2]] for p in paths]
        [params], [gains], [residual] = _cyclic_polish(
            [plan], grid, [[list(q) for q in start]], m.responses, steps, 2)
        assert all(new[c] != old[c] for old, new in zip(start, params)
                   for c in range(3))
        atoms = np.stack([response_atom(plan, grid, *q) for q in params])
        want_gains, want_residual = per_placement_lsq(atoms, m.responses)
        assert np.array_equal(gains, want_gains)
        assert np.array_equal(residual, want_residual)

    def test_newton_ascent_stays_uphill_in_window(self):
        # a score whose maximum lies outside the window, and one that is
        # convex at the start: both end on the window's edge
        def peak_at_3(x, idx=None):
            return -(x - 3.0) ** 2, -2.0 * (x - 3.0), np.full_like(x, -2.0)

        def convex(x, idx=None):
            return x * x, 2.0 * x, np.full_like(x, 2.0)

        for score in (peak_at_3, convex):
            [x] = _newton_ascent(score, np.array([0.5]), 1.0)
            assert x in (1.5, -0.5)
            assert score(x)[0] >= score(0.5)[0]

    def test_newton_ascent_halves_an_overshoot(self):
        # from 0.4 the Newton step on cos(3x) lands at -0.457, below the
        # start; halving it reaches the basin of the maximum at 0
        def score(x, idx):
            return np.cos(3 * x), -3 * np.sin(3 * x), -9 * np.cos(3 * x)

        [x] = _newton_ascent(score, np.array([0.4]), 1.0)
        assert abs(x) < 1e-7

    def test_newton_ascent_lockstep_matches_one_problem(self):
        # the three scores above, each with its own center and step, in
        # one lockstep ascent: problems stop at different steps, and each
        # must end exactly where its one-problem ascent ends
        scores = [lambda x: (-(x - 3.0) ** 2, -2.0 * (x - 3.0),
                             np.full_like(x, -2.0)),
                  lambda x: (x * x, 2.0 * x, np.full_like(x, 2.0)),
                  lambda x: (np.cos(3 * x), -3 * np.sin(3 * x),
                             -9 * np.cos(3 * x))]
        centers, steps = [0.5, -0.2, 0.4], [1.0, 0.7, 0.9]
        called = []

        def batched(x, idx):
            called.append(list(idx))
            return np.array([np.broadcast_to(scores[i](v), 3)
                             for i, v in zip(idx, x)]).T

        got = _newton_ascent(batched, np.array(centers), np.array(steps))
        want = [_newton_ascent(lambda x, idx, f=f: f(x), np.array([c]), w)
                for f, c, w in zip(scores, centers, steps)]
        assert got.tolist() == np.concatenate(want).tolist()
        # every problem is scored at its center, then only while it moves
        assert called[0] == [0, 1, 2]
        assert any(len(idx) < 3 for idx in called)


class TestOmpExtract:
    def make_campaign(self, grid, plan, snr_db=None, seed=0):
        # Two well-separated paths placed exactly on dictionary nodes.
        step = 1 / (2 * grid.bandwidth)
        self.true = [
            RmPathParams(1.0, 42 * step, 0.55, -2.0),
            RmPathParams(0.4 * np.exp(0.9j), 50 * step, 1.05, -1.3),
        ]
        self.dic = DictionaryGrid(
            aoas=np.arange(0.25, 1.35, 0.1),
            aods=np.arange(-2.3, -0.9, 0.1),
            delays=fft_delay_bins(grid, 38 * step, 55 * step),
        )
        return simulate_campaign(self.true, plan, grid, snr_db=snr_db,
                                 seed=seed, model="pwa")

    def test_exact_recovery_on_grid(self):
        grid = grid64()
        plan = small_plan()
        m = self.make_campaign(grid, plan)
        res = omp_extract(m, self.dic, l_max=2)
        assert res.iterations == 2
        # Paths come back strongest first with a zero delta floor.
        assert [p.strength for p in res.paths] == sorted(
            [p.strength for p in res.paths], reverse=True)
        assert min(p.delta for p in res.paths) == 0.0
        assert res.delay_origin == pytest.approx(self.true[0].tau, abs=1e-15)
        got = sorted(res.paths, key=lambda p: p.delta)
        for path, true in zip(got, self.true):
            assert path.delta + res.delay_origin == pytest.approx(
                true.tau, abs=1e-15)
            assert path.aoa == pytest.approx(true.aoa, abs=1e-12)
            assert path.aod == pytest.approx(true.aod, abs=1e-12)
            assert np.allclose(np.abs(path.gains), abs(true.gain), rtol=1e-9)
        assert res.residual_fraction() < 1e-18

    def test_residual_history_monotone(self):
        grid = grid64()
        plan = small_plan()
        m = self.make_campaign(grid, plan, snr_db=10, seed=9)
        res = omp_extract(m, self.dic, l_max=4)
        hist = res.residual_history
        assert hist[0] == res.initial_energy
        assert hist[-1] == res.residual_energy
        assert all(b <= a + 1e-9 * res.initial_energy
                   for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        grid = grid64()
        plan = small_plan()
        m = self.make_campaign(grid, plan, snr_db=15, seed=7)
        r1 = omp_extract(m, self.dic, l_max=3)
        r2 = omp_extract(m, self.dic, l_max=3)
        assert r1.selections == r2.selections
        for a, b in zip(r1.paths, r2.paths):
            assert np.array_equal(a.gains, b.gains)

    def test_noisy_selections_match_clean(self):
        grid = grid64()
        plan = small_plan()
        clean = self.make_campaign(grid, plan)
        noisy = self.make_campaign(grid, plan, snr_db=20, seed=5)
        sel_clean = omp_extract(clean, self.dic, l_max=2).selections
        sel_noisy = omp_extract(noisy, self.dic, l_max=2).selections
        assert sel_clean == sel_noisy

    def test_stop_fraction(self):
        grid = grid64()
        plan = small_plan()
        m = self.make_campaign(grid, plan)
        res = omp_extract(m, self.dic, l_max=6, stop_fraction=1e-6)
        assert res.iterations == 2

    def test_gain_phases_follow_capture_phases(self):
        grid = grid64()
        plan = small_plan()
        m = self.make_campaign(grid, plan, seed=11)
        coh = simulate_campaign(self.true, plan, grid, coherent=True,
                                seed=11, model="pwa")
        res = omp_extract(m, self.dic, l_max=2)
        res_c = omp_extract(coh, self.dic, l_max=2)
        # Per-placement phase ratios of any path equal the capture phases.
        ratio = res.paths[0].gains / res_c.paths[0].gains
        ratio2 = res.paths[1].gains / res_c.paths[1].gains
        assert np.allclose(np.abs(ratio), 1.0, atol=1e-9)
        assert np.allclose(ratio, ratio2, atol=1e-9)

    @pytest.mark.parametrize("passes", [0, 1])
    def test_repick_of_held_path_ends_sweep(self, passes):
        # one cell: the second round can only pick the path already held
        grid = grid64()
        m = self.make_campaign(grid, small_plan())
        p = self.true[0]
        cell = DictionaryGrid(aoas=[p.aoa], aods=[p.aod], delays=[p.tau])
        res = omp_extract(m, cell, l_max=3, polish_passes=passes)
        assert res.selections == [(0, 0, 0)]
        assert len(res.residual_history) == 2
        assert res.residual_energy < res.initial_energy

    @pytest.mark.parametrize("passes", [0, 1])
    def test_round_that_captures_nothing_is_rolled_back(self, passes):
        # one bin (1 / bandwidth) off the only path is a null of the tone
        # comb, so the one cell captures nothing and no round is kept
        grid = grid64()
        p = RmPathParams(1.0, 42 / (2 * grid.bandwidth), 0.55, -2.0)
        m = simulate_campaign([p], small_plan(), grid, model="pwa")
        cell = DictionaryGrid(aoas=[p.aoa], aods=[p.aod],
                              delays=[p.tau + 1 / grid.bandwidth])
        res = omp_extract(m, cell, l_max=3, polish_passes=passes)
        assert res.paths == [] and res.selections == []
        assert res.residual_history == [res.initial_energy]
        assert res.residual_energy == res.initial_energy


class TestNoiseEnergy:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(f=st.integers(8, 512), log_var=st.floats(-6.0, 6.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_sample_count_times_variance(self, f, log_var, seed):
        # pure complex Gaussian noise of variance s2: the estimate is
        # n * s2 within 10% at every tone count (32768+ samples, so the
        # median's spread is about 1%)
        rng = np.random.default_rng(seed)
        shape = (-(-8192 // f), 2, 2, f)
        s2 = 10.0 ** log_var
        noise = np.sqrt(s2 / 2) * (rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape))
        assert _noise_energy(noise) == pytest.approx(noise.size * s2,
                                                     rel=0.1)


class TestRefine:
    def test_off_grid_single_path(self):
        grid = grid64()
        plan = small_plan()
        step = 1 / (2 * grid.bandwidth)
        true = RmPathParams(1.0, 41.37 * step, 0.5637, -1.9421)
        m = simulate_campaign([true], plan, grid, model="pwa", seed=1)
        dic = DictionaryGrid(
            aoas=np.arange(0.3, 0.9, 0.05),
            aods=np.arange(-2.2, -1.6, 0.05),
            delays=fft_delay_bins(grid, 35 * step, 48 * step),
        )
        coarse = omp_extract(m, dic, l_max=1)
        fine = refine_extraction(m, coarse, aoa_step=0.05, aod_step=0.05)
        assert abs(coarse.paths[0].aoa - true.aoa) > 5e-3
        assert abs(fine.paths[0].aoa - true.aoa) < 5e-4
        assert abs(fine.paths[0].aod - true.aod) < 5e-3
        assert abs(abs_delays(fine)[0] - true.tau) < 1e-12
        assert fine.residual_energy < coarse.residual_energy / 50

    def test_two_path_refinement_keeps_both(self):
        grid = grid64()
        plan = small_plan()
        step = 1 / (2 * grid.bandwidth)
        true = [RmPathParams(1.0, 41.3 * step, 0.57, -2.01),
                RmPathParams(0.5, 49.6 * step, 1.02, -1.24)]
        m = simulate_campaign(true, plan, grid, model="pwa", seed=2)
        dic = DictionaryGrid(
            aoas=np.arange(0.3, 1.3, 0.05),
            aods=np.arange(-2.3, -1.0, 0.05),
            delays=fft_delay_bins(grid, 36 * step, 55 * step),
        )
        fine = refine_extraction(m, omp_extract(m, dic, l_max=2),
                                 aoa_step=0.05, aod_step=0.05)
        order = np.argsort(abs_delays(fine))
        for j, want in zip(order, true):
            assert abs(fine.paths[j].aoa - want.aoa) < 2e-3
            assert abs(abs_delays(fine)[j] - want.tau) < 3e-12
        assert fine.residual_fraction() < 1e-4
        assert min(p.delta for p in fine.paths) == 0.0


class TestBearingsAndTriangulation:
    def test_exact_intersection(self):
        target = np.array([7.0, 13.0])
        origins = [np.array([0.0, 0.0]), np.array([4.0, 0.0]),
                   np.array([-3.0, 2.0])]
        bearings = [
            Bearing(o, float(np.arctan2(*(target - o)[::-1])), weight=w)
            for o, w in zip(origins, [1.0, 2.0, 0.5])
        ]
        res = triangulate(bearings)
        assert np.allclose(res.point, target, atol=1e-9)
        assert not res.behind.any()
        assert res.residual <= 1e-18

    def test_behind_flag(self):
        target = np.array([5.0, 5.0])
        b1 = Bearing([0.0, 0.0], np.arctan2(5, 5))
        b2 = Bearing([10.0, 0.0], np.arctan2(5, -5))
        b3 = Bearing([2.0, 2.0], np.arctan2(3, 3) + np.pi)  # pointing away
        res = triangulate([b1, b2, b3])
        assert np.allclose(res.point, target, atol=1e-9)
        assert list(res.behind) == [False, False, True]

    def test_residual_is_weighted_normal_sum(self):
        b1 = Bearing([0.0, 0.0], 0.0, weight=2.0)   # the x axis
        b2 = Bearing([5.0, 1.0], np.pi / 2, weight=1.0)  # x = 5 upward
        res = triangulate([b1, b2])
        # Optimum sits at (5, y*) with 2 y*^2 + (shift)^2 minimized on y only.
        want = min(2.0 * y * y for y in np.linspace(0, 1, 100001))
        assert res.point[0] == pytest.approx(5.0)
        assert res.residual == pytest.approx(want, abs=1e-12)

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateTriangulation):
            triangulate([Bearing([0, 0], 0.3)])
        with pytest.raises(DegenerateTriangulation):
            triangulate([Bearing([0, 0], 0.3), Bearing([1, 1], 0.3),
                         Bearing([2, 0], 0.3 + np.pi)])

    def test_weights_pull_solution(self):
        # Two noisy bearings to the same target plus one heavy outlier.
        target = np.array([5.0, 5.0])
        good1 = Bearing([0.0, 0.0], np.arctan2(5, 5), weight=1.0)
        good2 = Bearing([10.0, 0.0], np.arctan2(5, -5), weight=1.0)
        bad = Bearing([0.0, 10.0], -0.3, weight=1e-6)
        res = triangulate([good1, good2, bad])
        assert np.allclose(res.point, target, atol=1e-3)
        bad_heavy = Bearing([0.0, 10.0], -0.3, weight=1e6)
        res2 = triangulate([good1, good2, bad_heavy])
        assert not np.allclose(res2.point, target, atol=0.5)


class TestHeatmap:
    def test_matches_direct_formula(self):
        bearings = [Bearing([0.0, 0.0], 0.8, weight=1.5),
                    Bearing([4.0, 0.0], 2.2, weight=0.7)]
        hm = localization_heatmap(bearings, (0, 8, 0, 6), cell=0.5,
                                  concentration=40.0)
        assert hm.scores.shape == (12, 16)
        assert hm.scores.sum() == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(hm.origin, [0.0, 0.0])
        assert hm.cell == 0.5
        raw = np.zeros((12, 16))
        for iy in range(12):
            for ix in range(16):
                cell = np.array([hm.xs[ix], hm.ys[iy]])
                cost = 0.0
                for b in bearings:
                    v = cell - b.position
                    diff = np.angle(np.exp(1j * (np.arctan2(v[1], v[0])
                                                 - b.angle)))
                    cost += b.weight * diff * diff
                raw[iy, ix] = cost
        want = np.exp(-40.0 * (raw - raw.min()))
        want /= want.sum()
        assert np.allclose(hm.scores, want, rtol=1e-10)

    def test_peak_near_intersection(self):
        target = np.array([5.0, 5.0])
        bearings = [Bearing([0.0, 0.0], np.arctan2(5, 5)),
                    Bearing([10.0, 0.0], np.arctan2(5, -5))]
        hm = localization_heatmap(bearings, (0, 10, 0, 10), cell=0.2,
                                  concentration=500.0)
        iy, ix = np.unravel_index(np.argmax(hm.scores), hm.scores.shape)
        assert abs(hm.xs[ix] - target[0]) < 0.2
        assert abs(hm.ys[iy] - target[1]) < 0.2

    def test_requires_bearings(self):
        with pytest.raises(DegenerateTriangulation):
            localization_heatmap([], (0, 1, 0, 1), 0.25)

    def test_cell_must_be_positive(self):
        with pytest.raises(InvalidGeometry):
            localization_heatmap([Bearing([0, 0], 0.1)], (0, 1, 0, 1), 0.0)

    def test_single_bearing_leaves_range_ridge(self):
        # one bearing constrains angle only, so cell centers lying on
        # the ray must all score the same.
        hm = localization_heatmap([Bearing([0.0, 0.0], np.pi / 4)],
                                  (0, 10, 0, 10), cell=0.1,
                                  concentration=300.0)
        diag = np.array([hm.scores[i, i] for i in range(5, 95)])
        assert diag.max() <= diag.min() * 1.01

    def test_zero_concentration_limit_is_uniform(self):
        bearings = [Bearing([0.0, 0.0], 0.3), Bearing([2.0, 0.0], 1.2)]
        hm = localization_heatmap(bearings, (0, 10, 0, 10), cell=0.5,
                                  concentration=1e-12)
        assert hm.scores.max() <= hm.scores.min() * (1 + 1e-9)


class TestAnchoring:
    def test_recover_abs_delays(self):
        rel = np.array([3e-9, 0.0, 10e-9])
        got = recover_abs_delays(40e-9, rel[1], rel)
        assert np.allclose(got, [43e-9, 40e-9, 50e-9])

    def test_bad_anchor_rejected(self):
        with pytest.raises(InconsistentAnchor):
            recover_abs_delays(-1e-9, 0.0, [0.0, 5e-9])
        with pytest.raises(InconsistentAnchor):
            recover_abs_delays(40e-9, 50e-9, [0.0, 50e-9])

    def test_image_from_polar(self):
        pt = image_from_polar([1.0, 2.0], np.pi / 2, 10.0 / C)
        assert np.allclose(pt, [1.0, 12.0], atol=1e-9)


class TestParity:
    def run_case(self, parity, snr_db=None, seed=0):
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=128)
        plan = plan_linear_track([1.0, 1.0], [0.0, 0.4, 0.8],
                                 [WL / 2, WL, 2 * WL], TX3)
        true = rm_from_alpha(1.0, 50e-9, aoa=0.55,
                             alpha=0.95 if parity == -1 else 0.4,
                             parity=parity)
        m = simulate_campaign([true], plan, grid, snr_db=snr_db, seed=seed)
        pwa = PwaPathParams([1.0], 0.0, true.aoa, true.aod)
        return true, estimate_parity(m, pwa, true.tau, m.responses)

    def test_clean_odd(self):
        true, dec = self.run_case(-1)
        assert dec.parity == -1
        assert not dec.ambiguous
        assert dec.energies[+1] > 10 * dec.energies[-1]
        assert abs(wrap_angle(alpha_from_bearings(true.aoa, true.aod, dec.parity)
                              - true.alpha)) < 1e-9

    def test_clean_even(self):
        _, dec = self.run_case(+1)
        assert dec.parity == +1
        assert not dec.ambiguous

    def test_noisy_still_decides(self):
        _, dec = self.run_case(-1, snr_db=20, seed=3)
        assert dec.parity == -1
        assert not dec.ambiguous

    def test_single_point_aperture_is_ambiguous(self):
        # one placement, one element, coincident transmit elements:
        # both hypotheses predict the same response, so the decision
        # must be flagged instead of guessed.
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=64)
        plan = plan_linear_track([1.0, 1.0], [0.0], [WL], np.zeros((3, 2)),
                                 n_rx=1)
        true = rm_from_alpha(1.0, 50e-9, aoa=0.55, alpha=0.95, parity=-1)
        m = simulate_campaign([true], plan, grid)
        pwa = PwaPathParams([1.0], 0.0, true.aoa, true.aod)
        dec = estimate_parity(m, pwa, true.tau, m.responses)
        assert dec.ambiguous


class TestPdpDetection:
    def profile(self, paths, snr_db=None, seed=4):
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=128)
        m = simulate_campaign(paths, small_plan(), grid,
                              snr_db=snr_db, seed=seed)
        return mean_pdp(m, window="hann")

    def test_two_paths_found(self):
        b = 500e6
        pdp = self.profile([rm_from_alpha(1.0, 21 / b, 0.5, 0.0, 1),
                            rm_from_alpha(0.5, 26 / b, 1.0, 0.3, -1)],
                           snr_db=25)
        peaks = detect_paths_pdp(pdp)
        assert list(peaks.bins) == [21, 26]
        assert np.allclose(peaks.delays, [21 / b, 26 / b])
        assert peaks.magnitudes[0] > peaks.magnitudes[1]

    def test_threshold_drops_weak_path(self):
        # a path 26 dB below the strongest clears the fixed 30 dB floor,
        # one 40 dB below does not
        b = 500e6
        for gain, bins in ((0.05, [21, 30]), (0.01, [21])):
            pdp = self.profile([rm_from_alpha(1.0, 21 / b, 0.5, 0.0, 1),
                                rm_from_alpha(gain, 30 / b, 1.0, 0.3, -1)])
            assert list(detect_paths_pdp(pdp).bins) == bins

    def test_silent_profile_gives_nothing(self):
        pdp = Pdp(delay_bins=np.arange(8.0), magnitudes=np.zeros(8))
        peaks = detect_paths_pdp(pdp)
        assert peaks.bins.size == 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mags=st.lists(st.integers(0, 1000), min_size=1, max_size=40))
    def test_peaks_are_local_maxima_above_floor(self, mags):
        # integer magnitudes give ties and plateaus: a plateau's last bin
        # is its peak when the bin after it is lower
        m = np.array(mags, dtype=float)
        n, top = len(m), max(mags)
        want = [i for i in range(n)
                if m[i] >= m[i - 1] and m[i] > m[(i + 1) % n]
                and 20 * np.log10(m[i] / top) >= -PDP_THRESHOLD_DB]
        pdp = Pdp(delay_bins=np.arange(n) * 0.5, magnitudes=m)
        peaks = detect_paths_pdp(pdp)
        assert peaks.bins.tolist() == want
        assert np.array_equal(peaks.delays, np.array(want) * 0.5)
        assert np.array_equal(peaks.magnitudes, m[want])


class TestAssembleRm:
    def make_result(self):
        # Anchor path strongest in placement 1; phases of both paths are
        # read off that placement.
        p0 = PwaPathParams([2.0 * np.exp(0.3j), 3.0 * np.exp(1.1j)],
                           5e-9, 0.5, -2.0)
        p1 = PwaPathParams([1.0 * np.exp(-0.4j), 1.0 * np.exp(0.8j)],
                           0.0, 1.2, -1.1)
        return ExtractionResult(paths=[p0, p1], selections=[],
                                residual_history=[1.0, 0.0],
                                delay_origin=40e-9)

    def test_taus_and_gains(self):
        res = self.make_result()
        rm = assemble_rm(res, taus=[45e-9, 40e-9], anchor_index=0,
                         parities=[-1, 1])
        assert len(rm) == 2
        assert rm[0].tau == pytest.approx(45e-9)
        assert rm[1].tau == pytest.approx(40e-9)
        assert rm[0].parity == -1 and rm[1].parity == 1
        assert abs(rm[0].gain) == pytest.approx(np.sqrt((4.0 + 9.0) / 2))
        assert np.angle(rm[0].gain) == pytest.approx(1.1)
        assert np.angle(rm[1].gain) == pytest.approx(0.8)
        assert rm[0].aoa == pytest.approx(0.5)
        assert rm[0].aod == pytest.approx(-2.0)

    def test_anchor_bounds_checked(self):
        res = self.make_result()
        with pytest.raises(InconsistentAnchor):
            assemble_rm(res, [45e-9, 40e-9], 5, [1, 1])
        with pytest.raises(InvalidGeometry):
            assemble_rm(res, [45e-9, 40e-9], 0, [1])
        with pytest.raises(InvalidGeometry):
            assemble_rm(res, [45e-9], 0, [1, 1])


class TestApertureResolution:
    def test_wider_elements_tighten_bearing(self):
        # Captures carry independent phases, so only the coherent
        # baseline inside one placement sharpens a single extraction's
        # bearing.  Quadrupling the element spacing should cut the
        # refined-bearing scatter by well over half.
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=32)
        step = 1 / (2 * grid.bandwidth)
        true = RmPathParams(1.0, 42 * step, 0.7123, -1.9)

        def spread(spacing, seeds):
            errs = []
            for seed in seeds:
                plan = plan_linear_track([1.0, 1.0], [0.0, 0.2, 0.4],
                                         [spacing], TX3)
                m = simulate_campaign([true], plan, grid, snr_db=15,
                                      seed=seed, model="pwa")
                dic = DictionaryGrid(
                    aoas=np.arange(0.5, 0.95, 0.05),
                    aods=np.array([-2.0, -1.9, -1.8]),
                    delays=fft_delay_bins(grid, 39 * step, 45 * step),
                )
                fine = refine_extraction(m, omp_extract(m, dic, l_max=1),
                                         aoa_step=0.05, aod_step=0.05)
                errs.append(fine.paths[0].aoa - true.aoa)
            return float(np.sqrt(np.mean(np.square(errs))))

        seeds = range(6)
        assert spread(2 * WL, seeds) < spread(WL / 2, seeds) / 2
