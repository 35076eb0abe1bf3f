import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfchan import channel
from nfchan.channel import (
    SPEED_OF_LIGHT as C,
    FrequencyGrid,
    PwaPathParams,
    RmPathParams,
    ToneComb,
    alpha_from_bearings,
    aod_from_aoa,
    comb_phasors,
    image_to_rm_params,
    path_distance_pwa,
    path_distance_rm,
    path_distance_tx_form,
    path_lengths,
    rm_from_alpha,
    synth_channel,
    tone_phasors,
    unit_vector,
)
from nfchan.errors import EmptyChannel, InvalidGeometry
from nfchan.aperture import plan_linear_track, simulate_campaign
from nfchan.estimation import image_from_polar
from nfchan.geometry import (
    OrthoMap2,
    Room,
    enumerate_images,
    validate_path,
    wrap_angle,
)


def rect_room():
    return Room.from_polygon([(0, 0), (20, 0), (20, 10), (0, 10)])


def feasible_paths(room, tx, rx, max_order=2):
    """All image paths up to max_order whose back-trace works for (tx, rx)."""
    out = []
    for p in enumerate_images(room, tx, max_order=max_order):
        if validate_path(room, p.wall_sequence, tx, rx)[0]:
            out.append(p)
    return out


class TestBearingAlgebra:
    def test_ceiling_bounce_frozen(self):
        room = rect_room()
        tx = np.array([5.0, 3.0])
        rx_ref = np.array([15.0, 4.0])
        path = next(
            p for p in enumerate_images(room, tx, max_order=1)
            if p.wall_sequence == (2,)
        )
        assert np.allclose(path.image_point, [5.0, 17.0])
        prm = image_to_rm_params(path, tx, rx_ref)
        assert prm.tau == pytest.approx(np.sqrt(269.0) / C, rel=1e-12)
        assert prm.aoa == pytest.approx(np.arctan2(13.0, -10.0))
        assert prm.aod == pytest.approx(np.arctan2(13.0, 10.0))
        assert prm.parity == -1
        assert prm.alpha == pytest.approx(0.0, abs=1e-12)

    def test_los_frozen(self):
        room = rect_room()
        tx = np.array([10.0, 5.0])
        rx_ref = np.array([0.0, 5.0])
        los = enumerate_images(room, tx, max_order=0)[0]
        prm = image_to_rm_params(los, tx, rx_ref)
        assert prm.tau == pytest.approx(10.0 / C, rel=1e-12)
        assert prm.aoa == pytest.approx(0.0, abs=1e-15)
        assert prm.aod == pytest.approx(np.pi)
        assert prm.parity == 1

    def test_aod_matches_first_leg_direction(self):
        # Physical oracle: the departure bearing must point from the
        # transmitter at the first specular point of the folded ray.
        room = rect_room()
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(60):
            tx = rng.uniform([1, 1], [19, 9])
            rx = rng.uniform([1, 1], [19, 9])
            for path in feasible_paths(room, tx, rx):
                prm = image_to_rm_params(path, tx, rx)
                poly = validate_path(room, path.wall_sequence, tx, rx)[1]
                first_leg = poly[1] - poly[0]
                want_aod = np.arctan2(first_leg[1], first_leg[0])
                last_leg = poly[-2] - poly[-1]
                want_aoa = np.arctan2(last_leg[1], last_leg[0])
                assert wrap_angle(prm.aod - want_aod) == pytest.approx(0.0, abs=1e-9)
                assert wrap_angle(prm.aoa - want_aoa) == pytest.approx(0.0, abs=1e-9)
                checked += 1
        assert checked > 100

    def test_alpha_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            aoa = rng.uniform(-np.pi, np.pi)
            alpha = rng.uniform(-np.pi, np.pi)
            s = rng.choice([-1, 1])
            aod = aod_from_aoa(aoa, alpha, s)
            back = alpha_from_bearings(aoa, aod, s)
            assert wrap_angle(back - alpha) == pytest.approx(0.0, abs=1e-12)

    def test_rm_from_alpha_consistency(self):
        prm = rm_from_alpha(1.0, 50e-9, aoa=0.4, alpha=1.1, parity=-1)
        assert prm.alpha == pytest.approx(1.1)
        assert prm.map.parity == -1


class TestDistances:
    def test_rm_equals_polyline_length(self):
        room = rect_room()
        rng = np.random.default_rng(11)
        rx_ref = np.array([15.0, 4.0])
        tx_ref = np.array([5.0, 3.0])
        checked = 0
        for _ in range(40):
            rx = rx_ref + rng.uniform(-0.5, 0.5, 2)
            tx = tx_ref + rng.uniform(-0.5, 0.5, 2)
            for path in feasible_paths(room, tx_ref, rx_ref):
                ok, poly = validate_path(room, path.wall_sequence, tx, rx)
                if not ok:
                    continue
                prm = image_to_rm_params(path, tx_ref, rx_ref)
                want = np.sum(np.linalg.norm(np.diff(poly, axis=0), axis=1))
                got = path_distance_rm(prm, rx, tx, rx_ref, tx_ref)
                assert got == pytest.approx(want, rel=1e-9)
                checked += 1
        assert checked > 50

    def test_tx_form_agrees(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            prm = rm_from_alpha(
                gain=1.0,
                tau=rng.uniform(10e-9, 200e-9),
                aoa=rng.uniform(-np.pi, np.pi),
                alpha=rng.uniform(-np.pi, np.pi),
                parity=rng.choice([-1, 1]),
            )
            rx_ref = rng.uniform(-5, 5, 2)
            tx_ref = rng.uniform(-5, 5, 2)
            rx = rx_ref + rng.uniform(-1, 1, 2)
            tx = tx_ref + rng.uniform(-1, 1, 2)
            a = path_distance_rm(prm, rx, tx, rx_ref, tx_ref)
            b = path_distance_tx_form(prm, rx, tx, rx_ref, tx_ref)
            assert a == pytest.approx(b, rel=1e-10)

    def test_pwa_exact_at_references(self):
        prm = rm_from_alpha(1.0, 80e-9, aoa=0.7, alpha=-0.3, parity=-1)
        rx_ref = np.array([1.4, 1.0])
        tx_ref = np.array([12.0, 7.5])
        d = path_distance_pwa(prm, rx_ref, tx_ref, rx_ref, tx_ref)
        assert float(d) == C * prm.tau

    def test_pwa_error_is_second_order(self):
        # Halving the displacement should quarter the worst-case gap
        # between the exact and first-order lengths.
        prm = rm_from_alpha(1.0, 60e-9, aoa=0.9, alpha=0.4, parity=-1)
        rx_ref = np.array([0.0, 0.0])
        tx_ref = np.array([10.0, 2.0])
        dirs = unit_vector(np.linspace(0, 2 * np.pi, 17)[:-1])

        def worst(delta):
            rx = rx_ref + delta * dirs
            err = np.abs(
                path_distance_rm(prm, rx, tx_ref, rx_ref, tx_ref)
                - path_distance_pwa(prm, rx, tx_ref, rx_ref, tx_ref)
            )
            return float(err.max())

        ratio = worst(0.4) / worst(0.2)
        assert 3.8 < ratio < 4.2

    def test_broadcasting_shapes(self):
        prm = rm_from_alpha(1.0, 60e-9, aoa=0.2, alpha=0.0, parity=1)
        rx = np.zeros((4, 1, 2))
        tx = np.ones((1, 3, 2))
        d = path_distance_rm(prm, rx, tx, [0, 0], [1, 1])
        assert d.shape == (4, 3)
        d2 = path_distance_pwa(prm, rx, tx, [0, 0], [1, 1])
        assert d2.shape == (4, 3)


class TestFrequencyGrid:
    def test_tone_placement(self):
        g = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=512)
        f = g.tones()
        assert len(f) == 512
        assert f[0] == pytest.approx(10e9 - 250e6)
        assert np.allclose(np.diff(f), 500e6 / 512)
        assert g.spacing == pytest.approx(500e6 / 512)

    def test_rejects_bad_setups(self):
        with pytest.raises(InvalidGeometry):
            FrequencyGrid(center=1e9, bandwidth=3e9, num_tones=64)
        with pytest.raises(InvalidGeometry):
            FrequencyGrid(center=1e9, bandwidth=1e8, num_tones=0)
        with pytest.raises(InvalidGeometry):
            FrequencyGrid(center=1e9, bandwidth=1e8, num_tones=1)
        with pytest.raises(InvalidGeometry):
            FrequencyGrid(center=-1e9, bandwidth=1e8, num_tones=8)


class TestSynthChannel:
    def setup_method(self):
        self.grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=3)
        self.rx_ref = np.array([1.0, 1.0])
        self.tx_ref = np.array([12.0, 7.5])
        self.rx = self.rx_ref + np.array([[0.0, 0.0], [0.015, 0.0]])
        self.tx = self.tx_ref + np.array([[0.0, 0.0], [0.0, 0.015]])
        self.paths = [
            rm_from_alpha(1.0, 41e-9, aoa=0.5, alpha=0.0, parity=1),
            rm_from_alpha(0.3 * cmath.exp(0.7j), 52e-9, aoa=2.6, alpha=2.1, parity=-1),
        ]

    def test_matches_scalar_loop(self):
        got = synth_channel(self.paths, self.tx, self.rx, self.grid,
                            (self.tx_ref, self.rx_ref))
        freqs = self.grid.tones()
        for m in range(2):
            for n in range(2):
                for i in range(3):
                    want = 0j
                    for p in self.paths:
                        d = path_distance_rm(p, self.rx[m], self.tx[n],
                                             self.rx_ref, self.tx_ref)
                        want += p.gain * cmath.exp(-2j * cmath.pi * freqs[i] * float(d) / C)
                    assert got[m, n, i] == pytest.approx(want, rel=1e-12)

    def test_superposition(self):
        both = synth_channel(self.paths, self.tx, self.rx, self.grid,
                             (self.tx_ref, self.rx_ref))
        singles = [
            synth_channel([p], self.tx, self.rx, self.grid,
                          (self.tx_ref, self.rx_ref))
            for p in self.paths
        ]
        assert np.array_equal(both, singles[0] + singles[1])

    @pytest.mark.parametrize("chunk", [None, 1, 3, 7])
    def test_superposition_of_many_paths(self, monkeypatch, chunk):
        # the sum runs in chunks of paths; a chunk of 1, 3 or 7 of the
        # 20 paths leaves a partial last chunk
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=512)
        if chunk:
            monkeypatch.setattr(channel, "_SUM_CHUNK",
                                chunk * self.rx.shape[0] * self.tx.shape[0] * 512)
        paths = random_paths(np.random.default_rng(20), 20)
        refs = (self.tx_ref, self.rx_ref)
        got = synth_channel(paths, self.tx, self.rx, grid, refs)
        want = np.zeros_like(got)
        for p in paths:
            want = want + synth_channel([p], self.tx, self.rx, grid, refs)
        assert np.array_equal(got, want)

    def test_peak_memory_below_half_the_path_tensor(self):
        # 200 paths over 2 x 3 elements and 512 tones: the (L, M, N, F)
        # phasor tensor alone would take 9.8 MB
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=512)
        rx = self.rx_ref + np.array([[0.0, 0.0], [0.015, 0.0]])
        tx = self.tx_ref + np.array([[0.0, 0.0], [0.0, 0.015], [0.015, 0.0]])
        paths = random_paths(np.random.default_rng(200), 200)
        refs = (self.tx_ref, self.rx_ref)
        synth_channel(paths, tx, rx, grid, refs)  # caches the level offsets
        tracemalloc.start()
        try:
            synth_channel(paths, tx, rx, grid, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * len(paths) * 2 * 3 * 512 * 16

    def test_opposite_gains_cancel(self):
        p = self.paths[0]
        q = RmPathParams(-p.gain, p.tau, p.aoa, p.aod, p.parity)
        h = synth_channel([p, q], self.tx, self.rx, self.grid,
                          (self.tx_ref, self.rx_ref))
        assert np.all(h == 0)

    def test_pwa_model_selected(self):
        h_rm = synth_channel(self.paths, self.tx, self.rx, self.grid,
                             (self.tx_ref, self.rx_ref), model="rm")
        h_pwa = synth_channel(self.paths, self.tx, self.rx, self.grid,
                              (self.tx_ref, self.rx_ref), model="pwa")
        assert not np.array_equal(h_rm, h_pwa)
        # At the reference pair the two models coincide.
        assert h_rm[0, 0] == pytest.approx(h_pwa[0, 0], rel=1e-12)
        with pytest.raises(ValueError):
            synth_channel(self.paths, self.tx, self.rx, self.grid,
                          (self.tx_ref, self.rx_ref), model="nope")

    def test_no_paths_rejected(self):
        with pytest.raises(EmptyChannel):
            synth_channel([], self.tx, self.rx, self.grid,
                          (self.tx_ref, self.rx_ref))


def random_paths(rng, n):
    return [
        rm_from_alpha(
            gain=rng.normal() + 1j * rng.normal(),
            tau=rng.uniform(10e-9, 200e-9),
            aoa=rng.uniform(-np.pi, np.pi),
            alpha=rng.uniform(-np.pi, np.pi),
            parity=rng.choice([-1, 1]),
        )
        for _ in range(n)
    ]


def scalar_length(p, x_r, x_t, rx_ref, tx_ref, model):
    """One path length from Python floats, written out term by term."""
    rx, ry = x_r[0] - rx_ref[0], x_r[1] - rx_ref[1]
    tx, ty = x_t[0] - tx_ref[0], x_t[1] - tx_ref[1]
    base = C * p.tau
    if model == "pwa":
        return (base - rx * math.cos(p.aoa) - ry * math.sin(p.aoa)
                - tx * math.cos(p.aod) - ty * math.sin(p.aod))
    (q00, q01), (q10, q11) = OrthoMap2(p.alpha, p.parity).matrix().tolist()
    return math.hypot(rx - base * math.cos(p.aoa) - (q00 * tx + q01 * ty),
                      ry - base * math.sin(p.aoa) - (q10 * tx + q11 * ty))


def phasor_bound(phase_max):
    """Worst gap between ``tone_phasors`` and a direct ``np.exp``.

    Both sides share the rounded ``k * d``.  The direct side then rounds
    the tone twice (``i * spacing``, plus the start) and the product with
    it once, each within ``eps/2`` of a value no larger than the phase.
    The split rounds each of its three level frequencies and their
    products the same way: three roundings on the coarse level (which
    holds the start), two on the mid and fine ones.  The three level
    frequencies are nonnegative and sum to the tone, so the split's
    roundings add up to at most ``3 * eps/2`` times the phase, as the
    direct side's do, and the phases differ by less than ``3 * eps *
    phase_max``.  The four exponentials and the split's two products of
    unit factors add a few ``eps``; ``4 * eps * (phase_max + 1)`` covers
    both.
    """
    return 4.0 * np.finfo(float).eps * (phase_max + 1.0)


class TestKernel:
    @pytest.mark.parametrize("n_tones", [2, 3, 97, 128, 512])
    def test_tone_phasors_match_direct_exp(self, n_tones):
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=n_tones)
        lengths = np.random.default_rng(n_tones).uniform(0.5, 60.0, (5, 2, 3))
        got = tone_phasors(lengths, grid)
        phase = 2.0 * np.pi / C * lengths[..., None] * grid.tones()
        want = np.exp(-2j * np.pi / C * lengths[..., None] * grid.tones())
        assert got.shape == lengths.shape + (n_tones,)
        assert np.max(np.abs(got - want)) <= phasor_bound(phase.max())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 4096),
           start=st.one_of(st.just(0.0), st.floats(1e3, 1e11)),
           spacing=st.floats(1e-3, 1e8),
           lengths=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=6))
    def test_comb_phasors_match_direct_exp(self, n, start, spacing, lengths):
        comb = ToneComb(start, spacing, n)
        k = -2j * np.pi / C
        d = np.array(lengths)
        got = comb_phasors(d, k, comb)
        phase = np.abs(k * d[:, None] * comb.tones())
        want = np.exp(k * d[:, None] * comb.tones())
        assert got.shape == (d.size, n)
        assert np.max(np.abs(got - want)) <= phasor_bound(phase.max())

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_phasors_of_no_lengths(self, shape):
        comb = ToneComb(1e9, 1e6, 512)
        assert comb_phasors(np.zeros(shape), -2j * np.pi / C, comb).shape == shape + (512,)
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=128)
        assert tone_phasors(np.zeros(shape), grid).shape == shape + (128,)

    def test_path_lengths_match_scalar_formula(self):
        rng = np.random.default_rng(17)
        paths = random_paths(rng, 4)
        rx_ref = rng.uniform(-5, 5, 2)
        tx_ref = rng.uniform(-5, 5, 2)
        x_r = rx_ref + rng.uniform(-1, 1, (4, 1, 2))
        x_t = tx_ref + rng.uniform(-1, 1, (1, 3, 2))
        for model in ("rm", "pwa"):
            got = path_lengths(paths, x_r, x_t, rx_ref, tx_ref, model)
            assert got.shape == (4, 4, 3)
            for l, p in enumerate(paths):
                for i in range(4):
                    for j in range(3):
                        want = scalar_length(p, x_r[i, 0], x_t[0, j],
                                             rx_ref, tx_ref, model)
                        assert got[l, i, j] == pytest.approx(want, rel=1e-12)
            # unbatched receive side against a batch of transmit elements
            flat = path_lengths(paths, x_r[0, 0], x_t[0], rx_ref, tx_ref, model)
            assert flat.shape == (4, 3)
            assert np.array_equal(flat, got[:, 0, :])

    def test_six_wall_campaign_matches_per_path_formula(self):
        room = Room.from_polygon([(0, 0), (14, 0), (20, 4), (20, 10), (6, 10), (0, 6)])
        tx = np.array([[12.0, 7.5], [12.015, 7.5], [12.0075, 7.513]])
        plan = plan_linear_track([1.0, 1.0], np.arange(40) * 0.1,
                                 [0.015, 0.03, 0.06], tx)
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=512)
        paths = [
            image_to_rm_params(p, plan.tx_ref, plan.rx_ref)
            for p in enumerate_images(room, tx.mean(axis=0), 5, rx_ref=plan.rx_ref)
            if validate_path(room, p.wall_sequence, tx.mean(axis=0), plan.rx_ref)[0]
        ]
        assert plan.n_placements == 120 and len(paths) > 40
        got = simulate_campaign(paths, plan, grid, coherent=True).responses
        want = np.zeros_like(got)
        bound = 0.0
        for p in paths:
            d = path_distance_rm(p, plan.rx_positions[:, :, None, :],
                                 plan.tx_positions[None, None, :, :],
                                 plan.rx_ref, plan.tx_ref)
            want += p.gain * np.exp(-2j * np.pi / C * d[..., None] * grid.tones())
            phase_max = 2.0 * np.pi / C * d.max() * grid.tones()[-1]
            # each term within the phasor bound, plus one rounding of the
            # running sum per path on each side
            bound += abs(p.gain) * (phasor_bound(phase_max)
                                    + 2.0 * np.finfo(float).eps * len(paths))
        assert np.max(np.abs(got - want)) <= bound


class TestParamValidation:
    def test_bad_delay(self):
        with pytest.raises(InvalidGeometry):
            RmPathParams(1.0, -5e-9, 0.0, np.pi, 1)
        with pytest.raises(InvalidGeometry):
            PwaPathParams([1.0], -1e-9, 0.0, np.pi)
        # a zero relative delay is legitimate (earliest path of a set)
        assert PwaPathParams([1.0, 2.0], 0.0, 0.0, np.pi).delta == 0.0

    def test_non_finite_fields_named(self):
        for field, args in (("gain", (np.nan, 5e-9, 0.0, np.pi)),
                            ("gain", (complex(1.0, np.inf), 5e-9, 0.0, np.pi)),
                            ("aoa", (1.0, 5e-9, np.nan, np.pi)),
                            ("aod", (1.0, 5e-9, 0.0, -np.inf))):
            with pytest.raises(InvalidGeometry, match=field):
                RmPathParams(*args)

    def test_bad_parity(self):
        with pytest.raises(InvalidGeometry):
            RmPathParams(1.0, 5e-9, 0.0, np.pi, 2)

    def test_image_point_round_trip(self):
        room = rect_room()
        tx = np.array([5.0, 3.0])
        rx_ref = np.array([15.0, 4.0])
        for path in enumerate_images(room, tx, max_order=2):
            prm = image_to_rm_params(path, tx, rx_ref)
            assert np.allclose(image_from_polar(rx_ref, prm.aoa, prm.tau),
                               path.image_point, atol=1e-8)
