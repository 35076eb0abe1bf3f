import numpy as np
import pytest

from nfchan.aperture import (
    MeasurementSet,
    compute_pdp,
    mean_pdp,
    plan_linear_track,
    simulate_campaign,
)
from nfchan.channel import (
    SPEED_OF_LIGHT as C,
    FrequencyGrid,
    rm_from_alpha,
    synth_channel,
)
from nfchan.errors import EmptyChannel, InvalidGeometry
from nfchan.pipeline import subset_groups

TX3 = np.array([[12.0, 7.5], [11.985, 7.5], [12.0, 7.515]])


def small_grid(n_tones=64):
    return FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=n_tones)


def two_paths():
    return [
        rm_from_alpha(1.0, 41.5e-9, aoa=0.55, alpha=0.0, parity=1),
        rm_from_alpha(0.35j, 52.0e-9, aoa=2.69, alpha=0.0, parity=-1),
    ]


class TestPlanLinearTrack:
    def test_positions_and_order(self):
        plan = plan_linear_track(
            rx_ref=[1.0, 1.0],
            offsets=[0.0, 0.4, 0.8],
            spacings=[0.015, 0.030, 0.060],
            tx_positions=TX3,
        )
        assert plan.n_placements == 9
        assert plan.n_rx == 2
        assert plan.n_tx == 3
        # Offsets-major: each offset's three placements form one group.
        assert [g.tolist() for g in subset_groups(plan)] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8]]
        # Elements straddle the placement center by half a spacing.
        assert np.allclose(plan.rx_positions[0], [[0.9925, 1.0], [1.0075, 1.0]])
        assert np.allclose(plan.rx_positions[5], [[1.37, 1.0], [1.43, 1.0]])
        # All on the track line.
        assert np.allclose(plan.rx_positions[..., 1], 1.0)

    def test_references_are_centroids(self):
        plan = plan_linear_track([1.0, 1.0], [0.0, 0.4, 0.8],
                                 [0.015, 0.030], TX3)
        assert np.allclose(plan.rx_ref, [1.4, 1.0])
        assert np.allclose(plan.tx_ref, TX3.mean(axis=0))

    def test_subset_recenters(self):
        plan = plan_linear_track([1.0, 1.0], [0.0, 0.4, 0.8],
                                 [0.015, 0.030], TX3)
        sub = plan.subset([0, 1])
        assert sub.n_placements == 2
        assert np.allclose(sub.rx_ref, [1.0, 1.0])
        assert [g.tolist() for g in subset_groups(sub)] == [[0, 1]]

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidGeometry):
            plan_linear_track([0, 0], [], [0.01], TX3)
        with pytest.raises(InvalidGeometry):
            plan_linear_track([0, 0], [0.0], [-0.01], TX3)
        with pytest.raises(InvalidGeometry):
            plan_linear_track([0, 0], [0.0], [0.01], TX3, n_rx=0)


class TestSimulateCampaign:
    def setup_method(self):
        self.grid = small_grid()
        self.plan = plan_linear_track([1.0, 1.0], [0.0, 0.4], [0.015, 0.030], TX3)
        self.paths = two_paths()

    def test_same_seed_reproduces(self):
        a = simulate_campaign(self.paths, self.plan, self.grid, snr_db=20, seed=5)
        b = simulate_campaign(self.paths, self.plan, self.grid, snr_db=20, seed=5)
        assert np.array_equal(a.responses, b.responses)
        c = simulate_campaign(self.paths, self.plan, self.grid, snr_db=20, seed=6)
        assert not np.array_equal(a.responses, c.responses)

    def test_coherent_noiseless_equals_synth(self):
        m = simulate_campaign(self.paths, self.plan, self.grid, coherent=True)
        for k in range(self.plan.n_placements):
            want = synth_channel(self.paths, self.plan.tx_positions,
                                 self.plan.rx_positions[k], self.grid,
                                 (self.plan.tx_ref, self.plan.rx_ref))
            assert np.array_equal(m.responses[k], want)

    def test_noncoherent_rotates_whole_capture(self):
        m = simulate_campaign(self.paths, self.plan, self.grid, seed=3)
        ref = simulate_campaign(self.paths, self.plan, self.grid,
                                coherent=True, seed=3)
        for k in range(self.plan.n_placements):
            ratio = m.responses[k] / ref.responses[k]
            # One common unit-modulus factor per placement.
            assert np.allclose(np.abs(ratio), 1.0, atol=1e-12)
            assert np.allclose(ratio, ratio.flat[0], atol=1e-12)
        # And the factors differ across placements.
        factors = [m.responses[k].flat[0] / ref.responses[k].flat[0]
                   for k in range(self.plan.n_placements)]
        assert np.std(np.angle(factors)) > 0.1

    def test_noise_level_matches_snr(self):
        snr_db = 20.0
        grid = small_grid(n_tones=256)
        clean = simulate_campaign(self.paths, self.plan, grid, coherent=True)
        noisy = simulate_campaign(self.paths, self.plan, grid, coherent=True,
                                  snr_db=snr_db, seed=11)
        noise = noisy.responses - clean.responses
        measured = np.mean(np.abs(noise) ** 2)
        peak = max(abs(p.gain) for p in self.paths) ** 2
        want = peak / 10 ** (snr_db / 10)
        assert 10 * np.log10(measured / want) == pytest.approx(0.0, abs=0.5)

    def test_coherence_toggle_keeps_noise_realization(self):
        a = simulate_campaign(self.paths, self.plan, self.grid, snr_db=10, seed=4)
        b = simulate_campaign(self.paths, self.plan, self.grid, snr_db=10,
                              coherent=True, seed=4)
        clean_nc = simulate_campaign(self.paths, self.plan, self.grid, seed=4)
        clean_co = simulate_campaign(self.paths, self.plan, self.grid,
                                     coherent=True, seed=4)
        assert np.allclose(a.responses - clean_nc.responses, b.responses - clean_co.responses,
                           atol=1e-12)

    def test_empty_paths_rejected(self):
        with pytest.raises(EmptyChannel):
            simulate_campaign([], self.plan, self.grid)

    def test_bad_snr_named(self):
        for snr in (-np.inf, np.nan, np.inf, -4000.0, 4000.0):
            with pytest.raises(InvalidGeometry, match="snr_db"):
                simulate_campaign(self.paths, self.plan, self.grid, snr_db=snr)

    def test_shape_checked(self):
        m = simulate_campaign(self.paths, self.plan, self.grid)
        with pytest.raises(InvalidGeometry):
            MeasurementSet(responses=m.responses[:, :, :, :-1], plan=self.plan, grid=self.grid)

    def test_non_finite_rejected_with_first_index(self):
        m = simulate_campaign(self.paths, self.plan, self.grid)
        bad = m.responses.copy()
        bad[2, 1, 0, 7] = complex(0.0, np.inf)
        bad[1, 0, 2, 5] = np.nan
        with pytest.raises(InvalidGeometry,
                           match=r"\(k, m, n, f\) = \(1, 0, 2, 5\)"):
            MeasurementSet(responses=bad, plan=self.plan, grid=self.grid)


class TestPdp:
    def test_parseval(self):
        grid = small_grid(n_tones=128)
        plan = plan_linear_track([1, 1], [0.0, 0.4], [0.02], TX3)
        m = simulate_campaign(two_paths(), plan, grid, snr_db=15, seed=2)
        pdp = mean_pdp(m)
        total_freq = np.mean(np.sum(np.abs(m.responses) ** 2, axis=-1))
        assert np.sum(pdp.magnitudes ** 2) == pytest.approx(total_freq, rel=1e-9)

    def test_peak_bin_at_round_tau_b(self):
        grid = small_grid(n_tones=128)
        tau = 41.5e-9
        path = rm_from_alpha(1.0, tau, aoa=0.3, alpha=0.0, parity=1)
        h = synth_channel([path], [[10.0, 0.0]], [[0.0, 0.0]], grid,
                          ([10.0, 0.0], [0.0, 0.0]))
        pdp = compute_pdp(h, grid)
        assert pdp.peak_bin() == round(tau * grid.bandwidth)
        assert pdp.delay_bins[1] == pytest.approx(1.0 / grid.bandwidth)
        assert pdp.peak_delay() == pytest.approx(
            pdp.peak_bin() / grid.bandwidth)

    def test_phase_invariance(self):
        grid = small_grid()
        plan = plan_linear_track([1, 1], [0.0, 0.4], [0.02], TX3)
        nc = simulate_campaign(two_paths(), plan, grid, seed=9)
        co = simulate_campaign(two_paths(), plan, grid, coherent=True, seed=9)
        assert np.allclose(mean_pdp(nc).magnitudes, mean_pdp(co).magnitudes,
                           rtol=1e-12)

    def test_hann_lowers_sidelobes(self):
        grid = small_grid(n_tones=256)
        # Fractional-bin delay so the rect response leaks hard.
        path = rm_from_alpha(1.0, 41.7e-9, aoa=0.3, alpha=0.0, parity=1)
        h = synth_channel([path], [[10.0, 0.0]], [[0.0, 0.0]], grid,
                          ([10.0, 0.0], [0.0, 0.0]))
        rect = compute_pdp(h, grid)
        hann = compute_pdp(h, grid, window="hann")
        peak = rect.peak_bin()
        keep = np.abs(np.arange(grid.num_tones) - peak) > 6
        rect_side = (rect.magnitudes[keep].max() / rect.magnitudes.max()) ** 2
        hann_side = (hann.magnitudes[keep].max() / hann.magnitudes.max()) ** 2
        assert hann_side < rect_side / 10

    def test_window_name_checked(self):
        grid = small_grid()
        with pytest.raises(ValueError):
            compute_pdp(np.ones((1, grid.num_tones)), grid, window="flat")

    def test_tone_count_checked(self):
        grid = small_grid()
        with pytest.raises(InvalidGeometry):
            compute_pdp(np.ones((1, grid.num_tones + 1)), grid)
