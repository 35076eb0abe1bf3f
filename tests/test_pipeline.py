"""End-to-end recovery pipeline: sweep, subset bearings, anchoring,
parity, invariances, sweeps, and the orchestration helpers."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nfchan import pipeline
from nfchan.aperture import plan_linear_track, simulate_campaign
from nfchan.channel import SPEED_OF_LIGHT as C
from nfchan.channel import FrequencyGrid, RmPathParams
from nfchan.dataio import read_dataset, write_dataset
from nfchan.errors import (DegenerateTriangulation, InvalidGeometry,
                           ScenarioError)
from nfchan.estimation import (DictionaryGrid, ExtractionResult,
                               ScoreEngine, fft_delay_bins,
                               localization_heatmap, omp_extract)
from nfchan.estimation import _cyclic_polish
from nfchan.linesearch import NEWTON_TOL
from nfchan.geometry import wrap_angle
from nfchan.pipeline import (_assign, _facing, _fold_setup, collinear_axis,
                             extract_paths, run_estimate, run_evaluate,
                             run_heatmap, run_synth, subset_bearings,
                             subset_groups, sweep_runs, sweep_values)
from nfchan.scenario import build_plan, build_room, load_preset

WL = C / 10e9
TX3 = WL / 2 * np.array(
    [[np.cos(a), np.sin(a)] for a in
     (np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)]
) / np.sqrt(3)


class TestEndToEnd:
    def test_recovers_all_four_paths(self, quick_report):
        rep = quick_report
        assert len(rep.paths) == 4
        assert sorted(rep.matches) == [0, 1, 2, 3]
        assert rep.residual_fraction() < 0.01

    def test_angles_and_delays_close(self, quick_report):
        err = quick_report.errors
        assert np.all(err["aoa_deg"] < 1.0)
        assert np.all(err["aod_deg"] < 1.0)
        assert np.all(err["delay_ns"] < 2.0)

    def test_localization(self, quick_report):
        rep = quick_report
        assert rep.anchor_index is not None
        assert np.all(rep.errors["image_m"] < 0.15)
        assert rep.los_image_error() < 0.15
        assert np.all(np.asarray(rep.taus) > 0)

    def test_parities_match_truth(self, quick_report):
        rep = quick_report
        assert all(rep.errors["parity_ok"])
        assert not any(rep.parity_ambiguous)
        los = rep.matches.index(min(range(4), key=lambda i: rep.truth[i].tau))
        assert rep.parities[los] == 1

    def test_rm_paths_consistent(self, quick_report):
        rep = quick_report
        for p, tau in zip(rep.rm_paths, rep.taus):
            assert p.tau == tau
            assert p.parity in (-1, 1)

    def test_timing_keys(self, quick_report):
        t = quick_report.timing
        for key in ("sweep", "refine", "subsets", "triangulate", "parity",
                    "total"):
            assert key in t and t[key] >= 0
        assert "coarse_sweep" not in t and "fine_sweep" not in t

    def test_one_sweep_per_extraction(self, quick_synth, quick_cfg,
                                      monkeypatch):
        # only the global extraction sweeps: the subsets polish its
        # paths, and a second (finer) sweep stage or a per-subset sweep
        # would show up as extra calls
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return omp_extract(*args, **kwargs)

        monkeypatch.setattr(pipeline, "omp_extract", counting)
        mset, truth = quick_synth
        run_estimate(mset, quick_cfg, truth=truth)
        assert len(calls) == 1

    def test_zero_refine_passes_skips_refinement(self, quick_synth,
                                                 quick_cfg, monkeypatch):
        # refine_passes = 0 turns the refinement off: the global result
        # is the polished sweep's, with no refit and no "refine" time
        sweeps = []

        def recording(*args, **kwargs):
            result = omp_extract(*args, **kwargs)
            sweeps.append([(p.aoa, p.aod, p.delta) for p in result.paths])
            return result

        monkeypatch.setattr(pipeline, "omp_extract", recording)
        mset, truth = quick_synth
        rep = run_estimate(mset, replace(quick_cfg, refine_passes=0),
                           truth=truth)
        assert "refine" not in rep.timing
        assert [(p.aoa, p.aod, p.delta) for p in rep.paths] == sweeps[0]
        ext = rep.extraction
        assert len(ext.residual_history) == ext.iterations + 1


# Noiseless pipeline outputs, pinned.  A change that only deletes stages
# or duplicates leaves them as they are; a change meant to move them
# updates the literals and says why.
PINNED = {
    "quick": dict(
        selections=[(11, 4, 8), (51, 3, 15), (16, 51, 18), (5, 27, 33)],
        images=[[11.9971739, 7.5028873], [-11.999667, 7.4985568],
                [11.9988289, 12.5007793], [27.9991791, 7.4974145]]),
    "room-20x10": dict(
        selections=[(10, 4, 7), (52, 4, 16), (16, 51, 18), (5, 27, 34)],
        images=[[11.9954274, 7.5040877], [-11.9776429, 7.5416877],
                [12.0074876, 12.4920057], [27.9976625, 7.4984781]]),
    "room-20x10-fs1ghz": dict(
        selections=[(10, 4, 9), (51, 4, 22), (16, 51, 27), (5, 27, 43)],
        images=[[11.996715, 7.5049694], [-11.9884379, 7.5219681],
                [12.0038175, 12.4971967], [27.9971008, 7.5066792]]),
    "track-experiment": dict(
        selections=[(11, 4, 8), (51, 3, 15), (16, 51, 18), (5, 27, 33)],
        images=[[11.9962874, 7.5023117], [-12.0008841, 7.4941716],
                [11.9960244, 12.5019401], [27.9981302, 7.4971877]]),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_noiseless_outputs(self, name, quick_report):
        rep = (quick_report if name == "quick"
               else run_evaluate(load_preset(name)))
        want = PINNED[name]
        assert len(rep.paths) == 4
        assert rep.extraction.selections == want["selections"]
        assert rep.parities == [1, -1, -1, -1]
        assert rep.anchor_index == 0
        assert np.allclose(rep.image_points, want["images"], rtol=0,
                           atol=1e-6)

    def test_noisy_fft_run(self, monkeypatch):
        # Every noiseless case above scores delays by GEMM; this 0 dB
        # run scores its full 256-bin support by FFT, and its last round
        # prunes nothing: every one of the 61 x 60 (aoa, aod) rows is
        # scored.
        rounds = []
        best = ScoreEngine.best

        def recording(engine, residual):
            before = engine.rows_scored
            out = best(engine, residual)
            rounds.append((engine._use_fft, engine.rows_scored - before))
            return out

        monkeypatch.setattr(ScoreEngine, "best", recording)
        cfg = replace(load_preset("room-20x10"), n_tones=128, snr_db=0.0,
                      l_max=5, stop_fraction=0.01, refine_passes=1,
                      parity=False, seed=7)
        rep = run_evaluate(cfg)
        assert rep.extraction.selections == [
            (10, 4, 41), (51, 4, 50), (16, 51, 52), (4, 27, 91)]
        assert len(rep.paths) == 4
        assert rep.anchor_index is not None
        assert rep.parities is None and rep.rm_paths is None
        assert all(use_fft for use_fft, _ in rounds)
        assert rounds[-1][1] >= 61 * 60


def _rescaled(mset, factor):
    return replace(mset, responses=mset.responses * factor)


class TestInvariance:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(k=st.integers(-900, 900))
    def test_power_of_two_scale_is_exact(self, quick_synth, quick_cfg,
                                         quick_report, k):
        mset, truth = quick_synth
        rep = run_estimate(_rescaled(mset, 2.0 ** k), quick_cfg, truth=truth)
        base = quick_report
        assert rep.extraction.selections == base.extraction.selections
        assert len(rep.paths) == len(base.paths)
        for a, b in zip(rep.paths, base.paths):
            assert (a.aoa, a.aod, a.delta) == (b.aoa, b.aod, b.delta)
            assert np.array_equal(a.gains, b.gains * 2.0 ** k)
        assert np.array_equal(rep.image_points, base.image_points)
        assert rep.parities == base.parities

    @pytest.mark.parametrize("factor", [1e-300, 1e200])
    def test_extreme_scales(self, quick_synth, quick_cfg, quick_report,
                            factor):
        # Squared magnitudes of these inputs leave the float range.  A
        # scale that is not a power of two rounds the data, and the
        # polish moves by a few micrometres for it: x3 already shifts
        # the LOS error by 3e-6 m on this scenario.
        mset, truth = quick_synth
        scaled = _rescaled(mset, factor)
        rep = run_estimate(scaled, quick_cfg, truth=truth)
        assert rep.extraction.selections == quick_report.extraction.selections
        assert abs(rep.los_image_error()
                   - quick_report.los_image_error()) <= 1e-5
        result, _ = extract_paths(scaled, quick_cfg)
        base, _ = extract_paths(mset, quick_cfg)
        assert len(result.paths) == len(base.paths)
        for a, b in zip(result.paths, base.paths):
            assert abs(wrap_angle(a.aoa - b.aoa)) < 1e-7
            assert np.allclose(a.gains / factor, b.gains, rtol=1e-5)

    def test_mirror_rows_pick_one_side_at_any_scale(self, quick_synth,
                                                    quick_cfg):
        # Without a room the collinear track's arrival axis is not
        # folded, and each +-theta pair of arrival rows is the same atom.
        # The sweep must pick the same row of a pair whatever rounding a
        # non-power-of-two scale brings.
        mset, _ = quick_synth
        base, _ = extract_paths(mset, quick_cfg)
        for factor in (3.0, 0.3, 1e-300, 1e200):
            result, _ = extract_paths(_rescaled(mset, factor), quick_cfg)
            assert result.selections == base.selections, factor

    @pytest.mark.parametrize("factor", [3.0, 0.3, 1.0 + 1e-7])
    def test_non_power_of_two_scale(self, quick_synth, quick_cfg,
                                    quick_report, factor):
        # such a scale rounds the data; the polish's Newton ascent
        # converges past that rounding, so the image points hold to 1e-7 m
        mset, truth = quick_synth
        rep = run_estimate(_rescaled(mset, factor), quick_cfg, truth=truth)
        assert rep.extraction.selections == quick_report.extraction.selections
        assert rep.parities == quick_report.parities
        assert np.allclose(rep.image_points, quick_report.image_points,
                           rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("factor", [1e-300, 1e200])
    def test_residual_fraction_is_scale_free(self, quick_synth, quick_cfg,
                                             factor):
        # the energies of these inputs leave the float range
        mset, _ = quick_synth
        base, _ = extract_paths(mset, quick_cfg)
        result, _ = extract_paths(_rescaled(mset, factor), quick_cfg)
        assert base.residual_fraction() > 0
        assert result.residual_fraction() == pytest.approx(
            base.residual_fraction(), rel=1e-9)

    @pytest.fixture(scope="class")
    def room_run(self):
        cfg = load_preset("room-20x10")
        mset, truth = run_synth(cfg)
        return cfg, mset, truth, run_estimate(mset, cfg, truth=truth)

    @pytest.mark.parametrize("t0", [0.3e-9, 7.77e-9])
    def test_global_delay_offset(self, room_run, t0):
        # a common delay on every capture is a system delay the pipeline
        # must not read range from: delays are relative, range comes from
        # triangulation
        cfg, mset, truth, base = room_run
        shifted = replace(mset, responses=mset.responses * np.exp(
            -2j * np.pi * mset.grid.tones() * t0))
        rep = run_estimate(shifted, cfg, truth=truth)
        assert len(rep.paths) == len(base.paths) == 4
        for a, b in zip(rep.paths, base.paths):
            assert abs(a.delta - b.delta) <= 2e-4 * 1e-9
        assert abs(rep.los_image_error() - base.los_image_error()) <= 2e-3

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    def test_placement_order(self, quick_cfg, snr_db):
        cfg = replace(quick_cfg, snr_db=snr_db)
        mset, truth = run_synth(cfg)
        base = run_estimate(mset, cfg, truth=truth)
        rng = np.random.default_rng(11)
        for _ in range(4):
            perm = rng.permutation(mset.plan.n_placements)
            permuted = replace(mset, responses=mset.responses[perm],
                               plan=mset.plan.subset(perm))
            rep = run_estimate(permuted, cfg, truth=truth)
            assert rep.extraction.selections == base.extraction.selections
            assert rep.parities == base.parities
            assert np.allclose(rep.image_points, base.image_points,
                               rtol=0.0, atol=1e-5)


class TestModelOrder:
    @pytest.mark.parametrize("n_tones", [16, 32])
    def test_noiseless_room_keeps_four_paths_at_few_tones(self, n_tones):
        # the paths fill most delay bins at few tones: a noise floor read
        # off the raw data instead of the residual ends the sweep early
        cfg = replace(load_preset("room-20x10"), n_tones=n_tones)
        mset, truth = run_synth(cfg)
        result, _ = extract_paths(mset, cfg)
        assert len(truth) == 4
        assert len(result.paths) == 4


class TestCollinearFold:
    def test_axis_detection(self):
        line = np.array([[0.0, 1.0], [0.5, 1.0], [2.0, 1.0]])
        axis = collinear_axis(line)
        assert axis is not None
        assert abs(axis[1]) < 1e-12
        cloud = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert collinear_axis(cloud) is None

    def test_recovered_bearings_face_interior(self, quick_report):
        # the track lies on y=1 inside a room above it, so every
        # physical arrival comes from the upper half-plane; the fold
        # must keep the estimates there even though a collinear track
        # cannot tell an arrival from its mirror image.
        for p in quick_report.paths:
            assert math.sin(p.aoa) > 0
        for blist in quick_report.bearings:
            for b in blist:
                assert math.sin(b.angle) > 0

    def test_subset_bearings_drop_far_side_seeds(self, quick_synth,
                                                 quick_cfg, quick_report):
        # a seed mirrored across the track polishes to the mirror, which
        # fits the data as well; the fold must give it no bearing
        mset, _ = quick_synth
        ext = quick_report.extraction
        los = ext.paths[0]
        mirrored = replace(los, aoa=-los.aoa)
        room = build_room(quick_cfg)
        for path, want in ((los, 3), (mirrored, 0)):
            result = ExtractionResult(paths=[path], selections=[],
                                      residual_history=[1.0],
                                      delay_origin=ext.delay_origin)
            got = subset_bearings(mset, result, room)
            assert len(got[0]) == want

    def test_polished_pick_unfolds_to_interior(self):
        # At 0 dB, seed 3, the sweep's polish slides one pick across the
        # track line to -8 degrees, where no subset bearing faces the
        # room.  Its mirror about the track axis is the same atom, so
        # extraction reflects it back (+8 degrees) and it triangulates.
        cfg = replace(load_preset("room-20x10-fs1ghz"), snr_db=0.0, seed=3)
        rep = run_evaluate(cfg)
        axis, side = _fold_setup(build_plan(cfg), build_room(cfg))
        aoas = np.array([p.aoa for p in rep.paths])
        assert axis is not None and side != 0.0
        assert np.all(_facing(aoas, axis, side))
        assert np.any(np.abs(aoas - np.deg2rad(8.0)) < 1e-9)
        assert all(len(b) >= 2 for b in rep.bearings)


class TestDatasetRebind:
    def test_estimate_from_disk_matches_memory(self, quick_synth, quick_cfg,
                                               quick_report, tmp_path):
        mset, truth = quick_synth
        p = tmp_path / "run.nfcm"
        write_dataset(mset, p)
        rep = run_estimate(read_dataset(p), quick_cfg, truth=truth)
        assert rep.extraction.selections == quick_report.extraction.selections
        for a, b in zip(rep.paths, quick_report.paths):
            assert a.aoa == pytest.approx(b.aoa, abs=1e-12)
            assert a.delta == pytest.approx(b.delta, abs=1e-15)
        assert rep.anchor_index is not None
        assert rep.anchor_index == quick_report.anchor_index
        assert rep.parities == quick_report.parities
        assert rep.image_points.tobytes() == quick_report.image_points.tobytes()

    def test_unequal_groups_fail_before_sweep(self, quick_synth, quick_cfg,
                                              monkeypatch):
        # dropping placement 0 leaves offset 0 with one placement; the
        # groups are formed before the sweep, so nothing is extracted
        mset, _ = quick_synth
        keep = np.arange(1, mset.plan.n_placements)
        short = replace(mset, responses=mset.responses[keep],
                        plan=mset.plan.subset(keep))
        calls = []
        monkeypatch.setattr(pipeline, "omp_extract",
                            lambda *args, **kw: calls.append(args))
        with pytest.raises(InvalidGeometry, match="equal placement counts"):
            run_estimate(short, quick_cfg)
        assert calls == []


class TestNoAnchor:
    def test_one_offset_gives_no_anchor(self, quick_cfg):
        # a one-offset track gives one bearing per path, below the two
        # that triangulation needs, so no path can anchor
        cfg = replace(quick_cfg, offsets=quick_cfg.offsets[:1])
        rep = run_evaluate(cfg)
        assert rep.paths and all(len(b) == 1 for b in rep.bearings)
        assert rep.anchor_index is None
        assert rep.taus is None and rep.rm_paths is None
        assert rep.parities is None
        assert rep.los_image_error() == float("inf")
        with pytest.raises(DegenerateTriangulation):
            run_heatmap(cfg, report=rep)

    def test_inconsistent_anchor_falls_back(self):
        # strongest path triangulates absurdly close, so anchoring on it
        # would drive the other path's absolute delay negative
        from nfchan.estimation import Bearing, ExtractionResult
        from nfchan.channel import PwaPathParams
        from nfchan.pipeline import localize_paths

        plan = plan_linear_track([0.0, 0.0], [0.0], [WL], TX3, n_rx=2)
        paths = [
            PwaPathParams(np.full(plan.n_placements, 2.0), 100e-9,
                          math.atan2(0.5, 1.0), 0.2),
            PwaPathParams(np.full(plan.n_placements, 1.0), 0.0,
                          math.atan2(2.0, 5.0), 0.4),
        ]
        result = ExtractionResult(paths=paths, selections=[(0, 0, 0)] * 2,
                                  residual_history=[1.0, 0.5, 0.0])

        def sights(target):
            return [Bearing(position=p, angle=math.atan2(target[1] - p[1],
                                                         target[0] - p[0]))
                    for p in ([0.0, 0.0], [0.0, 1.0])]

        bearings = [sights((1.0, 0.5)), sights((5.0, 2.0))]
        anchor, taus, images, tris = localize_paths(plan, result, bearings)
        assert anchor == 1
        assert np.all(taus > 0)
        assert np.allclose(images[1], (5.0, 2.0), atol=1e-6)
        assert tris[0] is not None


class TestSubsetGroups:
    def test_by_offset(self, quick_synth, quick_cfg):
        mset, _ = quick_synth
        groups = subset_groups(mset.plan)
        assert [g.tolist() for g in groups] == [[0, 1], [2, 3], [4, 5]]
        for g, off in zip(groups, quick_cfg.offsets):
            cents = mset.plan.rx_positions[g].mean(axis=1)
            assert np.allclose(cents[:, 0], quick_cfg.ap_origin[0] + off,
                               rtol=0.0, atol=1e-12)

    def test_read_back_groups_match_memory(self, quick_synth, tmp_path):
        mset, _ = quick_synth
        p = tmp_path / "run.nfcm"
        write_dataset(mset, p)
        back = subset_groups(read_dataset(p).plan)
        assert ([g.tolist() for g in back]
                == [g.tolist() for g in subset_groups(mset.plan)])

    def test_unequal_offset_counts_rejected(self, quick_synth):
        # dropping one placement leaves offset 0 with one placement and
        # the others with two; the message names each group's centroid
        # and count
        mset, _ = quick_synth
        plan = mset.plan.subset(np.arange(1, mset.plan.n_placements))
        with pytest.raises(InvalidGeometry, match=(
                r"\(1, 1\): 1, \(1\.3, 1\): 2, \(1\.6, 1\): 2")):
            subset_groups(plan)

    @settings(max_examples=60, deadline=None)
    @given(n_rx=st.integers(1, 3),
           steps=st.lists(st.integers(-40, 40), min_size=1, max_size=4,
                          unique=True),
           spacings=st.lists(st.sampled_from([0.005, 0.015, 0.03, 0.06]),
                             min_size=1, max_size=3),
           origin=st.tuples(st.floats(-100.0, 100.0),
                            st.floats(-100.0, 100.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_groups_are_track_offsets(self, n_rx, steps, spacings, origin,
                                      seed):
        # distinct offsets in random order; placements are offsets-major,
        # so placement k sits at offset k // len(spacings), and the
        # groups run in increasing offset order
        offsets = 0.05 * np.array(steps)
        plan = plan_linear_track(origin, offsets, spacings, TX3, n_rx=n_rx)
        at = np.arange(plan.n_placements) // len(spacings)
        want = [np.flatnonzero(at == i).tolist() for i in np.argsort(offsets)]
        assert [g.tolist() for g in subset_groups(plan)] == want
        # placement i of the permuted plan is placement perm[i]
        perm = np.random.default_rng(seed).permutation(plan.n_placements)
        moved = subset_groups(plan.subset(perm))
        assert [sorted(perm[g].tolist()) for g in moved] == want


def _scipy_assign(cost):
    # the oracle: the test session may load scipy.optimize, nfchan must not
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment(cost)


COST_SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7)


class TestAssign:
    @settings(max_examples=300, deadline=None)
    @given(arrays(float, COST_SHAPES,
                  elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    def test_float_costs_match_scipy(self, cost):
        rows, cols = _assign(cost)
        want_rows, want_cols = _scipy_assign(cost)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.int64, COST_SHAPES, elements=st.integers(0, 3)))
    def test_tied_integer_costs_match_scipy_total(self, cost):
        rows, cols = _assign(cost)
        want_rows, want_cols = _scipy_assign(cost)
        assert len(rows) == len(cols) == min(cost.shape)
        assert np.all(np.diff(rows) > 0)
        assert len(set(cols.tolist())) == len(cols)
        assert cost[rows, cols].sum() == cost[want_rows, want_cols].sum()

    @pytest.mark.parametrize("shape", [(6, 52), (52, 6)])
    def test_six_wall_campaign_size(self, shape):
        # the six-wall campaign's path count: far past a permutation search
        cost = np.random.default_rng(52).random(shape)
        rows, cols = _assign(cost)
        want_rows, want_cols = _scipy_assign(cost)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_rejected(self, bad):
        cost = np.arange(12.0).reshape(3, 4)
        cost[1, 2] = bad
        with pytest.raises(InvalidGeometry, match="finite"):
            _assign(cost)


class TestBatchedSubsetPolish:
    """subset_bearings polishes every subset in one lockstep call; each
    subset must get what a call on that subset alone gives it."""

    @staticmethod
    def polish_calls(mset, cfg, monkeypatch):
        """(arguments, outputs) of each polish call subset_bearings makes."""
        calls = []

        def recording(*args):
            out = _cyclic_polish(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(pipeline, "_cyclic_polish", recording)
        run_estimate(mset, cfg)
        return calls

    def test_one_polish_call_for_all_subsets(self, quick_synth, quick_cfg,
                                             monkeypatch):
        # a per-subset polish would show up as one call per subset
        mset, _ = quick_synth
        [(args, _)] = self.polish_calls(mset, quick_cfg, monkeypatch)
        assert len(args[0]) == 3

    @pytest.mark.parametrize("snr_db", [None, 20.0])
    def test_batch_matches_separate_calls(self, quick_cfg, snr_db,
                                          monkeypatch):
        # data stacks the subsets problem-major, K placements each
        cfg = replace(quick_cfg, snr_db=snr_db)
        mset, _ = run_synth(cfg)
        [(args, out)] = self.polish_calls(mset, cfg, monkeypatch)
        plans, grid, seeds, data, steps, passes = args
        assert len(plans) == 3
        k = plans[0].n_placements
        for s, (params, gains, residual) in enumerate(zip(*out)):
            [want_params], [want_gains], [want_residual] = _cyclic_polish(
                [plans[s]], grid, [seeds[s]], data[s * k:(s + 1) * k], steps,
                passes)
            assert np.all(np.abs(np.subtract(params, want_params))
                          <= NEWTON_TOL * np.array(steps))
            np.testing.assert_allclose(gains, want_gains, rtol=1e-9)
            np.testing.assert_allclose(residual, want_residual, rtol=1e-9)

    def test_polish_peak_memory(self):
        # One subset_bearings call on room-20x10 at F = 512 and 20 dB (4
        # paths): its three subsets' atom products stack on one placement
        # axis.  4.81 MiB at peak when measured.  A gain fit that copies
        # its whole conjugated atom stack (1.69 MiB) on every refit, with
        # subsets copied once by fancy indexing and again into the stack,
        # peaked at 6.96 MiB.
        cfg = replace(load_preset("room-20x10"), snr_db=20.0, seed=1)
        mset, _ = run_synth(cfg)
        room = build_room(cfg)
        result, _ = extract_paths(mset, cfg, room=room)
        tracemalloc.start()
        try:
            subset_bearings(mset, result, room)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20

    def test_extract_peak_memory(self):
        # The sweep and its polish on room-20x10, noiseless (4 paths),
        # after a first call that imports numpy submodules (about 1 MiB
        # more).  7.74 MiB at peak when measured; 8.29 MiB with angle
        # scores that built their phasors per evaluation, and 8.38 MiB
        # with the expansion's data and moments in fresh arrays per path.
        cfg = replace(load_preset("room-20x10"), seed=3)
        mset, _ = run_synth(cfg)
        room = build_room(cfg)
        extract_paths(mset, cfg, room=room)
        tracemalloc.start()
        try:
            extract_paths(mset, cfg, room=room)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * 2 ** 20


class TestSweepValues:
    def test_range_form(self):
        name, values = sweep_values("snr=0:5:40")
        assert name == "snr"
        assert values == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]

    def test_list_form(self):
        name, values = sweep_values("l_max = 2, 4, 8")
        assert name == "l_max" and values == [2.0, 4.0, 8.0]

    def test_scenario_key_aliases(self):
        assert sweep_values("snr_db = 10, 30")[0] == "snr"
        assert sweep_values("bandwidth_hz = 1e9, 2e9")[0] == "bandwidth"

    def test_errors(self):
        with pytest.raises(InvalidGeometry, match="vary"):
            sweep_values("snr")
        with pytest.raises(InvalidGeometry, match="cannot vary"):
            sweep_values("walls=1:1:3")
        with pytest.raises(InvalidGeometry, match="start:step:stop"):
            sweep_values("snr=0:40")
        with pytest.raises(InvalidGeometry, match="positive"):
            sweep_values("snr=0:-5:40")

    @pytest.mark.parametrize("spec, key", [
        ("n_tones=64.7", "n_tones"),
        ("seed=1.9", "seed"),
        ("snr=nan,inf", "snr_db"),
        ("l_max=0", "l_max"),
        ("max_order=-1", "max_order"),
        ("stop_fraction=0:0.5:1", "stop_fraction"),
        ("snr=0:1e-12:1", "snr_db"),
    ])
    def test_values_checked_by_scenario_row(self, spec, key):
        with pytest.raises(InvalidGeometry, match=key):
            sweep_values(spec)

    def test_integer_keys_take_integral_ranges_and_lists(self):
        for spec, want in (("l_max=1:1:6", [1, 2, 3, 4, 5, 6]),
                           ("l_max = 2, 4, 8", [2, 4, 8]),
                           ("n_tones=2:1:4", [2, 3, 4])):
            values = sweep_values(spec)[1]
            assert values == want
            assert all(type(v) is int for v in values)


class TestSweepRuns:
    def test_jobs_checked_before_any_runs(self, quick_cfg):
        # the second bandwidth puts the band edge below zero frequency
        with pytest.raises(ScenarioError, match="bandwidth_hz"):
            sweep_runs(quick_cfg, "bandwidth", [500e6, 30e9])

    def test_oversized_job_fails_before_any_runs(self, quick_cfg,
                                                 monkeypatch):
        # --vary n_tones: the second value passes the sample cap
        def no_job(cfg):
            raise AssertionError("a job ran")

        monkeypatch.setattr(pipeline, "run_evaluate", no_job)
        name, values = sweep_values("n_tones=64,1000000000000")
        with pytest.raises(ScenarioError, match="n_tones"):
            sweep_runs(quick_cfg, name, values)

    def test_rows_and_determinism(self, quick_cfg):
        rows = sweep_runs(quick_cfg, "snr", [25.0, 35.0])
        assert len(rows) == 2
        for row in rows:
            assert row["n_paths"] == 4
            assert math.isfinite(row["los_error_m"])
            assert row["runtime_s"] > 0
        again = sweep_runs(quick_cfg, "snr", [25.0, 35.0])
        assert [r["los_error_m"] for r in again] == \
            [r["los_error_m"] for r in rows]


class TestHeatmapRun:
    def test_anchor_ray_contains_argmax(self, quick_cfg, quick_report):
        rep, hm = run_heatmap(quick_cfg, report=quick_report)
        assert hm.scores.sum() == pytest.approx(1.0, abs=1e-9)
        idx = np.unravel_index(np.argmax(hm.scores), hm.scores.shape)
        cx = hm.origin[0] + (idx[1] + 0.5) * hm.cell
        cy = hm.origin[1] + (idx[0] + 0.5) * hm.cell
        # bearing-only likelihood is shallow along range, so the peak
        # may slide along the ray; it must stay near the LOS corridor.
        assert np.hypot(cx - 12.0, cy - 7.5) < 1.5
        b = rep.bearings[rep.anchor_index][0]
        ray = math.atan2(cy - b.position[1], cx - b.position[0])
        assert abs(wrap_angle(ray - b.angle)) < np.deg2rad(1.0)

    def test_preset_spans_room_bounding_box(self):
        # 20 m x 10 m in 0.25 m cells at the library's concentration
        cfg = load_preset("room-20x10")
        rep, hm = run_heatmap(cfg)
        assert np.array_equal(hm.origin, [0.0, 0.0])
        assert hm.cell == 0.25 and hm.scores.shape == (40, 80)
        want = localization_heatmap(rep.bearings[rep.anchor_index],
                                    region=(0.0, 20.0, 0.0, 10.0),
                                    cell=0.25, concentration=400.0)
        assert np.array_equal(hm.scores, want.scores)

    def test_missing_room_fails_before_evaluate(self, quick_cfg,
                                                monkeypatch):
        def no_run(cfg):
            raise AssertionError("evaluated without a region")

        monkeypatch.setattr(pipeline, "run_evaluate", no_run)
        with pytest.raises(InvalidGeometry, match="room"):
            run_heatmap(replace(quick_cfg, room_vertices=None))


class TestApertureResolutionLadder:
    def test_min_separable_gap_non_increasing(self):
        # fixed broadside two-path scenario; the smallest bearing gap
        # the extractor still splits must not grow with the widest
        # element separation.  Unresolvable rungs count as +inf.
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=32)
        step = 1 / (2 * grid.bandwidth)
        center = np.pi / 2
        aoas = np.arange(0.9, 2.255, 0.02)
        delays = fft_delay_bins(grid, 41.5 * step, 42.5 * step)
        ladder = [1.0, 0.9, 0.8, 0.7, 0.6, 0.55, 0.5, 0.45, 0.4, 0.35,
                  0.3, 0.25, 0.2, 0.15, 0.12, 0.1, 0.08, 0.06, 0.05, 0.04]

        def separable(n_rx, gap):
            plan = plan_linear_track([0.0, 0.0], [0.0], [WL / 2], TX3,
                                     n_rx=n_rx)
            lo, hi = center - gap / 2, center + gap / 2
            paths = [RmPathParams(1.0, 42 * step, lo, -1.9, 1),
                     RmPathParams(1.0, 42 * step, hi, -1.9, 1)]
            m = simulate_campaign(paths, plan, grid, model="pwa")
            dic = DictionaryGrid(aoas=aoas, aods=np.array([-1.9]),
                                 delays=delays)
            res = omp_extract(m, dic, l_max=2)
            if len(res.paths) < 2:
                return False
            got = sorted(p.aoa for p in res.paths)
            tol = 0.02 + 1e-12
            return abs(got[0] - lo) <= tol and abs(got[1] - hi) <= tol

        def min_separable(n_rx):
            best = math.inf
            for gap in ladder:
                if separable(n_rx, gap):
                    best = gap
                else:
                    break
            return best

        spread = [min_separable(m) for m in (4, 8, 12, 16, 24)]
        assert all(a >= b for a, b in zip(spread, spread[1:]))
        assert spread[-1] < 0.2  # the widest aperture actually resolves
        assert math.isinf(spread[0])  # and the narrowest cannot
