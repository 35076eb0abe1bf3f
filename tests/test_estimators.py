"""Estimator protocol (params/clone contract) and fit/predict behavior."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfchan.aperture import MeasurementSet
from nfchan.dataio import read_dataset, write_dataset
from nfchan.estimators import (NotFittedError, PathExtractor,
                               ReflectionModelEstimator)


def clone(est):
    # sklearn.base.clone semantics: rebuild from get_params.
    return type(est)(**est.get_params())


def rotated(mset, seed=7):
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(mset.plan.n_placements))
    return MeasurementSet(
        responses=mset.responses * phases[:, None, None, None],
        plan=mset.plan, grid=mset.grid, snr_db=mset.snr_db,
        coherent=mset.coherent, seed=mset.seed)


class TestProtocol:
    def test_get_params_round_trip(self):
        est = PathExtractor(l_max=3, stop_fraction=0.02)
        params = est.get_params()
        assert params["l_max"] == 3
        assert params["stop_fraction"] == 0.02
        assert "refine_passes" in params and "room" in params
        twin = clone(est)
        assert twin.get_params() == params

    def test_set_params(self):
        est = PathExtractor()
        assert est.set_params(l_max=9) is est
        assert est.l_max == 9
        with pytest.raises(ValueError, match="invalid parameter"):
            est.set_params(bananas=1)

    def test_rm_estimator_params(self):
        est = ReflectionModelEstimator(parity=False, l_max=3)
        params = clone(est).get_params()
        assert params["parity"] is False
        assert params["l_max"] == 3
        assert "min_bearings" not in params and "subsets" not in params
        with pytest.raises(TypeError, match="min_bearings"):
            ReflectionModelEstimator(min_bearings=3)

    @pytest.mark.parametrize("cls", [PathExtractor, ReflectionModelEstimator])
    @pytest.mark.parametrize("name", ["reflective", "aoa_grid_deg",
                                      "aod_grid_deg"])
    def test_removed_params_rejected(self, cls, name):
        # the sweep always covers the full circle, and the fold reads
        # only the room's vertex centroid, not its wall flags
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{name}'"):
            cls(**{name: None})

    def test_repr_shows_params(self):
        assert "l_max=4" in repr(PathExtractor(l_max=4))

    def test_unfitted_predict_raises(self, quick_synth):
        mset, _ = quick_synth
        with pytest.raises(NotFittedError):
            PathExtractor().predict(mset)
        with pytest.raises(NotFittedError):
            ReflectionModelEstimator().predict(mset)


def scaled(mset, factor):
    return replace(mset, responses=mset.responses * factor)


def quick_extractor(quick_cfg):
    return PathExtractor(l_max=quick_cfg.l_max,
                         stop_fraction=quick_cfg.stop_fraction,
                         refine_passes=quick_cfg.refine_passes)


class TestPathExtractor:
    def test_fit_attributes(self, quick_synth, quick_cfg):
        mset, _ = quick_synth
        est = quick_extractor(quick_cfg).fit(mset)
        assert est.n_paths_ == 4
        assert est.residual_fraction_ < 0.01
        assert len(est.paths_) == 4
        assert est.extraction_.selections

    def test_predict_reconstructs(self, quick_synth, quick_cfg):
        mset, _ = quick_synth
        est = quick_extractor(quick_cfg).fit(mset)
        model = est.predict(mset)
        assert model.shape == mset.responses.shape
        assert est.score(mset) > 0.99

    def test_score_survives_phase_rotation(self, quick_synth, quick_cfg):
        # per-placement gains are refit in predict, so a rotated rerun
        # of the same campaign scores just as well.
        mset, _ = quick_synth
        est = quick_extractor(quick_cfg).fit(mset)
        assert est.score(rotated(mset)) == pytest.approx(est.score(mset),
                                                         abs=1e-9)


def quick_rm_estimator(quick_cfg):
    return ReflectionModelEstimator(
        room_vertices=quick_cfg.room_vertices,
        l_max=quick_cfg.l_max, stop_fraction=quick_cfg.stop_fraction,
        refine_passes=quick_cfg.refine_passes)


class TestReflectionModelEstimator:
    def fitted(self, quick_synth, quick_cfg):
        mset, truth = quick_synth
        est = quick_rm_estimator(quick_cfg)
        return est.fit(mset, y=truth), mset, truth

    def test_fit_attributes(self, quick_synth, quick_cfg):
        est, _, truth = self.fitted(quick_synth, quick_cfg)
        assert est.n_paths_ == 4
        assert len(est.rm_paths_) == 4
        assert est.anchor_index_ is not None
        assert np.all(est.errors_["image_m"] < 0.15)
        assert sorted(est.parities_) == sorted(p.parity for p in truth)

    def test_predict_transfers_model(self, quick_synth, quick_cfg):
        est, mset, _ = self.fitted(quick_synth, quick_cfg)
        pred = est.predict(mset)
        assert pred.shape == mset.responses.shape
        assert est.score(mset) > 0.95
        assert est.score(rotated(mset)) == pytest.approx(est.score(mset),
                                                         abs=1e-9)

    def test_fit_read_back_matches_memory(self, quick_synth, quick_cfg,
                                          tmp_path):
        # the placement groups come from the stored positions, so a
        # dataset read from disk fits as the set that was written
        mset, _ = quick_synth
        p = tmp_path / "run.nfcm"
        write_dataset(mset, p)
        mem = quick_rm_estimator(quick_cfg).fit(mset)
        disk = quick_rm_estimator(quick_cfg).fit(read_dataset(p))
        assert disk.anchor_index_ is not None
        assert (disk.report_.extraction.selections
                == mem.report_.extraction.selections)
        assert disk.parities_ == mem.parities_
        assert disk.image_points_.tobytes() == mem.image_points_.tobytes()

    def test_parity_disabled_blocks_predict(self, quick_synth, quick_cfg):
        mset, _ = quick_synth
        est = ReflectionModelEstimator(
            room_vertices=quick_cfg.room_vertices, parity=False,
            l_max=quick_cfg.l_max, stop_fraction=quick_cfg.stop_fraction,
            refine_passes=quick_cfg.refine_passes).fit(mset)
        assert est.rm_paths_ is None
        with pytest.raises(NotFittedError, match="parity"):
            est.predict(mset)


class TestScaleFreeScore:
    """``score`` of both estimators does not depend on the data's scale."""

    @pytest.fixture(scope="class")
    def fitted(self, quick_synth, quick_cfg):
        mset, _ = quick_synth
        return [quick_extractor(quick_cfg).fit(mset),
                quick_rm_estimator(quick_cfg).fit(mset)]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(k=st.integers(-900, 900))
    def test_power_of_two_scale_is_bit_identical(self, fitted, quick_synth,
                                                 k):
        mset, _ = quick_synth
        for est in fitted:
            assert est.score(scaled(mset, 2.0 ** k)) == est.score(mset)

    @pytest.mark.parametrize("factor", [1e-200, 1e200])
    def test_extreme_scales(self, fitted, quick_synth, factor):
        mset, _ = quick_synth
        for est in fitted:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = est.score(scaled(mset, factor))
            assert got == pytest.approx(est.score(mset), rel=0, abs=1e-9)

    def test_fit_at_one_scale_score_at_another(self, fitted, quick_synth,
                                               quick_cfg):
        mset, _ = quick_synth
        small = scaled(mset, 1e-200)
        for est, make in zip(fitted, (quick_extractor, quick_rm_estimator)):
            other = make(quick_cfg).fit(small)
            want = other.score(small)
            for factor in (1.0, 1e200):
                assert other.score(scaled(mset, factor)) == pytest.approx(
                    want, rel=0, abs=1e-9)
            # the fit itself moves only at the polish's tolerance
            assert want == pytest.approx(est.score(mset), rel=0, abs=1e-6)
