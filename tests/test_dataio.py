"""NFCM dataset container and the CSV/text emitters."""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfchan.aperture import (MeasurementPlan, MeasurementSet, compute_pdp,
                             mean_pdp)
from nfchan.channel import FrequencyGrid
from nfchan.dataio import (FORMAT_VERSION, MAGIC, emit_heatmap_grid,
                           emit_pdp_csv, emit_report, emit_sweep_csv,
                           read_dataset, read_heatmap_grid, write_dataset)
from nfchan.errors import DatasetFormatError
from nfchan.estimation import Bearing, Heatmap, localization_heatmap
from nfchan.pipeline import subset_groups


class TestDatasetRoundTrip:
    def test_bit_exact(self, quick_synth, tmp_path):
        mset, _ = quick_synth
        p = tmp_path / "run.nfcm"
        write_dataset(mset, p)
        back = read_dataset(p)
        assert back.responses.dtype == np.complex128
        assert np.array_equal(back.responses, mset.responses)
        assert np.array_equal(back.plan.rx_positions, mset.plan.rx_positions)
        assert np.array_equal(back.plan.tx_positions, mset.plan.tx_positions)
        assert np.array_equal(back.plan.rx_ref, mset.plan.rx_ref)
        assert np.array_equal(back.plan.tx_ref, mset.plan.tx_ref)
        assert back.grid.center == mset.grid.center
        assert back.grid.bandwidth == mset.grid.bandwidth
        assert back.grid.num_tones == mset.grid.num_tones
        assert back.snr_db == mset.snr_db
        assert back.coherent == mset.coherent
        assert back.seed == mset.seed

    def test_write_is_deterministic(self, quick_synth, tmp_path):
        mset, _ = quick_synth
        a, b = tmp_path / "a.nfcm", tmp_path / "b.nfcm"
        write_dataset(mset, a)
        write_dataset(mset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_snr_none_survives(self, quick_synth, tmp_path):
        mset, _ = quick_synth
        assert mset.snr_db is None
        p = tmp_path / "clean.nfcm"
        write_dataset(mset, p)
        assert read_dataset(p).snr_db is None

    def test_payload_is_not_copied(self, tmp_path):
        # The payload goes to disk from the response array itself and
        # comes back read straight into the one array returned: a copy
        # of its bytes on either side would add a payload to the peak.
        k, m, n, f = 32, 2, 2, 512  # a 2 MiB payload
        rng = np.random.default_rng(7)
        plan = MeasurementPlan(rx_positions=rng.uniform(0, 5, (k, m, 2)),
                               tx_positions=[[12.0, 7.5], [12.0, 7.52]])
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=f)
        mset = MeasurementSet(
            responses=rng.normal(size=(k, m, n, f, 2)) @ [1.0, 1j],
            plan=plan, grid=grid, seed=2)
        payload = mset.responses.nbytes
        p = tmp_path / "big.nfcm"
        tracemalloc.start()
        try:
            write_dataset(mset, p)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_dataset(p)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.responses, mset.responses)
        assert write_peak <= 0.25 * payload
        assert read_peak <= 1.25 * payload

    def test_offsets_not_stored(self, quick_synth, tmp_path):
        # the container stores no track offsets: the placement groups
        # come back from the stored element positions alone
        mset, _ = quick_synth
        p = tmp_path / "run.nfcm"
        write_dataset(mset, p)
        back = read_dataset(p).plan
        assert ([g.tolist() for g in subset_groups(back)]
                == [[0, 1], [2, 3], [4, 5]])


class TestDatasetErrors:
    def _blob(self, quick_synth, tmp_path):
        mset, _ = quick_synth
        p = tmp_path / "run.nfcm"
        write_dataset(mset, p)
        return p, bytearray(p.read_bytes())

    def test_bad_magic(self, quick_synth, tmp_path):
        p, blob = self._blob(quick_synth, tmp_path)
        blob[:4] = b"WAVE"
        p.write_bytes(blob)
        with pytest.raises(DatasetFormatError, match="magic"):
            read_dataset(p)

    def test_version_mismatch(self, quick_synth, tmp_path):
        p, blob = self._blob(quick_synth, tmp_path)
        blob[4] = FORMAT_VERSION + 1
        p.write_bytes(blob)
        with pytest.raises(DatasetFormatError, match="version"):
            read_dataset(p)

    def test_truncated_payload_names_byte_counts(self, quick_synth,
                                                 tmp_path):
        p, blob = self._blob(quick_synth, tmp_path)
        p.write_bytes(blob[:-17])
        with pytest.raises(DatasetFormatError) as err:
            read_dataset(p)
        msg = str(err.value)
        assert "truncated" in msg
        assert str(len(blob)) in msg and str(len(blob) - 17) in msg

    def test_zero_placements_is_dimension_error(self, quick_synth,
                                                tmp_path):
        p, blob = self._blob(quick_synth, tmp_path)
        blob[8:12] = (0).to_bytes(4, "little")  # K field
        p.write_bytes(blob)
        with pytest.raises(DatasetFormatError, match="dimensions"):
            read_dataset(p)

    def test_non_finite_payload_names_sample(self, quick_synth, tmp_path):
        mset, _ = quick_synth
        p, blob = self._blob(quick_synth, tmp_path)
        k, m, n, f = mset.responses.shape
        flat = np.ravel_multi_index((k - 1, 0, n - 1, 3), (k, m, n, f))
        at = len(blob) - mset.responses.size * 16 + flat * 16
        blob[at:at + 8] = struct.pack("<d", float("nan"))
        p.write_bytes(blob)
        with pytest.raises(DatasetFormatError,
                           match=rf"\({k - 1}, 0, {n - 1}, 3\)"):
            read_dataset(p)

    def test_trailing_bytes_rejected(self, quick_synth, tmp_path):
        p, blob = self._blob(quick_synth, tmp_path)
        p.write_bytes(bytes(blob) + b"junk")
        with pytest.raises(DatasetFormatError, match="trailing"):
            read_dataset(p)

    def test_magic_constant(self):
        assert MAGIC == b"NFCM"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_snr_rejected(self, quick_synth, tmp_path, value):
        mset, _ = quick_synth
        p = tmp_path / "run.nfcm"
        write_dataset(replace(mset, snr_db=20.0), p)
        blob = bytearray(p.read_bytes())
        at = _snr_offset(*mset.responses.shape)
        assert struct.unpack_from("<d", blob, at)[0] == 20.0
        struct.pack_into("<d", blob, at, value)
        p.write_bytes(blob)
        with pytest.raises(DatasetFormatError, match="snr_db"):
            read_dataset(p)


# A tiny dataset to mutate: K = 2 placements, M = 1, N = 2, F = 3.
_FUZZ_SHAPE = (2, 1, 2, 3)


def _snr_offset(k, m, n, f):
    """Byte offset of the stored snr_db double (after its flag byte)."""
    return 24 + 32 + 16 * k * m + 16 * n + 16 + 1


def _float_fields(k, m, n, f):
    """Byte offsets of the stored doubles, per field: references,
    positions, grid, snr_db and both halves of every payload sample."""
    snr = _snr_offset(k, m, n, f)
    grid = snr - 1 - 16
    return {"references": list(range(24, 56, 8)),
            "positions": list(range(56, grid, 8)),
            "grid": [grid, grid + 8],
            "snr_db": [snr],
            "payload": list(range(snr + 17, snr + 17 + 16 * k * m * n * f, 8))}


@pytest.fixture(scope="module")
def fuzz_blob():
    k, m, n, f = _FUZZ_SHAPE
    rng = np.random.default_rng(3)
    plan = MeasurementPlan(rx_positions=[[[1.0, 1.0]], [[1.2, 1.0]]],
                           tx_positions=[[12.0, 7.5], [12.0, 7.52]])
    grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=f)
    mset = MeasurementSet(
        responses=rng.normal(size=(k, m, n, f, 2)) @ [1.0, 1j], plan=plan,
        grid=grid, snr_db=20.0, seed=5)
    return mset, mset.responses.shape


_SPECIAL = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308]


class TestDatasetFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_reader_raises_only_format_errors(self, fuzz_blob, data,
                                              tmp_path_factory):
        mset, shape = fuzz_blob
        path = tmp_path_factory.getbasetemp() / "fuzz.nfcm"
        write_dataset(mset, path)
        blob = bytearray(path.read_bytes())
        how = data.draw(st.sampled_from(
            ["flip", "truncate", "trail", "header", "float"]))
        if how == "flip":
            for at in data.draw(st.lists(st.integers(0, len(blob) - 1),
                                         min_size=1, max_size=8)):
                blob[at] ^= data.draw(st.integers(1, 255))
        elif how == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        elif how == "trail":
            blob += data.draw(st.binary(min_size=1, max_size=40))
        elif how == "header":
            field = data.draw(st.integers(1, 5))  # version, K, M, N, F
            struct.pack_into("<I", blob, 4 * field, data.draw(st.one_of(
                st.integers(0, 8), st.integers(0, 2 ** 32 - 1))))
        else:
            fields = _float_fields(*shape)
            at = data.draw(st.sampled_from(
                fields[data.draw(st.sampled_from(sorted(fields)))]))
            struct.pack_into("<d", blob, at, data.draw(
                st.sampled_from(_SPECIAL)))
        path.write_bytes(blob)
        try:
            back = read_dataset(path)
        except DatasetFormatError:
            return
        assert np.isfinite(back.responses).all()
        assert back.snr_db is None or np.isfinite(back.snr_db)


class TestPdpCsv:
    def test_flat_response_normalization(self, tmp_path):
        grid = FrequencyGrid(center=10e9, bandwidth=500e6, num_tones=32)
        pdp = compute_pdp(np.ones(32, dtype=complex), grid)
        p = tmp_path / "pdp.csv"
        emit_pdp_csv(pdp, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "delay_ns,magnitude_db"
        assert len(lines) == 33
        first = [float(tok) for tok in lines[1].split(",")]
        assert first == [0.0, 0.0]
        # DFT of a constant is exactly zero off the first bin: every
        # later row carries the sentinel, which still parses as float.
        for line in lines[2:]:
            t, db = (float(tok) for tok in line.split(","))
            assert db <= -100.0

    def test_campaign_pdp_rows(self, quick_synth, tmp_path):
        mset, _ = quick_synth
        p = tmp_path / "pdp.csv"
        emit_pdp_csv(mean_pdp(mset), p)
        lines = p.read_text().splitlines()
        assert len(lines) == mset.grid.num_tones + 1
        dbs = [float(l.split(",")[1]) for l in lines[1:]]
        assert max(dbs) == 0.0


class TestHeatmapGrid:
    def bearings(self):
        return [Bearing([0.0, 0.0], np.arctan2(5, 10)),
                Bearing([0.8, 0.0], np.arctan2(5, 10 - 0.8))]

    def test_emitted_cells_sum_to_one(self, tmp_path):
        hm = localization_heatmap(self.bearings(), (0, 20, 0, 10), 0.5)
        p = tmp_path / "hm.csv"
        emit_heatmap_grid(hm, p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# origin_x=")
        total = sum(float(v) for l in lines[1:] for v in l.split(","))
        assert abs(total - 1.0) <= 1e-6

    def test_round_trip(self, tmp_path):
        hm = localization_heatmap(self.bearings(), (0, 20, 0, 10), 0.5)
        p = tmp_path / "hm.csv"
        emit_heatmap_grid(hm, p)
        back = read_heatmap_grid(p)
        assert np.allclose(back.scores, hm.scores, rtol=1e-12)
        assert back.cell == hm.cell
        assert np.allclose(back.origin, hm.origin)

    def test_header_required(self, tmp_path):
        p = tmp_path / "hm.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(DatasetFormatError, match="header"):
            read_heatmap_grid(p)


class TestReport:
    def test_mirrors_fields(self, quick_report, tmp_path):
        p = tmp_path / "report.txt"
        emit_report(quick_report, p)
        text = p.read_text()
        for section in ("extraction:", "bearings:", "triangulations:",
                        "anchor_index:", "taus_ns:", "image_points:",
                        "parities:", "rm_paths:", "truth:", "matches",
                        "errors:", "timing_s:"):
            assert section in text
        # four extracted paths, angles in degrees
        assert len(quick_report.paths) == 4
        assert text.count("path ") >= 4
        assert "deg" in text

    def test_no_truth_sections_without_truth(self, quick_synth, quick_cfg,
                                             tmp_path):
        from nfchan.pipeline import run_estimate
        mset, _ = quick_synth
        report = run_estimate(mset, quick_cfg)
        p = tmp_path / "report.txt"
        emit_report(report, p)
        text = p.read_text()
        assert "truth:" not in text
        assert "errors:" not in text


_HEATMAP_TOKENS = ["", "x", "zero", "nan", "inf", "-inf", "1e400", "-1", "0",
                   "0.5", "2", "3", "1,2", "1.5e-3"]


class TestHeatmapGridErrors:
    HEADER = "# origin_x=0 origin_y=0 cell=0.5 rows=2 cols=2\n"

    @pytest.mark.parametrize("text", [
        "# origin_x=0 origin_y=0 cell rows=2 cols=2\n1,2\n3,4\n",
        "# origin_x=0 origin_y=0 rows=2 cols=2\n1,2\n3,4\n",
        "# origin_x=zero origin_y=0 cell=0.5 rows=2 cols=2\n1,2\n3,4\n",
        HEADER + "1,x\n3,4\n",
        HEADER + "1,2\n3\n",
        "# origin_x=0 origin_y=0 cell=-1 rows=2 cols=2\n1,2\n3,4\n",
        "# origin_x=nan origin_y=0 cell=0.5 rows=2 cols=2\n1,2\n3,4\n",
        "# origin_x=0 origin_y=0 cell=0.5 rows=two cols=2\n1,2\n3,4\n",
        "# origin_x=0 origin_y=0 cell=0.5 cell=1 rows=2 cols=2\n1,2\n3,4\n",
        HEADER + "1,2\n3,nan\n",
        HEADER,
    ], ids=["bare-token", "missing-cell", "word-origin", "word-score",
            "ragged", "negative-cell", "nan-origin", "word-rows",
            "duplicate-key", "nan-score", "no-body"])
    def test_defects_raise_format_errors(self, tmp_path, text):
        p = tmp_path / "hm.csv"
        p.write_text(text)
        with pytest.raises(DatasetFormatError):
            read_heatmap_grid(p)


class TestHeatmapFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_reader_raises_only_format_errors(self, data, tmp_path_factory):
        hm = Heatmap(origin=(0.5, -1.0), cell=0.25,
                     scores=np.arange(6.0).reshape(2, 3) / 15.0)
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        emit_heatmap_grid(hm, path)
        lines = path.read_text().splitlines()
        how = data.draw(st.sampled_from(
            ["header", "cell", "drop-row", "add-row", "bytes"]))
        if how == "header":
            tokens = lines[0][2:].split()
            i = data.draw(st.integers(0, len(tokens) - 1))
            key = tokens[i].partition("=")[0]
            tokens[i] = data.draw(st.sampled_from(
                [key, f"{key}=", "extra=1", tokens[(i + 1) % len(tokens)]]
                + [f"{key}={v}" for v in _HEATMAP_TOKENS]))
            lines[0] = "# " + " ".join(tokens)
        elif how == "cell":
            row = data.draw(st.integers(1, len(lines) - 1))
            cells = lines[row].split(",")
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
                st.sampled_from(_HEATMAP_TOKENS))
            lines[row] = ",".join(cells)
        elif how == "drop-row":
            del lines[data.draw(st.integers(0, len(lines) - 1))]
        elif how == "add-row":
            lines.insert(data.draw(st.integers(0, len(lines))), ",".join(
                data.draw(st.lists(st.sampled_from(_HEATMAP_TOKENS),
                                   min_size=1, max_size=4))))
        blob = bytearray(("\n".join(lines) + "\n").encode())
        if how == "bytes":
            for at in data.draw(st.lists(st.integers(0, len(blob) - 1),
                                         min_size=1, max_size=8)):
                blob[at] ^= data.draw(st.integers(1, 255))
        path.write_bytes(blob)
        try:
            back = read_heatmap_grid(path)
        except DatasetFormatError:
            return
        assert np.all(np.isfinite(back.scores)) and back.scores.ndim == 2
        assert np.all(np.isfinite(back.origin)) and back.cell > 0


class TestSweepCsv:
    def test_columns_and_rows(self, tmp_path):
        rows = [{"value": 0.0, "n_paths": 4, "residual_fraction": 0.01,
                 "los_error_m": 0.5, "mean_image_error_m": 0.6,
                 "runtime_s": 1.25},
                {"value": 10.0, "n_paths": 4, "residual_fraction": 0.001,
                 "los_error_m": 0.05, "mean_image_error_m": 0.06,
                 "runtime_s": 1.5}]
        p = tmp_path / "sweep.csv"
        emit_sweep_csv("snr", rows, p)
        lines = p.read_text().splitlines()
        assert lines[0] == ("snr,n_paths,residual_fraction,los_error_m,"
                            "mean_image_error_m,runtime_s")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"
        assert float(lines[2].split(",")[3]) == 0.05
