"""Command-line driver: subcommands, output routing, error lines."""

import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from nfchan.cli import main
from nfchan.dataio import read_dataset, read_heatmap_grid

ERROR_LINE = re.compile(r"^error\[[a-z-]+\]: .+$")


@pytest.fixture()
def scenario_file(quick_text, tmp_path):
    p = tmp_path / "quick.cfg"
    p.write_text(quick_text)
    return str(p)


def run_ok(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert err == ""
    return out


def run_fail(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    assert rc != 0
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert ERROR_LINE.match(lines[0])
    return lines[0]


class TestSubcommands:
    def test_list(self, capsys):
        out = run_ok(capsys, "list")
        assert "room-20x10" in out
        assert "track-experiment" in out

    def test_synth_writes_dataset(self, capsys, scenario_file, tmp_path):
        ds = tmp_path / "run.nfcm"
        out = run_ok(capsys, "synth", "--scenario", scenario_file,
                     "--out", str(ds))
        assert str(ds) in out
        mset = read_dataset(ds)
        assert mset.plan.n_placements == 6
        assert mset.grid.num_tones == 64

    def test_synth_same_seed_byte_identical(self, capsys, scenario_file,
                                            tmp_path):
        a, b = tmp_path / "a.nfcm", tmp_path / "b.nfcm"
        run_ok(capsys, "synth", "--scenario", scenario_file, "--out", str(a))
        run_ok(capsys, "synth", "--scenario", scenario_file, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_synth_pdp_csv(self, capsys, scenario_file, tmp_path):
        ds, pdp = tmp_path / "run.nfcm", tmp_path / "pdp.csv"
        run_ok(capsys, "synth", "--scenario", scenario_file,
               "--out", str(ds), "--pdp", str(pdp))
        lines = pdp.read_text().splitlines()
        assert lines[0] == "delay_ns,magnitude_db"
        assert len(lines) == 65

    def test_estimate_from_dataset(self, capsys, scenario_file, tmp_path):
        ds, rep = tmp_path / "run.nfcm", tmp_path / "report.txt"
        run_ok(capsys, "synth", "--scenario", scenario_file, "--out", str(ds))
        run_ok(capsys, "estimate", "--data", str(ds),
               "--scenario", scenario_file, "--out", str(rep))
        text = rep.read_text()
        assert "rm_paths:" in text
        # recorded data carries no ground truth
        assert "truth:" not in text

    def test_evaluate_prints_report(self, capsys, scenario_file):
        out = run_ok(capsys, "evaluate", "--scenario", scenario_file)
        assert "truth:" in out and "errors:" in out
        assert out.count("\n    ") >= 8  # four estimated + four true paths

    def test_heatmap_grid(self, capsys, scenario_file, tmp_path):
        grid = tmp_path / "hm.csv"
        run_ok(capsys, "heatmap", "--scenario", scenario_file,
               "--out", str(grid))
        hm = read_heatmap_grid(grid)
        assert hm.scores.sum() == pytest.approx(1.0, abs=1e-6)

    def test_sweep_csv(self, capsys, scenario_file, tmp_path):
        out = tmp_path / "sweep.csv"
        run_ok(capsys, "sweep", "--scenario", scenario_file,
               "--vary", "snr=25,35", "--out", str(out))
        lines = out.read_text().splitlines()
        assert lines[0].startswith("snr,")
        assert len(lines) == 3


class TestOutputRouting:
    def test_env_var_directory(self, capsys, scenario_file, tmp_path,
                               monkeypatch):
        outdir = tmp_path / "results"
        monkeypatch.setenv("NFCHAN_OUT", str(outdir))
        out = run_ok(capsys, "synth", "--scenario", scenario_file)
        assert (outdir / "quick.nfcm").is_file()
        assert str(outdir / "quick.nfcm") in out

    def test_explicit_out_ignores_env(self, capsys, scenario_file, tmp_path,
                                      monkeypatch):
        monkeypatch.setenv("NFCHAN_OUT", str(tmp_path / "elsewhere"))
        ds = tmp_path / "here.nfcm"
        run_ok(capsys, "synth", "--scenario", scenario_file,
               "--out", str(ds))
        assert ds.is_file()
        assert not (tmp_path / "elsewhere").exists()


class TestErrorLines:
    def test_unknown_preset(self, capsys):
        line = run_fail(capsys, "evaluate", "--scenario", "warehouse")
        assert line.startswith("error[scenario]:")

    def test_unknown_flag(self, capsys, scenario_file):
        line = run_fail(capsys, "evaluate", "--scenario", scenario_file,
                        "--bogus")
        assert line.startswith("error[usage]:")

    def test_missing_subcommand(self, capsys):
        line = run_fail(capsys)
        assert line.startswith("error[usage]:")

    def test_corrupt_dataset(self, capsys, scenario_file, tmp_path):
        ds = tmp_path / "run.nfcm"
        run_ok(capsys, "synth", "--scenario", scenario_file, "--out", str(ds))
        ds.write_bytes(ds.read_bytes()[:50])
        line = run_fail(capsys, "estimate", "--data", str(ds),
                        "--scenario", scenario_file)
        assert line.startswith("error[dataset-format]:")

    @pytest.mark.parametrize("old, new", [
        ("origin = 1,1", "origin = 1.5,1"),
        ("origin = 1,1", "origin = 1.000001,1"),  # 1 um, no relative slack
        ("layout = triangle", "layout = pair"),   # another transmit count
    ])
    def test_estimate_wrong_layout(self, capsys, quick_text, scenario_file,
                                   tmp_path, old, new):
        # the scenario must describe the element positions the dataset
        # stores, else the estimate is refused
        moved = tmp_path / "moved.cfg"
        moved.write_text(quick_text.replace(old, new))
        ds, rep = tmp_path / "run.nfcm", tmp_path / "report.txt"
        run_ok(capsys, "synth", "--scenario", scenario_file, "--out", str(ds))
        assert main(["estimate", "--data", str(ds), "--scenario", str(moved),
                     "--out", str(rep)]) == 2
        line = capsys.readouterr().err.strip()
        assert ERROR_LINE.match(line)
        assert line.startswith("error[invalid-geometry]: ")
        assert "layout" in line
        assert not rep.exists()

    def test_unreadable_input_is_io_error(self, capsys, scenario_file,
                                          tmp_path):
        line = run_fail(capsys, "estimate",
                        "--data", str(tmp_path / "missing.nfcm"),
                        "--scenario", scenario_file)
        assert line.startswith("error[io]:")

    def test_bad_sweep_spec(self, capsys, scenario_file):
        line = run_fail(capsys, "sweep", "--scenario", scenario_file,
                        "--vary", "walls=1:1:3")
        assert line.startswith("error[invalid-geometry]:")


def console_script_target(name="nfchan"):
    """The ``module:function`` that ``[project.scripts]`` declares."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one table by hand
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        return re.search(rf'^{name}\s*=\s*"(.+)"', table, re.M).group(1)
    return tomllib.loads(text)["project"]["scripts"][name]


class TestConsoleScript:
    def test_entry_point_runs(self, fresh_python):
        # Run the declared target in a fresh interpreter the way the
        # generated console script does, so no install is needed.
        mod, func = console_script_target().split(":")
        proc = fresh_python(
            f"import sys; from {mod} import {func}; sys.exit({func}())",
            "list")
        assert proc.returncode == 0, proc.stderr
        assert "room-20x10" in proc.stdout

    @pytest.mark.skipif(shutil.which("nfchan") is None,
                        reason="nfchan console script not installed on PATH")
    def test_installed_script_runs(self):
        proc = subprocess.run(["nfchan", "list"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "room-20x10" in proc.stdout


class TestDeterminism:
    def test_evaluate_report_reproducible(self, capsys, scenario_file,
                                          tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_ok(capsys, "evaluate", "--scenario", scenario_file,
               "--out", str(a))
        run_ok(capsys, "evaluate", "--scenario", scenario_file,
               "--out", str(b))
        # timing jitters; everything else must match exactly
        def strip(path):
            text = path.read_text()
            return text[:text.index("timing_s:")]

        assert "timing_s:" in a.read_text()
        assert strip(a) == strip(b)
