"""Tests of the benchmark itself, kept out of tier-1 (run them with
``python -m pytest perfbench``).

The smoke tests shrink every workload to 64 tones, like the quick scenario
of ``tests/conftest.py``, and drive the same measuring code as run.py.
"""

import gzip
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import nfchan  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nfchan import scenario  # noqa: E402

TONES = 64


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at 64 tones."""
    monkeypatch.setattr(workloads, "scenario", SimpleNamespace(
        load_preset=lambda name: replace(scenario.load_preset(name), n_tones=TONES),
        parse_scenario=scenario.parse_scenario))
    monkeypatch.setattr(workloads, "ENSEMBLE_TONES", TONES)
    monkeypatch.setattr(workloads, "CAMPAIGN_SCENARIO",
                        workloads.CAMPAIGN_SCENARIO.replace("n_tones = 512",
                                                            f"n_tones = {TONES}"))


def benchmark_doc():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(name, tmp_path, trace):
    wl = workloads.WORKLOADS[name](seed=3, workdir=str(tmp_path))
    wl.setup()
    result, record, tr = run.measure(
        wl, seconds=0.0, trace=trace, setup_times=[0.5, 0.4, 0.6],
        nfchan_error=nfchan.NfchanError)
    return wl, result, record, tr


def assert_contract(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in benchmark_doc()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float | int)
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_emits_every_end_to_end_metric(name, tiny, tmp_path):
    # At 64 tones an output check may fail (the 1 GHz preset loses a path),
    # so the smoke asserts that ops return and failures are counted, not
    # that the estimator is accurate at this size.
    wl, result, record, _ = measure(name, tmp_path, trace=False)
    assert [p for r in record["ops"] for p in r["problems"] if p.startswith("raised")] == []
    assert result["attempted"] == len(wl.pass_ops(0)) == record["metrics"]["op_count"]
    assert result["failed"] == sum(1 for r in record["ops"] if r["problems"])
    assert result["correct"] == (result["failed"] == 0)
    assert_contract(result, "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(r["ref_s"] > 0 and r["cost_ref"] > 0 for r in record["ops"])


def test_preset_estimate_covers_every_preset_and_the_noisy_half(tiny, tmp_path):
    _, _, record, _ = measure("preset-estimate", tmp_path, trace=False)
    labels = sorted((r["preset"], r["label"]) for r in record["ops"])
    assert labels == sorted([(p, "noiseless") for p in workloads.PRESETS]
                            + [(workloads.PRESET_NOISY, "20dB")])
    assert record["metrics"]["parity_hit_rate"] > 0


def test_traced_run_emits_per_layer_metrics_and_restores(tiny, tmp_path):
    targets = tracer.discover()
    bindings = {(id(owner), attr): owner.__dict__[attr]
                for _, owner, attr, _ in targets}
    aliases = {(mod.__name__, attr): val
               for mod in (sys.modules[n] for n in list(sys.modules)
                           if n == "nfchan" or n.startswith("nfchan."))
               for attr, val in vars(mod).items()}
    _, result, record, tr = measure("snr-ensemble", tmp_path, trace=True)
    assert_contract(result, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["estimation.ScoreEngine.best.calls"] > 0
    assert metrics["estimation.ScoreEngine.best.atoms_scored"] > 0
    assert metrics["estimation.omp_extract.rounds"] >= 1
    assert metrics["pipeline.run_estimate.s"] >= metrics["pipeline.extract_paths.s"] > 0
    assert metrics["channel.synth_channel.calls"] == 9  # one per placement
    assert "estimation.ScoreEngine.best" in tr.self_time_table()
    # One root span per traced op; every other span of an op has a parent
    # in the same op.
    roots = [s[4] for s in tr.spans if s[0] == tracer.OP_SPAN]
    assert roots == [r["op"] for r in record["ops"]][-len(roots):]
    for name, start, end, parent, op, _ in tr.spans:
        assert end >= start
        if op >= 0 and name != tracer.OP_SPAN:
            assert parent >= 0 and tr.spans[parent][4] == op
    tr.dump(tmp_path / "spans.json.gz")
    with gzip.open(tmp_path / "spans.json.gz", "rt") as fh:
        assert len(json.load(fh)["spans"]) == len(tr.spans)
    # Every wrapped callable and every alias of it is the original again.
    for _, owner, attr, original in targets:
        assert owner.__dict__[attr] is bindings[(id(owner), attr)] is original
    for mod in (sys.modules[n] for n in list(sys.modules)
                if n == "nfchan" or n.startswith("nfchan.")):
        for attr, val in vars(mod).items():
            if (mod.__name__, attr) in aliases:
                assert val is aliases[(mod.__name__, attr)], f"{mod.__name__}.{attr}"


def test_tracer_restores_after_an_exception():
    from nfchan import pipeline
    original = pipeline.omp_extract
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert pipeline.omp_extract is not original
            raise RuntimeError("boom")
    assert pipeline.omp_extract is original


def test_sampler_restores_the_alarm_and_reports_its_own_time():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler(interval=0.05) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass  # Python bytecode, so the handler gets to run
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 2
    assert sampler.busy == pytest.approx(sum(s for _, s in sampler.samples))
    end, seconds = sampler.samples[0]
    assert sampler.ref_s(end - 1e-6, end + 1e-6) == seconds
    assert sampler.ref_s(end + 100.0, end + 101.0) == sampler.samples[-1][1]


def test_op_cost_takes_class_medians_over_the_pass_mix():
    records = [{"label": "a", "cost_ref": c} for c in (10.0, 11.0, 30.0)]
    records += [{"label": "b", "cost_ref": c} for c in (100.0, 100.0, 100.0)]
    assert run.op_cost(records) == pytest.approx((11.0 + 100.0) / 2)


def test_failed_check_counts_against_the_run(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.SynthCampaign, "check",
                        lambda self, op, out: ["forced"])
    _, result, _, _ = measure("synth-campaign", tmp_path, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_benchmark_json_matches_catalogue():
    doc = benchmark_doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    with open(os.path.join(HERE, "metrics.json")) as fh:
        catalogue = json.load(fh)
    assert set(catalogue["per_layer"]) == {m["name"] for m in doc["per_layer"]}
    names = ([m["name"] for m in doc["end_to_end"]] + [m["name"] for m in doc["per_layer"]]
             + [m["name"] for m in catalogue["reported"]])
    assert len(names) == len(set(names))
    assert "setup_s" in names
    bound = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bound["setup_s"] == max(bound.values()) <= 0.25


def test_refuses_to_report_when_blas_is_not_pinned(monkeypatch):
    monkeypatch.setattr(run, "blas_threads", lambda: {"numpy:libopenblas": 2})
    with pytest.raises(run.BenchError, match="did not take"):
        run.check_blas_pin(run.machine_block())


def test_refuses_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit nonzero, print no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "nfchan" in proc.stderr
