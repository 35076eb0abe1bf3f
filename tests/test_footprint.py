"""What a run loads: each case runs in a fresh interpreter, since the
test session itself imports scipy for its oracles."""

import json
import textwrap

import pytest


@pytest.fixture()
def fresh_json(fresh_python):
    """The JSON that ``code`` prints last in a fresh interpreter."""
    def run(code):
        proc = fresh_python(textwrap.dedent(code))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])
    return run


def test_import_loads_no_scipy_subpackage(fresh_json):
    got = fresh_json("""
        import json, sys
        import nfchan
        print(json.dumps([m for m in ("scipy.optimize", "scipy.fft")
                          if m in sys.modules]))
        """)
    assert got == []


def test_gemm_run_loads_no_fft(fresh_json):
    # room-20x10 at 512 tones scores its ~44-delay support by GEMM, and
    # the truth matching needs no scipy either
    got = fresh_json("""
        import json, sys
        from nfchan.pipeline import run_evaluate
        from nfchan.scenario import load_preset
        cfg = load_preset("room-20x10")
        assert cfg.snr_db is None and cfg.n_tones == 512
        report = run_evaluate(cfg)
        print(json.dumps({"los_m": report.los_image_error(),
                          "fft": "scipy.fft" in sys.modules,
                          "optimize": "scipy.optimize" in sys.modules}))
        """)
    assert got["los_m"] < 0.05
    assert not got["fft"] and not got["optimize"]


def test_fft_engine_loads_fft(fresh_json):
    # every one of the 256 half-bins of a 128-tone comb: the FFT path
    got = fresh_json("""
        import json, sys
        from dataclasses import replace
        import numpy as np
        from nfchan.aperture import simulate_campaign
        from nfchan.estimation import (DictionaryGrid, ScoreEngine,
                                       fft_delay_bins)
        from nfchan.scenario import (build_grid, build_plan, load_preset,
                                     true_paths)
        cfg = replace(load_preset("room-20x10"), n_tones=128)
        plan, grid = build_plan(cfg), build_grid(cfg)
        m = simulate_campaign(true_paths(cfg, plan), plan, grid, snr_db=10,
                              seed=3)
        before = "scipy.fft" in sys.modules
        engine = ScoreEngine(plan, grid, DictionaryGrid(
            aoas=np.deg2rad(np.arange(-150.0, 180.0, 30.0)),
            aods=np.deg2rad(np.arange(-180.0, 180.0, 60.0)),
            delays=fft_delay_bins(grid)))
        scores = engine.scores(m.responses)
        idx, val = engine.best(m.responses)
        flat = np.unravel_index(int(np.argmax(scores)), scores.shape)
        print(json.dumps({"before": before, "fft_path": engine._use_fft,
                          "after": "scipy.fft" in sys.modules,
                          "n_delays": len(engine.dictionary.delays),
                          "best": [int(i) for i in idx],
                          "argmax": [int(i) for i in flat],
                          "val": float(val), "max": float(scores.max())}))
        """)
    assert not got["before"]
    assert got["fft_path"] and got["after"]
    assert got["n_delays"] == 256
    assert got["best"] == got["argmax"]
    assert abs(got["val"] - got["max"]) <= 1e-12 * got["max"]
