"""What a run loads and compiles.  Each load case runs in a fresh
interpreter, since the test session itself imports scipy for its
oracles."""

import io
import json
import textwrap
import tokenize
from pathlib import Path

import pytest

import nfchan


@pytest.fixture()
def fresh_json(fresh_python):
    """The JSON that ``code`` prints last in a fresh interpreter."""
    def run(code):
        proc = fresh_python(textwrap.dedent(code))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])
    return run


# The source of a list of the loaded scipy modules, for the cases below.
SCIPY_LOADED = (
    '[m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]')


def test_import_loads_no_scipy_subpackage(fresh_json):
    got = fresh_json(f"""
        import json, sys
        import nfchan
        print(json.dumps({SCIPY_LOADED}))
        """)
    assert got == []


def test_gemm_run_loads_no_fft(fresh_json):
    # room-20x10 at 512 tones scores its ~44-delay support by GEMM, and
    # the truth matching needs no scipy either
    got = fresh_json(f"""
        import json, sys
        from nfchan.pipeline import run_evaluate
        from nfchan.scenario import load_preset
        cfg = load_preset("room-20x10")
        assert cfg.snr_db is None and cfg.n_tones == 512
        report = run_evaluate(cfg)
        print(json.dumps({{"los_m": report.los_image_error(),
                          "scipy": {SCIPY_LOADED}}}))
        """)
    assert got["los_m"] < 0.05
    assert got["scipy"] == []


def test_fft_engine_loads_no_scipy(fresh_json):
    # every one of the 256 half-bins of a 128-tone comb: the FFT path,
    # which transforms with numpy alone
    got = fresh_json(f"""
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
        engine = ScoreEngine(plan, grid, DictionaryGrid(
            aoas=np.deg2rad(np.arange(-150.0, 180.0, 30.0)),
            aods=np.deg2rad(np.arange(-180.0, 180.0, 60.0)),
            delays=fft_delay_bins(grid)))
        scores = engine.scores(m.responses)
        idx, val = engine.best(m.responses)
        flat = np.unravel_index(int(np.argmax(scores)), scores.shape)
        print(json.dumps({{"fft_path": engine._use_fft,
                          "scipy": {SCIPY_LOADED},
                          "n_delays": len(engine.dictionary.delays),
                          "best": [int(i) for i in idx],
                          "argmax": [int(i) for i in flat],
                          "val": float(val), "max": float(scores.max())}}))
        """)
    assert got["fft_path"] and got["scipy"] == []
    assert got["n_delays"] == 256
    assert got["best"] == got["argmax"]
    assert abs(got["val"] - got["max"]) <= 1e-12 * got["max"]


def test_fft_run_without_scipy(fresh_json):
    # With scipy unimportable, a low-SNR run whose sweep takes the FFT
    # path still completes.
    got = fresh_json(f"""
        import json, sys
        from dataclasses import replace

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError("blocked scipy")
                return None

        sys.meta_path.insert(0, BlockScipy())
        from nfchan import estimation
        from nfchan.pipeline import run_evaluate
        from nfchan.scenario import load_preset
        fft_path = []
        init = estimation.ScoreEngine.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            fft_path.append(self._use_fft)

        estimation.ScoreEngine.__init__ = spy
        cfg = replace(load_preset("room-20x10"), n_tones=128, snr_db=0,
                      seed=3)
        report = run_evaluate(cfg)
        print(json.dumps({{"fft_path": fft_path,
                          "n_paths": len(report.paths),
                          "l_max": cfg.l_max,
                          "scipy": {SCIPY_LOADED}}}))
        """)
    assert any(got["fft_path"])
    assert 1 <= got["n_paths"] <= got["l_max"]
    assert got["scipy"] == []


# The front end, by defining module: the only names the package
# namespace exports besides its submodules and ``__version__``.
FRONT_END = {
    "errors": ["NfchanError", "InvalidGeometry", "SingularGeometry",
               "EmptyChannel", "DegenerateTriangulation",
               "InconsistentAnchor", "DatasetFormatError", "ScenarioError"],
    "scenario": ["ScenarioConfig", "available_presets", "load_preset",
                 "load_scenario_file", "parse_scenario"],
    "pipeline": ["RunReport", "run_synth", "run_estimate", "run_evaluate",
                 "run_heatmap", "sweep_runs"],
    "dataio": ["read_dataset", "write_dataset", "emit_report",
               "read_heatmap_grid"],
}


def test_namespace_is_the_front_end(fresh_json):
    # each public name maps to [defining module, is it that module's object]
    got = fresh_json("""
        import json, sys, types
        import nfchan
        out = {}
        for name, obj in vars(nfchan).items():
            if name.startswith("_") or isinstance(obj, types.ModuleType):
                continue
            module = getattr(obj, "__module__", None)
            out[name] = [module,
                         getattr(sys.modules.get(module), name, None) is obj]
        print(json.dumps(out))
        """)
    assert got == {name: [f"nfchan.{module}", True]
                   for module, names in FRONT_END.items() for name in names}


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(nfchan.__file__).parent.glob("*.py")))
def test_module_below_parser_token_array(module):
    # Every run compiles the package from source, and a module past the
    # parser's 8,192-entry token array grew the import-time heap that
    # peak_rss_mb reads (0.45 MiB more resident, and +0.22 MB on
    # synth-campaign, which runs none of the estimator).  This guards
    # that one cause only: the state after import also flips with
    # edits far below the limit.  The parser does not see comments or
    # non-logical line breaks.
    source = (Path(nfchan.__file__).parent / module).read_text()
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    assert len(tokens) < 8192
