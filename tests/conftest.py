"""Shared fixtures: a cheap four-path scenario that the pipeline
solves in well under a second, reused wherever a test needs a real
end-to-end run without paying for the full-resolution presets."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nfchan
from nfchan.pipeline import run_evaluate, run_synth
from nfchan.scenario import parse_scenario

QUICK_SCENARIO = """\
[room]
vertices = 0,0 20,0 20,10 0,10
reflective = 1 2 3

[radio]
carrier_hz = 10e9
bandwidth_hz = 500e6
n_tones = 64

[transmitter]
position = 12,7.5
layout = triangle

[aperture]
origin = 1,1
offsets = 0 0.3 0.6
spacings = 0.5wl 1wl

[measurement]
seed = 1

[estimation]
l_max = 5
stop_fraction = 0.01
refine_passes = 1
"""


@pytest.fixture(scope="session")
def quick_text():
    return QUICK_SCENARIO


@pytest.fixture(scope="session")
def quick_cfg():
    # Session-scoped and shared: tests must not mutate it (use
    # dataclasses.replace for variants).
    return parse_scenario(QUICK_SCENARIO)


@pytest.fixture(scope="session")
def quick_synth(quick_cfg):
    return run_synth(quick_cfg)


@pytest.fixture(scope="session")
def quick_report(quick_cfg):
    return run_evaluate(quick_cfg)


@pytest.fixture(scope="session")
def fresh_python():
    """Runs ``python -c code *args`` in a new interpreter that imports
    nfchan from this source tree; returns the completed process."""
    src = str(Path(nfchan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def run(code, *args):
        return subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, env=env)
    return run
