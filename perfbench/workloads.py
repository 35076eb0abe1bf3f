"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` and
then serves operations in fixed *passes*.  The timed loop only ever runs
whole passes, so every run measures the same mix of operations whatever
its length.  An operation is split in three: ``run`` is the timed call
into nfchan, ``check`` verifies its output (a failed check counts the op
as failed) and ``accuracy`` reads the error fields off it.

The nfchan modules are always reached through their module attributes
(``pipeline.run_estimate``, not a name imported from it), so the tracer's
wrappers are seen while it is installed.
"""

import math
import os
import statistics
from dataclasses import replace

import numpy as np

from nfchan import aperture, dataio, estimation, pipeline, scenario

PRESETS = ("room-20x10", "room-20x10-fs1ghz", "track-experiment")
PRESET_NOISY = "room-20x10"
PRESET_NOISY_SNR_DB = 20.0
ENSEMBLE_SNRS_DB = (0.0, 10.0, 20.0, 30.0)
ENSEMBLE_TONES = 128

# Six-wall room with fifth-order reflections: 4687 candidate images, 52
# feasible paths and 120 placements of 512 tones, so synthesis, geometry
# and NFCM I/O carry the op while the estimator does no work.
CAMPAIGN_SCENARIO = """\
[room]
vertices = 0,0 14,0 20,4 20,10 6,10 0,6
reflective = all

[radio]
carrier_hz = 10e9
bandwidth_hz = 500e6
n_tones = 512

[transmitter]
position = 12,7.5
layout = triangle
spacing = 0.5wl

[aperture]
origin = 1,1
offsets = 0:0.1:3.9
spacings = 0.5wl 1wl 2wl
n_rx = 2

[measurement]
snr_db = 20
seed = 0
max_order = 5
"""
CAMPAIGN_FEASIBLE_PATHS = 52


def derive_seed(seed, index):
    """Job seed ``index`` of the ladder rooted at the benchmark seed.

    Same rule as ``nfchan.pipeline.sweep_runs``; a negative seed is taken
    modulo 2**64, since ``SeedSequence`` accepts only nonnegative entropy.
    """
    return int(np.random.SeedSequence([int(seed) % 2**64, int(index)])
               .generate_state(1, np.uint64)[0])


def _finite_max(values):
    """Largest finite value; inf when there is none (e.g. nothing anchored)."""
    vals = [float(v) for v in values if math.isfinite(v)]
    return max(vals) if vals else math.inf


def report_accuracy(report):
    """Error fields of one ``RunReport`` carrying ground truth."""
    matched = [i for i, j in enumerate(report.matches) if j is not None]
    errors = report.errors
    return {
        "n_paths": len(report.paths),
        "n_true": len(report.truth),
        "n_matched": len(matched),
        "los_error_m": report.los_image_error(),
        "image_error_m_max": _finite_max(errors["image_m"][matched]),
        "aoa_error_deg_max": _finite_max(errors["aoa_deg"][matched]),
        "delay_error_ns_max": _finite_max(errors["delay_ns"][matched]),
        "parity_hits": int(np.sum(errors["parity_ok"][matched])),
        "extra_paths": len(report.paths) - len(report.truth),
    }


def summarize_accuracy(records, parity):
    """Accuracy over the op records that carry it, as metric -> value."""
    acc = [r["accuracy"] for r in records if "accuracy" in r]
    if not acc:
        return {}
    out = {
        "los_error_m_p50": statistics.median(a["los_error_m"] for a in acc),
        "image_error_m_max": _finite_max(a["image_error_m_max"] for a in acc),
        "aoa_error_deg_max": _finite_max(a["aoa_error_deg_max"] for a in acc),
        "delay_error_ns_max": _finite_max(a["delay_error_ns_max"] for a in acc),
        "extra_paths": statistics.fmean(a["extra_paths"] for a in acc),
    }
    if parity:
        out["parity_hit_rate"] = (sum(a["parity_hits"] for a in acc)
                                  / sum(a["n_true"] for a in acc))
    return out


class Op:
    """One unit of work: ``label`` names its class in the summaries."""

    def __init__(self, label, **inputs):
        self.label = label
        self.inputs = inputs


class PresetEstimate:
    """``nfchan estimate`` + ``heatmap`` on recorded preset datasets.

    Set-up synthesizes and writes, as NFCM, every preset noiseless plus
    room-20x10 at 20 dB; the seed draws each measurement seed.  A pass reads
    and estimates each of those four datasets once.  The 20 dB preset is the
    same for every seed: the three presets' 20 dB ops differ in cost by
    ~15%, which would otherwise vary a pass's cost with the seed.  The 20 dB
    op keeps the known model-order defect in view: it returns 6 paths for 4
    true ones.
    """

    name = "preset-estimate"
    parity = True

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.datasets = []

    def setup(self):
        self.datasets = []
        for k, preset in enumerate(PRESETS):
            cfg = replace(scenario.load_preset(preset),
                          seed=derive_seed(self.seed, k))
            variants = [("noiseless", cfg)]
            if preset == PRESET_NOISY:
                variants.append(("20dB", replace(cfg, snr_db=PRESET_NOISY_SNR_DB)))
            for label, var in variants:
                mset, truth = pipeline.run_synth(var)
                path = os.path.join(self.workdir, f"{preset}-{label}.nfcm")
                dataio.write_dataset(mset, path)
                self.datasets.append(Op(label, preset=preset, cfg=var,
                                        truth=truth, path=path))

    def pass_ops(self, index):
        return list(self.datasets)

    def run(self, op):
        cfg = op.inputs["cfg"]
        mset = dataio.read_dataset(op.inputs["path"])
        report = pipeline.run_estimate(mset, cfg, truth=op.inputs["truth"])
        dataio.emit_report(report, os.path.join(self.workdir, "report.txt"))
        _, heat = pipeline.run_heatmap(cfg, report)
        return report, heat

    def check(self, op, out):
        report, heat = out
        problems = []
        total = float(np.sum(heat.scores))
        if not (np.all(np.isfinite(heat.scores)) and abs(total - 1.0) < 1e-9):
            problems.append(f"heatmap mass {total!r} is not 1")
        if op.label == "noiseless":
            truth = report.truth
            matched = {j: i for i, j in enumerate(report.matches) if j is not None}
            missing = [j for j in range(len(truth)) if j not in matched]
            if missing:
                problems.append(f"true paths {missing} unmatched")
            wrong = [j for j, i in matched.items()
                     if not report.errors["parity_ok"][i]]
            if wrong:
                problems.append(f"wrong parity on true paths {sorted(wrong)}")
        return problems

    def accuracy(self, op, out):
        return report_accuracy(out[0])


class SnrEnsemble:
    """Monte-Carlo synthesize + estimate jobs in criterion 6's set-up.

    room-20x10 cut to 128 tones, five paths at most, one refine pass and
    no parity test.  A pass is one job per SNR in {0, 10, 20, 30} dB; job
    ``i`` draws its measurement seed from the ladder rooted at the seed.
    """

    name = "snr-ensemble"
    parity = False

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.cfg = None

    def setup(self):
        self.cfg = replace(scenario.load_preset("room-20x10"), n_tones=ENSEMBLE_TONES,
                           l_max=5, stop_fraction=0.01, refine_passes=1,
                           parity=False)

    def pass_ops(self, index):
        n = len(ENSEMBLE_SNRS_DB)
        return [Op(f"{snr:g}dB", cfg=replace(self.cfg, snr_db=snr,
                                             seed=derive_seed(self.seed, index * n + k)))
                for k, snr in enumerate(ENSEMBLE_SNRS_DB)]

    def run(self, op):
        cfg = op.inputs["cfg"]
        mset, truth = pipeline.run_synth(cfg)
        return pipeline.run_estimate(mset, cfg, truth=truth)

    def check(self, op, report):
        problems = []
        if not 1 <= len(report.paths) <= op.inputs["cfg"].l_max:
            problems.append(f"{len(report.paths)} paths outside 1..l_max")
        for key, vals in report.errors.items():
            if np.any(np.isnan(np.asarray(vals, dtype=float))):
                problems.append(f"NaN in {key} errors")
        return problems

    def accuracy(self, op, report):
        return report_accuracy(report)


class SynthCampaign:
    """``nfchan synth --pdp``: synthesize, write, read back, PDP peaks.

    Op ``i`` simulates the six-wall campaign with measurement seed ``i`` of
    the ladder rooted at the seed, round-trips it through NFCM and detects
    delay peaks on the read-back set.
    """

    name = "synth-campaign"
    parity = False

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.cfg = None

    def setup(self):
        self.cfg = scenario.parse_scenario(CAMPAIGN_SCENARIO)

    def pass_ops(self, index):
        return [Op("campaign", cfg=replace(self.cfg, seed=derive_seed(self.seed, index)))]

    def run(self, op):
        mset, truth = pipeline.run_synth(op.inputs["cfg"])
        path = os.path.join(self.workdir, "campaign.nfcm")
        dataio.write_dataset(mset, path)
        back = dataio.read_dataset(path)
        peaks = estimation.detect_paths_pdp(aperture.mean_pdp(back, window="hann"))
        return mset, truth, back, peaks

    def check(self, op, out):
        mset, truth, back, peaks = out
        problems = []
        pairs = {
            "responses": (mset.responses, back.responses),
            "rx_positions": (mset.plan.rx_positions, back.plan.rx_positions),
            "tx_positions": (mset.plan.tx_positions, back.plan.tx_positions),
            "rx_ref": (mset.plan.rx_ref, back.plan.rx_ref),
            "tx_ref": (mset.plan.tx_ref, back.plan.tx_ref),
            "tones": (mset.grid.tones(), back.grid.tones()),
        }
        for key, (a, b) in pairs.items():
            a, b = np.asarray(a), np.asarray(b)
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                problems.append(f"read-back {key} differs from the written set")
        if (back.snr_db, back.coherent, back.seed) != (mset.snr_db, mset.coherent,
                                                        mset.seed):
            problems.append("read-back capture conditions differ")
        if len(truth) != CAMPAIGN_FEASIBLE_PATHS:
            problems.append(f"{len(truth)} feasible paths, expected "
                            f"{CAMPAIGN_FEASIBLE_PATHS}")
        if peaks.bins.size == 0:
            problems.append("no PDP peaks detected")
        return problems

    def accuracy(self, op, out):
        return None


WORKLOADS = {w.name: w for w in (PresetEstimate, SnrEnsemble, SynthCampaign)}
