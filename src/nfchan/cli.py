"""Command-line driver.

Subcommands:

* ``synth``     simulate a scenario and write an NFCM dataset
* ``estimate``  run recovery on a recorded dataset, write a report
* ``evaluate``  synth + estimate in memory, report errors vs truth
* ``heatmap``   emit the localization grid for the anchor path
* ``sweep``     repeat evaluate over a parameter ladder, emit CSV

``--scenario`` accepts a file path or a bundled preset name (see
``nfchan list``).  When ``--out`` is omitted, outputs land in the
directory named by the ``NFCHAN_OUT`` environment variable (default:
current directory) under a name derived from the scenario.  All
failures print a single ``error[<kind>]: message`` line to stderr and
exit nonzero.
"""

import argparse
import os
import sys

import numpy as np

from .aperture import CENTROID_ATOL_M, mean_pdp
from .dataio import (emit_heatmap_grid, emit_pdp_csv, emit_report,
                     emit_sweep_csv, read_dataset, write_dataset)
from .errors import InvalidGeometry, NfchanError
from .pipeline import (run_estimate, run_evaluate, run_heatmap, run_synth,
                       sweep_runs, sweep_values)
from .scenario import available_presets, build_plan, load_scenario_file

OUT_ENV = "NFCHAN_OUT"


class _UsageError(NfchanError):
    kind = "usage"


class _Parser(argparse.ArgumentParser):
    """Argparse that reports problems on our single error line."""

    def error(self, message):
        raise _UsageError(message)


def _scenario_stem(path):
    base = os.path.basename(str(path))
    return base[:-4] if base.endswith(".cfg") else base


def _resolve_out(explicit, default_name):
    """Explicit paths win untouched; defaults land in $NFCHAN_OUT."""
    if explicit:
        return explicit
    outdir = os.environ.get(OUT_ENV, "") or "."
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, default_name)


def _wrote(path):
    print(f"wrote {path}")


def _cmd_list(args):
    for name in available_presets():
        print(name)


def _cmd_synth(args):
    cfg = load_scenario_file(args.scenario)
    mset, _ = run_synth(cfg)
    out = _resolve_out(args.out, _scenario_stem(args.scenario) + ".nfcm")
    write_dataset(mset, out)
    _wrote(out)
    if args.pdp:
        emit_pdp_csv(mean_pdp(mset, window="hann"), args.pdp)
        _wrote(args.pdp)


def _check_layout(plan, cfg):
    """The scenario that supplies a recorded dataset's estimation
    settings must describe the element positions the dataset stores."""
    want = build_plan(cfg)
    for a, b in ((want.rx_positions, plan.rx_positions),
                 (want.tx_positions, plan.tx_positions)):
        if a.shape != b.shape or np.abs(a - b).max() > CENTROID_ATOL_M:
            raise InvalidGeometry("scenario does not describe the dataset's "
                                  "measurement layout")


def _cmd_estimate(args):
    cfg = load_scenario_file(args.scenario)
    mset = read_dataset(args.data)
    _check_layout(mset.plan, cfg)
    report = run_estimate(mset, cfg)
    out = _resolve_out(args.out,
                       _scenario_stem(args.scenario) + "-report.txt")
    emit_report(report, out)
    _wrote(out)


def _cmd_evaluate(args):
    cfg = load_scenario_file(args.scenario)
    report = run_evaluate(cfg)
    if args.out:
        emit_report(report, args.out)
        _wrote(args.out)
    else:
        from .dataio import _format_report
        sys.stdout.write(_format_report(report))


def _cmd_heatmap(args):
    cfg = load_scenario_file(args.scenario)
    _, hm = run_heatmap(cfg)
    out = _resolve_out(args.out,
                       _scenario_stem(args.scenario) + "-heatmap.csv")
    emit_heatmap_grid(hm, out)
    _wrote(out)


def _cmd_sweep(args):
    cfg = load_scenario_file(args.scenario)
    name, values = sweep_values(args.vary)
    rows = sweep_runs(cfg, name, values)
    out = _resolve_out(args.out,
                       f"{_scenario_stem(args.scenario)}-sweep-{name}.csv")
    emit_sweep_csv(name, rows, out)
    _wrote(out)


def _build_parser():
    parser = _Parser(prog="nfchan",
                     description="Near-field multipath channel toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("list", help="list bundled scenario presets")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("synth", help="simulate and write a dataset")
    p.add_argument("--scenario", required=True,
                   help="scenario file or preset name")
    p.add_argument("--out", help="dataset output path (.nfcm)")
    p.add_argument("--pdp", help="also write the campaign PDP as CSV")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("estimate",
                       help="recover paths from a recorded dataset")
    p.add_argument("--data", required=True, help="input dataset (.nfcm)")
    p.add_argument("--scenario", required=True,
                   help="scenario supplying estimation settings")
    p.add_argument("--out", help="report output path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("evaluate",
                       help="synthesize + estimate, report errors vs truth")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help="report path (default: print to stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("heatmap", help="emit the localization heatmap grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help="grid CSV output path")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("sweep",
                       help="repeat evaluate over a parameter ladder")
    p.add_argument("--scenario", required=True)
    p.add_argument("--vary", required=True,
                   help="parameter ladder, e.g. snr=0:5:40 or snr=0,10,20")
    p.add_argument("--out", help="summary CSV output path")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except NfchanError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
