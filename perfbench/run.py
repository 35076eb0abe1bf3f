#!/usr/bin/env python3
"""nfchan benchmark: one closed-loop client driving one workload in-process.

    python3 perfbench/run.py --workload preset-estimate --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports nfchan from ``src/``.
With ``--trace 0`` it times whole passes of the workload for about
``--seconds`` (at least one pass), samples the host's speed meanwhile and
reports the end-to-end metrics; with ``--trace 1`` it runs one untraced
reference pass, then traced passes, and reports the per-layer metrics plus
the tracing overhead.  Output checks run on every op either way.  The last
line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  The full record (machine block, accuracy, per-op
rows) goes to ``.perfbench/results/`` and spans of a traced run to
``.perfbench/traces/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

# Only the standard library is imported at module level: numpy (through
# workloads and nfchan) must load after pin_blas_threads has run.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("preset-estimate", "snr-ensemble", "synth-campaign"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="run the workload's set-up once and exit (timed by "
                        "the parent to measure set-up from process start)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def pin_blas_threads():
    """Force single-threaded BLAS; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_nfchan():
    """Import nfchan from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "nfchan", "__init__.py")):
        raise BenchError(f"no nfchan sources under {SRC}")
    sys.path.insert(0, SRC)
    import nfchan
    if os.path.dirname(os.path.abspath(nfchan.__file__)) != os.path.join(SRC, "nfchan"):
        raise BenchError(f"nfchan imported from {nfchan.__file__}, not {SRC}")
    return nfchan


def blas_libraries():
    """OpenBLAS builds bundled with numpy and scipy: (label, path) pairs."""
    import glob
    import numpy
    import scipy
    found = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            found.append((pkg.__name__, path))
    return found


def blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by its owner."""
    import ctypes
    out = {}
    for owner, path in blas_libraries():
        lib = ctypes.CDLL(path)
        for sym in BLAS_THREAD_QUERIES:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[f"{owner}:{os.path.basename(path)}"] = int(fn())
                break
    return out


def machine_block():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "scipy_blas": {"name": sblas.get("name"), "version": sblas.get("version")},
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_at_start": list(os.getloadavg()),
    }


def check_blas_pin(machine):
    threads = machine["blas_threads"]
    bad = {k: v for k, v in threads.items() if v != 1}
    if bad:
        raise BenchError(f"BLAS thread pin did not take: {bad}")


def quantile(values, q):
    """Inclusive-method quantile; the single value when there is one."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q * 100)) - 1])


def time_setups(args):
    """Wall time of fresh ``--setup-only`` processes, start to exit."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up process took over 120 s") from None
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
    return times


class Runner:
    """Closed loop over whole passes, one op at a time."""

    def __init__(self, workload, nfchan_error):
        self.workload = workload
        self.nfchan_error = nfchan_error
        self.records = []

    def run_op(self, op, tracer=None, sampler=None):
        """Run, time and check one op.

        With a ``sampler`` installed, ``s`` excludes the time the sampler
        took inside the op and ``window`` keeps the op's start and end, so
        the samples taken during it can be matched afterwards.
        """
        op_id = len(self.records)
        rec = {"op": op_id, "label": op.label, "problems": []}
        out = None
        busy = sampler.busy if sampler is not None else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run(op)
            else:
                with tracer.op(op_id):
                    out = self.workload.run(op)
        except self.nfchan_error as exc:
            rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            rec["problems"].append(f"raised {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        rec["s"] = t1 - t0
        if sampler is not None:
            rec["s"] -= sampler.busy - busy
            rec["window"] = (t0, t1)
        if out is not None:
            rec["problems"] += self.workload.check(op, out)
            acc = self.workload.accuracy(op, out)
            if acc is not None:
                rec["accuracy"] = acc
        if "preset" in op.inputs:
            rec["preset"] = op.inputs["preset"]
        self.records.append(rec)
        return rec

    def run_passes(self, seconds, tracer=None, sampler=None):
        """Whole passes: at least one, then more while the next one is
        expected (at the mean pass time so far) to end within ``seconds``.

        Returns the new op records and the wall time they took.
        """
        start = len(self.records)
        t0 = time.perf_counter()
        passes = 0
        while True:
            for op in self.workload.pass_ops(passes):
                self.run_op(op, tracer, sampler)
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (passes + 1) / passes > seconds:
                return self.records[start:], elapsed


def _clean(obj):
    """JSON-safe copy: numpy scalars to Python, non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if hasattr(obj, "item"):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def op_class(record):
    """Ops of one class serve the same kind of input: label and preset."""
    return record["label"], record.get("preset")


def op_cost(records):
    """Mean over the ops of the median ``cost_ref`` of each op's class.

    The class median keeps one op caught in a host stall from moving its
    class; the mean over the ops of whole passes keeps the pass's mix of
    cheap and dear classes fixed, where a plain median would fall between
    them.
    """
    costs = defaultdict(list)
    for r in records:
        costs[op_class(r)].append(r["cost_ref"])
    medians = {k: statistics.median(v) for k, v in costs.items()}
    return statistics.fmean(medians[op_class(r)] for r in records)


def end_to_end(records, setup_times):
    times = [r["s"] for r in records]
    return {
        "setup_s": statistics.median(setup_times),
        "op_cost_ref": op_cost(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(records) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": quantile(times, 0.90),
        "ref_s_p50": statistics.median(r["ref_s"] for r in records),
    }


def per_layer(tracer, n_ops, overhead):
    """Per-op busy time, calls and work counters at each traced layer."""
    totals = tracer.totals()
    out = {}
    for name in load_benchmark()["per_layer"]:
        layer, _, field = name.rpartition(".")
        row = totals.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        counts = tracer.counters[layer]
        if name == "trace.overhead_frac":
            out[name] = overhead
        elif field == "feasible_ratio":
            out[name] = counts["feasible"] / row["calls"] if row["calls"] else 0.0
        elif field in row:
            out[name] = row[field] / n_ops
        else:
            out[name] = counts[field] / n_ops
    return out


def load_benchmark():
    """Metric name -> spec for the end-to-end and per-layer lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {kind: {m["name"]: m for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")}


def metric_units():
    """Unit of every metric this benchmark can print, by name."""
    units = {name: spec["unit"] for specs in load_benchmark().values()
             for name, spec in specs.items()}
    with open(os.path.join(HERE, "metrics.json")) as fh:
        units.update((m["name"], m["unit"]) for m in json.load(fh)["reported"])
    return units


def by_label(records, parity):
    """Op count, median time and accuracy per op class (e.g. 20dB)."""
    import workloads
    out = {}
    for label in sorted({r["label"] for r in records}):
        rows = [r for r in records if r["label"] == label]
        entry = {"op_count": len(rows),
                 "op_s_p50": statistics.median(r["s"] for r in rows)}
        entry.update(workloads.summarize_accuracy(rows, parity))
        out[label] = entry
    return out


def print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        unit = units.get(name, "")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")


def measure(workload, seconds, trace, setup_times, nfchan_error):
    """Timed (``trace`` false) or traced phase of a set-up workload.

    Returns ``(result, record, tracer)``: ``result`` is the contract object
    printed last, ``record`` the full record, ``tracer`` None when untraced.
    """
    import workloads
    from hostspeed import SpeedSampler
    runner = Runner(workload, nfchan_error)
    tracer = None
    if trace:
        from tracer import Tracer
        ref, _ = runner.run_passes(0.0)  # one untraced reference pass
        with Tracer() as tracer:
            timed, wall = runner.run_passes(seconds, tracer=tracer)
        first = timed[:len(ref)]
        overhead = sum(r["s"] for r in first) / sum(r["s"] for r in ref) - 1.0
        metrics = per_layer(tracer, len(timed), overhead)
    else:
        with SpeedSampler() as sampler:
            timed, wall = runner.run_passes(seconds, sampler=sampler)
        for r in timed:
            r["ref_s"] = sampler.ref_s(*r.pop("window"))
            r["cost_ref"] = r["s"] / r["ref_s"]
        metrics = end_to_end(timed, setup_times)
    records = runner.records
    failed = sum(1 for r in records if r["problems"])
    reported = {"fail_frac": failed / len(records), "op_count": len(timed),
                "timed_wall_s": wall}
    reported.update(workloads.summarize_accuracy(timed, workload.parity))
    wanted = load_benchmark()["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec["unit"]}
                    for name, spec in wanted.items()},
    }
    record = {"workload": workload.name, "seed": workload.seed,
              "seconds": seconds, "trace": int(bool(trace)),
              "setup_runs_s": setup_times,
              "metrics": {**metrics, **reported},
              "by_label": by_label(timed, workload.parity),
              "ops": records}
    return result, record, tracer


def print_ops(records):
    print(f"  {'op':>4} {'label':<10} {'preset':<18} {'s':>8} {'ref':>8} "
          f"{'paths':>5} {'extra':>5} {'los_error_m':>12}")
    for r in records:
        a = r.get("accuracy", {})
        los = a.get("los_error_m")
        cost = f"{r['cost_ref']:.1f}" if "cost_ref" in r else ""
        print(f"  {r['op']:>4} {r['label']:<10} {r.get('preset', ''):<18} "
              f"{r['s']:>8.3f} {cost:>8} {a.get('n_paths', ''):>5} {a.get('extra_paths', ''):>5} "
              f"{'' if los is None else f'{los:.4f}':>12}"
              f"{'  FAILED' if r['problems'] else ''}")


def run(args):
    pin_blas_threads()
    nfchan = import_nfchan()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            workload.setup()
            return None
        machine = machine_block()
        check_blas_pin(machine)
        setup_times = time_setups(args)
        workload.setup()
        result, record, tracer = measure(
            workload, args.seconds, args.trace, setup_times, nfchan.NfchanError)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"] = machine
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans_path = os.path.join(OUT, "traces", stem + ".json.gz")
        tracer.dump(spans_path)
        print(f"self time over {record['metrics']['op_count']} traced ops:")
        print(tracer.self_time_table())
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
    units = metric_units()
    print_table(f"{args.workload} seed={args.seed} trace={args.trace}",
                record["metrics"], units)
    for label, entry in record["by_label"].items():
        print_table(f"  [{label}]", entry, units)
    print_ops(record["ops"])
    for r in record["ops"]:
        for problem in r["problems"]:
            print(f"op {r['op']} ({r['label']}): {problem}", file=sys.stderr)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record_path = os.path.join(OUT, "results", stem + ".json")
    with open(record_path, "w") as fh:
        json.dump(_clean(record), fh, indent=1)
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    return result


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
