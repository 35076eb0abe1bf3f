"""Outside-in span tracing of the nfchan modules.

A :class:`Tracer` wraps every public callable of the traced modules (module
functions, public methods, hand-written constructors) at each name a caller
can resolve it by, so calls made from inside the package are recorded too:
``nfchan.pipeline.omp_extract`` is patched as well as
``nfchan.estimation.omp_extract``.  Nothing in the package itself changes;
leaving the ``with`` block puts every original back.

Each span is ``[name, start, end, parent, op, child_time]``: ``parent`` is
the index of the enclosing span (-1 for none), ``op`` the benchmark
operation it belongs to, and ``child_time`` the time covered by its direct
children, so self time is ``end - start - child_time``.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.

Some spans also feed work counters.  Counts marked *computed* in the
benchmark's metric catalogue are derived from argument shapes, not
measured inside the program.
"""

import contextlib
import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "nfchan"
TRACED_MODULES = ("scenario", "geometry", "channel", "aperture",
                  "estimation", "pipeline", "dataio")
OP_SPAN = "bench.op"


def _on_half_bin_comb(delays, grid):
    """True when the ScoreEngine can score ``delays`` with its FFT path."""
    q = [d * 2.0 * grid.bandwidth for d in delays]
    return all(abs(x - round(x)) < 1e-6 and round(x) < 2 * grid.num_tones
               for x in q)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _score_best(args, kwargs, result):
    engine = args[0]
    n_aoa, n_aod, n_delay = engine.dictionary.shape
    rows = 0
    if _on_half_bin_comb(engine.dictionary.delays, engine.grid):
        rows = n_aoa * n_aod * engine.plan.n_placements
    return {"atoms_scored": n_aoa * n_aod * n_delay, "fft_rows": rows}


def _synth_channel(args, kwargs, result):
    m, n, f = result.shape
    return {"exp_evals": len(_arg(args, kwargs, 0, "paths")) * m * n * f}


def _file_bytes(pos):
    return lambda args, kwargs, result: {
        "bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))}


# Work counters per span name: hook(args, kwargs, result) -> increments.
COUNTERS = {
    "estimation.ScoreEngine.best": _score_best,
    "estimation.omp_extract": lambda a, k, r: {"rounds": r.iterations},
    "estimation.detect_paths_pdp": lambda a, k, r: {"peaks": int(r.bins.size)},
    "aperture.simulate_campaign":
        lambda a, k, r: {"placements": _arg(a, k, 1, "plan").n_placements},
    "channel.synth_channel": _synth_channel,
    "geometry.enumerate_images": lambda a, k, r: {"images": len(r)},
    "geometry.validate_path": lambda a, k, r: {"feasible": int(bool(r[0]))},
    "dataio.write_dataset": _file_bytes(1),
    "dataio.read_dataset": _file_bytes(0),
}


def discover():
    """Public callables defined in the traced modules.

    Returns a list of ``(span name, owner, attribute, original)`` where
    ``owner`` is the defining module or class and ``original`` the object
    stored there (a function, or a classmethod/staticmethod descriptor).
    """
    found = []
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, val in vars(mod).items():
            if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val):
                found.append((f"{short}.{attr}", mod, attr, val))
            elif inspect.isclass(val):
                for mattr, mval in vars(val).items():
                    label = f"{short}.{attr}.{mattr}"
                    if mattr == "__init__":
                        if inspect.isfunction(mval) and not dataclasses.is_dataclass(val):
                            found.append((f"{short}.{attr}.init", val, mattr, mval))
                    elif mattr.startswith("_"):
                        continue
                    elif isinstance(mval, (classmethod, staticmethod)) or inspect.isfunction(mval):
                        found.append((label, val, mattr, mval))
    return found


class Tracer:
    """Records spans and work counters while installed (``with tracer:``)."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.op_id = -1
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------
    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self):
        bound_modules = [m for name, m in list(sys.modules.items())
                         if m is not None and (name == PACKAGE
                                               or name.startswith(PACKAGE + "."))]
        for name, owner, attr, original in discover():
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self._wrap(name, original.__func__))
                self._patch(owner, attr, original, wrapper)
                continue
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            # A module function: patch every module-level name bound to it,
            # because callers resolve it in their own module namespace.
            for mod in bound_modules:
                for alias, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, alias, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, func):
        # Span bookkeeping is inlined: this runs on every traced call, and
        # the geometry helpers alone make ~90k calls per campaign op.
        hook = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[1]
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    self.counters[name][key] += inc
            return result

        return traced

    # -- spans --------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one benchmark operation; spans inside carry its id."""
        self.op_id = op_id
        idx = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = -1

    # -- aggregation --------------------------------------------------
    def totals(self):
        """Per span name: calls, busy time and self time within ops.

        Spans outside any op (the benchmark reading results back through
        the library, e.g. ``RunReport.los_image_error``) are left out.
        """
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, start, end, _, op, child in self.spans:
            if op < 0:
                continue
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child
        return dict(out)

    def self_time_table(self, limit=25):
        """Text table of the spans with the most self time."""
        totals = self.totals()
        whole = sum(r["self_s"] for r in totals.values()) or 1.0
        rows = sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:limit]
        lines = [f"{'span':<44} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'self%':>6}"]
        for name, r in rows:
            lines.append(f"{name:<44} {r['calls']:>8d} {r['s']:>10.4f} "
                         f"{r['self_s']:>10.4f} {100 * r['self_s'] / whole:>6.1f}")
        return "\n".join(lines)

    def dump(self, path):
        """Write spans as gzipped JSON: a name table plus one row per span.

        Times are seconds since the first span, rounded to 0.1 us.
        """
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), p, o]
                      for n, a, b, p, o, _ in self.spans],
            "counters": {k: dict(v) for k, v in self.counters.items()},
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
