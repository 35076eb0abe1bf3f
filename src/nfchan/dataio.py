"""Binary dataset container and the CSV/text result emitters.

The on-disk dataset is an "NFCM" container: a little-endian header
carrying the tensor shape, array references, element positions, tone
comb and capture conditions, followed by the raw response tensor as
complex128 in (placement, rx, tx, tone) row-major order.  The stored
element positions are the whole plan: the placement groups follow from
them (:func:`~nfchan.pipeline.subset_groups`), so a dataset read back
estimates as it was written, with nothing to rebind.  Estimation
settings are not stored; they come from a scenario.

Emitters are data-only (CSV / structured text); rendering is left to
external tooling.
"""

import math
import os
import struct

import numpy as np

from .aperture import MeasurementPlan, MeasurementSet, Pdp
from .channel import FrequencyGrid
from .errors import DatasetFormatError, InvalidGeometry
from .estimation import Heatmap

MAGIC = b"NFCM"
FORMAT_VERSION = 1

_HEAD = struct.Struct("<4sIIIII")          # magic, version, K, M, N, F
_GRID = struct.Struct("<dd")               # center, bandwidth
_COND = struct.Struct("<BdBQ")             # snr flag, snr_db, coherent, seed


def write_dataset(mset: MeasurementSet, path):
    """Serialize a measurement set; round-trips bit-exactly.

    The header is packed before the file is opened, so a set that cannot
    be stored leaves no file behind; the payload is then written straight
    from the little-endian, C-contiguous response array, with no copy of
    its bytes.
    """
    plan, grid = mset.plan, mset.grid
    k, m, n = plan.n_placements, plan.n_rx, plan.n_tx
    f = grid.num_tones
    snr = mset.snr_db
    parts = [
        _HEAD.pack(MAGIC, FORMAT_VERSION, k, m, n, f),
        np.ascontiguousarray(plan.rx_ref, dtype="<f8"),
        np.ascontiguousarray(plan.tx_ref, dtype="<f8"),
        np.ascontiguousarray(plan.rx_positions, dtype="<f8"),
        np.ascontiguousarray(plan.tx_positions, dtype="<f8"),
        _GRID.pack(grid.center, grid.bandwidth),
        _COND.pack(snr is not None, 0.0 if snr is None else float(snr),
                   bool(mset.coherent), int(mset.seed) & (2 ** 64 - 1)),
        np.ascontiguousarray(mset.responses, dtype="<c16"),
    ]
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)


class _Cursor:
    """Sequential reader of an open file of ``size`` bytes that reports
    truncation with byte counts before it reads or allocates."""

    def __init__(self, fh, size):
        self.fh = fh
        self.size = size
        self.pos = 0

    def _claim(self, nbytes, what):
        end = self.pos + nbytes
        if end > self.size:
            raise DatasetFormatError(
                f"truncated {what}: expected {end} bytes, file has "
                f"{self.size}")
        self.pos = end

    def _fill(self, buf, what):
        if self.fh.readinto(buf) != memoryview(buf).nbytes:
            raise DatasetFormatError(
                f"truncated {what}: the file shrank while it was read")
        return buf

    def take(self, nbytes, what):
        self._claim(nbytes, what)
        return self._fill(bytearray(nbytes), what)

    def array(self, count, what, dtype="<f8"):
        """``count`` values read into a new array, then widened to
        complex128 or float64 (no copy when they already are)."""
        self._claim(count * np.dtype(dtype).itemsize, what)
        out = self._fill(np.empty(count, dtype=dtype), what)
        return out.astype(np.complex128 if out.dtype.kind == "c"
                          else np.float64, copy=False)


def read_dataset(path) -> MeasurementSet:
    """Parse an NFCM container back into a measurement set.

    The file size comes from the open file, so every section is checked
    against it before it is read, and the payload is read straight into
    the response array.  Positions and references are exact, so the plan
    groups its placements as the written one did and needs nothing
    rebound.
    """
    with open(path, "rb") as fh:
        cur = _Cursor(fh, os.fstat(fh.fileno()).st_size)
        magic, version, k, m, n, f = _HEAD.unpack(
            cur.take(_HEAD.size, "header"))
        if magic != MAGIC:
            raise DatasetFormatError(
                f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise DatasetFormatError(
                f"format version {version} not supported (expected "
                f"{FORMAT_VERSION})")
        if min(k, m, n) < 1 or f < 2:
            raise DatasetFormatError(
                f"bad dimensions K={k} M={m} N={n} F={f}")
        rx_ref = cur.array(2, "rx_ref")
        tx_ref = cur.array(2, "tx_ref")
        rx_pos = cur.array(k * m * 2, "rx positions").reshape(k, m, 2)
        tx_pos = cur.array(n * 2, "tx positions").reshape(n, 2)
        center, bandwidth = _GRID.unpack(cur.take(_GRID.size, "grid"))
        snr_flag, snr_db, coherent, seed = _COND.unpack(
            cur.take(_COND.size, "capture conditions"))
        responses = cur.array(k * m * n * f, "payload",
                              dtype="<c16").reshape(k, m, n, f)
    if cur.pos != cur.size:
        raise DatasetFormatError(
            f"{cur.size - cur.pos} trailing bytes after payload")
    try:
        plan = MeasurementPlan(rx_positions=rx_pos, tx_positions=tx_pos,
                               rx_ref=rx_ref, tx_ref=tx_ref)
        grid = FrequencyGrid(center=center, bandwidth=bandwidth, num_tones=f)
    except InvalidGeometry as exc:
        raise DatasetFormatError(f"invalid stored metadata: {exc}") from exc
    try:
        return MeasurementSet(responses=responses, plan=plan, grid=grid,
                              snr_db=float(snr_db) if snr_flag else None,
                              coherent=bool(coherent), seed=int(seed))
    except InvalidGeometry as exc:
        raise DatasetFormatError(f"invalid payload: {exc}") from exc


ZERO_DB_SENTINEL = -400.0


def emit_pdp_csv(pdp: Pdp, path):
    """Two-column CSV: delay_ns, magnitude_db (peak at 0 dB).

    Exactly-zero bins get the sentinel level instead of -inf so every
    row stays a finite parseable float.
    """
    mags = np.asarray(pdp.magnitudes, dtype=float)
    peak = mags.max() if mags.size else 0.0
    with open(path, "w") as fh:
        fh.write("delay_ns,magnitude_db\n")
        for t, mag in zip(pdp.delay_bins, mags):
            if peak > 0.0 and mag > 0.0:
                db = 20.0 * math.log10(mag / peak)
            else:
                db = ZERO_DB_SENTINEL
            fh.write(f"{t * 1e9:.6f},{db:.6f}\n")


def emit_heatmap_grid(heatmap: Heatmap, path):
    """CSV matrix (rows = y, increasing) behind an origin/cell header."""
    rows, cols = heatmap.scores.shape
    with open(path, "w") as fh:
        fh.write(f"# origin_x={heatmap.origin[0]:.17g} "
                 f"origin_y={heatmap.origin[1]:.17g} "
                 f"cell={heatmap.cell:.17g} rows={rows} cols={cols}\n")
        for row in heatmap.scores:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


_HEATMAP_KEYS = ("origin_x", "origin_y", "cell", "rows", "cols")


def read_heatmap_grid(path) -> Heatmap:
    """Parse a grid written by :func:`emit_heatmap_grid`.

    Every defect raises :class:`DatasetFormatError`: a header that does
    not set each of ``_HEATMAP_KEYS`` once, a value that is not a finite
    number, ragged rows, a grid :class:`Heatmap` refuses, or a body whose
    shape is not the header's.
    """
    try:
        with open(path) as fh:
            header = fh.readline()
            rows = [line.split(",") for line in fh if line.strip()]
        parts = [part.partition("=") for part in header[2:].split()]
        fields = {key: value for key, sep, value in parts if sep}
        if (not header.startswith("# ") or len(parts) != len(_HEATMAP_KEYS)
                or sorted(fields) != sorted(_HEATMAP_KEYS)):
            raise DatasetFormatError("heatmap grid lacks its header line # "
                                     + " ".join(k + "=" for k in _HEATMAP_KEYS))
        out = Heatmap(origin=(float(fields["origin_x"]),
                              float(fields["origin_y"])),
                      cell=float(fields["cell"]),
                      scores=np.array([[float(v) for v in r] for r in rows]))
        want = (int(fields["rows"]), int(fields["cols"]))
    except (ValueError, InvalidGeometry) as exc:
        raise DatasetFormatError(f"bad heatmap grid: {exc}") from exc
    if not np.all(np.isfinite(out.scores)):
        raise DatasetFormatError("heatmap scores must be finite")
    if out.scores.shape != want:
        raise DatasetFormatError(
            f"heatmap body is {out.scores.shape}, header says {want}")
    return out


def _deg(x):
    return math.degrees(float(x))


def _fmt_point(p):
    return f"({p[0]:.4f}, {p[1]:.4f})"


def _rm_table(name, paths, alpha=False):
    """Report section of mirrored-source paths, with each path's map
    phase when ``alpha``."""
    lines = ["", f"{name}:", "    idx  |gain|      tau_ns     aoa_deg    "
             "aod_deg  parity" + ("  alpha_deg" if alpha else "")]
    for i, p in enumerate(paths):
        lines.append(f"    {i:3d}  {abs(p.gain):.4e}  {p.tau * 1e9:9.4f}"
                     f"  {_deg(p.aoa):9.3f}  {_deg(p.aod):9.3f}"
                     f"  {p.parity:+6d}"
                     + (f"  {_deg(p.alpha):9.3f}" if alpha else ""))
    return lines


def emit_report(report, path):
    """Human-facing run summary, one section per report field.

    Angles are printed in degrees, delays in nanoseconds, positions in
    meters.  Ground-truth sections appear only when the report carries
    truth.
    """
    with open(path, "w") as fh:
        fh.write(_format_report(report))


def _format_report(report):
    ex = report.extraction
    lines = ["run report", "=" * 60, ""]
    lines += [
        "extraction:",
        f"  iterations: {ex.iterations}",
        f"  initial_energy: {ex.input_energy(ex.initial_energy):.6e}",
        f"  residual_energy: {ex.input_energy(ex.residual_energy):.6e}",
        f"  residual_fraction: {ex.residual_fraction():.3e}",
        f"  delay_origin_ns: {ex.delay_origin * 1e9:.4f}",
        "  paths (strongest first):",
        "    idx  strength    delta_ns   aoa_deg    aod_deg",
    ]
    for i, p in enumerate(ex.paths):
        lines.append(f"    {i:3d}  {p.strength:.4e}  {p.delta * 1e9:8.3f}"
                     f"  {_deg(p.aoa):9.3f}  {_deg(p.aod):9.3f}")

    lines += ["", "bearings:"]
    for i, blist in enumerate(report.bearings):
        if not blist:
            lines.append(f"  path {i}: none")
            continue
        lines.append(f"  path {i}:")
        for b in blist:
            lines.append(f"    from {_fmt_point(b.position)} m  angle "
                         f"{_deg(b.angle):9.3f} deg  weight {b.weight:.3e}")

    lines += ["", "triangulations:"]
    for i, tri in enumerate(report.triangulations):
        if tri is None:
            lines.append(f"  path {i}: none")
        else:
            flags = "".join("!" if f else "." for f in tri.behind)
            lines.append(f"  path {i}: point {_fmt_point(tri.point)} m  "
                         f"residual {tri.residual:.3e}  behind [{flags}]")

    lines += ["", f"anchor_index: {report.anchor_index}"]
    if report.taus is not None:
        lines += ["", "taus_ns: " + "  ".join(
            f"{t * 1e9:.4f}" for t in report.taus)]
    if report.image_points is not None:
        lines += ["", "image_points:"]
        for i, pt in enumerate(report.image_points):
            lines.append(f"  path {i}: {_fmt_point(pt)} m")
    if report.parities is not None:
        amb = report.parity_ambiguous or [False] * len(report.parities)
        lines += ["", "parities: " + "  ".join(
            f"{s:+d}{'?' if a else ''}" for s, a in
            zip(report.parities, amb))]
    if report.rm_paths is not None:
        lines += _rm_table("rm_paths", report.rm_paths, alpha=True)

    if report.truth is not None:
        lines += _rm_table("truth", report.truth)
        lines += ["", "matches (estimated -> true): " + "  ".join(
            f"{i}->{t if t is not None else '-'}"
            for i, t in enumerate(report.matches))]
        err = report.errors
        lines += ["", "errors:",
                  "    idx  delay_ns   aoa_deg    aod_deg    image_m   "
                  "parity_ok"]
        for i in range(len(ex.paths)):
            lines.append(
                f"    {i:3d}  {err['delay_ns'][i]:9.4f}"
                f"  {err['aoa_deg'][i]:9.4f}  {err['aod_deg'][i]:9.4f}"
                f"  {err['image_m'][i]:9.4f}  {str(bool(err['parity_ok'][i])):>9}")

    lines += ["", "timing_s:"]
    for key, val in report.timing.items():
        lines.append(f"  {key}: {val:.3f}")
    return "\n".join(lines) + "\n"


def emit_sweep_csv(name, rows, path):
    """Sweep results as CSV, one row per job; first column is the
    varied parameter."""
    cols = ["n_paths", "residual_fraction", "los_error_m",
            "mean_image_error_m", "runtime_s"]
    with open(path, "w") as fh:
        fh.write(",".join([name] + cols) + "\n")
        for row in rows:
            cells = [row["value"]] + [row[c] for c in cols]
            fh.write(",".join(_csv_cell(c) for c in cells) + "\n")


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.9g}"
    return str(v)
