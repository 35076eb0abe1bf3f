"""Line-oriented scenario description format and its builders.

A scenario file fully specifies a simulated campaign: the room polygon
and which of its walls reflect, the radio comb, the transmit array, the
receive track, and the knobs of the recovery stages.  The format is
deliberately small: ``[section]`` headers, ``key = value`` lines, and
``#`` comments.  Unknown sections or keys are hard errors that name the
offending line, not warnings.

Two syntactic conveniences exist.  Any length may be given relative to
the carrier wavelength with a ``wl`` suffix (``0.5wl``), and numeric
lists may be written as inclusive ``start:step:stop`` ranges.  Values
are resolved to plain meters and explicit lists at parse time, so
formatting a parsed scenario and parsing it again is a fixed point.
"""

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .aperture import plan_linear_track
from .channel import SPEED_OF_LIGHT, FrequencyGrid, image_to_rm_params
from .errors import ScenarioError
from .geometry import Room, enumerate_images, validate_path

@dataclass(eq=False)
class ScenarioConfig:
    """Parsed scenario.  Distances in meters, angles in degrees where named."""

    room_vertices: np.ndarray = None
    reflective: tuple = "all"
    carrier_hz: float = None
    bandwidth_hz: float = None
    n_tones: int = None
    tx_position: np.ndarray = None
    tx_layout: str = "triangle"
    tx_spacing: float = None
    ap_origin: np.ndarray = None
    offsets: tuple = None
    spacings: tuple = None
    n_rx: int = 2
    snr_db: float = None
    coherent: bool = False
    seed: int = 0
    max_order: int = 1
    bounce_loss: float = 0.7
    model: str = "rm"
    aoa_grid_deg: tuple = None
    aod_grid_deg: tuple = None
    delay_pad_bins: int = 4
    l_max: int = 6
    stop_fraction: float = 0.005
    refine: bool = True
    refine_passes: int = 2
    detect_threshold_db: float = 30.0
    min_separation_bins: int = 2
    parity: bool = True
    min_bearings: int = 2
    subsets: object = "by-offset"
    heat_bounds: tuple = None
    heat_cell: float = 0.25
    heat_concentration: float = 400.0

    def wavelength(self):
        return SPEED_OF_LIGHT / self.carrier_hz


def _parse_float(tok, line):
    try:
        return float(tok)
    except ValueError:
        raise ScenarioError(f"expected a number, got {tok!r}", line=line)


def _parse_length(tok, line, wl):
    """A length, possibly wavelength-relative via the ``wl`` suffix."""
    if tok.endswith("wl"):
        if wl is None:
            raise ScenarioError(
                "wavelength-relative value needs [radio] carrier_hz first",
                line=line)
        return _parse_float(tok[:-2], line) * wl
    return _parse_float(tok, line)


def _parse_int(tok, line):
    try:
        return int(tok)
    except ValueError:
        raise ScenarioError(f"expected an integer, got {tok!r}", line=line)


def _parse_bool(tok, line):
    if tok == "true":
        return True
    if tok == "false":
        return False
    raise ScenarioError(f"expected true or false, got {tok!r}", line=line)


def _expand_tokens(value, line, wl=None):
    """Space-separated numbers/lengths with start:step:stop expansion."""
    out = []
    for tok in value.split():
        if ":" in tok:
            parts = tok.split(":")
            if len(parts) != 3:
                raise ScenarioError(
                    f"range must be start:step:stop, got {tok!r}", line=line)
            start, step, stop = (_parse_length(p, line, wl) for p in parts)
            if step <= 0 or stop < start:
                raise ScenarioError(f"bad range {tok!r}", line=line)
            n = int(np.floor((stop - start) / step + 1e-9)) + 1
            out.extend(start + step * np.arange(n))
        else:
            out.append(_parse_length(tok, line, wl))
    if not out:
        raise ScenarioError("expected at least one value", line=line)
    return tuple(float(v) for v in out)


def _parse_points(value, line):
    pts = []
    for tok in value.split():
        xy = tok.split(",")
        if len(xy) != 2:
            raise ScenarioError(f"expected x,y pairs, got {tok!r}", line=line)
        pts.append([_parse_float(xy[0], line), _parse_float(xy[1], line)])
    if not pts:
        raise ScenarioError("expected at least one point", line=line)
    return np.asarray(pts)


_SECTIONS = {
    "room": {"vertices", "reflective"},
    "radio": {"carrier_hz", "bandwidth_hz", "n_tones"},
    "transmitter": {"position", "layout", "spacing"},
    "aperture": {"origin", "offsets", "spacings", "n_rx"},
    "measurement": {"snr_db", "coherent", "seed", "max_order",
                    "bounce_loss", "model"},
    "estimation": {"aoa_deg", "aod_deg", "delay_pad_bins", "l_max",
                   "stop_fraction", "refine", "refine_passes",
                   "detect_threshold_db", "min_separation_bins", "parity"},
    "triangulation": {"min_bearings", "subsets"},
    "heatmap": {"bounds", "cell", "concentration"},
}

_REQUIRED = {
    ("room", "vertices"),
    ("radio", "carrier_hz"),
    ("radio", "bandwidth_hz"),
    ("radio", "n_tones"),
    ("transmitter", "position"),
    ("aperture", "origin"),
    ("aperture", "offsets"),
    ("aperture", "spacings"),
}


def _tokenize(text):
    """First pass: (section, key) -> (raw value, line number)."""
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ScenarioError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {line!r}",
                                line=lineno)
        if section is None:
            raise ScenarioError("key outside of any section", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ScenarioError(f"unknown key {key!r} in [{section}]",
                                line=lineno)
        if (section, key) in entries:
            raise ScenarioError(f"duplicate key {key!r} in [{section}]",
                                line=lineno)
        if not value:
            raise ScenarioError(f"empty value for {key!r}", line=lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def parse_scenario(text):
    """Parse scenario text into a :class:`ScenarioConfig`.

    Raises :class:`ScenarioError` naming the offending line for unknown
    sections or keys, malformed values, and missing required keys.
    """
    entries = _tokenize(text)
    if not entries:
        raise ScenarioError("scenario is empty", line=1)
    for section, key in _REQUIRED:
        if (section, key) not in entries:
            raise ScenarioError(f"missing required key {key!r} in [{section}]")
    cfg = ScenarioConfig()

    def take(section, key):
        item = entries.pop((section, key), None)
        return item

    v, ln = take("radio", "carrier_hz")
    cfg.carrier_hz = _parse_float(v, ln)
    if cfg.carrier_hz <= 0:
        raise ScenarioError("carrier_hz must be positive", line=ln)
    wl = cfg.wavelength()
    v, ln = take("radio", "bandwidth_hz")
    cfg.bandwidth_hz = _parse_float(v, ln)
    v, ln = take("radio", "n_tones")
    cfg.n_tones = _parse_int(v, ln)

    v, ln = take("room", "vertices")
    cfg.room_vertices = _parse_points(v, ln)
    item = take("room", "reflective")
    if item is not None:
        v, ln = item
        if v == "all":
            cfg.reflective = "all"
        else:
            cfg.reflective = tuple(_parse_int(t, ln) for t in v.split())

    v, ln = take("transmitter", "position")
    cfg.tx_position = _parse_points(v, ln)[0]
    item = take("transmitter", "layout")
    if item is not None:
        v, ln = item
        if v not in ("single", "pair", "triangle"):
            raise ScenarioError(f"unknown transmitter layout {v!r}", line=ln)
        cfg.tx_layout = v
    item = take("transmitter", "spacing")
    if item is not None:
        v, ln = item
        cfg.tx_spacing = _parse_length(v, ln, wl)
        if cfg.tx_spacing <= 0:
            raise ScenarioError("transmitter spacing must be positive", line=ln)
    elif cfg.tx_layout != "single":
        cfg.tx_spacing = wl / 2

    v, ln = take("aperture", "origin")
    cfg.ap_origin = _parse_points(v, ln)[0]
    v, ln = take("aperture", "offsets")
    cfg.offsets = _expand_tokens(v, ln, wl)
    v, ln = take("aperture", "spacings")
    cfg.spacings = _expand_tokens(v, ln, wl)
    item = take("aperture", "n_rx")
    if item is not None:
        cfg.n_rx = _parse_int(*item)

    item = take("measurement", "snr_db")
    if item is not None:
        v, ln = item
        cfg.snr_db = None if v == "none" else _parse_float(v, ln)
        if cfg.snr_db is not None and not math.isfinite(cfg.snr_db):
            raise ScenarioError(f"snr_db must be finite or none, got {v!r}", line=ln)
    item = take("measurement", "coherent")
    if item is not None:
        cfg.coherent = _parse_bool(*item)
    item = take("measurement", "seed")
    if item is not None:
        cfg.seed = _parse_int(*item)
    item = take("measurement", "max_order")
    if item is not None:
        cfg.max_order = _parse_int(*item)
    item = take("measurement", "bounce_loss")
    if item is not None:
        cfg.bounce_loss = _parse_float(*item)
    item = take("measurement", "model")
    if item is not None:
        v, ln = item
        if v not in ("rm", "pwa"):
            raise ScenarioError(f"unknown channel model {v!r}", line=ln)
        cfg.model = v

    item = take("estimation", "aoa_deg")
    if item is not None:
        cfg.aoa_grid_deg = _expand_tokens(*item)
    item = take("estimation", "aod_deg")
    if item is not None:
        cfg.aod_grid_deg = _expand_tokens(*item)
    for key, conv in (("delay_pad_bins", _parse_int), ("l_max", _parse_int),
                      ("stop_fraction", _parse_float),
                      ("refine", _parse_bool),
                      ("refine_passes", _parse_int),
                      ("detect_threshold_db", _parse_float),
                      ("min_separation_bins", _parse_int),
                      ("parity", _parse_bool)):
        item = take("estimation", key)
        if item is not None:
            setattr(cfg, key, conv(*item))

    item = take("triangulation", "min_bearings")
    if item is not None:
        cfg.min_bearings = _parse_int(*item)
    item = take("triangulation", "subsets")
    if item is not None:
        v, ln = item
        if v == "by-offset":
            cfg.subsets = "by-offset"
        else:
            groups = []
            for part in v.split(";"):
                idx = tuple(_parse_int(t, ln) for t in part.split())
                if not idx:
                    raise ScenarioError("empty placement group", line=ln)
                groups.append(idx)
            if len(groups) < 2:
                raise ScenarioError(
                    "need at least two placement groups", line=ln)
            cfg.subsets = tuple(groups)

    item = take("heatmap", "bounds")
    if item is not None:
        v, ln = item
        vals = _expand_tokens(v, ln)
        if len(vals) != 4:
            raise ScenarioError("bounds needs xmin xmax ymin ymax", line=ln)
        cfg.heat_bounds = vals
    item = take("heatmap", "cell")
    if item is not None:
        v, ln = item
        cfg.heat_cell = _parse_length(v, ln, wl)
        if cfg.heat_cell <= 0:
            raise ScenarioError("heatmap cell must be positive", line=ln)
    item = take("heatmap", "concentration")
    if item is not None:
        cfg.heat_concentration = _parse_float(*item)

    assert not entries, "tokenizer admitted an unhandled key"
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    build_grid(cfg)
    room = build_room(cfg)
    if not room.contains(cfg.tx_position):
        raise ScenarioError("transmitter position is outside the room")
    if not room.contains(cfg.ap_origin):
        raise ScenarioError("aperture origin is outside the room")
    if cfg.max_order < 0:
        raise ScenarioError("max_order must be nonnegative")
    if not 0 < cfg.bounce_loss <= 1:
        raise ScenarioError("bounce_loss must lie in (0, 1]")
    if cfg.l_max < 1:
        raise ScenarioError("l_max must be at least 1")
    if cfg.min_bearings < 2:
        raise ScenarioError("min_bearings must be at least 2")
    if cfg.subsets != "by-offset":
        k = len(cfg.offsets) * len(cfg.spacings)
        seen = set()
        for group in cfg.subsets:
            for i in group:
                if not 0 <= i < k:
                    raise ScenarioError(
                        f"placement index {i} out of range (campaign has {k})")
                if i in seen:
                    raise ScenarioError(
                        f"placement index {i} appears in two groups")
                seen.add(i)


def _fmt(x):
    return repr(float(x))


def _fmt_list(values):
    return " ".join(_fmt(v) for v in values)


def format_scenario(cfg: ScenarioConfig):
    """Canonical text for a config; parsing it reproduces the config."""
    lines = ["[room]"]
    lines.append("vertices = " + " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in cfg.room_vertices))
    if cfg.reflective == "all":
        lines.append("reflective = all")
    else:
        lines.append("reflective = " + " ".join(str(i) for i in cfg.reflective))
    lines += ["", "[radio]",
              f"carrier_hz = {_fmt(cfg.carrier_hz)}",
              f"bandwidth_hz = {_fmt(cfg.bandwidth_hz)}",
              f"n_tones = {cfg.n_tones}"]
    lines += ["", "[transmitter]",
              f"position = {_fmt(cfg.tx_position[0])},{_fmt(cfg.tx_position[1])}",
              f"layout = {cfg.tx_layout}"]
    if cfg.tx_spacing is not None:
        lines.append(f"spacing = {_fmt(cfg.tx_spacing)}")
    lines += ["", "[aperture]",
              f"origin = {_fmt(cfg.ap_origin[0])},{_fmt(cfg.ap_origin[1])}",
              f"offsets = {_fmt_list(cfg.offsets)}",
              f"spacings = {_fmt_list(cfg.spacings)}",
              f"n_rx = {cfg.n_rx}"]
    lines += ["", "[measurement]",
              "snr_db = " + ("none" if cfg.snr_db is None else _fmt(cfg.snr_db)),
              f"coherent = {'true' if cfg.coherent else 'false'}",
              f"seed = {cfg.seed}",
              f"max_order = {cfg.max_order}",
              f"bounce_loss = {_fmt(cfg.bounce_loss)}",
              f"model = {cfg.model}"]
    lines += ["", "[estimation]"]
    if cfg.aoa_grid_deg is not None:
        lines.append(f"aoa_deg = {_fmt_list(cfg.aoa_grid_deg)}")
    if cfg.aod_grid_deg is not None:
        lines.append(f"aod_deg = {_fmt_list(cfg.aod_grid_deg)}")
    lines += [f"delay_pad_bins = {cfg.delay_pad_bins}",
              f"l_max = {cfg.l_max}",
              f"stop_fraction = {_fmt(cfg.stop_fraction)}",
              f"refine = {'true' if cfg.refine else 'false'}",
              f"refine_passes = {cfg.refine_passes}",
              f"detect_threshold_db = {_fmt(cfg.detect_threshold_db)}",
              f"min_separation_bins = {cfg.min_separation_bins}",
              f"parity = {'true' if cfg.parity else 'false'}"]
    lines += ["", "[triangulation]", f"min_bearings = {cfg.min_bearings}"]
    if cfg.subsets == "by-offset":
        lines.append("subsets = by-offset")
    else:
        lines.append("subsets = " + "; ".join(
            " ".join(str(i) for i in group) for group in cfg.subsets))
    lines += ["", "[heatmap]"]
    if cfg.heat_bounds is not None:
        lines.append(f"bounds = {_fmt_list(cfg.heat_bounds)}")
    lines += [f"cell = {_fmt(cfg.heat_cell)}",
              f"concentration = {_fmt(cfg.heat_concentration)}"]
    return "\n".join(lines) + "\n"


def build_room(cfg: ScenarioConfig) -> Room:
    reflective = cfg.reflective
    if reflective == "all":
        return Room.from_polygon(cfg.room_vertices)
    return Room.from_polygon(cfg.room_vertices, reflective=list(reflective))


def build_grid(cfg: ScenarioConfig) -> FrequencyGrid:
    return FrequencyGrid(center=cfg.carrier_hz, bandwidth=cfg.bandwidth_hz,
                         num_tones=cfg.n_tones)


def build_tx_array(cfg: ScenarioConfig):
    """Transmit element positions with centroid at ``tx_position``."""
    p = np.asarray(cfg.tx_position, dtype=float)
    if cfg.tx_layout == "single":
        return p[None, :]
    s = cfg.tx_spacing
    if cfg.tx_layout == "pair":
        return np.array([p - [s / 2, 0.0], p + [s / 2, 0.0]])
    # Equilateral triangle, side s, centroid at p.
    r = s / np.sqrt(3.0)
    angles = np.deg2rad([90.0, 210.0, 330.0])
    return p + r * np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def build_plan(cfg: ScenarioConfig):
    return plan_linear_track(cfg.ap_origin, cfg.offsets, cfg.spacings,
                             build_tx_array(cfg), n_rx=cfg.n_rx)


def true_paths(cfg: ScenarioConfig, plan=None):
    """Feasible propagation paths of the scenario as parameter tuples.

    Image candidates are enumerated up to ``max_order`` and kept when
    the folded ray between the array references is realizable, i.e.
    every specular point lands on its wall and no other wall blocks a
    leg.  Gains follow the one-over-distance envelope with
    ``bounce_loss`` per reflection.
    """
    room = build_room(cfg)
    if plan is None:
        plan = build_plan(cfg)
    out = []
    for path in enumerate_images(room, cfg.tx_position,
                                 max_order=cfg.max_order,
                                 rx_ref=plan.rx_ref,
                                 bounce_loss=cfg.bounce_loss):
        feasible, _ = validate_path(room, path.wall_sequence,
                                    cfg.tx_position, plan.rx_ref)
        if feasible:
            out.append(image_to_rm_params(path, plan.tx_ref, plan.rx_ref))
    return out


def available_presets():
    """Names of the scenario presets shipped with the package."""
    root = importlib.resources.files("nfchan") / "presets"
    return sorted(
        item.name[:-4] for item in root.iterdir() if item.name.endswith(".cfg")
    )


def load_preset(name):
    """Parsed :class:`ScenarioConfig` for a named preset."""
    root = importlib.resources.files("nfchan") / "presets"
    candidate = root / f"{name}.cfg"
    if not candidate.is_file():
        known = ", ".join(available_presets())
        raise ScenarioError(f"unknown preset {name!r}; available: {known}")
    return parse_scenario(candidate.read_text())


def load_scenario_file(path):
    """Parse a scenario from a filesystem path or preset name."""
    import os

    if os.path.exists(path):
        with open(path, "r") as fh:
            return parse_scenario(fh.read())
    return load_preset(str(path))
