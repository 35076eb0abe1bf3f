"""Line-oriented scenario description format and its builders.

A scenario file fully specifies a simulated campaign: the room, the
radio comb, the transmit array, the receive track, and the knobs of the
recovery stages, as ``[section]`` headers, ``key = value`` lines and
``#`` comments.  One table, ``_KEYS``, has a row per key; parsing,
formatting and ``nfchan sweep --vary`` values all read it.  Every value
is checked; a :class:`ScenarioError` names the line at fault and, for a
bad value, its key.  Lengths may be given in carrier wavelengths
(``0.5wl``) and numeric lists as inclusive ``start:step:stop`` ranges;
both resolve at parse time, so formatting a parsed scenario and parsing
it again is a fixed point.
"""

import importlib.resources
import math
from dataclasses import dataclass, replace
from operator import ge, gt, le, lt
from typing import NamedTuple

import numpy as np

from .aperture import plan_linear_track
from .channel import SPEED_OF_LIGHT, FrequencyGrid, image_to_rm_params
from .errors import InvalidGeometry, ScenarioError
from .geometry import Room, feasible_images

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


# Longest list one value may expand to; a range past it is refused
# before anything is allocated.
_MAX_VALUES = 10**6
# Largest campaign a scenario may describe: response samples (placements
# x n_rx x transmit elements x tones) and candidate images up to
# max_order.  Both sit far above every bundled scenario and refuse a
# campaign that would not fit in memory before anything is built.
_MAX_SAMPLES = 10**8
_MAX_IMAGES = 10**6

_OPS = {">=": ge, ">": gt, "<=": le, "<": lt}

# A codec turns one key's text into its value and back.  ``parse(text,
# wl)`` raises ValueError with a message that the caller prefixes with
# the key and line; ``fmt(value)`` returns None to leave the key out;
# ``values(item, wl)`` is what one item of a list stands for.


class _Number:
    """A finite number within ``bounds`` (like ``"> 0"``); ``kind`` is
    int, float or "length", a float that takes the ``wl`` suffix."""

    def __init__(self, kind=float, *bounds):
        self.kind, self.bounds = kind, bounds

    def convert(self, tok, wl):
        scale = 1.0
        if self.kind == "length" and tok.endswith("wl"):
            tok, scale = tok[:-2], wl
        try:
            value = int(tok) if self.kind is int else float(tok) * scale
        except ValueError:
            what = "an integer" if self.kind is int else "a number"
            raise ValueError(f"expected {what}, got {tok!r}") from None
        if self.kind is not int and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {tok!r}")
        return value

    def check(self, value, tok):
        if not all(_OPS[op](value, float(b))
                   for op, b in map(str.split, self.bounds)):
            raise ValueError(f"must be {' and '.join(self.bounds)}, got {tok!r}")
        return value

    def parse(self, tok, wl=None):
        return self.check(self.convert(tok, wl), tok)

    def values(self, tok, wl=None):
        if ":" not in tok:
            return [self.parse(tok, wl)]
        parts = tok.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:stop, got {tok!r}")
        start, step, stop = (self.convert(p, wl) for p in parts)
        if step <= 0:
            raise ValueError(f"range step must be positive, got {tok!r}")
        if self.kind is int:
            count = (stop - start) // step + 1
        else:  # 1e-9 keeps a stop that rounding misses; inf spans clip
            ratio = np.floor((stop - start) / step + 1e-9)
            count = int(np.clip(ratio, -1, _MAX_VALUES)) + 1
        if not 1 <= count <= _MAX_VALUES:
            raise ValueError(f"range {tok!r} needs 1 to {_MAX_VALUES} values")
        # Every domain is an interval, so checking both ends checks all.
        self.check(start, tok)
        self.check(start + step * (count - 1), tok)
        return [start + step * i for i in range(count)]

    def fmt(self, value):
        return str(value) if self.kind is int else repr(float(value))


class _List:
    """Items split at ``sep`` (whitespace when None), each a value or a
    range of ``item``; ``ok`` checks the whole list against ``need``."""

    def __init__(self, item, sep=None, ok=None, need=None):
        self.item, self.sep, self.ok, self.need = item, sep, ok, need

    def parse(self, text, wl=None):
        out = []
        for tok in text.split(self.sep):
            out += self.item.values(tok.strip(), wl)
            if len(out) > _MAX_VALUES:
                raise ValueError(f"more than {_MAX_VALUES} values")
        if not out or (self.ok and not self.ok(out)):
            raise ValueError(f"expected {self.need or 'a value'}, got {text!r}")
        return tuple(out)

    def values(self, tok, wl=None):
        return [self.parse(tok, wl)]

    def fmt(self, values):
        return f"{self.sep or ''} ".join(self.item.fmt(v) for v in values)


class _Points:
    """``x,y`` pairs as an (n, 2) array, or with ``one`` a 2-vector."""

    def __init__(self, one=False):
        self.one = one

    def parse(self, text, wl=None):
        pts = [tok.split(",") for tok in text.split()]
        if any(len(xy) != 2 for xy in pts) or (self.one and len(pts) != 1):
            what = "one x,y point" if self.one else "x,y pairs"
            raise ValueError(f"expected {what}, got {text!r}")
        pts = np.array([[_REAL.parse(v) for v in xy] for xy in pts])
        return pts[0] if self.one else pts

    def fmt(self, pts):
        return " ".join(",".join(map(_REAL.fmt, p))
                        for p in np.reshape(pts, (-1, 2)))


class _Words:
    """One of fixed words, each standing for a value (itself by default)."""

    def __init__(self, words, values=None):
        self.words = dict(zip(words, values or words))

    def parse(self, tok, wl=None):
        if tok not in self.words:
            raise ValueError(f"expected one of {', '.join(self.words)}, got {tok!r}")
        return self.words[tok]

    def fmt(self, value):
        return next(w for w, v in self.words.items() if v == value)


class _Or:
    """``word`` standing for ``value``, else a value of ``codec``.  With
    ``word`` None the key is optional and None is left out."""

    def __init__(self, word, value, codec):
        self.word, self.value, self.codec = word, value, codec

    def parse(self, tok, wl=None):
        return self.value if tok == self.word else self.codec.parse(tok, wl)

    def values(self, tok, wl=None):
        if tok == self.word:
            return [self.value]
        return self.codec.values(tok, wl)

    def fmt(self, value):
        if type(value) is type(self.value) and value == self.value:
            return self.word
        return self.codec.fmt(value)


class _Key(NamedTuple):
    section: str
    key: str
    field: str
    codec: object


_REAL = _Number()
_POSITIVE = _Number(float, "> 0")
_LENGTH = _Number("length")
_SPACING = _Number("length", "> 0")
_INDEX = _Number(int, ">= 0")
_COUNT = _Number(int, ">= 1")
_FLAG = _Words(("true", "false"), (True, False))
_GRID = _Or(None, None, _List(_REAL, ok=lambda v: all(map(
    lt, v, v[1:])), need="strictly increasing values"))
_BOUNDS = _Or(None, None, _List(_REAL, ok=lambda b: (
    len(b) == 4 and b[0] < b[1] and b[2] < b[3]),
    need="xmin xmax ymin ymax with min < max"))
_SUBSETS = _Or("by-offset", "by-offset", _List(
    _List(_INDEX), sep=";", ok=lambda g: len(g) >= 2,
    need="at least two placement groups"))

# One row per key, in file order: (section, key, ScenarioConfig field,
# codec).
_KEYS = (
    _Key("room", "vertices", "room_vertices", _Points()),
    _Key("room", "reflective", "reflective", _Or("all", "all", _List(_INDEX))),
    _Key("radio", "carrier_hz", "carrier_hz", _POSITIVE),
    _Key("radio", "bandwidth_hz", "bandwidth_hz", _POSITIVE),
    _Key("radio", "n_tones", "n_tones", _Number(int, ">= 2")),
    _Key("transmitter", "position", "tx_position", _Points(one=True)),
    _Key("transmitter", "layout", "tx_layout",
         _Words(("single", "pair", "triangle"))),
    _Key("transmitter", "spacing", "tx_spacing", _Or(None, None, _SPACING)),
    _Key("aperture", "origin", "ap_origin", _Points(one=True)),
    _Key("aperture", "offsets", "offsets", _List(_LENGTH)),
    _Key("aperture", "spacings", "spacings", _List(_SPACING)),
    _Key("aperture", "n_rx", "n_rx", _COUNT),
    _Key("measurement", "snr_db", "snr_db", _Or("none", None, _REAL)),
    _Key("measurement", "coherent", "coherent", _FLAG),
    _Key("measurement", "seed", "seed", _INDEX),
    _Key("measurement", "max_order", "max_order", _INDEX),
    _Key("measurement", "bounce_loss", "bounce_loss",
         _Number(float, "> 0", "<= 1")),
    _Key("measurement", "model", "model", _Words(("rm", "pwa"))),
    _Key("estimation", "aoa_deg", "aoa_grid_deg", _GRID),
    _Key("estimation", "aod_deg", "aod_grid_deg", _GRID),
    _Key("estimation", "delay_pad_bins", "delay_pad_bins", _INDEX),
    _Key("estimation", "l_max", "l_max", _COUNT),
    _Key("estimation", "stop_fraction", "stop_fraction",
         _Number(float, ">= 0", "< 1")),
    _Key("estimation", "refine_passes", "refine_passes", _INDEX),
    _Key("estimation", "detect_threshold_db", "detect_threshold_db", _POSITIVE),
    _Key("estimation", "min_separation_bins", "min_separation_bins", _COUNT),
    _Key("estimation", "parity", "parity", _FLAG),
    _Key("triangulation", "min_bearings", "min_bearings", _Number(int, ">= 2")),
    _Key("triangulation", "subsets", "subsets", _SUBSETS),
    _Key("heatmap", "bounds", "heat_bounds", _BOUNDS),
    _Key("heatmap", "cell", "heat_cell", _SPACING),
    _Key("heatmap", "concentration", "heat_concentration", _POSITIVE),
)
_ROWS = {row.key: row for row in _KEYS}
_SECTIONS = {section: {row.key for row in _KEYS if row.section == section}
             for section in dict.fromkeys(row.section for row in _KEYS)}


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
    """Parse scenario text into a :class:`ScenarioConfig`; any problem
    raises :class:`ScenarioError` naming the key and line at fault."""
    entries = _tokenize(text)
    if not entries:
        raise ScenarioError("scenario is empty", line=1)
    cfg, lines = ScenarioConfig(), {}
    # carrier_hz first, so that wavelength-relative lengths resolve
    for row in sorted(_KEYS, key=lambda row: row.key != "carrier_hz"):
        if (row.section, row.key) not in entries:
            # a field that defaults to None needs its key, unless an _Or
            # codec lets it be None
            if (getattr(ScenarioConfig, row.field) is None
                    and not isinstance(row.codec, _Or)):
                raise ScenarioError(
                    f"missing required key {row.key!r} in [{row.section}]")
            continue
        value, lines[row.key] = entries[row.section, row.key]
        wl = None if cfg.carrier_hz is None else cfg.wavelength()
        try:
            setattr(cfg, row.field, row.codec.parse(value, wl))
        except ValueError as err:
            raise ScenarioError(f"{row.key}: {err}",
                                line=lines[row.key]) from None
    if cfg.tx_spacing is None and cfg.tx_layout != "single":
        cfg.tx_spacing = cfg.wavelength() / 2
    _validate_config(cfg, lines)
    return cfg


def _validate_config(cfg, lines):
    """Checks that span keys; ``lines`` maps each key to its line."""
    def fail(key, message):
        raise ScenarioError(f"{key}: {message}", line=lines.get(key, 0))

    # The builders check these values; what the rows leave open is
    # blamed on the key paired with each builder.
    for key, build in (("bandwidth_hz", build_grid),
                       ("vertices",
                        lambda c: Room.from_polygon(c.room_vertices)),
                       ("reflective", build_room)):
        try:
            room = build(cfg)
        except InvalidGeometry as err:
            fail(key, err)
    for key, point in (("position", cfg.tx_position),
                       ("origin", cfg.ap_origin)):
        if not room.contains(point):
            fail(key, "point is outside the room")
    k = len(cfg.offsets) * len(cfg.spacings)
    counts = {"offsets": len(cfg.offsets), "spacings": len(cfg.spacings),
              "n_rx": cfg.n_rx, "layout": len(build_tx_array(cfg)),
              "n_tones": cfg.n_tones}
    if math.prod(counts.values()) > _MAX_SAMPLES:  # blame the largest count
        fail(max(counts, key=counts.get), f"campaign needs more than "
             f"{_MAX_SAMPLES} response samples")
    # 1 + sum_i r (r - 1)**(i - 1) images over the r reflective walls,
    # summed until the terms vanish or the total passes the cap
    r = len(room.reflective_indices())
    images, term, order = 1, r, 0
    while term and images <= _MAX_IMAGES and order < cfg.max_order:
        images, term, order = images + term, term * (r - 1), order + 1
    if images > _MAX_IMAGES:
        fail("max_order", f"more than {_MAX_IMAGES} candidate images")
    seen = set()
    for group in () if cfg.subsets == "by-offset" else cfg.subsets:
        for i in group:
            if i >= k:
                fail("subsets", f"placement index {i} out of range "
                                f"(campaign has {k})")
            if i in seen:
                fail("subsets", f"placement index {i} appears in two groups")
            seen.add(i)


def format_scenario(cfg: ScenarioConfig):
    """Canonical text for a config; parsing it reproduces the config."""
    lines, section = [], None
    for row in _KEYS:
        if row.section != section:
            section = row.section
            lines += ["", f"[{section}]"]
        text = row.codec.fmt(getattr(cfg, row.field))
        if text is not None:
            lines.append(f"{row.key} = {text}")
    return "\n".join(lines[1:]) + "\n"


def parse_values(key, text):
    """``--vary`` values of scenario ``key``: a comma list whose items may
    be start:step:stop ranges, each checked as the key's row checks it."""
    try:
        return list(_List(_ROWS[key].codec, sep=",").parse(text))
    except ValueError as err:
        raise ScenarioError(f"{key}: {err}") from None


def with_value(cfg: ScenarioConfig, key, value):
    """``cfg`` with ``key`` set to ``value``, checked across keys."""
    cfg = replace(cfg, **{_ROWS[key].field: value})
    _validate_config(cfg, {})
    return cfg


def build_room(cfg: ScenarioConfig) -> Room:
    reflective = None if cfg.reflective == "all" else list(cfg.reflective)
    return Room.from_polygon(cfg.room_vertices, reflective=reflective)


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

    Image candidates up to ``max_order`` are kept when the folded ray
    between the array references is realizable, i.e. every specular
    point lands on its wall and no other wall blocks a leg.  The test
    runs as one batched kernel over each order of the image tree
    (:func:`~nfchan.geometry.feasible_images`); only the feasible
    candidates become parameter tuples, in enumeration order.  Gains
    follow the one-over-distance envelope with ``bounce_loss`` per
    reflection.
    """
    room = build_room(cfg)
    if plan is None:
        plan = build_plan(cfg)
    paths = feasible_images(room, cfg.tx_position, plan.rx_ref,
                            cfg.max_order, cfg.bounce_loss)
    return [image_to_rm_params(p, plan.tx_ref, plan.rx_ref) for p in paths]


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
