"""Scenario text format, its validation, and the campaign builders."""

import ast
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfchan.errors import ScenarioError
from nfchan.geometry import feasible_images
from nfchan.scenario import (_KEYS, ScenarioConfig, available_presets,
                             build_grid, build_plan, build_room,
                             build_tx_array, format_scenario, load_preset,
                             load_scenario_file, parse_scenario, true_paths)

MINIMAL = """\
[room]
vertices = 0,0 20,0 20,10 0,10

[radio]
carrier_hz = 10e9
bandwidth_hz = 500e6
n_tones = 64

[transmitter]
position = 12,7.5

[aperture]
origin = 1,1
offsets = 0 0.4
spacings = 0.5wl
"""

# The benchmark's six-wall room at order 5: 4687 candidate images, of
# which 3750 are fifth-order, so the feasibility test crosses blocks.
CAMPAIGN = """\
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
CAMPAIGN_SEQUENCES = [
    (), (0,), (2,), (3,), (4,), (5,), (0, 3), (0, 4), (1, 3), (2, 0), (2, 4),
    (2, 5), (3, 0), (3, 2), (3, 5), (4, 0), (5, 0), (0, 3, 0), (1, 3, 0),
    (2, 0, 5), (3, 1, 3), (3, 2, 0), (3, 2, 5), (3, 5, 0), (4, 5, 0),
    (0, 3, 1, 4), (1, 3, 0, 3), (1, 3, 1, 4), (1, 3, 5, 0), (2, 3, 4, 5),
    (2, 4, 5, 0), (3, 1, 3, 0), (3, 1, 3, 5), (3, 2, 0, 4), (3, 2, 5, 0),
    (5, 0, 2, 3), (0, 3, 1, 3, 5), (0, 3, 1, 4, 0), (0, 5, 4, 3, 2),
    (1, 3, 0, 3, 0), (1, 3, 1, 4, 0), (2, 0, 5, 3, 2), (2, 3, 4, 5, 0),
    (2, 5, 0, 2, 4), (3, 0, 3, 1, 4), (3, 1, 3, 0, 3), (3, 1, 3, 0, 4),
    (3, 1, 3, 5, 0), (3, 2, 0, 4, 0), (3, 5, 0, 2, 3), (5, 0, 2, 3, 5),
    (5, 0, 3, 2, 0),
]
# SHA-256 of the (gain.real, gain.imag, tau, aoa, aod, parity) float64 rows
# that the per-image scalar enumeration and back-trace produced.
CAMPAIGN_PARAMS_SHA256 = (
    "70ca89e3bcac823fcb1134206c1f058173aa2cfdb43ff992c0f6738a2136d6bb")

# Sets every optional key, with the non-default spelling where one exists.
FULL = """\
[room]
vertices = 0,0 20,0 20,10 0,10
reflective = 1 2 3

[radio]
carrier_hz = 10e9
bandwidth_hz = 500e6
n_tones = 64

[transmitter]
position = 12,7.5
layout = single

[aperture]
origin = 1,1
offsets = 0:0.4:0.8
spacings = 0.5wl 1wl
n_rx = 3

[measurement]
snr_db = 20
coherent = true
seed = 7
max_order = 2
bounce_loss = 0.5
model = pwa

[estimation]
aoa_deg = 0:5:180
aod_deg = -180 -90 0 90
delay_pad_bins = 2
l_max = 4
stop_fraction = 0.01
refine_passes = 0
detect_threshold_db = 25
min_separation_bins = 3
parity = false

[triangulation]
min_bearings = 3
subsets = 0 1; 2 3; 4 5

[heatmap]
bounds = 0 20 0 10
cell = 0.5
concentration = 100
"""


def with_line(text, section, key, value):
    """``text`` with ``key = value`` in ``section``, replacing the key's
    line when there is one; returns the text and that line's number."""
    lines = text.splitlines()
    hit = [i for i, line in enumerate(lines) if line.startswith(key + " =")]
    if hit:
        lines[hit[0]] = f"{key} = {value}"
        return "\n".join(lines) + "\n", hit[0] + 1
    lines += ["", f"[{section}]", f"{key} = {value}"]
    return "\n".join(lines) + "\n", len(lines)


class TestParsing:
    def test_minimal_fills_defaults(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.n_tones == 64
        assert cfg.n_rx == 2
        assert cfg.reflective == "all"
        assert cfg.snr_db is None and not cfg.coherent
        assert cfg.tx_layout == "triangle"
        assert np.isclose(cfg.tx_spacing, cfg.wavelength() / 2)
        assert cfg.offsets == (0.0, 0.4)
        assert np.isclose(cfg.spacings[0], cfg.wavelength() / 2)
        assert cfg.subsets == "by-offset"

    def test_empty_file_reports_line_one(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("")
        assert err.value.line == 1

    def test_comments_only_is_empty(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("# nothing here\n\n   # still nothing\n")
        assert err.value.line == 1

    def test_unknown_section_names_line(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINIMAL + "\n[plumbing]\n")
        assert err.value.line == MINIMAL.count("\n") + 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(MINIMAL + "\n[room]\ncolor = blue\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(MINIMAL + "\n[radio]\nn_tones = 32\n")

    def test_key_outside_section(self):
        with pytest.raises(ScenarioError, match="outside"):
            parse_scenario("n_tones = 4\n" + MINIMAL)

    def test_missing_required_key(self):
        broken = MINIMAL.replace("bandwidth_hz = 500e6\n", "")
        with pytest.raises(ScenarioError, match="bandwidth_hz"):
            parse_scenario(broken)

    def test_malformed_number_names_line(self):
        broken = MINIMAL.replace("n_tones = 64", "n_tones = lots")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(broken)
        assert "lots" in str(err.value) and err.value.line > 0

    def test_non_finite_snr_names_line(self):
        for value in ("nan", "-inf", "inf"):
            text = MINIMAL + f"\n[measurement]\nsnr_db = {value}\n"
            with pytest.raises(ScenarioError, match="snr_db") as err:
                parse_scenario(text)
            assert err.value.line == text.splitlines().index(f"snr_db = {value}") + 1

    def test_range_expansion(self):
        cfg = parse_scenario(MINIMAL.replace(
            "offsets = 0 0.4", "offsets = 0:0.2:0.6"))
        assert np.allclose(cfg.offsets, (0.0, 0.2, 0.4, 0.6), atol=1e-12)

    def test_wavelength_suffix(self):
        cfg = parse_scenario(MINIMAL.replace(
            "spacings = 0.5wl", "spacings = 2wl"))
        assert np.isclose(cfg.spacings[0], 2 * cfg.wavelength())

    def test_wavelength_suffix_needs_carrier(self):
        # carrier_hz parses before any length, so only a file whose
        # radio section is broken can hit this; offsets in a file
        # missing carrier_hz dies on the missing-required check first.
        with pytest.raises(ScenarioError, match="carrier_hz"):
            parse_scenario(MINIMAL.replace("carrier_hz = 10e9\n", ""))

    def test_transmitter_outside_room_rejected(self):
        with pytest.raises(ScenarioError, match="outside"):
            parse_scenario(MINIMAL.replace("position = 12,7.5",
                                           "position = 25,7.5"))

    def test_aperture_outside_room_rejected(self):
        with pytest.raises(ScenarioError, match="outside"):
            parse_scenario(MINIMAL.replace("origin = 1,1",
                                           "origin = -1,1"))

    def test_unknown_layout_and_model(self):
        with pytest.raises(ScenarioError, match="layout"):
            parse_scenario(MINIMAL + "\n[transmitter]\nlayout = ring\n")
        with pytest.raises(ScenarioError, match="model"):
            parse_scenario(MINIMAL + "\n[measurement]\nmodel = raytrace\n")

    def test_explicit_subset_groups(self):
        # MINIMAL has 2 offsets x 1 spacing = 2 placements.
        cfg = parse_scenario(MINIMAL + "\n[triangulation]\nsubsets = 0; 1\n")
        assert cfg.subsets == ((0,), (1,))

    def test_subset_index_out_of_range(self):
        with pytest.raises(ScenarioError, match="out of range"):
            parse_scenario(MINIMAL + "\n[triangulation]\nsubsets = 0; 9\n")

    def test_subset_overlap_rejected(self):
        with pytest.raises(ScenarioError, match="two groups"):
            parse_scenario(MINIMAL + "\n[triangulation]\nsubsets = 0 1; 1\n")

    def test_single_subset_group_rejected(self):
        with pytest.raises(ScenarioError, match="two placement groups"):
            parse_scenario(MINIMAL + "\n[triangulation]\nsubsets = 0 1 2\n")


    @pytest.mark.parametrize("section, key, value", [
        ("room", "reflective", "9"),
        ("room", "reflective", "-1"),
        ("room", "vertices", "0,0 20,0"),
        ("radio", "n_tones", "1"),
        ("radio", "bandwidth_hz", "-5"),
        ("radio", "bandwidth_hz", "30e9"),
        ("radio", "carrier_hz", "nan"),
        ("transmitter", "position", "nan,7.5"),
        ("transmitter", "spacing", "nan"),
        ("aperture", "offsets", "nan"),
        ("aperture", "offsets", "0:1e-12:1"),
        ("aperture", "spacings", "0"),
        ("aperture", "n_rx", "0"),
        ("measurement", "seed", "-1"),
        ("estimation", "stop_fraction", "nan"),
        ("estimation", "stop_fraction", "1"),
        ("estimation", "refine_passes", "-1"),
        ("estimation", "detect_threshold_db", "0"),
        ("estimation", "min_separation_bins", "0"),
        ("estimation", "delay_pad_bins", "-1"),
        ("estimation", "aoa_deg", "10 5"),
        ("estimation", "aod_deg", "0 0"),
        ("heatmap", "cell", "nan"),
        ("heatmap", "concentration", "nan"),
        ("heatmap", "concentration", "0"),
        ("heatmap", "bounds", "nan 20 0 10"),
        ("heatmap", "bounds", "20 0 0 10"),
    ])
    def test_bad_value_names_key_and_line(self, section, key, value):
        text, line = with_line(MINIMAL, section, key, value)
        with pytest.raises(ScenarioError, match=key) as err:
            parse_scenario(text)
        assert err.value.line == line


    def test_refine_key_is_gone(self):
        # refine_passes = 0 is how refinement is turned off
        text = MINIMAL + "\n[estimation]\nrefine = true\n"
        with pytest.raises(ScenarioError, match="unknown key 'refine'") as err:
            parse_scenario(text)
        assert err.value.line == text.splitlines().index("refine = true") + 1


class TestCampaignCap:
    @pytest.mark.parametrize("section, key, value", [
        ("aperture", "n_rx", "1000000000000"),
        ("radio", "n_tones", "1000000000000"),
        ("measurement", "max_order", "1000000"),
    ])
    def test_oversized_campaign_names_key_and_line(self, section, key,
                                                   value):
        text, line = with_line(MINIMAL, section, key, value)
        with pytest.raises(ScenarioError, match=key) as err:
            parse_scenario(text)
        assert err.value.line == line

    @pytest.mark.parametrize("walls, images", [("1", 2), ("1 2", None)])
    def test_image_count_on_few_walls(self, walls, images):
        # one wall gives 2 images at any order, two walls 1 + 2 * order:
        # the count stops without walking 10**12 orders
        text, _ = with_line(MINIMAL, "room", "reflective", walls)
        text, line = with_line(text, "measurement", "max_order", str(10**12))
        if images:
            assert parse_scenario(text).max_order == 10**12
        else:
            with pytest.raises(ScenarioError, match="max_order") as err:
                parse_scenario(text)
            assert err.value.line == line

    def test_largest_bench_campaign_parses(self):
        # perfbench's synth-campaign: about 3.7e5 samples and 4687 images
        path = Path(__file__).resolve().parents[1] / "perfbench/workloads.py"
        text = next(ast.literal_eval(node.value)
                    for node in ast.parse(path.read_text()).body
                    if isinstance(node, ast.Assign) and getattr(
                        node.targets[0], "id", "") == "CAMPAIGN_SCENARIO")
        cfg = parse_scenario(text)
        assert cfg.max_order == 5 and cfg.n_tones == 512


class TestKeyTable:
    def test_rows_cover_every_config_field_once(self):
        fields = [row.field for row in _KEYS]
        assert len(set(fields)) == len(fields)
        assert set(fields) == {f.name for f in
                               dataclasses.fields(ScenarioConfig)}
        assert len({row.key for row in _KEYS}) == len(_KEYS)

    def test_full_scenario_writes_every_key(self):
        # layout = single with no spacing leaves spacing out
        text = format_scenario(parse_scenario(FULL))
        written = {line.split(" =")[0] for line in text.splitlines()
                   if " = " in line}
        assert written == {row.key for row in _KEYS} - {"spacing"}


# Replacement values for one key: junk, non-finite, negative, huge and
# small ranges (none expands past a few hundred values).
VALUE_TOKENS = st.one_of(
    st.text(alphabet="0123456789.,:;-+ eEwlnaifrtu_x#[]=", max_size=12),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1e400", "-1e308",
                     str(10**30), "-1", "0", "none", "all", "true"]),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-50, 50).map(lambda x: f"{x}wl"),
    st.builds(lambda a, b, n: f"{a}:{b}:{a + b * n}",
              st.integers(-20, 20), st.integers(-3, 5), st.integers(-2, 40)),
    st.builds(lambda a, b, n: f"{a!r}:{b!r}:{a + b * n!r}",
              st.floats(-100, 100), st.floats(0.01, 10), st.integers(-2, 40)),
)


class TestFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data(), base=st.sampled_from([MINIMAL, FULL]))
    def test_mutations_raise_only_scenario_error(self, data, base):
        lines = base.splitlines()
        how = data.draw(st.sampled_from(["value", "line", "drop", "copy"]))
        if how == "value":
            i = data.draw(st.sampled_from(
                [i for i, line in enumerate(lines) if " = " in line]))
            key = lines[i].split(" = ")[0]
            lines[i] = f"{key} = {data.draw(VALUE_TOKENS)}"
        else:
            i = data.draw(st.integers(0, len(lines) - 1))
            if how == "line":
                lines[i] = data.draw(VALUE_TOKENS)
            elif how == "drop":
                del lines[i]
            else:
                lines.insert(i, lines[i])
        try:
            cfg = parse_scenario("\n".join(lines) + "\n")
        except ScenarioError:
            return
        text = format_scenario(cfg)
        assert format_scenario(parse_scenario(text)) == text


class TestRoundTrip:
    def test_format_parse_fixed_point(self):
        for source in (MINIMAL, FULL):
            cfg = parse_scenario(source)
            text = format_scenario(cfg)
            again = format_scenario(parse_scenario(text))
            assert text == again

    @pytest.mark.parametrize("name", ["room-20x10", "room-20x10-fs1ghz",
                                      "track-experiment"])
    def test_presets_round_trip(self, name):
        cfg = load_preset(name)
        text = format_scenario(cfg)
        again = parse_scenario(text)
        assert format_scenario(again) == text
        assert again.n_tones == cfg.n_tones
        assert again.offsets == cfg.offsets
        assert np.allclose(again.room_vertices, cfg.room_vertices)


class TestPresets:
    def test_available(self):
        names = available_presets()
        assert "room-20x10" in names
        assert "track-experiment" in names

    def test_room_preset_contents(self):
        cfg = load_preset("room-20x10")
        assert np.allclose(cfg.room_vertices,
                           [[0, 0], [20, 0], [20, 10], [0, 10]])
        assert cfg.reflective == (1, 2, 3)
        assert cfg.carrier_hz == 10e9
        assert cfg.offsets == (0.0, 0.4, 0.8)
        wl = cfg.wavelength()
        assert np.allclose(cfg.spacings, (wl / 2, wl, 2 * wl))
        assert cfg.n_tones == 512

    def test_track_preset_offsets(self):
        cfg = load_preset("track-experiment")
        assert cfg.offsets == (0.0, 0.3, 0.6)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            load_preset("warehouse")

    def test_load_from_path(self, tmp_path):
        p = tmp_path / "mini.cfg"
        p.write_text(MINIMAL)
        cfg = load_scenario_file(str(p))
        assert cfg.n_tones == 64


class TestBuilders:
    def test_grid_and_room(self):
        cfg = parse_scenario(MINIMAL)
        grid = build_grid(cfg)
        assert grid.num_tones == 64 and grid.center == 10e9
        room = build_room(cfg)
        assert len(room.walls) == 4
        assert all(w.reflective for w in room.walls)
        room = build_room(load_preset("room-20x10"))
        assert [w.reflective for w in room.walls] == [False, True, True, True]

    def test_tx_array_layouts(self):
        cfg = parse_scenario(MINIMAL)
        tri = build_tx_array(cfg)
        assert tri.shape == (3, 2)
        assert np.allclose(tri.mean(axis=0), cfg.tx_position, atol=1e-12)
        d01 = np.linalg.norm(tri[0] - tri[1])
        d12 = np.linalg.norm(tri[1] - tri[2])
        assert np.isclose(d01, cfg.tx_spacing) and np.isclose(d12, d01)

        cfg.tx_layout = "pair"
        pair = build_tx_array(cfg)
        assert pair.shape == (2, 2)
        assert np.isclose(np.linalg.norm(pair[1] - pair[0]), cfg.tx_spacing)

        cfg.tx_layout = "single"
        assert build_tx_array(cfg).shape == (1, 2)

    def test_build_plan_shape(self):
        cfg = load_preset("room-20x10")
        plan = build_plan(cfg)
        assert plan.n_placements == 9
        assert plan.n_rx == 2 and plan.n_tx == 3
        assert np.allclose(plan.rx_positions[:, :, 1], 1.0)

    def test_true_paths_of_room_preset(self):
        cfg = load_preset("room-20x10")
        paths = true_paths(cfg)
        assert len(paths) == 4
        assert sorted(p.parity for p in paths) == [-1, -1, -1, 1]
        los = min(paths, key=lambda p: p.tau)
        assert los.parity == 1
        d = np.linalg.norm(np.asarray([12.0, 7.5]) - build_plan(cfg).rx_ref)
        assert np.isclose(los.tau * 299792458.0, d, atol=1e-9)

    def test_true_paths_of_campaign_room_pinned(self):
        cfg = parse_scenario(CAMPAIGN)
        plan = build_plan(cfg)
        paths = true_paths(cfg, plan)
        images = feasible_images(build_room(cfg), cfg.tx_position,
                                 plan.rx_ref, cfg.max_order, cfg.bounce_loss)
        assert len(paths) == 52
        assert [p.wall_sequence for p in images] == CAMPAIGN_SEQUENCES
        rows = np.array([[p.gain.real, p.gain.imag, p.tau, p.aoa, p.aod,
                          p.parity] for p in paths])
        assert hashlib.sha256(rows.tobytes()).hexdigest() == CAMPAIGN_PARAMS_SHA256
