"""End-to-end runs: simulate a scenario, recover paths, localize, report.

The estimation side chains the lower-level stages:

1. delay support from the averaged power delay profile;
2. one matching-pursuit sweep for (aoa, aod, delta) with per-placement
   gains over a 3-degree arrival and 6-degree departure comb, polished
   off-grid as it goes and ended at the noise floor, then a final
   1-degree refinement;
3. one bearing per path per placement group, the placements that share
   an array centroid (:func:`subset_groups`), from a polish of the
   global paths on the group's data (no second sweep),
   then weighted triangulation of every path's mirrored source;
4. the strongest triangulated path anchors the absolute time scale,
   restoring times of flight and image points for all paths;
5. a curvature test per path decides reflection parity, completing the
   mirrored-source parameters.

A linear track cannot tell an arrival from its mirror across the track
line, so when every element is collinear the sweep and the subset
bearings keep only bearings on the side of the track that faces the room
interior.  Arrivals from
sources mirrored to the far side are physically indistinguishable with
such an aperture.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .aperture import CENTROID_ATOL_M, mean_pdp, simulate_campaign
from .channel import SPEED_OF_LIGHT, unit_vector, wrap_angle
from .errors import (
    DegenerateTriangulation,
    EmptyChannel,
    InconsistentAnchor,
    InvalidGeometry,
    ScenarioError,
)
from .estimation import (
    Bearing,
    DictionaryGrid,
    _cyclic_polish,
    assemble_rm,
    detect_paths_pdp,
    estimate_parity,
    image_from_polar,
    localization_heatmap,
    omp_extract,
    per_placement_lsq,
    recover_abs_delays,
    refine_extraction,
    response_atom,
    triangulate,
)
from .scenario import (ScenarioConfig, build_grid, build_plan, build_room,
                       parse_values, true_paths, with_value)

COARSE_AOA_STEP_DEG = 3.0
COARSE_AOD_STEP_DEG = 6.0
FINE_STEP_DEG = 1.0
SUBSET_WINDOW_DEG = 2.0
SUBSET_PAD_HALFBINS = 3
# The sweep scores delays within this many bins of a delay-profile peak.
DELAY_PAD_BINS = 4
# One pass left room-20x10's noiseless LOS error at 0.059 m and two
# passes moved quick and track-experiment away from the truth; three
# settle every preset.
SUBSET_POLISH_PASSES = 3
# Edge of a localization heatmap cell, in meters.
HEATMAP_CELL_M = 0.25


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def collinear_axis(points):
    """Unit direction of a degenerate (collinear) point cloud, else None."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] < 2:
        return np.array([1.0, 0.0])
    centered = pts - pts.mean(axis=0)
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    if sv[0] == 0.0:
        return np.array([1.0, 0.0])
    if sv.size > 1 and sv[1] > 1e-9 * sv[0]:
        return None
    return vt[0]


def _angle_comb(step_deg):
    """Uniform grid over (-180, 180] degrees, returned in radians."""
    n = int(round(360.0 / step_deg))
    return np.deg2rad(-180.0 + step_deg * np.arange(1, n + 1))


def _facing(angles, axis, side):
    """Mask of the angles that point to the chosen side of a collinear
    track; all True when the aperture is not collinear."""
    if axis is None or side == 0.0:
        return np.ones(angles.shape, dtype=bool)
    s = (axis[0] * np.sin(angles) - axis[1] * np.cos(angles)) * side
    return s >= -1e-12


def _fold(angles, axis, side):
    """Drop angles pointing away from the chosen side of the track."""
    kept = angles[_facing(angles, axis, side)]
    return kept if kept.size else angles


def _fold_setup(plan, room):
    """(axis, side) for collinear apertures, (None, 0) otherwise."""
    axis = collinear_axis(plan.rx_positions.reshape(-1, 2))
    if axis is None or room is None:
        return None, 0.0
    side = np.sign(_cross2(axis, room.interior - plan.rx_ref))
    return axis, float(side)


def _unfold(result, axis, side):
    """Reflect, in place, every path arrival angle that points away from
    the chosen side of a collinear track to its mirror about the track
    axis, ``2 phi - aoa``.  The two give the same atom, so gains and
    residual hold; the polish can slide a pick across the fold, and only
    the interior-facing one of the pair can yield bearings."""
    aoas = np.array([p.aoa for p in result.paths])
    away = np.flatnonzero(~_facing(aoas, axis, side))
    if away.size:
        phi = math.atan2(axis[1], axis[0])
        for j in away:
            result.paths[j].aoa = float(wrap_angle(2.0 * phi - aoas[j]))


def _pdp_delay_support(mset):
    pdp = mean_pdp(mset, window="hann")
    peaks = detect_paths_pdp(pdp)
    if peaks.bins.size == 0:
        raise EmptyChannel("no delay peaks above the detection threshold")
    pad = 2 * DELAY_PAD_BINS
    qs = set()
    for b in peaks.bins:
        qs.update(range(2 * int(b) - pad, 2 * int(b) + pad + 1))
    qs = sorted(q for q in qs if 0 <= q < 2 * mset.grid.num_tones)
    if not qs:
        raise InvalidGeometry("delay window fell outside the tone comb span")
    return np.array(qs, dtype=float) / (2.0 * mset.grid.bandwidth)


def _ldexp(z, e):
    """Complex ``z * 2**e``; exact while the result stays a normal number."""
    a = np.ascontiguousarray(z, dtype=complex)
    return np.ldexp(a.view(float), e).view(complex).reshape(np.shape(z))


def _unit_exponent(z):
    """The ``e`` that puts max |z| * 2**-e in [0.5, 1); 0 for all zeros."""
    return math.frexp(float(np.max(np.abs(z), initial=0.0)))[1]


def _unit_scale(mset):
    """(``mset`` scaled by ``2**-e`` so that max |y| lies in [0.5, 1), e).

    A power-of-two scale is exact and needs no squaring, so the stages
    see the same bits whatever the input scale, and squared magnitudes
    neither underflow nor overflow.  :func:`_to_input_units` scales the
    gains back.
    """
    e = _unit_exponent(mset.responses)
    if e == 0:  # already at unit scale: spare the copy
        return mset, 0
    return replace(mset, responses=_ldexp(mset.responses, -e)), e


def _to_input_units(result, e):
    """Scale ``result``'s gains by ``2**e``, in place, and record ``e``
    with its energies, which stay at the scale they were computed at so
    that the residual fraction is exact whatever the input scale."""
    for p in result.paths:
        p.gains = _ldexp(p.gains, e)
    result.energy_exponent += e


def extract_paths(mset, cfg, room=None):
    """Stages 1-2: delay support, sweep, polish, final refinement.

    The sweep covers the full circle in :data:`COARSE_AOA_STEP_DEG`
    (arrival) and :data:`COARSE_AOD_STEP_DEG` (departure) steps.  On a
    collinear track inside ``room`` it keeps only the arrival angles
    that face the room (:func:`_fold_setup`), and a path whose arrival
    angle ended up facing away is reflected to its mirror
    (:func:`_unfold`).  The sweep polishes every pick off the grid, so
    no finer grid follows; the refinement then polishes all paths
    jointly within one degree.  The stages run on responses scaled by a
    power of two (:func:`_unit_scale`); gains come back in input units,
    energies at that scale with its exponent
    (:meth:`ExtractionResult.input_energy` converts them).  Returns
    (result, timing).
    """
    mset, e = _unit_scale(mset)
    axis, side = _fold_setup(mset.plan, room)
    delays = _pdp_delay_support(mset)
    aoas = _fold(_angle_comb(COARSE_AOA_STEP_DEG), axis, side)
    aods = _angle_comb(COARSE_AOD_STEP_DEG)
    t0 = time.perf_counter()
    result = omp_extract(mset, DictionaryGrid(aoas=aoas, aods=aods,
                                              delays=delays),
                         l_max=cfg.l_max, stop_fraction=cfg.stop_fraction,
                         polish_passes=1)
    timing = {"sweep": time.perf_counter() - t0}
    if cfg.refine_passes and result.paths:
        t0 = time.perf_counter()
        result = refine_extraction(mset, result,
                                   aoa_step=np.deg2rad(FINE_STEP_DEG),
                                   aod_step=np.deg2rad(FINE_STEP_DEG),
                                   passes=cfg.refine_passes)
        timing["refine"] = time.perf_counter() - t0
    _unfold(result, axis, side)
    _to_input_units(result, e)
    return result, timing


def subset_groups(plan):
    """Placement index groups feeding one bearing each: one group per
    receive-array centroid, ordered by centroid x then y, all of the
    same size.

    Two placements share a group when their centroids agree within
    :data:`~nfchan.aperture.CENTROID_ATOL_M` in both coordinates.
    :func:`~nfchan.aperture.plan_linear_track` centers each placement's
    array on its track offset, so its groups are its offsets, in
    increasing order.
    """
    cents = plan.rx_positions.mean(axis=1)
    heads = []  # each group's first placement
    label = np.empty(len(cents), dtype=int)
    for k, c in enumerate(cents):
        near = np.flatnonzero(np.all(np.abs(cents[heads] - c)
                                     <= CENTROID_ATOL_M, axis=1))
        if near.size == 0:
            heads.append(k)
        label[k] = near[0] if near.size else len(heads) - 1
    order = np.lexsort((cents[heads, 1], cents[heads, 0]))
    groups = [np.flatnonzero(label == g) for g in order]
    if any(g.size != groups[0].size for g in groups):
        listed = ", ".join(
            f"({cents[heads[g], 0]:g}, {cents[heads[g], 1]:g}): {idx.size}"
            for g, idx in zip(order, groups))
        raise InvalidGeometry(
            f"array centroids need equal placement counts, got {listed}")
    return groups


def subset_bearings(mset, result, room=None):
    """Stage 3: one bearing per global path per placement subset.

    Each subset polishes the global paths on its own data instead of
    sweeping again.  Path j's seed is its predicted subset view: the
    delay shifts by the track-motion projection onto the arrival
    direction, and the bearing re-aims at the implied source point seen
    from the subset centroid.  :data:`SUBSET_POLISH_PASSES` cyclic
    passes then move each coordinate within +-:data:`SUBSET_WINDOW_DEG`
    degrees or +-:data:`SUBSET_PAD_HALFBINS` half-bins per pass, so
    polished path j is path j and no matching is needed.  All subsets
    polish in one lockstep call of
    :func:`~nfchan.estimation._cyclic_polish`, one problem per placement
    group (:func:`subset_groups`), each about its own centroid, on one
    gather of the subsets' responses.  On a collinear track inside
    ``room`` a bearing that turns away from the room interior is
    dropped, as the sweep's fold would drop it.  Returns one list of
    bearings per global path.
    """
    plan, grid = mset.plan, mset.grid
    axis, side = _fold_setup(plan, room)
    steps = (np.deg2rad(SUBSET_WINDOW_DEG), np.deg2rad(SUBSET_WINDOW_DEG),
             SUBSET_PAD_HALFBINS / (2.0 * grid.bandwidth))
    paths = result.paths
    bearings = [[] for _ in paths]
    if not paths:
        return bearings
    groups = subset_groups(plan)
    subs = [plan.subset(idx) for idx in groups]
    seeds = []
    for sub in subs:
        shift = sub.rx_ref - plan.rx_ref
        seeds.append([])
        for p in paths:
            draw = p.delta + result.delay_origin
            dsub = draw - float(unit_vector(p.aoa) @ shift) / SPEED_OF_LIGHT
            v = image_from_polar(plan.rx_ref, p.aoa, draw) - sub.rx_ref
            seeds[-1].append([math.atan2(v[1], v[0]), p.aod, dsub])
    params, gains, _ = _cyclic_polish(subs, grid, seeds,
                                      mset.responses[np.concatenate(groups)],
                                      steps, SUBSET_POLISH_PASSES)
    for sub, sub_params, sub_gains in zip(subs, params, gains):
        aoas = np.array([aoa for aoa, _, _ in sub_params])
        for j in np.flatnonzero(_facing(aoas, axis, side)):
            strength = float(np.sum(np.abs(sub_gains[j]) ** 2))
            bearings[j].append(Bearing(position=sub.rx_ref, angle=aoas[j],
                                       weight=max(strength, 1e-30)))
    return bearings


def localize_paths(plan, result, bearings):
    """Stage 4: triangulate per path, anchor on the strongest clean one.

    A path's triangulation is None when it has fewer than two bearings
    or they do not intersect (:func:`~nfchan.estimation.triangulate`).
    Candidate anchors whose implied absolute delays turn nonpositive
    for some other path are skipped in favour of the next strongest.
    Returns (anchor_index, taus, image_points, triangulations); the
    first three are None when no path both triangulates in front of
    its bearings and anchors consistently, in which case the absolute
    time scale stays unknown.
    """
    tris = []
    for blist in bearings:
        try:
            tris.append(triangulate(blist))
        except DegenerateTriangulation:
            tris.append(None)
    for j, tri in enumerate(tris):  # paths are sorted strongest first
        if tri is None or tri.behind.any():
            continue
        tau_anchor = float(np.linalg.norm(tri.point - plan.rx_ref)
                           / SPEED_OF_LIGHT)
        try:
            taus = recover_abs_delays(tau_anchor, result.paths[j].delta,
                                      [p.delta for p in result.paths])
        except InconsistentAnchor:
            continue
        images = np.array([image_from_polar(plan.rx_ref, p.aoa, t)
                           for p, t in zip(result.paths, taus)])
        return j, np.asarray(taus, dtype=float), images, tris
    return None, None, None, tris


def parity_decisions(mset, result, taus):
    """Stage 5: reflection parity per path against its peeled residual,
    the residual of the joint fit of all paths plus the path's own fitted
    model."""
    atoms = np.stack([response_atom(mset.plan, mset.grid, p.aoa, p.aod,
                                    p.delta + result.delay_origin)
                      for p in result.paths])
    gains, residual = per_placement_lsq(atoms, mset.responses)
    return [estimate_parity(mset, p, taus[j], residual=residual
                            + atoms[j] * gains[j][:, None, None, None])
            for j, p in enumerate(result.paths)]


@dataclass(eq=False)
class RunReport:
    """Everything one estimation run produced, with errors when the
    ground truth is known.  ``matches`` maps estimated path index to
    true path index (or None); error arrays align with ``paths`` and
    hold inf where the quantity could not be formed.
    """

    extraction: object
    bearings: list
    triangulations: list
    anchor_index: object = None
    taus: object = None
    image_points: object = None
    parities: object = None
    parity_ambiguous: object = None
    rm_paths: object = None
    truth: object = None
    matches: object = None
    errors: object = None
    timing: dict = field(default_factory=dict)

    @property
    def paths(self):
        return self.extraction.paths

    def residual_fraction(self):
        return self.extraction.residual_fraction()

    def truth_image_error(self, true_index):
        """Image-point error (m) of the estimate matched to one true path."""
        if self.errors is None:
            raise InvalidGeometry("report carries no ground truth")
        for est, ti in enumerate(self.matches):
            if ti == true_index:
                return float(self.errors["image_m"][est])
        return float("inf")

    def los_image_error(self):
        """Localization error (m) for the direct path, inf if unmatched."""
        if self.truth is None:
            raise InvalidGeometry("report carries no ground truth")
        los = min(range(len(self.truth)), key=lambda i: self.truth[i].tau)
        return self.truth_image_error(los)


def _wrapped_deg(a, b):
    return math.degrees(abs(math.remainder(a - b, 2 * math.pi)))


def _assign(cost):
    """Minimum-cost assignment of rows to columns of a finite (n, m)
    cost: (rows, cols), min(n, m) pairs with rows ascending.

    Rectangular shortest augmenting paths (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016), the method of
    ``scipy.optimize.linear_sum_assignment``, with its column order and
    tie rule: one Dijkstra search over reduced costs per row, O(n^2 m)
    for n <= m.  A tall cost is solved transposed.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.all(np.isfinite(cost)):
        raise InvalidGeometry("assignment costs must be finite")
    tall = cost.shape[0] > cost.shape[1]
    c = cost.T if tall else cost
    n, m = c.shape
    u, v = np.zeros(n), np.zeros(m)  # dual potentials
    col4row, row4col, path = np.full(n, -1), np.full(m, -1), np.full(m, -1)
    for cur in range(n):
        spc = np.full(m, np.inf)  # shortest path cost to each column
        rem = np.arange(m)[::-1]  # columns not yet reached
        seen_r, seen_c = np.zeros(n, dtype=bool), np.zeros(m, dtype=bool)
        low, i, sink = 0.0, cur, -1
        while sink < 0:
            seen_r[i] = True
            r = low + c[i, rem] - u[i] - v[rem]
            shorter = r < spc[rem]
            path[rem[shorter]] = i
            s = spc[rem] = np.where(shorter, r, spc[rem])
            low = s.min()
            # the first cheapest column, or the last cheapest free one
            ties = np.flatnonzero(s == low)
            free = ties[row4col[rem[ties]] < 0]
            k = free[-1] if free.size else ties[0]
            j = rem[k]
            seen_c[j] = True
            rem[k] = rem[-1]
            rem = rem[:-1]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        seen_r[cur] = False  # the other rows the search went through
        u[cur] += low
        u[seen_r] += low - spc[col4row[seen_r]]
        v[seen_c] -= low - spc[seen_c]
        j = sink
        while True:  # flip the path's edges
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if tall:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(n), col4row


def _match_truth(result, taus, truth):
    """One-to-one assignment of estimates to true paths on (aoa, delay)."""
    if not result.paths or not truth:
        return [None] * len(result.paths)
    cost = np.zeros((len(result.paths), len(truth)))
    for i, p in enumerate(result.paths):
        draw = (taus[i] if taus is not None
                else p.delta + result.delay_origin)
        for j, tp in enumerate(truth):
            cost[i, j] = (_wrapped_deg(p.aoa, tp.aoa) ** 2
                          + ((draw - tp.tau) * SPEED_OF_LIGHT) ** 2)
    rows, cols = _assign(cost)
    matches = [None] * len(result.paths)
    for r, c in zip(rows, cols):
        if cost[r, c] <= 10.0 ** 2 + 3.0 ** 2:
            matches[r] = int(c)
    return matches


def _error_table(report, plan):
    result = report.extraction
    truth = report.truth
    n = len(result.paths)
    inf = float("inf")
    errors = {
        "delay_ns": np.full(n, inf),
        "aoa_deg": np.full(n, inf),
        "aod_deg": np.full(n, inf),
        "image_m": np.full(n, inf),
        "parity_ok": np.full(n, False, dtype=bool),
    }
    true_images = [tp.image_point(plan.rx_ref) for tp in truth]
    for i, p in enumerate(result.paths):
        j = report.matches[i]
        if j is None:
            continue
        tp = truth[j]
        errors["aoa_deg"][i] = _wrapped_deg(p.aoa, tp.aoa)
        errors["aod_deg"][i] = _wrapped_deg(p.aod, tp.aod)
        if report.taus is not None:
            errors["delay_ns"][i] = abs(report.taus[i] - tp.tau) * 1e9
            errors["image_m"][i] = float(np.linalg.norm(
                report.image_points[i] - true_images[j]))
        if report.parities is not None:
            errors["parity_ok"][i] = (report.parities[i] == tp.parity)
    return errors


def run_synth(cfg: ScenarioConfig):
    """Simulate the scenario; returns (measurement set, true paths)."""
    plan = build_plan(cfg)
    grid = build_grid(cfg)
    truth = true_paths(cfg, plan)
    mset = simulate_campaign(truth, plan, grid, snr_db=cfg.snr_db,
                             coherent=cfg.coherent, seed=cfg.seed)
    return mset, truth


def run_estimate(mset, cfg: ScenarioConfig, truth=None) -> RunReport:
    """Full recovery pipeline on an existing measurement set.

    Every stage runs on responses scaled by a power of two
    (:func:`_unit_scale`); the report's gains are in input units, its
    energies at that scale with its exponent.
    """
    t_all = time.perf_counter()
    subset_groups(mset.plan)  # a plan that cannot give bearings fails here
    mset, e = _unit_scale(mset)
    room = build_room(cfg) if cfg.room_vertices is not None else None
    result, timing = extract_paths(mset, cfg, room=room)

    t1 = time.perf_counter()
    bearings = subset_bearings(mset, result, room)
    timing["subsets"] = time.perf_counter() - t1

    t1 = time.perf_counter()
    anchor, taus, images, tris = localize_paths(mset.plan, result, bearings)
    timing["triangulate"] = time.perf_counter() - t1

    parities = ambiguous = rm_paths = None
    if cfg.parity and anchor is not None:
        t1 = time.perf_counter()
        decisions = parity_decisions(mset, result, taus)
        parities = [d.parity for d in decisions]
        ambiguous = [d.ambiguous for d in decisions]
        rm_paths = assemble_rm(result, float(taus[anchor]), anchor, parities)
        for p in rm_paths:
            p.gain = complex(_ldexp(p.gain, e))
        timing["parity"] = time.perf_counter() - t1

    _to_input_units(result, e)
    report = RunReport(extraction=result, bearings=bearings,
                       triangulations=tris, anchor_index=anchor, taus=taus,
                       image_points=images, parities=parities,
                       parity_ambiguous=ambiguous, rm_paths=rm_paths,
                       timing=timing)
    if truth is not None:
        report.truth = list(truth)
        report.matches = _match_truth(result, taus, report.truth)
        report.errors = _error_table(report, mset.plan)
    timing["total"] = time.perf_counter() - t_all
    return report


def run_evaluate(cfg: ScenarioConfig) -> RunReport:
    """Synthesize and estimate in memory; report carries truth errors.

    Timing covers the estimation stages only, so reported runtimes stay
    comparable between synthetic and recorded datasets.
    """
    mset, truth = run_synth(cfg)
    return run_estimate(mset, cfg, truth=truth)


def run_heatmap(cfg: ScenarioConfig, report=None):
    """Localization heatmap for the anchor path's bearings over the
    room's bounding box, in :data:`HEATMAP_CELL_M` cells at the
    library's :data:`~nfchan.estimation.HEATMAP_CONCENTRATION`; the
    region comes from ``cfg``'s room, so a ``cfg`` without one fails
    before ``report`` is evaluated."""
    if cfg.room_vertices is None:
        raise InvalidGeometry("heatmap needs the scenario's room "
                              "vertices to bound its region")
    verts = np.asarray(cfg.room_vertices, dtype=float)
    (xmin, ymin), (xmax, ymax) = verts.min(axis=0), verts.max(axis=0)
    if report is None:
        report = run_evaluate(cfg)
    anchor = report.anchor_index
    if anchor is None:
        raise DegenerateTriangulation(
            "no path triangulated; nothing to map")
    hm = localization_heatmap(report.bearings[anchor],
                              region=(xmin, xmax, ymin, ymax),
                              cell=HEATMAP_CELL_M)
    return report, hm


# The names ``--vary`` takes, each with the scenario key it sets; the
# scenario key spellings work too.
_SWEEP_FIELDS = {"snr": "snr_db", "seed": "seed", "bandwidth": "bandwidth_hz",
                 "n_tones": "n_tones", "l_max": "l_max",
                 "stop_fraction": "stop_fraction", "max_order": "max_order"}


def sweep_values(spec):
    """Expand "name=start:step:stop" (or a comma list) into values, each
    checked by the varied key's scenario row."""
    if "=" not in spec:
        raise InvalidGeometry("expected vary spec like snr=0:5:40")
    name, _, rng = spec.partition("=")
    name = {k: n for n, k in _SWEEP_FIELDS.items()}.get(name.strip(),
                                                         name.strip())
    if name not in _SWEEP_FIELDS:
        known = ", ".join(sorted(_SWEEP_FIELDS))
        raise InvalidGeometry(f"cannot vary {name!r}; known: {known}")
    try:
        return name, parse_values(_SWEEP_FIELDS[name], rng.strip())
    except ScenarioError as err:
        raise InvalidGeometry(str(err)) from None


def sweep_runs(cfg: ScenarioConfig, name, values):
    """Evaluate the scenario once per value; one summary row each.

    Every job reseeds deterministically from the master seed and its
    position in the ladder, so reruns reproduce byte-identical output
    while jobs stay statistically independent.
    """
    key = _SWEEP_FIELDS[name]
    jobs = [with_value(cfg, key, v) for v in values]
    rows = []
    for i, (v, job) in enumerate(zip(values, jobs)):
        seed = int(np.random.SeedSequence([int(cfg.seed), i])
                   .generate_state(1, np.uint64)[0])
        if key != "seed":
            job = replace(job, seed=seed)
        t0 = time.perf_counter()
        report = run_evaluate(job)
        elapsed = time.perf_counter() - t0
        err = report.los_image_error()
        finite = [e for e in report.errors["image_m"] if math.isfinite(e)]
        rows.append({
            "value": v,
            "n_paths": len(report.paths),
            "residual_fraction": report.residual_fraction(),
            "los_error_m": err,
            "mean_image_error_m": (float(np.mean(finite)) if finite
                                   else float("inf")),
            "runtime_s": elapsed,
        })
    return rows
