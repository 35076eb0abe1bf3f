"""2-D near-field multipath channel toolkit.

Synthesizes indoor MIMO channels from room geometry via mirrored
transmitter images and recovers per-path parameters (gain, delay,
arrival/departure bearings, absolute time of flight, reflection
parity) from non-coherent synthetic-aperture measurements.
"""

from .errors import (
    NfchanError,
    InvalidGeometry,
    SingularGeometry,
    EmptyChannel,
    DegenerateTriangulation,
    InconsistentAnchor,
    DatasetFormatError,
    ScenarioError,
)
from .geometry import (
    ImagePath,
    OrthoMap2,
    Room,
    Wall,
    enumerate_images,
    feasible_images,
    point_in_polygon,
    reflect_point,
    unfolded_polyline,
    validate_path,
    wrap_angle,
)
from .channel import (
    SPEED_OF_LIGHT,
    FrequencyGrid,
    RmPathParams,
    PwaPathParams,
    alpha_from_bearings,
    aod_from_aoa,
    image_to_rm_params,
    path_distance_rm,
    path_distance_tx_form,
    path_distance_pwa,
    path_lengths,
    rayleigh_distance,
    rm_from_alpha,
    synth_channel,
    tone_phasors,
)
from .aperture import (
    MeasurementPlan,
    MeasurementSet,
    Pdp,
    compute_pdp,
    mean_pdp,
    plan_linear_track,
    simulate_campaign,
)
from .estimation import (
    Bearing,
    DictionaryGrid,
    ExtractionResult,
    Heatmap,
    ParityDecision,
    PdpPeaks,
    TriangulationResult,
    assemble_rm,
    detect_paths_pdp,
    estimate_parity,
    fft_delay_bins,
    image_from_polar,
    localization_heatmap,
    omp_extract,
    recover_abs_delays,
    refine_extraction,
    response_atom,
    rm_response_atom,
    triangulate,
)
from .scenario import (
    ScenarioConfig,
    available_presets,
    build_grid,
    build_plan,
    build_room,
    build_tx_array,
    format_scenario,
    load_preset,
    load_scenario_file,
    parse_scenario,
    true_paths,
)
from .pipeline import (
    RunReport,
    extract_paths,
    run_estimate,
    run_evaluate,
    run_heatmap,
    run_synth,
    subset_bearings,
    sweep_runs,
    sweep_values,
)
from .dataio import (
    emit_heatmap_grid,
    emit_pdp_csv,
    emit_report,
    emit_sweep_csv,
    read_dataset,
    read_heatmap_grid,
    write_dataset,
)
from .estimators import NotFittedError, PathExtractor, ReflectionModelEstimator

__version__ = "0.1.0"
