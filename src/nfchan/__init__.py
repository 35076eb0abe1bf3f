"""2-D near-field multipath channel toolkit.

Synthesizes indoor MIMO channels from room geometry via mirrored
transmitter images and recovers per-path parameters (gain, delay,
arrival/departure bearings, absolute time of flight, reflection
parity) from non-coherent synthetic-aperture measurements.

The package namespace holds the front end and the error types; every
other name is imported from its module (``nfchan.estimation.omp_extract``).
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
from .scenario import (
    ScenarioConfig,
    available_presets,
    load_preset,
    load_scenario_file,
    parse_scenario,
)
from .pipeline import (
    RunReport,
    run_estimate,
    run_evaluate,
    run_heatmap,
    run_synth,
    sweep_runs,
)
from .dataio import (
    emit_report,
    read_dataset,
    read_heatmap_grid,
    write_dataset,
)

__version__ = "0.1.0"
