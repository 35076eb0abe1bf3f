"""Estimator-style wrappers over the recovery pipeline.

Both classes follow the scikit-learn protocol: ``__init__`` stores its
keyword arguments verbatim, ``get_params``/``set_params`` expose them
for cloning and grid search, ``fit`` learns from a measurement set and
stores results in trailing-underscore attributes, and ``predict``
reconstructs channel responses from the fitted path model.  No
scikit-learn import is required; the protocol is duck-typed and
``sklearn.base.clone`` works on these objects as-is.
"""

from dataclasses import fields, replace

import numpy as np

from .aperture import MeasurementSet, simulate_campaign
from .errors import NfchanError
from .estimation import model_sum, per_placement_lsq, response_atom
from .pipeline import (_ldexp, _unit_exponent, _unit_scale, extract_paths,
                       run_estimate)
from .scenario import ScenarioConfig

_SCENARIO_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


class NotFittedError(NfchanError, AttributeError):
    kind = "not-fitted"


def _captured_fraction(X, atoms):
    """Fraction of X's energy (0..1) that ``atoms`` (L, K, M, N, F)
    capture under joint per-placement least-squares gains, scale-free:
    both are first brought to unit scale by exact powers of two."""
    X, _ = _unit_scale(X)
    total = X.energy()
    if total == 0.0:
        return 0.0
    _, residual = per_placement_lsq(_ldexp(atoms, -_unit_exponent(atoms)),
                                    X.responses)
    return 1.0 - float(np.sum(np.abs(residual) ** 2)) / total


class _BaseEstimator:
    """get_params/set_params over the ``ScenarioConfig`` fields named in
    ``_fields`` (defaults taken from ``ScenarioConfig``) plus the extra
    parameters in ``_extra``."""

    _fields = ()
    _extra = {}

    def __init__(self, **params):
        unknown = sorted(set(params) - set(self._param_names()))
        if unknown:
            raise TypeError(f"{type(self).__name__}() got an unexpected "
                            f"keyword argument {unknown[0]!r}")
        defaults = {name: _SCENARIO_DEFAULTS[name] for name in self._fields}
        for name, default in {**defaults, **self._extra}.items():
            setattr(self, name, params.get(name, default))

    @classmethod
    def _param_names(cls):
        return [*cls._fields, *cls._extra]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def _config(self):
        return replace(ScenarioConfig(),
                       **{name: getattr(self, name) for name in self._fields})

    def _check_fitted(self, attr):
        if not hasattr(self, attr):
            raise NotFittedError(
                f"{type(self).__name__} is not fitted; call fit first")

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class PathExtractor(_BaseEstimator):
    """Sparse multipath extraction as a fit/predict estimator.

    ``fit`` runs the polished sweep and ``refine_passes`` refinement passes
    on a measurement set; fitted paths live in ``paths_``.  ``predict``
    rebuilds the model response tensor for a measurement set with the
    fitted (aoa, aod, delay) triples, refitting the per-placement gains,
    so it works on phase-rotated or re-noised recordings of the same
    campaign geometry.  ``score`` is the captured energy fraction.

    Parameters mirror the estimation section of a scenario file; the
    sweep always covers the full circle.  ``room`` (a
    :class:`~nfchan.geometry.Room`) enables the mirror-ambiguity fold
    for collinear tracks.
    """

    _fields = ("l_max", "stop_fraction", "refine_passes")
    _extra = {"room": None}

    def fit(self, X: MeasurementSet, y=None):
        result, timing = extract_paths(X, self._config(), room=self.room)
        self.extraction_ = result
        self.paths_ = result.paths
        self.n_paths_ = len(result.paths)
        self.residual_fraction_ = result.residual_fraction()
        self.timing_ = timing
        return self

    def _atoms(self, X):
        origin = self.extraction_.delay_origin
        return np.stack([
            response_atom(X.plan, X.grid, p.aoa, p.aod, p.delta + origin)
            for p in self.paths_])

    def predict(self, X: MeasurementSet):
        """Model response tensor for X's plan/grid, gains refit to X."""
        self._check_fitted("extraction_")
        atoms = self._atoms(X)
        return model_sum(atoms, per_placement_lsq(atoms, X.responses)[0])

    def score(self, X: MeasurementSet, y=None):
        """Fraction of X's energy captured by the fitted paths (0..1)."""
        self._check_fitted("extraction_")
        return _captured_fraction(X, self._atoms(X))


class ReflectionModelEstimator(_BaseEstimator):
    """Full geometry-referenced recovery as a fit/predict estimator.

    ``fit`` runs extraction, subset triangulation, absolute-delay
    anchoring and parity estimation; ``y`` may carry the true path list
    to populate the error table.  ``predict`` synthesizes noiseless
    coherent responses from the fitted mirrored-source paths for any
    measurement set's plan/grid, which transfers across apertures since
    the fitted parameters are absolute.  ``room_vertices`` serves only
    the mirror-ambiguity fold of a collinear track, which reads the
    room's vertex centroid.  ``fit`` takes one bearing per receive-array centroid
    (:func:`~nfchan.pipeline.subset_groups`), so it fits a dataset read
    from disk as it fits the set that was written.
    """

    _fields = ("room_vertices", "l_max", "stop_fraction", "refine_passes",
               "parity")

    def fit(self, X: MeasurementSet, y=None):
        report = run_estimate(X, self._config(), truth=y)
        self.report_ = report
        self.paths_ = report.paths
        self.n_paths_ = len(report.paths)
        self.residual_fraction_ = report.residual_fraction()
        self.anchor_index_ = report.anchor_index
        self.taus_ = report.taus
        self.image_points_ = report.image_points
        self.parities_ = report.parities
        self.rm_paths_ = report.rm_paths
        self.errors_ = report.errors
        return self

    def predict(self, X: MeasurementSet):
        """Noiseless coherent responses of the fitted paths on X's layout."""
        self._check_fitted("report_")
        if self.rm_paths_ is None:
            raise NotFittedError(
                "fit produced no absolute path model (no anchor or parity "
                "disabled); predict unavailable")
        synth = simulate_campaign(self.rm_paths_, X.plan, X.grid,
                                  snr_db=None, coherent=True, model="rm")
        return synth.responses

    def score(self, X: MeasurementSet, y=None):
        """Captured energy fraction after per-placement phase/gain
        alignment (the capture phases are not part of the model)."""
        return _captured_fraction(X, self.predict(X)[None])
