"""Configuration tree for the simulator, with YAML loading and validation.

Every module's parameters live in one frozen dataclass tree whose defaults
are the calibrated working point of the simulated experiment (interference
contrast 0.90, mean readout fidelities 0.971/0.963, tilt 0.026 pi, herald
probability 6.4e-9 per attempt, 1280 m site separation, the 480/3700 ns timing
budget). ``configs/default.yaml`` in the repository mirrors these
defaults with commentary. Unknown keys in a config file are rejected with
their full path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass
from functools import lru_cache

import yaml

from .heralding import HeraldResult, InterferenceModel, SpinPhotonErrorModel, event_ready_state
from .randomness import RngModel
from .readout import ReadoutBasisSet, ReadoutModel, calibrate_readout
from .spacetime import SPEED_OF_LIGHT_M_PER_S, Geometry, TimingBudget


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


def _check(section, rule: str, ok, *names: str) -> None:
    """Raise ConfigError for the first named field whose value fails ``ok``."""
    for name in names:
        value = getattr(section, name)
        if not ok(value):
            raise ConfigError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class ReadoutConfig:
    """Calibration anchors for one node's readout rate model."""

    mean_fidelity: float
    duration_us: float = 3.7
    dark_fidelity: float = 0.995
    flip_rate_per_us: float = 0.02


@dataclass(frozen=True)
class BasisConfig:
    """Readout angles via the symmetric tilt parametrisation (units of pi)."""

    epsilon_pi: float = 0.026


@dataclass(frozen=True)
class LinkConfig:
    """Per-arm photon budget and the attempt clock.

    ``herald_probability`` overrides the composed budget when set.
    """

    collection_efficiency: float = 3.83e-3
    fibre_km_per_arm: float = 0.85
    loss_db_per_km: float = 8.0
    detector_efficiency: float = 0.2
    refractive_index: float = 1.47
    attempt_period_ns: float = 20_000.0
    herald_probability: float | None = None

    def __post_init__(self):
        _check(self, "in [0, 1]", lambda v: 0 <= v <= 1,
               "collection_efficiency", "detector_efficiency")
        _check(self, ">= 0", lambda v: v >= 0, "fibre_km_per_arm", "loss_db_per_km")
        _check(self, "> 0", lambda v: v > 0, "attempt_period_ns")
        _check(self, "null or in (0, 1]", lambda v: v is None or 0 < v <= 1, "herald_probability")


@dataclass(frozen=True)
class ExperimentSection:
    trials: int = 245
    hours: float | None = None
    seed: int = 59

    def __post_init__(self):
        _check(self, ">= 0", lambda v: v >= 0, "trials")
        _check(self, "null or > 0", lambda v: v is None or v > 0, "hours")


@dataclass(frozen=True)
class StatisticsConfig:
    win_adjustment: float = 3.0


@dataclass(frozen=True)
class HeraldingConfig:
    include_same_port: bool = False
    hom_counts_indistinguishable: float = 3.0
    hom_counts_distinguishable: float = 28.0


@dataclass(frozen=True)
class OptimizerConfig:
    objective: str = "expected-s"
    epsilon_min_pi: float = -0.125
    epsilon_max_pi: float = 0.125
    grid_points: int = 64
    tolerance_rad: float = 1e-4


@dataclass(frozen=True)
class SimulationConfig:
    interference: InterferenceModel = InterferenceModel()
    spin_photon_errors: SpinPhotonErrorModel = SpinPhotonErrorModel()
    readout_a: ReadoutConfig = ReadoutConfig(mean_fidelity=0.971)
    readout_b: ReadoutConfig = ReadoutConfig(mean_fidelity=0.963)
    basis: BasisConfig = BasisConfig()
    rng: RngModel = RngModel()
    link: LinkConfig = LinkConfig()
    geometry: Geometry = Geometry()
    timing: TimingBudget = TimingBudget()
    experiment: ExperimentSection = ExperimentSection()
    statistics: StatisticsConfig = StatisticsConfig()
    heralding: HeraldingConfig = HeraldingConfig()
    optimizer: OptimizerConfig = OptimizerConfig()

    # ---- derived model objects -------------------------------------------

    def basis_set(self) -> ReadoutBasisSet:
        return ReadoutBasisSet.from_tilt(self.basis.epsilon_pi * math.pi)

    def readout_model(self, side: str) -> ReadoutModel:
        section = self.readout_a if side.upper() == "A" else self.readout_b
        return _calibrated_readout(section)

    def heralded_state(self) -> HeraldResult:
        return event_ready_state(self.interference, self.spin_photon_errors,
                                 self.heralding.include_same_port)

    def spacetime_geometry(self) -> Geometry:
        return self.geometry

    def timing_budget(self) -> TimingBudget:
        return self.timing

    def herald_delay_ns(self) -> float:
        """Photon flight time through one fibre arm to the midpoint."""
        metres = self.link.fibre_km_per_arm * 1000.0
        return metres * self.link.refractive_index / SPEED_OF_LIGHT_M_PER_S * 1e9


@lru_cache(maxsize=16)
def _calibrated_readout(section: ReadoutConfig) -> ReadoutModel:
    try:
        return calibrate_readout(
            section.mean_fidelity,
            duration_us=section.duration_us,
            dark_fidelity=section.dark_fidelity,
            flip_rate_per_us=section.flip_rate_per_us,
        )
    except ValueError as exc:
        raise ConfigError(f"readout calibration: {exc}") from exc


def default_config() -> SimulationConfig:
    return SimulationConfig()


# ---- (de)serialisation ------------------------------------------------------


def config_to_dict(cfg: SimulationConfig) -> dict:
    def convert(value):
        if dataclasses.is_dataclass(value):
            return {f.name: convert(getattr(value, f.name))
                    for f in dataclasses.fields(value) if f.init}
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value

    return convert(cfg)


def config_hash(cfg: SimulationConfig) -> str:
    """Stable hash of the full parameter tree (embedded in trial logs)."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _coerce_scalar(value, annotation, path: str):
    origin = typing.get_origin(annotation)
    if origin is typing.Union or origin is types.UnionType:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            return None
        return _coerce_scalar(value, args[0], path)
    if origin is tuple:
        args = typing.get_args(annotation)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a sequence")
        if Ellipsis not in args and len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        inner = args[0]
        return tuple(_coerce_scalar(v, inner, f"{path}[{i}]") for i, v in enumerate(value))
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if annotation is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if annotation is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if annotation is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported config field type {annotation!r}")


def _build_dataclass(cls, data, path: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected a mapping")
    hints = typing.get_type_hints(cls)
    field_map = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = set(data) - set(field_map)
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError("unknown key(s): " + ", ".join(sorted(f"{where}{k}" for k in unknown)))
    kwargs = {}
    for name, f in field_map.items():
        if name not in data:
            continue
        sub_path = f"{path}.{name}" if path else name
        annotation = hints[name]
        if dataclasses.is_dataclass(annotation):
            kwargs[name] = _build_dataclass(annotation, data[name], sub_path)
        else:
            kwargs[name] = _coerce_scalar(data[name], annotation, sub_path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


def config_from_dict(data: dict) -> SimulationConfig:
    return _build_dataclass(SimulationConfig, data, "")


def load_config(path) -> SimulationConfig:
    """Load and validate a YAML config file; missing sections keep defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(data)
