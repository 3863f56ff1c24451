"""Configuration tree for the simulator, with YAML loading and validation.

Every module's parameters live in one frozen dataclass tree whose defaults
are the calibrated working point of the simulated experiment (interference
contrast 0.90, mean readout fidelities 0.971/0.963, tilt 0.026 pi, herald
probability 6.4e-9 per attempt, 1280 m site separation, readout from 480 ns to
4180 ns after each choice). ``configs/default.yaml`` in the repository mirrors these
defaults with commentary. A config file is merged onto the defaults: a
section may give only the keys it changes. Unknown keys are rejected with
their full path. A value is read as the type of the default it replaces, and a
number with an exponent needs no decimal point (``4e-3``, as YAML 1.2 reads
it); every section checks its values when it is built.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field
from functools import cache, cached_property

from .heralding import (HeraldResult, InterferenceModel, SpinPhotonErrorModel,
                        VisibilityEstimate, event_ready_state, hom_visibility)
from .randomness import RngModel
from .readout import ReadoutBasisSet, ReadoutError, ReadoutModel, calibrate_readout
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
    """Calibration anchors for one node's readout, and the rate model they calibrate."""

    mean_fidelity: float
    duration_us: float = 3.7
    dark_fidelity: float = 0.995
    flip_rate_per_us: float = 0.02
    model: ReadoutModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "model", calibrate_readout(
            self.mean_fidelity, duration_us=self.duration_us,
            dark_fidelity=self.dark_fidelity, flip_rate_per_us=self.flip_rate_per_us))


@dataclass(frozen=True)
class BasisConfig:
    """Readout angles via the symmetric tilt (units of pi), and the basis set they give."""

    epsilon_pi: float = 0.026
    angles: ReadoutBasisSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # a tilt that overflows fails here
        object.__setattr__(self, "angles", ReadoutBasisSet.from_tilt(self.epsilon_pi * math.pi))


# Largest expected attempt count 1/p per trial: about 630 years per trial at a
# 20 us period, and a geometric draw then reaches int64's 9.2e18 with P = e^-9223.
MAX_EXPECTED_ATTEMPTS = 1e15

# Probability that a two-photon attempt gives one of the heralding click patterns.
PATTERN_PROBABILITY = 0.25


@dataclass(frozen=True)
class LinkConfig:
    """Per-arm photon budget and attempt clock. ``herald_probability`` per attempt is the
    pattern probability times both arms (collection efficiency, fibre transmission
    10^(-loss_db_per_km * km / 10), detector efficiency); ``herald_delay_ns`` is a
    photon's flight time through one arm to the midpoint."""

    collection_efficiency: float = 3.83e-3
    fibre_km_per_arm: float = 0.85
    loss_db_per_km: float = 8.0
    detector_efficiency: float = 0.2
    refractive_index: float = 1.47
    attempt_period_ns: float = 20_000.0
    herald_probability: float = field(init=False, repr=False, compare=False)
    herald_delay_ns: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check(self, "in [0, 1]", lambda v: 0 <= v <= 1,
               "collection_efficiency", "detector_efficiency")
        _check(self, ">= 0", lambda v: v >= 0, "fibre_km_per_arm", "loss_db_per_km")
        _check(self, ">= 1", lambda v: v >= 1, "refractive_index")
        _check(self, "> 0", lambda v: v > 0, "attempt_period_ns")
        transmission = 10.0 ** (-self.loss_db_per_km * self.fibre_km_per_arm / 10.0)
        arm = self.collection_efficiency * transmission * self.detector_efficiency
        p = PATTERN_PROBABILITY * arm * arm
        object.__setattr__(self, "herald_probability", p)
        object.__setattr__(self, "herald_delay_ns", self.fibre_km_per_arm * 1000.0
                           * self.refractive_index / SPEED_OF_LIGHT_M_PER_S * 1e9)
        if p == 0:
            raise ConfigError("the composed herald probability per attempt is 0: "
                              "the link can never herald")
        if 1 / p > MAX_EXPECTED_ATTEMPTS:
            raise ConfigError(f"expected attempts per trial 1/p = {1 / p:.3g} exceed "
                              f"{MAX_EXPECTED_ATTEMPTS:.0e}")


@dataclass(frozen=True)
class ExperimentSection:
    """Trial count, optional wall-clock budget in hours, and seed of a run."""

    trials: int = 245
    hours: float | None = None
    seed: int = 59

    def __post_init__(self):
        _check(self, ">= 0", lambda v: v >= 0, "trials", "seed")
        _check(self, "null or > 0", lambda v: v is None or v > 0, "hours")


@dataclass(frozen=True)
class StatisticsConfig:
    """The win adjustment c of the memory-robust win bound 3/4 + c tau_out."""

    win_adjustment: float = 3.0

    def __post_init__(self):
        # x = y = +1 wins with 3/4 + tau - tau^2 when both settings lean by tau
        _check(self, ">= 1", lambda v: v >= 1, "win_adjustment")


@dataclass(frozen=True)
class HeraldingConfig:
    """The HOM coincidence counts, and the reported visibility estimated from them."""

    hom_counts_indistinguishable: float = 3.0
    hom_counts_distinguishable: float = 28.0
    visibility: VisibilityEstimate = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "visibility", hom_visibility(
            self.hom_counts_indistinguishable, self.hom_counts_distinguishable))


OBJECTIVES = ("expected-s", "expected-complete-significance")


class OptimizerError(ValueError):
    """Invalid optimisation input or non-finite objective."""


@dataclass(frozen=True)
class OptimizationSpec:
    """Objective and tilt bounds; ``grid_points`` and ``tolerance_rad`` are unused."""

    objective: str = "expected-s"
    epsilon_min: float = -math.pi / 8
    epsilon_max: float = math.pi / 8
    grid_points: int = 64
    tolerance_rad: float = 1e-4

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise OptimizerError(f"objective must be one of {OBJECTIVES}")
        if not (math.isfinite(self.epsilon_min) and math.isfinite(self.epsilon_max)):
            raise OptimizerError("bounds must be finite")
        if self.epsilon_min >= self.epsilon_max:
            raise OptimizerError("empty search interval")
        if self.tolerance_rad <= 0 or self.grid_points < 2:
            raise OptimizerError("need positive tolerance and >= 2 grid points")


@dataclass(frozen=True)
class OptimizerConfig:
    """The readout-tilt optimizer's objective and bounds, in units of pi, and the
    optimizer's input they give; its checks are the only rules of this section."""

    objective: str = "expected-s"
    epsilon_min_pi: float = -0.125
    epsilon_max_pi: float = 0.125
    grid_points: int = 64
    tolerance_rad: float = 1e-4
    spec: OptimizationSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", OptimizationSpec(
            self.objective, self.epsilon_min_pi * math.pi, self.epsilon_max_pi * math.pi,
            self.grid_points, self.tolerance_rad))


@dataclass(frozen=True)
class SimulationConfig:
    """The whole parameter tree of one simulated experiment, one section per field; a section
    keeps each value its check builds, in a field no key, ``==``, repr or hash sees."""

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
    # engine.run_experiment's cumulative outcome table (a numpy array), kept on the config
    _cumulative_outcomes: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ab, ac, cb = self.geometry.ab_m, self.geometry.ac_m, self.geometry.cb_m
        if ab > ac + cb or ac > ab + cb or cb > ab + ac:
            raise ConfigError(f"geometry distances ab_m={ab}, ac_m={ac}, cb_m={cb} break the "
                              "triangle inequality: no three sites lie that far apart")
        if 1000 * self.link.fibre_km_per_arm < max(ac, cb):
            raise ConfigError(f"link.fibre_km_per_arm={self.link.fibre_km_per_arm} is shorter "
                              f"than the {max(ac, cb)} m from a site to the midpoint, "
                              "so a photon would outrun light")
        # float addition is monotone, so no event time the engine sums exceeds the herald
        # or the readout end at the largest jitter and the longer readout window, summed
        # in the engine's order
        t = self.timing
        readout_end_ns = (t.choice_delay_ns + t.jitter_ns + t.choice_to_readout_ns
                          + 1e3 * max(self.readout_a.duration_us, self.readout_b.duration_us)
                          + t.jitter_ns)
        if not math.isfinite(max(self.link.herald_delay_ns + t.jitter_ns, readout_end_ns)):
            raise ConfigError("the latest event time of a trial overflows: the timing budget, "
                              "1e3 * readout_*.duration_us and the fibre delay must sum to a "
                              "finite number of ns")
        # readout end - choice = choice_to_readout + window + a draw in [-jitter, jitter),
        # less the engine's three roundings of ((choice + choice_to_readout) + window)
        # + jitter, each at most half an ulp of readout_end_ns; fsum's sign is exact
        rounding_ns = 1.5 * math.ulp(readout_end_ns)
        window_ns = 1e3 * min(self.readout_a.duration_us, self.readout_b.duration_us)
        if not math.fsum((t.choice_to_readout_ns, window_ns, -t.jitter_ns, -rounding_ns)) > 0:
            raise ConfigError("timing.choice_to_readout_ns + 1e3 * min(readout_a.duration_us, "
                              "readout_b.duration_us) must exceed timing.jitter_ns by more "
                              f"than the engine's rounding of the event times ({rounding_ns} "
                              "ns), or a readout can end before its own choice")

    # ---- derived model objects -------------------------------------------

    @cached_property  # once per config: a replaced config is a new object
    def config_hash(self) -> str:
        """Stable hash of the full parameter tree, embedded in trial logs."""
        import hashlib  # OpenSSL's loader: only the commands that read or write a log pay it
        canonical = json.dumps(config_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def basis_set(self) -> ReadoutBasisSet:
        return self.basis.angles

    def readout_model(self, side: str) -> ReadoutModel:
        side = side.upper()
        if side not in ("A", "B"):
            raise ReadoutError(f"side must be 'A' or 'B', got {side!r}")
        return (self.readout_a if side == "A" else self.readout_b).model

    def heralded_state(self) -> HeraldResult:
        return event_ready_state(self.interference, self.spin_photon_errors)

    def spacetime_geometry(self) -> Geometry:
        return self.geometry

    def timing_budget(self) -> TimingBudget:
        return self.timing


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


def _coerce_scalar(value, default, path: str):
    """``value`` read as the built-in ``default`` it replaces: a tuple entry by entry,
    then as a string, an integer or a finite float; a None default takes null too."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a sequence")
        if len(value) != len(default):
            raise ConfigError(f"{path}: expected {len(default)} entries, got {len(value)}")
        return tuple(_coerce_scalar(v, d, f"{path}[{i}]")
                     for i, (v, d) in enumerate(zip(value, default)))
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if default is None and value is None:  # experiment.hours: null or a number
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _build_dataclass(default, data, path: str):
    """``default`` with the keys ``data`` gives replaced; sub-sections merge the same way."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected a mapping")
    changes = {}
    for f in dataclasses.fields(default):
        if not f.init or f.name not in data:
            continue
        sub_path = f"{path}.{f.name}" if path else f.name
        current = getattr(default, f.name)
        if dataclasses.is_dataclass(current):
            changes[f.name] = _build_dataclass(current, data[f.name], sub_path)
        else:
            changes[f.name] = _coerce_scalar(data[f.name], current, sub_path)
    if not changes:
        return default
    try:
        return dataclasses.replace(default, **changes)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _unknown_keys(default, data, path: str) -> list[str]:
    """Full paths of the keys in ``data`` that ``default`` and its sub-sections lack."""
    if not isinstance(data, dict):
        return []  # _build_dataclass reports it
    names = {f.name for f in dataclasses.fields(default) if f.init}
    unknown = []
    for key, value in data.items():
        sub_path = f"{path}.{key}" if path else str(key)
        if key not in names:
            unknown.append(sub_path)
        elif dataclasses.is_dataclass(getattr(default, key)):
            unknown += _unknown_keys(getattr(default, key), value, sub_path)
    return unknown


def config_from_dict(data: dict) -> SimulationConfig:
    default = default_config()
    unknown = _unknown_keys(default, data, "")
    if unknown:
        raise ConfigError("unknown key(s): " + ", ".join(sorted(unknown)))
    return _build_dataclass(default, data, "")


@cache  # one class per base, so per process
def _config_loader(base: type) -> type:
    """``base``, a PyYAML safe loader, reading a plain number with an exponent as a
    float, and rejecting a key given twice in one mapping: YAML forbids it, and
    PyYAML would keep the last value without a word."""

    class ConfigLoader(base):
        def construct_mapping(self, node, deep=False):
            # the keys as written; a '<<' merge may repeat one of them by design
            written = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep=deep)
            seen = set()
            for key_node in written:
                if (key := self.construct_object(key_node)) in seen:  # constructed above
                    mark = key_node.start_mark
                    raise ConfigError(f"{mark.name}: line {mark.line + 1}: key {key!r} is "
                                      "given twice in one mapping")
                seen.add(key)
            return mapping

    # YAML 1.2's float with an exponent, which YAML 1.1 reads as text without a decimal
    # point and a signed exponent; YAML 1.1's resolvers, tried first, match no such number
    ConfigLoader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return ConfigLoader


def load_config(path) -> SimulationConfig:
    """Load and validate a YAML config file; missing sections keep defaults.

    libyaml's parser builds the same tree as PyYAML's pure-Python one about ten
    times faster; PyYAML built without libyaml falls back to the latter.
    """
    import yaml  # only a command given --config loads it
    loader = _config_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=loader)
    except yaml.YAMLError as exc:  # its marks span lines; the error is one line
        raise ConfigError(f"{path}: YAML parse error: {' '.join(str(exc).split())}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not isinstance(data, (dict, type(None))):  # an empty file is the defaults
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(data)
