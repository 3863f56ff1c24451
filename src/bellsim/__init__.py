"""Event-ready CHSH Bell test simulator and certification toolkit.

Simulates heralded entanglement generation between two remote spins (photon
interference at a midpoint station), noisy single-shot readout, imperfect
basis-choice randomness, and space-time locality auditing, then certifies
the outcome with both a conventional Gaussian test and a memory-robust exact
binomial bound.
"""

from .bell_stats import (
    AnalysisResult,
    analyze_records,
    chsh_estimate,
    complete_pvalue,
    conventional_pvalue,
    expected_correlations,
    i_statistic,
    p_vs_i_curve,
)
from .config import SimulationConfig, config_hash, default_config, load_config
from .engine import TrialLog, TrialRecord, herald_probability, run_experiment
from .heralding import (
    HeraldPattern,
    InterferenceModel,
    PhotonicModeSpace,
    SpinPhotonErrorModel,
    beam_splitter,
    event_ready_state,
    hom_visibility,
    spin_photon_state,
)
from .logio import read_log, write_log
from .optimizer import OptimizationSpec, expected_s, optimize
from .quantum import (
    Channel,
    Observable,
    QuantumState,
    apply_channel,
    bloch_observable,
    expectation,
    partial_trace,
    psi_minus,
    tensor,
)
from .randomness import RngModel, output_predictability, raw_bits
from .readout import (
    ReadoutBasisSet,
    ReadoutModel,
    calibrate_readout,
    fidelity_vs_duration,
    readout_channel,
)
from .spacetime import Geometry, SpacetimeEvent, TimingBudget, audit_trial, determination_bound, light_time_ns

__version__ = "0.1.0"
