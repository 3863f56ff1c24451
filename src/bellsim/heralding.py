"""Mode-level model of heralded spin-spin entanglement generation.

Each node entangles its spin with the emission time bin of a single photon,
|up, early> + |down, late>, the photons meet on a 50:50 beam splitter at the
midpoint station, and a coincidence of one early and one late photon in
different output ports projects the remote spins onto the singlet.

Partial photon indistinguishability is handled by splitting the node-B photon
into a mode shared with node A (amplitude sqrt(V)) and an orthogonal private
mode (amplitude sqrt(1-V)); only the shared-mode component interferes, which
reproduces the coincidence contrast V and the heralded fidelity (1+V)/2.
Spin-photon imperfections are classical flip mixtures conditioned on the time
bin, and detector dark counts / excitation-laser leakage enter as independent
false-click events per detection window.

All photonic states are second-quantised on a truncated Fock space (a few
modes, at most two photons). The event-ready build never forms the joint
spin-photon density matrix: each classical flip branch of the two nodes is
carried as one weighted ket over the spin pair and the Fock space, all
branches cross the beam splitter in one matrix product, and each herald
pattern is a weight per Fock basis state. Only the final 4x4 two-spin state
is validated as a :class:`~bellsim.quantum.QuantumState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .quantum import ATOL, QuantumState, fidelity_to_pure, psi_minus

Mode = tuple[str, str, str]  # (port, time_bin, sector)

PORT_A_IN = "A-in"
PORT_B_IN = "B-in"
PORT_OUT_1 = "C-out-1"
PORT_OUT_2 = "C-out-2"
EARLY = "early"
LATE = "late"
SHARED = "shared"
PRIVATE = "private"

INPUT_PORTS = (PORT_A_IN, PORT_B_IN)
OUTPUT_PORTS = (PORT_OUT_1, PORT_OUT_2)
TIME_BINS = (EARLY, LATE)
SECTORS = (SHARED, PRIVATE)

MAX_PHOTONS = 2  # Fock truncation: total photons over all modes


class HeraldingError(ValueError):
    """Invalid photonic model input."""


class UnheraldableError(HeraldingError):
    """The requested detection pattern has zero probability."""


@dataclass(frozen=True)
class PhotonicModeSpace:
    """Fock space of at most ``MAX_PHOTONS`` photons over an ordered list of modes."""

    modes: tuple[Mode, ...]

    # derived lookup tables, excluded from equality/hash
    _basis: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        modes = tuple(tuple(m) for m in self.modes)
        object.__setattr__(self, "modes", modes)
        if len(set(modes)) != len(modes):
            raise HeraldingError("mode list contains duplicates")
        basis = tuple(self._enumerate_basis())
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_index", {occ: i for i, occ in enumerate(basis)})

    def _enumerate_basis(self):
        n_modes = len(self.modes)

        def rec(prefix, remaining_slots, used):
            if remaining_slots == 0:
                yield tuple(prefix)
                return
            for count in range(MAX_PHOTONS - used + 1):
                yield from rec(prefix + [count], remaining_slots - 1, used + count)

        return rec([], n_modes, 0)

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return self._basis

    def index(self, occupation: Sequence[int]) -> int:
        occ = tuple(occupation)
        if occ not in self._index:
            raise HeraldingError(f"occupation {occ} outside the truncated space")
        return self._index[occ]

    def mode_index(self, mode: Mode) -> int:
        try:
            return self.modes.index(tuple(mode))
        except ValueError:
            raise HeraldingError(f"unknown mode {mode}") from None


@lru_cache(maxsize=1)
def default_mode_space() -> PhotonicModeSpace:
    """Two input and two output ports, two time bins, two sectors; built once."""
    modes = tuple(
        (port, time_bin, sector)
        for port in INPUT_PORTS + OUTPUT_PORTS
        for time_bin in TIME_BINS
        for sector in SECTORS
    )
    return PhotonicModeSpace(modes)


@dataclass(frozen=True)
class InterferenceModel:
    """Photon interference and detection imperfections at the midpoint."""

    visibility: float = 0.90
    detector_efficiency: tuple[float, float] = (1.0, 1.0)
    dark_count_prob: float = 0.0
    laser_leakage_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "detector_efficiency",
                           tuple(float(e) for e in self.detector_efficiency))
        probs = (self.visibility, *self.detector_efficiency,
                 self.dark_count_prob, self.laser_leakage_prob)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise HeraldingError(f"all interference-model probabilities must be in [0, 1]: {probs}")

    @property
    def false_click_prob(self) -> float:
        """Probability of a spurious click per detection window."""
        return 1.0 - (1.0 - self.dark_count_prob) * (1.0 - self.laser_leakage_prob)


@dataclass(frozen=True)
class SpinPhotonErrorModel:
    """Conditional spin-flip probabilities per node and detected time bin."""

    a_early: float = 0.014
    a_late: float = 0.008
    b_early: float = 0.016
    b_late: float = 0.007

    def __post_init__(self):
        for name in ("a_early", "a_late", "b_early", "b_late"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise HeraldingError(f"{name}={v} outside [0, 0.5]")

    def for_side(self, side: str) -> tuple[float, float]:
        side = side.upper()
        if side == "A":
            return (self.a_early, self.a_late)
        if side == "B":
            return (self.b_early, self.b_late)
        raise HeraldingError(f"side must be 'A' or 'B', got {side!r}")


@dataclass(frozen=True)
class HeraldPattern:
    """Required detection windows, e.g. {(out-1, early), (out-2, late)}."""

    clicks: frozenset[tuple[str, str]]

    def __post_init__(self):
        clicks = frozenset((str(p), str(b)) for p, b in self.clicks)
        object.__setattr__(self, "clicks", clicks)
        bins = sorted(b for _, b in clicks)
        if bins != [EARLY, LATE]:
            raise HeraldingError("herald pattern needs exactly one early and one late click")
        for port, _ in clicks:
            if port not in OUTPUT_PORTS:
                raise HeraldingError(f"clicks must be on output ports, got {port!r}")

    @property
    def cross_port(self) -> bool:
        return len({p for p, _ in self.clicks}) == 2


def psi_minus_patterns() -> tuple[HeraldPattern, HeraldPattern]:
    """The two cross-port early/late coincidences heralding the singlet."""
    return (
        HeraldPattern(frozenset({(PORT_OUT_1, EARLY), (PORT_OUT_2, LATE)})),
        HeraldPattern(frozenset({(PORT_OUT_2, EARLY), (PORT_OUT_1, LATE)})),
    )


def psi_plus_patterns() -> tuple[HeraldPattern, HeraldPattern]:
    """Same-port early/late coincidences (excluded from heralds by default)."""
    return (
        HeraldPattern(frozenset({(PORT_OUT_1, EARLY), (PORT_OUT_1, LATE)})),
        HeraldPattern(frozenset({(PORT_OUT_2, EARLY), (PORT_OUT_2, LATE)})),
    )


def _flip_branches(e_early: float, e_late: float):
    """Weights of the four (flip-early?, flip-late?) classical error branches."""
    for f_early, f_late in product((0, 1), repeat=2):
        w = (e_early if f_early else 1.0 - e_early) * (e_late if f_late else 1.0 - e_late)
        if w > 0.0:
            yield w, f_early, f_late


def spin_photon_state(side: str, errors: SpinPhotonErrorModel) -> QuantumState:
    """Spin (x) time-bin state of one node after an emission round.

    Ideal case: (|up, early> + |down, late>)/sqrt(2). With errors, the spin is
    flipped with the configured probability conditioned on the time bin.
    """
    e_early, e_late = errors.for_side(side)
    rho = np.zeros((4, 4), dtype=np.complex128)
    for w, f_early, f_late in _flip_branches(e_early, e_late):
        vec = np.zeros(4, dtype=np.complex128)
        s_early = 0 ^ f_early           # ideal: up with early
        s_late = 1 ^ f_late             # ideal: down with late
        vec[s_early * 2 + 0] = 1 / math.sqrt(2)
        vec[s_late * 2 + 1] = 1 / math.sqrt(2)
        rho += w * np.outer(vec, vec.conj())
    return QuantumState(rho, (("spin", 2), ("time_bin", 2)))


def _expand_creation_product(space: PhotonicModeSpace, occupation: Sequence[int],
                             images: list) -> dict:
    """Expand prod_m (sum_j U[j,m] c_j^dag)^{n_m} |0> into Fock amplitudes.

    ``images[m]`` lists (target_mode_index, amplitude) pairs for source mode m.
    Returns {occupation_tuple: amplitude} with Fock normalisation included.
    """
    n_modes = len(space.modes)
    source_norm = 1.0
    for n in occupation:
        source_norm *= math.factorial(n)
    # polynomial over creation-operator monomials, keyed by occupation vectors
    poly = {tuple([0] * n_modes): 1.0 + 0.0j}
    for m, n in enumerate(occupation):
        for _ in range(n):
            new: dict = {}
            for occ, amp in poly.items():
                for j, c in images[m]:
                    if c == 0.0:
                        continue
                    lifted = list(occ)
                    lifted[j] += 1
                    key = tuple(lifted)
                    new[key] = new.get(key, 0.0 + 0.0j) + amp * c
            poly = new
    out = {}
    for occ, amp in poly.items():
        if sum(occ) > MAX_PHOTONS:
            raise HeraldingError(f"photon number above cutoff in occupation {occ}")
        target_norm = 1.0
        for n in occ:
            target_norm *= math.factorial(n)
        out[occ] = amp * math.sqrt(target_norm) / math.sqrt(source_norm)
    return out


def mode_transform_unitary(space: PhotonicModeSpace, mode_images: dict) -> np.ndarray:
    """Fock-space unitary induced by a single-particle mode unitary.

    ``mode_images`` maps a source mode to its image as a list of
    (target mode, amplitude) pairs; unlisted modes map to themselves. The
    single-particle matrix must be unitary, which makes the induced map
    unitary on every photon-number sector of the truncated space.
    """
    n_modes = len(space.modes)
    single = np.zeros((n_modes, n_modes), dtype=np.complex128)
    for m, mode in enumerate(space.modes):
        if mode in mode_images:
            for target, amp in mode_images[mode]:
                single[space.mode_index(target), m] = amp
        else:
            single[m, m] = 1.0
    if float(np.max(np.abs(single.conj().T @ single - np.eye(n_modes)))) > ATOL:
        raise HeraldingError("mode map is not unitary")
    images = [[(j, single[j, m]) for j in range(n_modes) if single[j, m] != 0.0]
              for m in range(n_modes)]
    u = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for col, occ in enumerate(space.basis):
        for occ_out, amp in _expand_creation_product(space, occ, images).items():
            u[space.index(occ_out), col] = amp
    return u


def _beam_splitter_images(space: PhotonicModeSpace) -> dict:
    """50:50 beam-splitter map per time bin and sector, input to output ports."""
    s = 1 / math.sqrt(2)
    images = {}
    for time_bin in TIME_BINS:
        for sector in SECTORS:
            a_in = (PORT_A_IN, time_bin, sector)
            b_in = (PORT_B_IN, time_bin, sector)
            out1 = (PORT_OUT_1, time_bin, sector)
            out2 = (PORT_OUT_2, time_bin, sector)
            present = {m for m in (a_in, b_in, out1, out2) if m in space.modes}
            if not present:
                continue
            if present != {a_in, b_in, out1, out2}:
                raise HeraldingError(f"mode space is missing partners for bin {time_bin}/{sector}")
            images[a_in] = [(out1, s), (out2, s)]
            images[b_in] = [(out1, s), (out2, -s)]
            # unitary completion: the output labels fold back onto the inputs
            images[out1] = [(a_in, s), (b_in, s)]
            images[out2] = [(a_in, s), (b_in, -s)]
    return images


@lru_cache(maxsize=8)
def beam_splitter_unitary(space: PhotonicModeSpace) -> np.ndarray:
    u = mode_transform_unitary(space, _beam_splitter_images(space))
    u.setflags(write=False)
    return u


def _detection_windows() -> tuple[tuple[str, str], ...]:
    return tuple((port, time_bin) for port in OUTPUT_PORTS for time_bin in TIME_BINS)


@lru_cache(maxsize=8)
def _visible_groups(space: PhotonicModeSpace) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """Fock indices grouped by detector-visible counts (sectors are unresolved)."""
    windows = _detection_windows()
    groups: dict = {}
    for i, occ in enumerate(space.basis):
        visible = [0] * len(windows)
        for m, n in enumerate(occ):
            if n == 0:
                continue
            port, time_bin, _ = space.modes[m]
            if port in OUTPUT_PORTS:
                visible[windows.index((port, time_bin))] += n
        groups.setdefault(tuple(visible), []).append(i)
    return tuple((visible, np.array(indices)) for visible, indices in groups.items())


def _click_set_probability(visible: Sequence[int], clicked: Sequence[bool],
                           model: InterferenceModel) -> float:
    """P(exactly this click set | photon counts per window)."""
    windows = _detection_windows()
    eta = {PORT_OUT_1: model.detector_efficiency[0],
           PORT_OUT_2: model.detector_efficiency[1]}
    f = model.false_click_prob
    p = 1.0
    for w, (port, _) in enumerate(windows):
        p_silent = (1.0 - eta[port]) ** visible[w] * (1.0 - f)
        p *= (1.0 - p_silent) if clicked[w] else p_silent
    return p


@dataclass(frozen=True)
class HeraldResult:
    """Herald probability and the conditional two-spin state."""

    probability: float
    spin_state: QuantumState
    pattern_probabilities: tuple[tuple[HeraldPattern, float], ...]


def _branch_kets(space: PhotonicModeSpace, errors: SpinPhotonErrorModel,
                 visibility: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights and spin-pair x Fock kets of the (A x B) flip branches at the source.

    Node A emits into its shared mode; node B emits into sqrt(V) shared +
    sqrt(1-V) private, so the mode overlap squared equals the interference
    visibility. Returns weights of shape (n,) and kets of shape (n, 4, dim),
    one per branch of nonzero weight, with the spin index s_a * 2 + s_b.
    """
    emissions = []  # (bin A, bin B, Fock index of the photon pair, amplitude)
    for bin_a, bin_b in product(TIME_BINS, repeat=2):
        for sector_b, amp_b in ((SHARED, math.sqrt(visibility)),
                                (PRIVATE, math.sqrt(1.0 - visibility))):
            if amp_b == 0.0:
                continue
            occ = [0] * len(space.modes)
            occ[space.mode_index((PORT_A_IN, bin_a, SHARED))] += 1
            occ[space.mode_index((PORT_B_IN, bin_b, sector_b))] += 1
            emissions.append((bin_a, bin_b, space.index(tuple(occ)), 0.5 * amp_b))
    weights, kets = [], []
    for w_a, fe_a, fl_a in _flip_branches(*errors.for_side("A")):
        for w_b, fe_b, fl_b in _flip_branches(*errors.for_side("B")):
            ket = np.zeros((4, space.dim), dtype=np.complex128)
            for bin_a, bin_b, k, amp in emissions:
                # ideal: spin up (0) with the early photon, down (1) with the late
                s_a = fe_a if bin_a == EARLY else 1 ^ fl_a
                s_b = fe_b if bin_b == EARLY else 1 ^ fl_b
                ket[s_a * 2 + s_b, k] += amp
            weights.append(w_a * w_b)
            kets.append(ket)
    return np.array(weights), np.array(kets)


def _pattern_weights(space: PhotonicModeSpace, pattern: HeraldPattern,
                     model: InterferenceModel) -> np.ndarray:
    """P(exactly the pattern's clicks | Fock basis state), per basis index."""
    clicked = [w in pattern.clicks for w in _detection_windows()]
    weights = np.zeros(space.dim)
    for visible, indices in _visible_groups(space):
        weights[indices] = _click_set_probability(visible, clicked, model)
    return weights


@lru_cache(maxsize=64)
def event_ready_state(model: InterferenceModel,
                      errors: SpinPhotonErrorModel,
                      include_same_port: bool = False) -> HeraldResult:
    """Full pipeline: emission, interference, and herald conditioning.

    Returns the herald probability per emission round (detector and link
    losses aside) and the conditional two-spin density matrix. With
    ``include_same_port`` the same-port early/late coincidences are accepted
    too, without any feed-forward correction, which degrades the state.

    Each flip branch b with weight w_b is a ket psi_b over spin pair x Fock
    space; past the beam splitter, pattern p leaves the unnormalised spin
    state sum_b w_b (psi_b * wt_p) psi_b^dag, where wt_p is the pattern's
    click probability per Fock basis state.
    """
    space = default_mode_space()
    branch_weights, kets = _branch_kets(space, errors, model.visibility)
    kets = kets @ beam_splitter_unitary(space).T  # on the photonic axis of every branch
    patterns = psi_minus_patterns()
    if include_same_port:
        patterns = patterns + psi_plus_patterns()
    total = np.zeros((4, 4), dtype=np.complex128)
    total_prob = 0.0
    per_pattern = []
    for pattern in patterns:
        clicked = kets * _pattern_weights(space, pattern, model)
        cond = np.einsum("b,bik,bjk->ij", branch_weights, clicked, kets.conj())
        p = float(np.trace(cond).real)
        per_pattern.append((pattern, p))
        total += cond
        total_prob += p
    if total_prob < 1e-15:
        raise UnheraldableError("requested detection pattern has zero probability")
    spin = QuantumState(total / total_prob, (("spin_a", 2), ("spin_b", 2)))
    return HeraldResult(total_prob, spin, tuple(per_pattern))


@dataclass(frozen=True)
class VisibilityEstimate:
    value: float
    sigma: float


def hom_visibility(n_indistinguishable: float, n_distinguishable: float) -> VisibilityEstimate:
    """Two-photon interference contrast from central-peak coincidence counts.

    V = 1 - N_ind / N_dist, with the uncertainty from independent Poisson
    errors on both counts.
    """
    if n_indistinguishable < 0 or n_distinguishable < 0:
        raise HeraldingError("coincidence counts must be non-negative")
    if n_distinguishable == 0:
        raise HeraldingError("visibility undefined: zero distinguishable-photon coincidences")
    a, b = float(n_indistinguishable), float(n_distinguishable)
    value = 1.0 - a / b
    sigma = math.sqrt(a / b**2 + a**2 / b**3)
    return VisibilityEstimate(value, sigma)


def heralded_fidelity(model: InterferenceModel, errors: SpinPhotonErrorModel) -> float:
    """Fidelity of the event-ready two-spin state to the singlet."""
    return fidelity_to_pure(event_ready_state(model, errors).spin_state, psi_minus())
