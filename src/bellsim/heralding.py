"""Two-photon model of heralded spin-spin entanglement generation.

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

The link always carries exactly two photons, one per node, so the photonic
state past the beam splitter is a symmetrised amplitude over ordered pairs of
the 8 output modes of one photon (2 ports x 2 time bins x 2 sectors). The
event-ready build never forms the joint spin-photon density matrix: each
classical flip branch of the two nodes is carried as one weighted ket over
the spin pair and the photon pair, and each herald pattern is a click
probability per pair of detection windows. Only the final 4x4 two-spin state
is validated as a :class:`~bellsim.quantum.QuantumState`. Only the functions
that build states import numpy and ``quantum``, so a config loads neither.

The kets are formed without a loop over branches. Each (bin_a, bin_b)
emission pair has one 64-entry amplitude: its shared and private sectors
have disjoint supports, so their sum is exact. A branch sends each of the
four emission pairs to one spin pair, so all kets are one 0/1 matrix product
(branches x 4 spins x 4 emission pairs) with the (4, 64) amplitudes. At most
two nonzero amplitudes meet in any entry (the two photons of a mode pair
swapped), so the sum is the same in any order, and ``+ 0.0`` turns the
signed zeros of the zero products into +0.0: the kets are the bits a loop
of ``ket[s] += amp`` over the branches gives. The click weights of a
pattern depend only on the detector efficiencies and the false-click
probability, not on the visibility or the flip errors, so they are computed
once per (pattern, efficiencies, false-click probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .quantum import QuantumState

PORT_OUT_1 = "C-out-1"
PORT_OUT_2 = "C-out-2"
EARLY = "early"
LATE = "late"

OUTPUT_PORTS = (PORT_OUT_1, PORT_OUT_2)
TIME_BINS = (EARLY, LATE)
WINDOWS = tuple((port, time_bin) for port in OUTPUT_PORTS for time_bin in TIME_BINS)

# one photon's amplitude into (out-1, out-2) at the 50:50 beam splitter
SPLIT_A = (1 / math.sqrt(2), 1 / math.sqrt(2))
SPLIT_B = (1 / math.sqrt(2), -1 / math.sqrt(2))


class HeraldingError(ValueError):
    """Invalid photonic model input."""


class UnheraldableError(HeraldingError):
    """The requested detection pattern has zero probability."""


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


@lru_cache(maxsize=1)  # patterns are immutable: each model build reuses them
def psi_minus_patterns() -> tuple[HeraldPattern, HeraldPattern]:
    """The two cross-port early/late coincidences heralding the singlet."""
    return (
        HeraldPattern(frozenset({(PORT_OUT_1, EARLY), (PORT_OUT_2, LATE)})),
        HeraldPattern(frozenset({(PORT_OUT_2, EARLY), (PORT_OUT_1, LATE)})),
    )


@lru_cache(maxsize=1)
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
    import numpy as np
    from .quantum import QuantumState
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


def _click_set_probability(visible: Sequence[int], clicked: Sequence[bool],
                           efficiency: tuple[float, float], false_click: float) -> float:
    """P(exactly this click set | photon counts per window)."""
    eta = {PORT_OUT_1: efficiency[0], PORT_OUT_2: efficiency[1]}
    p = 1.0
    for w, (port, _) in enumerate(WINDOWS):
        p_silent = (1.0 - eta[port]) ** visible[w] * (1.0 - false_click)
        p *= (1.0 - p_silent) if clicked[w] else p_silent
    return p


@dataclass(frozen=True)
class HeraldResult:
    """Herald probability and the conditional two-spin state."""

    probability: float
    spin_state: QuantumState
    pattern_probabilities: tuple[tuple[HeraldPattern, float], ...]


@lru_cache(maxsize=8)  # one read-only array per (bin_a, bin_b, sector_b)
def _two_photon_amplitudes(bin_a: int, bin_b: int, sector_b: int) -> np.ndarray:
    """Amplitude of one photon per node past the beam splitter, per ordered mode pair.

    Output mode m = window * 2 + sector, with the windows in ``WINDOWS`` order
    and sector 0 shared, 1 private. Node A's photon is in the shared sector of
    time bin ``bin_a``, node B's in ``sector_b`` of ``bin_b`` (bins 0 early,
    1 late). With c[i, j] the amplitude of A's photon in mode i and B's in j,
    the 8x8 result is c + c^T: every photon pair sits on both (i, j) and
    (j, i), and half its squared entries summed over ordered pairs are the
    Fock probabilities, Hong-Ou-Mandel bunching included.
    """
    import numpy as np
    a = np.zeros(8)
    b = np.zeros(8)
    for port in (0, 1):
        a[(port * 2 + bin_a) * 2] = SPLIT_A[port]
        b[(port * 2 + bin_b) * 2 + sector_b] = SPLIT_B[port]
    c = np.outer(a, b) + np.outer(b, a)
    c.setflags(write=False)
    return c


@lru_cache(maxsize=16)  # one read-only array per pair of branch sets
def _one_hot(branches_a: tuple[int, ...], branches_b: tuple[int, ...]) -> np.ndarray:
    """1 where emission pair e = bin_a * 2 + bin_b leaves spin pair s, as (n, 4, 4).

    One (s, e) matrix per (A x B) branch, A outer; a branch is numbered
    f_early * 2 + f_late, as ``_flip_branches`` yields them.
    """
    import numpy as np
    # ideal: spin up (0) with the early photon, down (1) with the late
    spins = [(f_early, 1 ^ f_late) for f_early, f_late in product((0, 1), repeat=2)]
    table = np.zeros((len(branches_a) * len(branches_b), 4, 4))
    for n, (a, b) in enumerate(product(branches_a, branches_b)):
        for bin_a, bin_b in product((0, 1), repeat=2):
            table[n, spins[a][bin_a] * 2 + spins[b][bin_b], bin_a * 2 + bin_b] = 1.0
    table.setflags(write=False)
    return table


def _branch_kets(errors: SpinPhotonErrorModel,
                 visibility: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights and spin-pair x photon-pair kets of the (A x B) flip branches.

    Node A emits into the shared sector; node B emits into sqrt(V) shared +
    sqrt(1-V) private, so the mode overlap squared equals the interference
    visibility. Returns weights of shape (n,) and real kets of shape
    (n, 4, 64), already past the beam splitter, one per branch of nonzero
    weight, with the spin index s_a * 2 + s_b.
    """
    import numpy as np
    # one amplitude per (bin_a, bin_b): its two sectors have disjoint supports
    shared, private = 0.5 * math.sqrt(visibility), 0.5 * math.sqrt(1.0 - visibility)
    emissions = np.array([shared * _two_photon_amplitudes(bin_a, bin_b, 0).ravel()
                          + private * _two_photon_amplitudes(bin_a, bin_b, 1).ravel()
                          for bin_a, bin_b in product((0, 1), repeat=2)])
    side_a, side_b = ({2 * f_early + f_late: w
                       for w, f_early, f_late in _flip_branches(*errors.for_side(side))}
                      for side in "AB")
    weights = [w_a * w_b for w_a in side_a.values() for w_b in side_b.values()]
    # at most two nonzero amplitudes meet in an entry, so the sum is order-free;
    # + 0.0 turns the -0.0 of a product with zero into +0.0
    kets = _one_hot(tuple(side_a), tuple(side_b)) @ emissions + 0.0
    return np.array(weights), kets


@lru_cache(maxsize=32)  # one read-only array per (pattern, efficiencies, false clicks)
def _pattern_weights(pattern: HeraldPattern, efficiency: tuple[float, float],
                     false_click: float) -> np.ndarray:
    """P(exactly the pattern's clicks | photon pair), per ordered output-mode pair."""
    import numpy as np
    clicked = [w in pattern.clicks for w in WINDOWS]
    table = np.zeros((4, 4))
    for u, v in product(range(4), repeat=2):
        visible = [0] * 4
        visible[u] += 1
        visible[v] += 1
        table[u, v] = _click_set_probability(visible, clicked, efficiency, false_click)
    weights = table.repeat(2, axis=0).repeat(2, axis=1).ravel()  # sectors are unresolved
    weights.setflags(write=False)
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

    Each flip branch b with weight w_b is a real ket psi_b over spin pair x
    ordered output-mode pair past the beam splitter; pattern p leaves the
    unnormalised spin state sum_b w_b (psi_b * wt_p) psi_b^T / 2, where wt_p
    is the pattern's click probability per mode pair.
    """
    import numpy as np
    from .quantum import QuantumState
    branch_weights, kets = _branch_kets(errors, model.visibility)
    patterns = psi_minus_patterns()
    if include_same_port:
        patterns = patterns + psi_plus_patterns()
    total = np.zeros((4, 4), dtype=np.complex128)
    total_prob = 0.0
    per_pattern = []
    for pattern in patterns:
        clicked = kets * _pattern_weights(pattern, model.detector_efficiency,
                                          model.false_click_prob)
        # half: every photon pair is counted as both (i, j) and (j, i)
        cond = 0.5 * np.einsum("b,bik,bjk->ij", branch_weights, clicked, kets)
        p = float(np.trace(cond))
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
