"""Two-photon model of heralded spin-spin entanglement generation.

Each node entangles its spin with the emission time bin of a single photon,
|up, early> + |down, late>, the photons meet on a 50:50 beam splitter at the
midpoint station, and a coincidence of one early and one late photon in
different output ports projects the remote spins onto the singlet. A
same-port coincidence heralds psi+ instead, usable only after a local phase
correction that is not modelled, so it is never accepted as a herald.

The midpoint has four detection windows, numbered w = 2 * port + bin: port 0
or 1 is the beam splitter's output, bin 0 the early and 1 the late time bin.
A herald pattern is the (early, late) pair of windows that click, and the
singlet is heralded by the two cross-port pairs of ``SINGLET_PATTERNS``.

Partial photon indistinguishability is handled by splitting the node-B photon
into a mode shared with node A (amplitude sqrt(V)) and an orthogonal private
mode (amplitude sqrt(1-V)); only the shared-mode component interferes, which
reproduces the coincidence contrast V and the heralded fidelity (1+V)/2.
Spin-photon imperfections are classical flip mixtures conditioned on the time
bin, and detector dark counts and excitation-laser leakage enter together as
one false-click probability per detection window.

The link always carries exactly two photons, one per node, so the photonic
state past the beam splitter is a symmetrised amplitude over ordered pairs of
the 8 output modes of one photon (2 ports x 2 time bins x 2 sectors). The
event-ready build never forms the joint spin-photon state. Each herald
pattern weights the amplitudes of the four emission pairs (bin_a, bin_b) into
two 4x4 Gram matrices, one per sector of node B's photon; the sectors have
disjoint supports, so no cross term survives. Their visibility-weighted sum
G is carried to the spin pair by each node's classical flip channel. G, on
its cached support, and the spin state are flat row-major lists, and each
pair of flip branches reads where every entry of G lands from a precomputed
table of spin-pair indices, so the build is a few plain-Python loops. Sums are
explicit left-to-right additions, never the builtin ``sum``, whose float
rounding differs between interpreters (compensated since CPython 3.12).
Only the final two-spin state is validated, as a
:class:`~bellsim.quantum.QuantumState` of the same 16 row-major floats,
which the build imports when it runs, so a config loads no ``quantum``;
neither the build nor the state's checks load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from .quantum import QuantumState

SINGLET_PATTERNS = ((0, 3), (2, 1))

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
    detector_efficiency: tuple[float, float] = (1.0, 1.0)  # per output port
    false_click_prob: float = 0.0  # dark count or laser leakage, per detection window

    def __post_init__(self):
        object.__setattr__(self, "detector_efficiency",
                           tuple(float(e) for e in self.detector_efficiency))
        if len(self.detector_efficiency) != 2:  # one per beam-splitter output port
            raise HeraldingError(f"detector_efficiency: expected 2 entries, "
                                 f"got {len(self.detector_efficiency)}")
        probs = (self.visibility, *self.detector_efficiency, self.false_click_prob)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise HeraldingError(f"all interference-model probabilities must be in [0, 1]: {probs}")


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


def _flip_branches(e_early: float, e_late: float) -> list[tuple[float, int]]:
    """(w, f_early * 2 + f_late) of each (flip-early?, flip-late?) branch of weight w > 0."""
    keep_early, keep_late = 1.0 - e_early, 1.0 - e_late
    branches = ((keep_early * keep_late, 0), (keep_early * e_late, 1),
                (e_early * keep_late, 2), (e_early * e_late, 3))
    return [branch for branch in branches if branch[0] > 0.0]


def _spin_index_table() -> tuple[tuple[int, ...], ...]:
    """Where a pair of flip branches carries each entry of G.

    A node's branch (f_early, f_late) sends its time bin to a spin, spin =
    (f_early, 1 ^ f_late)[bin] (ideal: up early, down late). Row
    branch_a * 4 + branch_b, with branch = f_early * 2 + f_late, holds for
    every emission-pair entry (e, f) in row-major order the row-major index
    s_e * 4 + s_f of the spin-pair entry it lands on.
    """
    bin_spins = [(f_early, 1 ^ f_late) for f_early, f_late in product((0, 1), repeat=2)]
    table = []
    for spin_a, spin_b in product(bin_spins, repeat=2):
        spins = [spin_a[bin_a] * 2 + spin_b[bin_b] for bin_a, bin_b in product((0, 1), repeat=2)]
        table.append(tuple(spins[e] * 4 + spins[f] for e, f in product(range(4), repeat=2)))
    return tuple(table)


_SPIN_INDEX = _spin_index_table()


def _left_sum(terms) -> float:
    """0.0 + t0 + t1 + ... in order, as the builtin ``sum`` of floats rounds
    before CPython 3.12 (which compensates it)."""
    total = 0.0
    for t in terms:
        total += t
    return total


def _click_set_probability(visible: Sequence[int], clicked: Sequence[bool],
                           efficiency: tuple[float, float], false_click: float) -> float:
    """P(exactly this click set | photon counts per window), both indexed by window."""
    p = 1.0
    for w in range(4):
        p_silent = (1.0 - efficiency[w >> 1]) ** visible[w] * (1.0 - false_click)
        p *= (1.0 - p_silent) if clicked[w] else p_silent
    return p


class HeraldResult(NamedTuple):
    """Herald probability and the conditional two-spin state."""

    probability: float
    spin_state: QuantumState


def _two_photon_amplitudes(bin_a: int, bin_b: int, sector_b: int) -> list[list[float]]:
    """Amplitude of one photon per node past the beam splitter, per ordered mode pair.

    Output mode m = window * 2 + sector, with window w = 2 * port + bin and
    sector 0 shared, 1 private. Node A's photon is in the shared sector of
    time bin ``bin_a``, node B's in ``sector_b`` of ``bin_b`` (bins 0 early,
    1 late). With c[i][j] the amplitude of A's photon in mode i and B's in j,
    the 8x8 result is c + c^T: every photon pair sits on both (i, j) and
    (j, i), and half its squared entries summed over ordered pairs are the
    Fock probabilities, Hong-Ou-Mandel bunching included.
    """
    a, b = [0.0] * 8, [0.0] * 8
    for port in (0, 1):
        a[(port * 2 + bin_a) * 2] = SPLIT_A[port]
        b[(port * 2 + bin_b) * 2 + sector_b] = SPLIT_B[port]
    return [[a[i] * b[j] + b[i] * a[j] for j in range(8)] for i in range(8)]


@lru_cache(maxsize=32)  # one pair per (pattern, efficiencies, false clicks)
def _pattern_grams(pattern: tuple[int, int], efficiency: tuple[float, float],
                   false_click: float) -> tuple[tuple, tuple]:
    """Click-weighted Gram matrices (A_p, B_p) of the (early, late) window pair
    ``pattern``, two nested 4x4 tuples over emission pairs e = bin_a * 2 + bin_b.

    A_p[e][f] = 1/2 sum_(i, j) c_e[i][j] c_f[i][j] P(exactly the clicks of
    ``pattern`` | photons in modes i and j), with c_e the two-photon
    amplitudes of emission pair e and node B's photon shared (A_p) or private
    (B_p); the half counts each photon pair once. Sectors are unresolved, so
    the click probability reads only the windows i >> 1 and j >> 1.
    """
    clicked = [w in pattern for w in range(4)]
    click = [[_click_set_probability([(w == u) + (w == v) for w in range(4)], clicked,
                                     efficiency, false_click) for v in range(4)]
             for u in range(4)]
    grams = []
    for sector_b in (0, 1):
        amps = [_two_photon_amplitudes(bin_a, bin_b, sector_b)
                for bin_a, bin_b in product((0, 1), repeat=2)]
        grams.append(tuple(
            tuple(0.5 * _left_sum(x[i][j] * y[i][j] * click[i >> 1][j >> 1]
                                  for i, j in product(range(8), repeat=2)) for y in amps)
            for x in amps))
    return grams[0], grams[1]


@lru_cache(maxsize=16)  # one per (efficiencies, false clicks)
def _gram_support(efficiency: tuple[float, float], false_click: float) -> tuple[tuple, tuple]:
    """The flat indices j at which some singlet pattern's A_p or B_p is non-zero,
    and each pattern's (A_p, B_p) values there, in ``SINGLET_PATTERNS`` order."""
    flat = [tuple(tuple(chain(*gram)) for gram in _pattern_grams(pattern, efficiency, false_click))
            for pattern in SINGLET_PATTERNS]
    support = tuple(j for j in range(16) if any(gram[j] for grams in flat for gram in grams))
    return support, tuple(tuple(tuple(gram[j] for j in support) for gram in grams)
                          for grams in flat)


@lru_cache(maxsize=64)
def event_ready_state(model: InterferenceModel,
                      errors: SpinPhotonErrorModel) -> HeraldResult:
    """Full pipeline: emission, interference, and herald conditioning.

    Returns the herald probability per emission round (detector and link
    losses aside) and the conditional two-spin density matrix, heralded by
    the two cross-port coincidences of ``SINGLET_PATTERNS``.

    Node A emits into the shared sector and node B into sqrt(V) shared +
    sqrt(1-V) private, each emission pair with amplitude 1/2. The sectors
    have disjoint supports, so the herald leaves G = 1/4 sum_p [V A_p +
    (1-V) B_p] over emission pairs, and the unnormalised spin state is the
    weighted sum over the (A x B) flip branches of G carried to spin pairs
    by ``_SPIN_INDEX``. Both are flat row-major lists; every entry sums its
    terms in the order of the nested (pattern, e, f) and (branch A, branch B,
    e, f) loops, so a flip that sends both bins to one spin adds its two
    terms in (e, f) order. G is formed only on the patterns' Gram support
    (``_gram_support``: 4 of 16 entries with ideal detectors), where its zero
    entries are skipped too: off it an entry sums to +0.0, a sum that starts
    at +0.0 is never -0.0, and adding +-0.0 leaves any other float as it is.
    """
    from .quantum import QuantumState
    v, u = model.visibility, 1.0 - model.visibility
    support, values = _gram_support(model.detector_efficiency, model.false_click_prob)
    gram = [0.0] * len(support)
    for shared, private in values:
        gram = [g + 0.25 * (v * s + u * p) for g, s, p in zip(gram, shared, private)]
    nonzero = [(j, g) for j, g in zip(support, gram) if g]
    rho = [0.0] * 16
    for (w_a, branch_a), (w_b, branch_b) in product(_flip_branches(errors.a_early, errors.a_late),
                                                    _flip_branches(errors.b_early, errors.b_late)):
        w = w_a * w_b
        row = _SPIN_INDEX[branch_a * 4 + branch_b]
        for j, g in nonzero:
            rho[row[j]] += w * g
    probability = rho[0] + rho[5] + rho[10] + rho[15]
    if probability < 1e-15:
        raise UnheraldableError("requested detection pattern has zero probability")
    spin = QuantumState([x / probability for x in rho])
    return HeraldResult(probability, spin)


class VisibilityEstimate(NamedTuple):
    """An interference visibility and its one-sigma Poisson uncertainty."""

    value: float
    sigma: float


def hom_visibility(n_indistinguishable: float, n_distinguishable: float) -> VisibilityEstimate:
    """Two-photon interference contrast from central-peak coincidence counts.

    V = 1 - N_ind / N_dist, with the uncertainty from independent Poisson
    errors on both counts. Counts so extreme that either number over- or
    underflows a float are rejected.
    """
    if n_indistinguishable < 0 or n_distinguishable < 0:
        raise HeraldingError("coincidence counts must be non-negative")
    if n_distinguishable == 0:
        raise HeraldingError("visibility undefined: zero distinguishable-photon coincidences")
    a, b = float(n_indistinguishable), float(n_distinguishable)
    try:
        value = 1.0 - a / b
        sigma = math.sqrt(a / b**2 + a**2 / b**3)
    except (OverflowError, ZeroDivisionError):
        value = sigma = math.nan
    if not (math.isfinite(value) and math.isfinite(sigma)):
        raise HeraldingError(f"visibility and its sigma from coincidence counts "
                             f"({n_indistinguishable}, {n_distinguishable}) are not finite")
    return VisibilityEstimate(value, sigma)
