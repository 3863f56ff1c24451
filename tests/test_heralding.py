import dataclasses
import math
from collections import namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import config
from bellsim import heralding as h
from bellsim import quantum as q

SQRT2 = math.sqrt(2.0)
NO_ERRORS = h.SpinPhotonErrorModel(0.0, 0.0, 0.0, 0.0)


# ---- independent brute-force oracle ------------------------------------------
#
# Enumerates every (spin pair, photon routing, sector) amplitude by hand:
# no Fock machinery, just path bookkeeping on dictionaries. Photons from the
# two sources are distinguishable by time bin in the heralded patterns, so no
# bunching factors arise there.


def oracle_herald(visibility, pattern):
    """(probability, 4x4 spin density matrix) for one early/late click pattern.

    ``pattern`` maps time bin -> output port index (1 or 2).
    """
    amp_shared = math.sqrt(visibility)
    amp_private = math.sqrt(1.0 - visibility)
    # routing amplitudes through the 50:50 splitter
    route = {"A": {1: 1 / SQRT2, 2: 1 / SQRT2}, "B": {1: 1 / SQRT2, 2: -1 / SQRT2}}
    vectors = {}  # photonic configuration -> spin amplitude vector
    for spin_a, spin_b in product((0, 1), repeat=2):
        bin_a = "early" if spin_a == 0 else "late"
        bin_b = "early" if spin_b == 0 else "late"
        if {bin_a, bin_b} != {"early", "late"}:
            continue  # same-bin emissions cannot click one early and one late
        for sector_b, amp_b in (("shared", amp_shared), ("private", amp_private)):
            if amp_b == 0.0:
                continue
            port_a = pattern[bin_a]
            port_b = pattern[bin_b]
            amp = 0.5 * amp_b * route["A"][port_a] * route["B"][port_b]
            config = ((bin_a, port_a, "shared"), (bin_b, port_b, sector_b))
            config = tuple(sorted(config))
            vec = vectors.setdefault(config, np.zeros(4, complex))
            vec[spin_a * 2 + spin_b] += amp
    rho = sum(np.outer(v, v.conj()) for v in vectors.values())
    prob = float(np.trace(rho).real)
    return prob, rho / prob


def oracle_psi_minus_herald(visibility):
    """Both cross-port patterns mixed, as the library heralds by default."""
    total = np.zeros((4, 4), complex)
    prob = 0.0
    for pattern in ({"early": 1, "late": 2}, {"early": 2, "late": 1}):
        p, rho = oracle_herald(visibility, pattern)
        total += p * rho
        prob += p
    return prob, total / prob


# ---- dense reference route ----------------------------------------------------------
#
# The joint spin-pair x Fock density matrix (4 x 153 = 612 dimensional) carried
# through the beam splitter as kron(eye(4), U) and projected on the herald
# windows block by block. event_ready_state must reproduce it. The Fock space
# holds at most two photons over 16 modes: two input and two output ports,
# two time bins, shared and private sectors. Its basis states are sorted
# tuples of occupied mode indices, one entry per photon. Modes carry labels
# here; the library numbers a detection window w = 2 * port + bin.

OUT_PORTS = ("C-out-1", "C-out-2")
TIME_BINS = ("early", "late")
SECTORS = ("shared", "private")
MODES = tuple((port, time_bin, sector)
              for port in ("A-in", "B-in", *OUT_PORTS)
              for time_bin in TIME_BINS for sector in SECTORS)
FOCK_BASIS = tuple(occ for n in range(3) for occ in combinations_with_replacement(range(16), n))
FOCK_INDEX = {occ: i for i, occ in enumerate(FOCK_BASIS)}
FOCK_DIM = len(FOCK_BASIS)
# window w = 2 * port + bin, in the order h._click_set_probability reads the counts
WINDOWS = tuple((port, time_bin) for port in OUT_PORTS for time_bin in TIME_BINS)
# the two same-port early/late coincidences, as (early, late) window pairs
SAME_PORT_PATTERNS = ((0, 1), (2, 3))
# a herald build with its probability per pattern, which the library does not keep
Herald = namedtuple("Herald", "probability spin_state pattern_probabilities")


def false_click(dark, leakage):
    """One window's false-click probability from independent dark counts and leakage."""
    return 1.0 - (1.0 - dark) * (1.0 - leakage)


def _permanent(m):
    return sum(math.prod(m[i, j] for i, j in enumerate(perm))
               for perm in permutations(range(len(m))))


def _single_photon_splitter():
    """16x16 mode map: 50:50 per time bin and sector, outputs folded back on inputs."""
    s = 1 / SQRT2
    u = np.zeros((16, 16))
    for time_bin, sector in product(TIME_BINS, SECTORS):
        a, b, o1, o2 = (MODES.index((port, time_bin, sector))
                        for port in ("A-in", "B-in", *OUT_PORTS))
        u[[o1, o2, o1, o2], [a, a, b, b]] = (s, s, s, -s)
        u[[a, b, a, b], [o1, o1, o2, o2]] = (s, s, s, -s)  # unitary completion
    return u


@lru_cache(maxsize=1)
def reference_splitter():
    """Fock-space beam splitter from permanents of the single-photon map."""
    single = _single_photon_splitter()
    u = np.zeros((FOCK_DIM, FOCK_DIM))
    for col, occ_in in enumerate(FOCK_BASIS):
        for row, occ_out in enumerate(FOCK_BASIS):
            if len(occ_out) == len(occ_in):
                norm = math.prod(math.factorial(occ.count(m))
                                 for occ in (occ_in, occ_out) for m in set(occ))
                u[row, col] = _permanent(single[np.ix_(occ_out, occ_in)]) / math.sqrt(norm)
    return u


def fock_index(*modes):
    return FOCK_INDEX[tuple(sorted(MODES.index(m) for m in modes))]


def _visible(occ):
    """Photon counts per detection window (sectors are unresolved)."""
    return tuple(sum(MODES[m][:2] == w for m in occ) for w in WINDOWS)


@lru_cache(maxsize=1)
def _visible_groups():
    groups = {}
    for i, occ in enumerate(FOCK_BASIS):
        groups.setdefault(_visible(occ), []).append(i)
    return tuple((visible, np.array(indices)) for visible, indices in groups.items())


def flip_branches(e_early, e_late):
    """(w, f_early, f_late) of the model's flip branches of non-zero weight."""
    return [(w, *divmod(branch, 2)) for w, branch in h._flip_branches(e_early, e_late)]


def joint_source_state(errors, visibility):
    """Both nodes' spins and photons before the beam splitter, as one dense matrix."""
    rho = np.zeros((4 * FOCK_DIM, 4 * FOCK_DIM), dtype=np.complex128)
    for w_a, fe_a, fl_a in flip_branches(errors.a_early, errors.a_late):
        for w_b, fe_b, fl_b in flip_branches(errors.b_early, errors.b_late):
            vec = np.zeros(4 * FOCK_DIM, dtype=np.complex128)
            for bin_a, bin_b in product(TIME_BINS, repeat=2):
                s_a = (0 if bin_a == "early" else 1) ^ (fe_a if bin_a == "early" else fl_a)
                s_b = (0 if bin_b == "early" else 1) ^ (fe_b if bin_b == "early" else fl_b)
                for sector_b, amp_b in (("shared", math.sqrt(visibility)),
                                        ("private", math.sqrt(1.0 - visibility))):
                    if amp_b == 0.0:
                        continue
                    k = fock_index(("A-in", bin_a, "shared"), ("B-in", bin_b, sector_b))
                    vec[(s_a * 2 + s_b) * FOCK_DIM + k] += 0.5 * amp_b
            rho += (w_a * w_b) * np.outer(vec, vec.conj())
    return rho


def dense_beam_splitter(rho):
    big = np.kron(np.eye(4), reference_splitter())
    return big @ rho @ big.conj().T


def herald(rho, model, patterns=h.SINGLET_PATTERNS):
    """Condition the dense state past the beam splitter on (early, late) window pairs."""
    rho = rho.reshape(4, FOCK_DIM, 4, FOCK_DIM)
    total = np.zeros((4, 4), dtype=np.complex128)
    total_prob = 0.0
    per_pattern = []
    for pattern in patterns:
        clicked = [w in pattern for w in range(4)]
        cond = np.zeros((4, 4), dtype=np.complex128)
        for visible, indices in _visible_groups():
            weight = h._click_set_probability(visible, clicked, model.detector_efficiency,
                                              model.false_click_prob)
            if weight == 0.0:
                continue
            block = rho[:, indices, :, :][:, :, :, indices]
            cond += weight * np.einsum("ikjk->ij", block)
        p = float(np.trace(cond).real)
        per_pattern.append((pattern, p))
        total += cond
        total_prob += p
    if total_prob < 1e-15:
        raise h.UnheraldableError("requested detection pattern has zero probability")
    spin = q.QuantumState((total / total_prob).ravel())
    return Herald(total_prob, spin, tuple(per_pattern))


def click_pattern_distribution(rho, model):
    """Probability of every click subset of the four detection windows."""
    rho = rho.reshape(4, FOCK_DIM, 4, FOCK_DIM)
    out = {}
    for clicked in product((False, True), repeat=len(WINDOWS)):
        p = 0.0
        for visible, indices in _visible_groups():
            block = rho[:, indices, :, :][:, :, :, indices]
            p += (float(np.einsum("ikik->", block).real)
                  * h._click_set_probability(visible, clicked, model.detector_efficiency,
                                             model.false_click_prob))
        out[frozenset(w for w, c in zip(WINDOWS, clicked) if c)] = p
    return out


# The same-port patterns herald psi+, which is usable only after a local phase
# correction that the library does not model; accepted uncorrected beside the
# cross-port patterns, they halve the fidelity to the singlet (see
# ``test_including_same_port_heralds_degrades_the_mixture``), so the library
# heralds on the cross-port patterns alone.


def heralded_patterns(include_same_port):
    return h.SINGLET_PATTERNS + (SAME_PORT_PATTERNS if include_same_port else ())


def dense_event_ready_state(model, errors, include_same_port=False):
    mixed = dense_beam_splitter(joint_source_state(errors, model.visibility))
    return herald(mixed, model, heralded_patterns(include_same_port))


# ---- spin-photon state ---------------------------------------------------------
#
# The spin (x) time-bin state of one node after an emission round, as a dense
# 4x4 matrix: the reference for the conditional rates that ``characterize``
# reads straight from the error model.


def spin_photon_state(errors):
    """Node A's (|up, early> + |down, late>)/sqrt(2), the spin flipped per the time bin's rate."""
    rho = np.zeros((4, 4))
    for w, f_early, f_late in flip_branches(errors.a_early, errors.a_late):
        vec = np.zeros(4)
        vec[(0 ^ f_early) * 2 + 0] = 1 / SQRT2  # ideal: up with early
        vec[(1 ^ f_late) * 2 + 1] = 1 / SQRT2   # ideal: down with late
        rho += w * np.outer(vec, vec)
    return rho


def bin_conditionals(rho):
    out = {}
    for bin_idx, name in enumerate(("early", "late")):
        p_bin = rho[bin_idx, bin_idx].real + rho[2 + bin_idx, 2 + bin_idx].real
        p_up = rho[bin_idx, bin_idx].real / p_bin
        out[name] = p_up
    return out


def test_spin_photon_state_ideal_perfectly_correlated():
    rho = spin_photon_state(NO_ERRORS)
    cond = bin_conditionals(rho)
    assert abs(cond["early"] - 1.0) < 1e-12
    assert abs(cond["late"] - 0.0) < 1e-12
    # the ideal state is the spin/time-bin Bell pair
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / SQRT2
    np.testing.assert_allclose(rho, np.outer(bell, bell), atol=1e-12)


def test_spin_photon_state_reproduces_conditional_error_rates():
    errors = h.SpinPhotonErrorModel(a_early=0.014, a_late=0.016, b_early=0.0, b_late=0.0)
    cond = bin_conditionals(spin_photon_state(errors))
    assert abs((1.0 - cond["early"]) - 0.014) < 1e-12
    assert abs(cond["late"] - 0.016) < 1e-12


def test_spin_photon_state_half_errors_decouple_spin_from_bin():
    errors = h.SpinPhotonErrorModel(a_early=0.5, a_late=0.5, b_early=0.0, b_late=0.0)
    cond = bin_conditionals(spin_photon_state(errors))
    assert abs(cond["early"] - 0.5) < 1e-12
    assert abs(cond["late"] - 0.5) < 1e-12


def test_error_model_rejects_out_of_range():
    with pytest.raises(h.HeraldingError):
        h.SpinPhotonErrorModel(a_early=0.6)


@pytest.mark.parametrize("efficiency", [(0.5,), (0.5, 0.6, 0.7)])
def test_interference_model_needs_one_efficiency_per_port(efficiency):
    # one entry used to fail later, in the build; a third was dropped silently
    with pytest.raises(h.HeraldingError,
                       match=f"detector_efficiency: expected 2 entries, got {len(efficiency)}"):
        h.InterferenceModel(detector_efficiency=efficiency)


# ---- beam splitter ----------------------------------------------------------------
#
# h._two_photon_amplitudes gives c + c^T over ordered pairs of the 8 output
# modes of one photon, m = window * 2 + sector; half its squared entries,
# summed over the ordered pairs of two windows, is the probability of finding
# the photons there.


def window_pair_probabilities(amp):
    """{sorted (window, window): probability} of where the two photons land."""
    per_pair = 0.5 * (np.abs(np.asarray(amp).reshape(4, 2, 4, 2)) ** 2).sum(axis=(1, 3))
    out = {}
    for u, v in product(range(4), repeat=2):
        key = tuple(sorted((WINDOWS[u], WINDOWS[v])))
        out[key] = out.get(key, 0.0) + per_pair[u, v]
    return out


def _coincidence_probability(amp):
    """P(one photon in each output port), summing bins and sectors."""
    return sum(p for (w1, w2), p in window_pair_probabilities(amp).items() if w1[0] != w2[0])


def test_single_photon_splits_evenly():
    # A's photon early, B's photon late: each leaves by either port half the time
    probs = window_pair_probabilities(h._two_photon_amplitudes(0, 1, 0))
    for window in WINDOWS:
        p = sum(p for pair, p in probs.items() if window in pair)
        assert abs(p - 0.5) < 1e-12


def test_hom_dip_for_indistinguishable_photons():
    amp = h._two_photon_amplitudes(0, 0, 0)
    assert _coincidence_probability(amp) < 1e-12
    assert abs(sum(window_pair_probabilities(amp).values()) - 1.0) < 1e-12


def test_distinguishable_photons_coincide_half_the_time():
    # oracle: the four routing amplitudes are (+-1/2); the two cross-port ones
    # do not cancel for orthogonal internal states, so P(coincidence) = 1/2
    amps = [0.5 * sa * sb for sa in (1, 1) for sb in (1, -1)]
    cross = abs(amps[1]) ** 2 + abs(amps[2]) ** 2
    assert abs(cross - 0.5) < 1e-15

    amp = h._two_photon_amplitudes(0, 0, 1)
    assert abs(_coincidence_probability(amp) - 0.5) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_beam_splitter_preserves_norm_on_random_inputs(seed):
    # the 8 emissions are orthonormal two-photon inputs; any superposition
    # of them keeps its norm through the splitter
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=8) + 1j * rng.normal(size=8)
    weights /= np.linalg.norm(weights)
    amp = sum(w * np.asarray(h._two_photon_amplitudes(*emission))
              for w, emission in zip(weights, product((0, 1), repeat=3)))
    assert abs(0.5 * np.sum(np.abs(amp) ** 2) - 1.0) < 1e-10


def test_beam_splitter_unitary_is_unitary():
    u = reference_splitter()
    assert np.max(np.abs(u.conj().T @ u - np.eye(FOCK_DIM))) < 1e-10


@pytest.mark.parametrize("bin_a, bin_b, sector_b", list(product((0, 1), repeat=3)))
def test_two_photon_amplitudes_match_reference_splitter(bin_a, bin_b, sector_b):
    k = fock_index(("A-in", TIME_BINS[bin_a], "shared"),
                   ("B-in", TIME_BINS[bin_b], SECTORS[sector_b]))
    fock_out = reference_splitter()[:, k]
    amp = np.asarray(h._two_photon_amplitudes(bin_a, bin_b, sector_b))
    outputs = [m for m in MODES if m[0] in OUT_PORTS]
    for m1, m2 in combinations_with_replacement(outputs, 2):
        i, j = (WINDOWS.index(m[:2]) * 2 + SECTORS.index(m[2]) for m in (m1, m2))
        # a bunched pair |2_i> has Fock amplitude amp[i, i] / sqrt(2)
        expected = amp[i, j] / SQRT2 if i == j else amp[i, j]
        assert abs(fock_out[fock_index(m1, m2)] - expected) < 1e-15
        assert amp[i, j] == amp[j, i]
    assert abs(np.sum(np.abs(fock_out) ** 2) - 1.0) < 1e-12


# ---- herald -------------------------------------------------------------------------


def _pipeline(visibility, errors=NO_ERRORS, model=None, patterns=h.SINGLET_PATTERNS):
    mixed = dense_beam_splitter(joint_source_state(errors, visibility))
    model = model or h.InterferenceModel(visibility=visibility)
    return herald(mixed, model, patterns)


def test_ideal_herald_probability_and_state_match_oracle():
    oracle_p, oracle_rho = oracle_psi_minus_herald(1.0)
    assert abs(oracle_p - 0.25) < 1e-12

    res = _pipeline(1.0)
    assert abs(res.probability - oracle_p) < 1e-10
    np.testing.assert_allclose(res.spin_state.density_matrix(), oracle_rho, atol=1e-10)
    assert q.singlet_fidelity(res.spin_state) > 1.0 - 1e-10


@pytest.mark.parametrize("visibility", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_fidelity_law_against_oracle(visibility):
    oracle_p, oracle_rho = oracle_psi_minus_herald(visibility)
    res = _pipeline(visibility)
    assert abs(res.probability - oracle_p) < 1e-9
    np.testing.assert_allclose(res.spin_state.density_matrix(), oracle_rho, atol=1e-9)
    fid = q.singlet_fidelity(res.spin_state)
    assert abs(fid - (1.0 + visibility) / 2.0) < 1e-9


def test_zero_visibility_gives_anticorrelated_mixture():
    res = _pipeline(0.0)
    expected = np.diag([0.0, 0.5, 0.5, 0.0])
    np.testing.assert_allclose(res.spin_state.density_matrix(), expected, atol=1e-9)


def test_composed_fidelity_with_characterised_errors_in_band():
    res = h.event_ready_state(h.InterferenceModel(visibility=0.90), h.SpinPhotonErrorModel())
    fid = q.singlet_fidelity(res.spin_state)
    assert 0.89 <= fid <= 0.95


def test_fidelity_monotone_in_visibility():
    fids = []
    for v in np.linspace(0.0, 1.0, 11):
        res = h.event_ready_state(h.InterferenceModel(visibility=float(v)), NO_ERRORS)
        fids.append(q.singlet_fidelity(res.spin_state))
    assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))


def test_port_swapped_pattern_gives_identical_state():
    p1, p2 = h.SINGLET_PATTERNS
    res1 = _pipeline(0.7, patterns=(p1,))
    res2 = _pipeline(0.7, patterns=(p2,))
    assert abs(res1.probability - res2.probability) < 1e-12
    np.testing.assert_allclose(res1.spin_state.density_matrix(),
                               res2.spin_state.density_matrix(), atol=1e-10)


def test_click_pattern_distribution_sums_to_one():
    mixed = dense_beam_splitter(joint_source_state(h.SpinPhotonErrorModel(), 0.8))
    model = h.InterferenceModel(visibility=0.8, detector_efficiency=(0.7, 0.9),
                                false_click_prob=false_click(0.01, 0.005))
    dist = click_pattern_distribution(mixed, model)
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    assert all(p >= -1e-12 for p in dist.values())


def test_dark_counts_degrade_the_heralded_state():
    clean = h.event_ready_state(h.InterferenceModel(visibility=1.0), NO_ERRORS)
    noisy = h.event_ready_state(
        h.InterferenceModel(visibility=1.0, false_click_prob=0.05), NO_ERRORS
    )
    f_clean = q.singlet_fidelity(clean.spin_state)
    f_noisy = q.singlet_fidelity(noisy.spin_state)
    assert f_noisy < f_clean  # false clicks mix in non-projected states
    assert 0.0 < noisy.probability < 1.0


def test_unheraldable_pattern_raises():
    dead = h.InterferenceModel(visibility=1.0, detector_efficiency=(0.0, 0.0))
    with pytest.raises(h.UnheraldableError):
        h.event_ready_state(dead, NO_ERRORS)
    mixed = dense_beam_splitter(joint_source_state(NO_ERRORS, 1.0))
    with pytest.raises(h.UnheraldableError):
        herald(mixed, dead)


def test_same_port_pattern_is_psi_plus_like():
    res = _pipeline(1.0, patterns=SAME_PORT_PATTERNS[:1])
    plus = np.zeros(4)
    plus[1] = plus[2] = 1 / SQRT2
    fid = float(np.real(plus @ res.spin_state.density_matrix() @ plus))
    assert abs(res.probability - 0.125) < 1e-10
    assert fid > 1.0 - 1e-9


def test_including_same_port_heralds_degrades_the_mixture():
    # without feed-forward correction the accepted mixture is half singlet,
    # half triplet: fidelity collapses to ~1/2 while the rate doubles. This is
    # why the library heralds on the cross-port patterns alone.
    strict = _pipeline(1.0)
    loose = _pipeline(1.0, patterns=heralded_patterns(include_same_port=True))
    ideal = h.event_ready_state(h.InterferenceModel(visibility=1.0), NO_ERRORS)
    assert abs(ideal.probability - strict.probability) < 1e-12
    assert abs(loose.probability - 2 * strict.probability) < 1e-9
    fid = q.singlet_fidelity(loose.spin_state)
    assert abs(fid - 0.5) < 1e-9


# ---- Gram-matrix build against the dense route ---------------------------------------


def _equivalence_grid():
    """(model, errors) points: V and errors at their edges and at random values."""
    rng = np.random.default_rng(1508)
    points = [
        (h.InterferenceModel(visibility=1.0), NO_ERRORS),
        (h.InterferenceModel(visibility=0.0), NO_ERRORS),
        (h.InterferenceModel(visibility=0.0), h.SpinPhotonErrorModel(0.5, 0.5, 0.5, 0.5)),
        (h.InterferenceModel(visibility=1.0), h.SpinPhotonErrorModel(0.5, 0.0, 0.0, 0.5)),
        (h.InterferenceModel(visibility=0.9), h.SpinPhotonErrorModel()),
        (h.InterferenceModel(visibility=0.8, detector_efficiency=(0.7, 0.9),
                             false_click_prob=false_click(0.01, 0.005)),
         h.SpinPhotonErrorModel()),
    ]
    for _ in range(6):
        errors = [float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5)])) for _ in range(4)]
        model = h.InterferenceModel(
            visibility=float(rng.choice([0.0, 1.0, rng.uniform()])),
            detector_efficiency=tuple(rng.uniform(0.3, 1.0, 2)),
            false_click_prob=false_click(float(rng.uniform(0.0, 0.05)),
                                         float(rng.uniform(0.0, 0.05))))
        points.append((model, h.SpinPhotonErrorModel(*errors)))
    return points


def branch_spin_maps(errors):
    """Weight and 0/1 (spin pair, emission pair) matrix of each (A x B) flip branch."""
    out = []
    for w_a, fe_a, fl_a in flip_branches(errors.a_early, errors.a_late):
        for w_b, fe_b, fl_b in flip_branches(errors.b_early, errors.b_late):
            m = np.zeros((4, 4))
            for bin_a, bin_b in product((0, 1), repeat=2):
                # ideal: spin up (0) with the early photon, down (1) with the late
                s_a = fe_a if bin_a == 0 else 1 ^ fl_a
                s_b = fe_b if bin_b == 0 else 1 ^ fl_b
                m[s_a * 2 + s_b, bin_a * 2 + bin_b] = 1.0
            out.append((w_a * w_b, m))
    return out


def gram_build(model, errors, patterns):
    """``event_ready_state``'s sum over ``patterns`` from the library's per-pattern
    Gram matrices, which take any early/late pattern, the same-port ones included."""
    v = model.visibility
    total = np.zeros((4, 4), dtype=np.complex128)
    total_prob = 0.0
    per_pattern = []
    for pattern in patterns:
        shared, private = (np.array(g) for g in h._pattern_grams(
            pattern, model.detector_efficiency, model.false_click_prob))
        gram = 0.25 * (v * shared + (1.0 - v) * private)
        cond = sum(w * m @ gram @ m.T for w, m in branch_spin_maps(errors))
        p = float(np.trace(cond))
        per_pattern.append((pattern, p))
        total += cond
        total_prob += p
    spin = q.QuantumState((total / total_prob).ravel())
    return Herald(total_prob, spin, tuple(per_pattern))


@pytest.mark.parametrize("include_same_port", [False, True])
@pytest.mark.parametrize("model, errors", _equivalence_grid())
def test_event_ready_state_matches_dense_route(model, errors, include_same_port):
    # the library heralds on the cross-port patterns alone; with the same-port
    # ones too, its Gram matrices are checked where both photons may leave by one port
    res = gram_build(model, errors, heralded_patterns(include_same_port))
    ref = dense_event_ready_state(model, errors, include_same_port)
    assert len(res.pattern_probabilities) == len(ref.pattern_probabilities)
    for (pattern, p), (ref_pattern, ref_p) in zip(res.pattern_probabilities,
                                                  ref.pattern_probabilities):
        assert pattern == ref_pattern
        assert abs(p - ref_p) < 1e-12
    if not include_same_port:
        res = h.event_ready_state(model, errors)
    assert abs(res.probability - ref.probability) < 1e-12
    np.testing.assert_allclose(res.spin_state.density_matrix(),
                               ref.spin_state.density_matrix(), rtol=0, atol=1e-12)


# ---- the build against the per-branch ket loop ---------------------------------------
#
# The reference carries each flip branch as one ket over spin pair x ordered
# output-mode pair and sums (ket * click weights) ket^T per pattern: the build
# the Gram matrices factor.


def reference_branch_kets(errors, visibility):
    """One ``ket[s] += amp`` per flip branch and emission, each sector on its own."""
    emissions = []  # (bin A, bin B, photon-pair amplitude)
    for bin_a, bin_b in product((0, 1), repeat=2):
        for sector_b, amp_b in ((0, math.sqrt(visibility)), (1, math.sqrt(1.0 - visibility))):
            if amp_b == 0.0:
                continue
            pair = np.asarray(h._two_photon_amplitudes(bin_a, bin_b, sector_b)).ravel()
            emissions.append((bin_a, bin_b, 0.5 * amp_b * pair))
    weights, kets = [], []
    for w_a, fe_a, fl_a in flip_branches(errors.a_early, errors.a_late):
        for w_b, fe_b, fl_b in flip_branches(errors.b_early, errors.b_late):
            ket = np.zeros((4, 64))
            for bin_a, bin_b, amp in emissions:
                # ideal: spin up (0) with the early photon, down (1) with the late
                s_a = fe_a if bin_a == 0 else 1 ^ fl_a
                s_b = fe_b if bin_b == 0 else 1 ^ fl_b
                ket[s_a * 2 + s_b] += amp
            weights.append(w_a * w_b)
            kets.append(ket)
    return np.array(weights), np.array(kets)


def reference_pattern_weights(pattern, model):
    """The 4x4 window-pair click table, spread over the sectors by a Kronecker product."""
    clicked = [w in pattern for w in range(4)]
    table = np.zeros((4, 4))
    for u, v in product(range(4), repeat=2):
        visible = [0] * 4
        visible[u] += 1
        visible[v] += 1
        table[u, v] = h._click_set_probability(visible, clicked, model.detector_efficiency,
                                               model.false_click_prob)
    return np.kron(table, np.ones((2, 2))).ravel()


def ket_build(model, errors, patterns):
    """``event_ready_state``'s sum over ``patterns``, from the two references above."""
    branch_weights, kets = reference_branch_kets(errors, model.visibility)
    total = np.zeros((4, 4), dtype=np.complex128)
    total_prob = 0.0
    per_pattern = []
    for pattern in patterns:
        clicked = kets * reference_pattern_weights(pattern, model)
        # half: every photon pair is counted as both (i, j) and (j, i)
        cond = 0.5 * np.einsum("b,bik,bjk->ij", branch_weights, clicked, kets)
        p = float(np.trace(cond))
        per_pattern.append((pattern, p))
        total += cond
        total_prob += p
    spin = q.QuantumState((total / total_prob).ravel())
    return Herald(total_prob, spin, tuple(per_pattern))


def reference_build(model, errors, include_same_port):
    return ket_build(model, errors, heralded_patterns(include_same_port))


def _random_points(count, seed=1305):
    """(model, errors) points with V, errors, efficiencies and false clicks often at an edge."""
    rng = np.random.default_rng(seed)

    def draw(lo, hi, edges):
        return float(rng.choice(edges)) if rng.uniform() < 0.3 else float(rng.uniform(lo, hi))

    points = []
    for _ in range(count):
        model = h.InterferenceModel(
            visibility=draw(0.0, 1.0, [0.0, 1.0]),
            detector_efficiency=(draw(0.05, 1.0, [1.0]), draw(0.05, 1.0, [1.0])),
            false_click_prob=false_click(draw(0.0, 0.1, [0.0]), draw(0.0, 0.1, [0.0])))
        points.append((model, h.SpinPhotonErrorModel(*(draw(0.0, 0.5, [0.0, 0.5])
                                                       for _ in range(4)))))
    return points


@pytest.mark.parametrize("include_same_port", [False, True])
def test_event_ready_state_matches_the_per_branch_loop(include_same_port):
    # the Gram build sums in another order than the ket loop: a few ulps apart
    for model, errors in _equivalence_grid() + _random_points(400):
        point = f"{model}, {errors}"
        ref = reference_build(model, errors, include_same_port)
        # per-pattern probabilities from the library's Gram matrices, same-port ones too
        res = gram_build(model, errors, heralded_patterns(include_same_port))
        for (pattern, p), (ref_pattern, ref_p) in zip(res.pattern_probabilities,
                                                      ref.pattern_probabilities, strict=True):
            assert pattern == ref_pattern
            assert abs(p - ref_p) <= 4e-15 * ref_p, point
        if not include_same_port:
            res = h.event_ready_state.__wrapped__(model, errors)
        assert np.max(np.abs(res.spin_state.density_matrix()
                             - ref.spin_state.density_matrix())) <= 1e-15, point
        assert abs(res.probability - ref.probability) <= 4e-15 * ref.probability, point


# ---- the flat, table-driven build against the nested-list loop ------------------------
#
# The reference is the build on nested 4x4 lists, one (e, f) entry at a time:
# the flat lists and the spin-index table must add the same terms to every
# entry in the same order, so the two agree bit for bit.


def nested_list_build(model, errors):
    """(herald probability, 4x4 nested list of the spin state) over ``SINGLET_PATTERNS``."""
    v = model.visibility
    gram = [[0.0] * 4 for _ in range(4)]
    for pattern in h.SINGLET_PATTERNS:
        shared, private = h._pattern_grams(pattern, model.detector_efficiency,
                                           model.false_click_prob)
        for e, f in product(range(4), repeat=2):
            gram[e][f] += 0.25 * (v * shared[e][f] + (1.0 - v) * private[e][f])
    sides = []
    for e_early, e_late in ((errors.a_early, errors.a_late), (errors.b_early, errors.b_late)):
        branches = []
        for f_early, f_late in product((0, 1), repeat=2):
            w = (e_early if f_early else 1.0 - e_early) * (e_late if f_late else 1.0 - e_late)
            if w > 0.0:  # a branch that never happens adds no terms, not zero ones
                branches.append((w, (f_early, 1 ^ f_late)))
        sides.append(branches)
    rho = [[0.0] * 4 for _ in range(4)]
    for (w_a, spin_a), (w_b, spin_b) in product(*sides):
        w = w_a * w_b
        spins = [spin_a[bin_a] * 2 + spin_b[bin_b] for bin_a, bin_b in product((0, 1), repeat=2)]
        for e, f in product(range(4), repeat=2):
            rho[spins[e]][spins[f]] += w * gram[e][f]
    probability = 0.0
    for s in range(4):
        probability += rho[s][s]
    if probability < 1e-15:
        raise h.UnheraldableError("requested detection pattern has zero probability")
    return probability, [[x / probability for x in row] for row in rho]


def sweep_points():
    """The 200 (model, errors) points of the pinned sweep-point digest."""
    rng = np.random.default_rng(2323)
    points = []
    for _ in range(200):
        model = h.InterferenceModel(visibility=float(rng.uniform(0.80, 0.99)))
        points.append((model, h.SpinPhotonErrorModel(*map(float, rng.uniform(0.0, 0.03, 4)))))
    return points


def _bitwise_points():
    half = h.SpinPhotonErrorModel(0.5, 0.5, 0.5, 0.5)
    return [
        *sweep_points(),
        *((h.InterferenceModel(visibility=v), NO_ERRORS) for v in (0.0, 0.5, 0.9, 1.0)),
        *((h.InterferenceModel(visibility=v), half) for v in (0.0, 0.9, 1.0)),
        # one bin never flips on each node: half of each node's branches weigh exactly 0
        (h.InterferenceModel(visibility=0.9), h.SpinPhotonErrorModel(0.0, 0.02, 0.013, 0.0)),
        (h.InterferenceModel(visibility=0.85), h.SpinPhotonErrorModel(0.014, 0.0, 0.0, 0.007)),
        (h.InterferenceModel(visibility=0.9, false_click_prob=false_click(0.01, 0.005)),
         h.SpinPhotonErrorModel()),
        (h.InterferenceModel(visibility=0.8, detector_efficiency=(0.6, 0.95)),
         h.SpinPhotonErrorModel()),
        # a dead port: no singlet pattern can click, so both builds raise
        (h.InterferenceModel(visibility=0.9, detector_efficiency=(0.0, 1.0)),
         h.SpinPhotonErrorModel()),
        *_equivalence_grid(),
        *_random_points(400),
    ]


def test_event_ready_state_matches_the_nested_list_build_bit_for_bit():
    unheraldable = 0
    for model, errors in _bitwise_points():
        point = f"{model}, {errors}"
        try:
            probability, rho = nested_list_build(model, errors)
        except h.UnheraldableError as reference_error:
            with pytest.raises(h.UnheraldableError) as error:
                h.event_ready_state.__wrapped__(model, errors)
            assert str(error.value) == str(reference_error), point
            unheraldable += 1
            continue
        res = h.event_ready_state.__wrapped__(model, errors)
        assert res.probability.hex() == probability.hex(), point
        assert [z.hex() for z in res.spin_state.data] == [x.hex() for row in rho for x in row], \
            point
        assert all(type(z) is float for z in res.spin_state.data), point
    assert unheraldable == 1  # the dead port


def test_gram_support_is_cached_read_only_and_holds_every_non_zero_entry():
    for efficiency, false_click, size in [((1.0, 1.0), 0.0, 4), ((0.6, 0.95), 0.0, 4),
                                          ((1.0, 1.0), 0.01, 6), ((0.6, 0.95), 0.01, 6),
                                          ((0.0, 1.0), 0.0, 0)]:
        cached = h._gram_support(efficiency, false_click)
        assert h._gram_support(efficiency, false_click) is cached
        support, values = cached
        # inefficient detectors alone add no entry: a both-early or both-late
        # emission pair fills only one time bin, and only a false click fills the other
        assert len(support) == size
        assert len(values) == len(h.SINGLET_PATTERNS)
        for pattern, pattern_values in zip(h.SINGLET_PATTERNS, values):
            for gram, on_support in zip(h._pattern_grams(pattern, efficiency, false_click),
                                        pattern_values):
                flat = [x for row in gram for x in row]
                assert on_support == tuple(flat[j] for j in support)
                # off the support every entry is +0.0, which the build skips
                assert all(flat[j].hex() == "0x0.0p+0"
                           for j in range(16) if j not in support)
        with pytest.raises(TypeError):
            values[0][0][0] = 0.5
        with pytest.raises(TypeError):
            support[0] = 0
    assert h._gram_support((1.0, 1.0), 0.0)[0] == (5, 6, 9, 10)


def test_pattern_grams_are_cached_and_read_only():
    model = h.InterferenceModel(detector_efficiency=(0.7, 0.9), false_click_prob=0.01)
    for pattern in heralded_patterns(include_same_port=True):
        weights = reference_pattern_weights(pattern, model)
        grams = h._pattern_grams(pattern, model.detector_efficiency, model.false_click_prob)
        for sector_b, gram in enumerate(grams):
            amps = np.array([np.ravel(h._two_photon_amplitudes(bin_a, bin_b, sector_b))
                             for bin_a, bin_b in product((0, 1), repeat=2)])
            np.testing.assert_allclose(gram, 0.5 * (amps * weights) @ amps.T,
                                       rtol=0, atol=1e-16)
            assert np.array(gram).tobytes() == np.array(gram).T.tobytes()  # symmetric
        assert h._pattern_grams(pattern, model.detector_efficiency,
                                model.false_click_prob) is grams
        with pytest.raises(TypeError):
            grams[0][0][0] = 0.5


@pytest.mark.parametrize("change", [{"false_click_prob": 0.02},
                                    {"false_click_prob": 0.0},
                                    {"detector_efficiency": (0.5, 0.9)}])
def test_models_that_differ_only_in_detection_give_different_states(change):
    errors = h.SpinPhotonErrorModel()
    base = h.InterferenceModel(visibility=0.9, false_click_prob=0.01)
    other = dataclasses.replace(base, **change)
    assert other.visibility == base.visibility
    rho, rho_other = (h.event_ready_state(m, errors).spin_state.density_matrix()
                      for m in (base, other))
    assert np.max(np.abs(rho - rho_other)) > 1e-6
    dense = dense_event_ready_state(other, errors).spin_state.density_matrix()
    np.testing.assert_allclose(rho_other, dense, rtol=0, atol=1e-12)


def test_event_ready_build_validates_only_the_final_spin_state(monkeypatch):
    built = []

    class RecordingState(q.QuantumState):
        def __post_init__(self):
            super().__post_init__()
            built.append(len(self.data))

    # the build imports QuantumState from the quantum module when it runs
    monkeypatch.setattr(q, "QuantumState", RecordingState)
    misses = h.event_ready_state.cache_info().misses
    # a point no other test builds, so the call below is a cache miss
    h.event_ready_state(h.InterferenceModel(visibility=0.6180339887),
                        h.SpinPhotonErrorModel(0.011, 0.022, 0.033, 0.044))
    assert h.event_ready_state.cache_info().misses == misses + 1
    assert built == [16]
    # the benchmark tracer wraps the config module's global and reads cache_info()
    assert config.event_ready_state is h.event_ready_state
    assert callable(config.event_ready_state.cache_info)


# ---- visibility estimator -----------------------------------------------------------


def test_hom_visibility_central_peak_counts():
    est = h.hom_visibility(3, 28)
    assert abs(est.value - 0.893) < 5e-4
    assert abs(est.sigma - 0.06) < 0.01


def test_hom_visibility_limits():
    assert h.hom_visibility(0, 50).value == 1.0
    assert h.hom_visibility(50, 50).value == 0.0


def test_hom_visibility_requires_reference_counts():
    with pytest.raises(h.HeraldingError):
        h.hom_visibility(3, 0)
