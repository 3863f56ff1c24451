import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import quantum as q

SQRT2 = math.sqrt(2.0)


def random_density_matrix(rng, dim):
    """Ginibre construction: G G^dag normalised to unit trace."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_channel(rng, dim, n_kraus=3):
    """Random CPTP map from a Haar-ish isometry (QR of a Ginibre block)."""
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    v, _ = np.linalg.qr(g)
    return q.Channel(tuple(v[i * dim:(i + 1) * dim, :] for i in range(n_kraus)))


# ---- construction and validation --------------------------------------------


def test_ket_validation_rejects_unnormalised():
    with pytest.raises(q.StateError):
        q.QuantumState(np.array([1.0, 1.0]), (("spin", 2),))


def test_density_validation_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.1, 0.5]])
    with pytest.raises(q.StateError):
        q.QuantumState(m, (("spin", 2),))


def test_density_validation_rejects_negative_eigenvalue():
    m = np.array([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(q.StateError):
        q.QuantumState(m, (("spin", 2),))


def test_dimension_product_must_match():
    with pytest.raises(q.StateError):
        q.QuantumState(np.array([1.0, 0, 0]), (("a", 2), ("b", 2)))


def test_capacity_cap_enforced():
    with pytest.raises(q.CapacityError):
        q.QuantumState(np.zeros(8192), (("big", 8192),))


def test_tensor_capacity_error():
    # a 64 x 65 product space exceeds the cap although each factor is small
    with pytest.raises(q.CapacityError):
        q.QuantumState(np.zeros(64 * 65), (("a", 64), ("b", 65)))


@pytest.mark.parametrize("data", [
    np.array([np.nan, 1.0]),
    np.full((2, 2), np.nan),
    np.array([[1.0, 0.0], [0.0, np.inf]]),
])
def test_non_finite_entries_rejected(data):
    with pytest.raises(q.StateError, match="non-finite"):
        q.QuantumState(data, (("spin", 2),))


def test_duplicate_names_rejected():
    with pytest.raises(q.StateError):
        q.QuantumState(np.array([1.0, 0, 0, 0]), (("s", 2), ("s", 2)))


# ---- bloch observables --------------------------------------------------------


def test_bloch_zero_is_pauli_z():
    np.testing.assert_allclose(q.bloch_observable(0.0).matrix, np.diag([1.0, -1.0]), atol=1e-15)


def test_bloch_half_pi_is_pauli_x():
    np.testing.assert_allclose(q.bloch_observable(math.pi / 2).matrix,
                               np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_bloch_minus_three_quarter_pi_entries():
    m = q.bloch_observable(-3 * math.pi / 4).matrix
    np.testing.assert_allclose(m, np.array([[-1, -1], [-1, 1]]) / SQRT2, atol=1e-12)


@given(st.floats(-50.0, 50.0))
def test_bloch_observable_is_involutory(theta):
    m = q.bloch_observable(theta).matrix
    assert np.max(np.abs(m @ m - np.eye(2))) < 1e-12


# ---- expectation ---------------------------------------------------------------


def test_singlet_zz_perfectly_anticorrelated():
    e = q.expectation(q.psi_minus(), q.bloch_observable(0.0), q.bloch_observable(0.0))
    assert abs(e + 1.0) < 1e-12


def test_singlet_z_against_tilted_axis_direct_trace_oracle():
    # independent oracle: explicit 4x4 trace with hand-built matrices
    psi = np.array([0, 1, -1, 0]) / SQRT2
    rho = np.outer(psi, psi)
    za = np.diag([1.0, -1.0])
    bb = -(np.diag([1.0, -1.0]) + np.array([[0, 1], [1, 0]])) / SQRT2
    oracle = np.trace(rho @ np.kron(za, bb)).real
    assert abs(oracle - 1 / SQRT2) < 1e-12
    e = q.expectation(q.psi_minus(), q.bloch_observable(0.0), q.bloch_observable(-3 * math.pi / 4))
    assert abs(e - oracle) < 1e-12


def test_singlet_x_against_other_tilted_axis():
    e = q.expectation(q.psi_minus(), q.bloch_observable(math.pi / 2),
                      q.bloch_observable(3 * math.pi / 4))
    assert abs(e + 1 / SQRT2) < 1e-12


def test_singlet_correlation_closed_form_over_random_angles():
    rng = np.random.default_rng(20240811)
    psi = q.psi_minus()
    for _ in range(1000):
        ta, tb = rng.uniform(-math.pi, math.pi, size=2)
        e = q.expectation(psi, q.bloch_observable(ta), q.bloch_observable(tb))
        assert abs(e + math.cos(ta - tb)) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(q.StateError):
        q.expectation(q.psi_minus(), q.Observable(np.eye(3)), q.Observable(np.eye(2)))


# ---- channels -------------------------------------------------------------------


def test_identity_channel_leaves_ket_unchanged():
    psi = q.psi_minus()
    out = q.apply_channel(psi, q.Channel((np.eye(2),)), "spin_a")
    np.testing.assert_allclose(out.data, psi.data, atol=1e-12)


def test_full_depolarizing_kills_zz_correlation():
    # Kraus set of the p = 1 depolarizing map: I, X, Y and Z, each with weight 1/4
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1]))
    depolarize = q.Channel(tuple(0.5 * p for p in paulis))
    out = q.apply_channel(q.psi_minus(), depolarize, "spin_a")
    assert abs(np.trace(out.density_matrix()).real - 1.0) < 1e-12
    e = q.expectation(out, q.bloch_observable(0.0), q.bloch_observable(0.0))
    assert abs(e) < 1e-12


def test_bit_flip_probability_one_flips_zz_sign():
    # oracle: conjugate the singlet density matrix by X (x) I directly
    psi = np.array([0, 1, -1, 0]) / SQRT2
    flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    oracle = flip @ np.outer(psi, psi) @ flip
    zz = np.kron(np.diag([1, -1]), np.diag([1, -1]))
    assert abs(np.trace(oracle @ zz).real - 1.0) < 1e-12

    out = q.apply_channel(q.psi_minus(), q.Channel((np.array([[0, 1], [1, 0]]),)), "spin_a")
    np.testing.assert_allclose(out.density_matrix(), oracle, atol=1e-12)


def test_non_cptp_kraus_rejected():
    with pytest.raises(q.StateError):
        q.Channel((np.array([[1.0, 0], [0, 0.5]]),))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4))
def test_random_channels_preserve_trace_and_psd(seed, dim, n_kraus):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, dim)
    state = q.QuantumState(rho, (("sys", dim),))
    out = q.apply_channel(state, random_channel(rng, dim, n_kraus), "sys")
    m = out.density_matrix()
    assert abs(np.trace(m).real - 1.0) < 1e-10
    assert np.min(np.linalg.eigvalsh(m)) > -1e-9


# ---- Tsirelson ceiling ------------------------------------------------------------


def test_tsirelson_bound_on_random_states_and_angles():
    rng = np.random.default_rng(7)
    bound = 2 * SQRT2 + 1e-9
    for _ in range(1000):
        state = q.QuantumState(random_density_matrix(rng, 4), (("a", 2), ("b", 2)))
        ta0, ta1, tb0, tb1 = rng.uniform(-math.pi, math.pi, size=4)
        e = {
            (a, b): q.expectation(state, q.bloch_observable(t_a), q.bloch_observable(t_b))
            for (a, t_a) in ((0, ta0), (1, ta1))
            for (b, t_b) in ((0, tb0), (1, tb1))
        }
        s = e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
        assert abs(s) <= bound
