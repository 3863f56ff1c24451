import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import quantum as q
from bellsim import readout as r

SQRT2 = math.sqrt(2.0)
PERFECT = r.ReadoutModel(1e9, 0.0, 0.0, duration_us=10.0)


# ---- plain-numpy references -------------------------------------------------------


def bloch(theta):
    """Spin observable cos(theta) Z + sin(theta) X as a 2x2 matrix."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def expectation(state, obs_a, obs_b):
    """Tr(rho A (x) B) for a bipartite state; A acts on the first subsystem."""
    return float(np.trace(state.density_matrix() @ np.kron(obs_a, obs_b)).real)


def apply_kraus(rho, kraus):
    """sum_k K rho K^dag."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def embed(op, state, name):
    """Lift an operator on one named subsystem to the joint space."""
    dims = [d for _, d in state.subsystems]
    idx = [n for n, _ in state.subsystems].index(name)
    return np.kron(np.kron(np.eye(math.prod(dims[:idx])), op), np.eye(math.prod(dims[idx + 1:])))


def rotated_povm(model, theta):
    """(E+, E-) for readout along theta: E+ = F+ P+ + (1 - F-) P-, E- = I - E+."""
    f_plus, f_minus = model.fidelities
    eye, n = np.eye(2), bloch(theta)
    e_plus = f_plus * ((eye + n) / 2) + (1.0 - f_minus) * ((eye - n) / 2)
    return e_plus, eye - e_plus


def program_singlet_correlation(theta_a, theta_b):
    """The program's <A (x) B> on the singlet with perfect readouts: u_A T u_B."""
    return (r.observable_components(PERFECT, theta_a) @ q.correlation_tensor(q.psi_minus())
            @ r.observable_components(PERFECT, theta_b))


def random_density_matrix(rng, dim):
    """Ginibre construction: G G^dag normalised to unit trace."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_channel(rng, dim, n_kraus=3):
    """Kraus operators of a random CPTP map: blocks of a Haar-ish isometry (QR of a
    Ginibre block)."""
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    v, _ = np.linalg.qr(g)
    return [v[i * dim:(i + 1) * dim, :] for i in range(n_kraus)]


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


# ---- a perfect readout measures the bloch observable ------------------------------


def test_bloch_zero_is_pauli_z():
    np.testing.assert_allclose(r.observable_components(PERFECT, 0.0), [0.0, 1.0, 0.0],
                               atol=1e-15)


def test_bloch_half_pi_is_pauli_x():
    np.testing.assert_allclose(r.observable_components(PERFECT, math.pi / 2), [0.0, 0.0, 1.0],
                               atol=1e-15)


def test_bloch_minus_three_quarter_pi_entries():
    np.testing.assert_allclose(r.observable_components(PERFECT, -3 * math.pi / 4),
                               np.array([0.0, -1.0, -1.0]) / SQRT2, atol=1e-12)


@given(st.floats(-50.0, 50.0))
def test_bloch_observable_is_involutory(theta):
    # (c0 I + c1 Z + c2 X)^2 = I exactly when c0 = 0 and c1^2 + c2^2 = 1
    u = r.observable_components(PERFECT, theta)
    assert u[0] == 0.0
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12


# ---- correlations: the tensor contraction against Tr(rho A (x) B) ---------------------


def test_singlet_zz_perfectly_anticorrelated():
    e = expectation(q.psi_minus(), bloch(0.0), bloch(0.0))
    assert abs(e + 1.0) < 1e-12
    assert abs(program_singlet_correlation(0.0, 0.0) + 1.0) < 1e-12


def test_singlet_z_against_tilted_axis_direct_trace_oracle():
    # independent oracle: explicit 4x4 trace with hand-built matrices
    psi = np.array([0, 1, -1, 0]) / SQRT2
    rho = np.outer(psi, psi)
    za = np.diag([1.0, -1.0])
    bb = -(np.diag([1.0, -1.0]) + np.array([[0, 1], [1, 0]])) / SQRT2
    oracle = np.trace(rho @ np.kron(za, bb)).real
    assert abs(oracle - 1 / SQRT2) < 1e-12
    e = expectation(q.psi_minus(), bloch(0.0), bloch(-3 * math.pi / 4))
    assert abs(e - oracle) < 1e-12
    assert abs(program_singlet_correlation(0.0, -3 * math.pi / 4) - oracle) < 1e-12


def test_singlet_x_against_other_tilted_axis():
    e = expectation(q.psi_minus(), bloch(math.pi / 2), bloch(3 * math.pi / 4))
    assert abs(e + 1 / SQRT2) < 1e-12
    assert abs(program_singlet_correlation(math.pi / 2, 3 * math.pi / 4) + 1 / SQRT2) < 1e-12


def test_singlet_correlation_closed_form_over_random_angles():
    rng = np.random.default_rng(20240811)
    psi = q.psi_minus()
    for _ in range(1000):
        ta, tb = rng.uniform(-math.pi, math.pi, size=2)
        e = expectation(psi, bloch(ta), bloch(tb))
        assert abs(e + math.cos(ta - tb)) < 1e-12
        assert abs(program_singlet_correlation(ta, tb) + math.cos(ta - tb)) < 1e-12


def test_correlation_tensor_is_kept_on_the_state_and_read_only():
    rng = np.random.default_rng(44)
    state = q.QuantumState(random_density_matrix(rng, 4), (("a", 2), ("b", 2)))
    tensor = q.correlation_tensor(state)
    assert q.correlation_tensor(state) is tensor
    with pytest.raises(ValueError):
        tensor[0, 0] = 2.0
    for i, j in np.ndindex(3, 3):
        expected = np.trace(state.density_matrix() @ np.kron(q.PAULIS[i], q.PAULIS[j])).real
        assert abs(tensor[i, j] - expected) < 1e-14


def test_a_replaced_state_computes_its_own_tensor():
    state = q.psi_minus()
    singlet = q.correlation_tensor(state)
    up_up = dataclasses.replace(state, data=np.array([1.0, 0.0, 0.0, 0.0]))
    tensor = q.correlation_tensor(up_up)
    assert tensor is not singlet
    assert tensor[1, 1] == 1.0
    assert abs(singlet[1, 1] + 1.0) < 1e-15
    assert q.correlation_tensor(state) is singlet


def test_expectation_dimension_mismatch():
    qubit_qutrit = q.QuantumState(np.eye(6) / 6, (("spin", 2), ("level", 3)))
    with pytest.raises(q.StateError, match="two-qubit"):
        q.correlation_tensor(qubit_qutrit)


# ---- channels -------------------------------------------------------------------


def test_full_depolarizing_kills_zz_correlation():
    # Kraus set of the p = 1 depolarizing map: I, X, Y and Z, each with weight 1/4
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1]))
    psi = q.psi_minus()
    out = q.QuantumState(apply_kraus(psi.density_matrix(),
                                     [embed(0.5 * p, psi, "spin_a") for p in paulis]),
                         psi.subsystems)
    assert abs(np.trace(out.density_matrix()).real - 1.0) < 1e-12
    e = expectation(out, bloch(0.0), bloch(0.0))
    assert abs(e) < 1e-12


def test_bit_flip_probability_one_flips_zz_sign():
    # oracle: conjugate the singlet density matrix by X (x) I directly
    psi = np.array([0, 1, -1, 0]) / SQRT2
    flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    oracle = flip @ np.outer(psi, psi) @ flip
    zz = np.kron(np.diag([1, -1]), np.diag([1, -1]))
    assert abs(np.trace(oracle @ zz).real - 1.0) < 1e-12

    singlet = q.psi_minus()
    out = apply_kraus(singlet.density_matrix(),
                      [embed(np.array([[0, 1], [1, 0]]), singlet, "spin_a")])
    np.testing.assert_allclose(out, oracle, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4))
def test_random_channels_preserve_trace_and_psd(seed, dim, n_kraus):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, dim)
    m = apply_kraus(rho, random_channel(rng, dim, n_kraus))
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
            (a, b): expectation(state, bloch(t_a), bloch(t_b))
            for (a, t_a) in ((0, ta0), (1, ta1))
            for (b, t_b) in ((0, tb0), (1, tb1))
        }
        s = e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
        assert abs(s) <= bound
