import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import heralding as h
from bellsim import quantum as q
from bellsim import readout as r

from test_heralding import _equivalence_grid, _random_points, sweep_points

SQRT2 = math.sqrt(2.0)
PERFECT = r.ReadoutModel(1e9, 0.0, 0.0, duration_us=10.0)
# I, Z and X in the up/down basis
PAULIS = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]], dtype=np.complex128)


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


def embed(op, side):
    """Lift a one-spin operator to the pair: side 0 is spin A, side 1 spin B."""
    return np.kron(op, np.eye(2)) if side == 0 else np.kron(np.eye(2), op)


def singlet():
    """The singlet (|up,down> - |down,up>)/sqrt(2) as a program state, built by hand."""
    psi = np.array([0, 1, -1, 0]) / SQRT2
    return q.QuantumState(np.outer(psi, psi).ravel())


def rotated_povm(model, theta):
    """(E+, E-) for readout along theta: E+ = F+ P+ + (1 - F-) P-, E- = I - E+."""
    f_plus, f_minus = model.fidelities
    eye, n = np.eye(2), bloch(theta)
    e_plus = f_plus * ((eye + n) / 2) + (1.0 - f_minus) * ((eye - n) / 2)
    return e_plus, eye - e_plus


def program_singlet_correlation(theta_a, theta_b):
    """The program's <A (x) B> on the singlet with perfect readouts: u_A T u_B."""
    return (np.array(r.observable_components(PERFECT, theta_a))
            @ np.array(singlet().correlation_tensor)
            @ np.array(r.observable_components(PERFECT, theta_b)))


def random_density_matrix(rng, dim):
    """Real Ginibre construction: G G^T normalised to unit trace, a real state as the
    model's are."""
    g = rng.normal(size=(dim, dim))
    rho = g @ g.T
    return rho / np.trace(rho)


def random_channel(rng, dim, n_kraus=3):
    """Kraus operators of a random CPTP map: blocks of a Haar-ish isometry (QR of a
    Ginibre block)."""
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    v, _ = np.linalg.qr(g)
    return [v[i * dim:(i + 1) * dim, :] for i in range(n_kraus)]


# ---- construction and validation --------------------------------------------


def test_density_validation_rejects_non_hermitian():
    m = np.eye(4) / 4
    m[0, 1] = 0.1
    with pytest.raises(q.StateError, match="Hermitian"):
        q.QuantumState(m.ravel())


def test_density_validation_rejects_negative_eigenvalue():
    m = np.diag([1.2, 0.0, 0.0, -0.2])
    with pytest.raises(q.StateError, match="eigenvalue"):
        q.QuantumState(m.ravel())


@st.composite
def symmetric_near_the_floor(draw):
    """A random real symmetric 4x4 of norm about 1, two in three shifted so that its
    smallest eigenvalue lies 1e-12 to 1e-6 above or below EIGENVALUE_FLOOR."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(4, 4))
    m = (g + g.T) / 2 * 10 ** rng.uniform(-2, 1)
    if draw(st.integers(0, 2)):
        offset = draw(st.sampled_from([-1, 1])) * 10 ** rng.uniform(-12, -6)
        m -= (np.linalg.eigvalsh(m).min() - q.EIGENVALUE_FLOOR - offset) * np.eye(4)
    return m


@settings(max_examples=400, deadline=None, derandomize=True)
@given(symmetric_near_the_floor())
def test_floor_check_decides_as_eigvalsh(m):
    below = q._eigenvalue_below_floor(tuple(m.ravel().tolist()))
    min_eig = float(np.linalg.eigvalsh(m).min())
    assert (below is not None) == (min_eig < q.EIGENVALUE_FLOOR)
    if below is not None:
        assert abs(below - min_eig) <= 1e-13


@pytest.mark.parametrize("off", [1e300, -1e300, 1e308, -1e308, 1.7e308, -1.7e308])
def test_an_eigenvalue_near_the_float_limit_is_named(off):
    # the bisection's bracket, -4 max |m_ij| - 1 clamped to the largest float, stays finite
    m = np.diag([0.5, 0.5, 0.0, 0.0])
    m[0, 1] = m[1, 0] = off
    min_eig = float(np.linalg.eigvalsh(m).min())
    with pytest.raises(q.StateError, match="below floor") as caught:
        q.QuantumState(m.ravel())
    named = float(str(caught.value).split("eigenvalue ")[1].split(" below")[0])
    assert abs(named - min_eig) <= 1e-12 * abs(min_eig)


def test_every_model_state_passes_the_floor_check_at_the_floor(monkeypatch):
    # the bisection runs only on a state that fails: no state the model builds pays it
    calls = []

    def counted(m, floor):
        result = positive_definite_above(m, floor)
        calls.append((floor, result))
        return result

    positive_definite_above = q._positive_definite_above
    monkeypatch.setattr(q, "_positive_definite_above", counted)
    points = sweep_points() + _equivalence_grid() + _random_points(400)
    for model, errors in points:
        h.event_ready_state.__wrapped__(model, errors)
    assert len(calls) == len(points)
    assert set(calls) == {(q.EIGENVALUE_FLOOR, True)}


def test_density_validation_rejects_a_trace_away_from_one():
    with pytest.raises(q.StateError, match="trace"):
        q.QuantumState(np.eye(4).ravel() / 2)


def test_non_4x4_data_is_rejected():
    # a ket, a single spin, a spin and a qutrit, and three spins, each flattened
    for data in (np.array([0, 1, -1, 0]) / SQRT2, np.eye(2) / 2, np.eye(6) / 6, np.eye(8) / 8):
        with pytest.raises(q.StateError, match="expected 16"):
            q.QuantumState(data.ravel())


def test_nested_4x4_data_is_rejected():
    # the state is its 16 entries in row-major order, not a matrix of rows
    for data in (np.eye(4) / 4, (np.eye(4) / 4).tolist(), tuple(map(tuple, np.eye(4) / 4))):
        with pytest.raises(q.StateError, match="has 4 entries, expected 16"):
            q.QuantumState(data)


@pytest.mark.parametrize("data", [
    np.array([np.nan, 1.0] + [0.0] * 14),
    np.full(16, np.nan),
    np.diag([1.0, 0.0, 0.0, np.inf]).ravel(),
    [10**400] + [0.0] * 15,  # an int beyond the float range
])
def test_non_finite_entries_rejected(data):
    with pytest.raises(q.StateError, match="non-finite"):
        q.QuantumState(data)


def test_non_number_entries_are_rejected():
    numbers = (np.eye(4) / 4).ravel().tolist()
    for bad in ("0.25", b"0.25", None, [0.25]):
        with pytest.raises(q.StateError, match="non-real"):
            q.QuantumState([bad] + numbers[1:])


def test_a_state_with_an_imaginary_part_is_rejected():
    # (|01> + i|10>)/sqrt(2) is a valid two-spin state, but not one the Z-X plane model makes
    psi = np.array([0, 1, 1j, 0]) / SQRT2
    tiny = np.eye(4, dtype=np.complex128) / 4
    tiny[0, 1], tiny[1, 0] = 1e-300j, -1e-300j
    for rho in (np.outer(psi, psi.conj()), tiny):
        with pytest.raises(q.StateError, match="non-real"):
            q.QuantumState(rho.ravel())


def test_a_complex_array_with_zero_imaginary_parts_loads_as_its_real_counterpart():
    rng = np.random.default_rng(3030)
    rho = random_density_matrix(rng, 4)
    rho[0, 2] = rho[2, 0] = -0.0  # the sign of a zero survives the load
    real = q.QuantumState(rho.ravel())
    for data in (rho.astype(np.complex128).ravel(), list(rho.astype(np.complex128).ravel()),
                 [complex(x) for x in rho.ravel()]):
        state = q.QuantumState(data)
        assert all(type(z) is float for z in state.data)
        assert [z.hex() for z in state.data] == [x.hex() for x in real.data]
        assert [x.hex() for x in real.data] == [x.hex() for x in rho.ravel().tolist()]
        assert state.density_matrix().tobytes() == rho.astype(np.complex128).tobytes()


def test_the_state_is_read_only_and_density_matrix_is_a_copy():
    state = singlet()
    assert isinstance(state.data, tuple) and len(state.data) == 16
    assert all(type(z) is float for z in state.data)
    with pytest.raises(TypeError):
        state.data[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.data = (1.0,) + (0.0,) * 15
    rho = state.density_matrix()
    assert rho.dtype == np.complex128 and rho.shape == (4, 4)
    rho[0, 0] = 1.0
    assert state.data[0] == 0.0


def test_singlet_fidelity_against_direct_overlap():
    rng = np.random.default_rng(2424)
    psi = np.array([0, 1, -1, 0]) / SQRT2
    assert abs(q.singlet_fidelity(singlet()) - 1.0) < 1e-15
    assert abs(q.singlet_fidelity(q.QuantumState(np.eye(4).ravel() / 4)) - 0.25) < 1e-15
    for _ in range(100):
        rho = random_density_matrix(rng, 4)
        assert abs(q.singlet_fidelity(q.QuantumState(rho.ravel())) - psi @ rho @ psi) < 1e-14
    with pytest.raises(TypeError):
        q.SINGLET[0] = 1.0


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
    e = expectation(singlet(), bloch(0.0), bloch(0.0))
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
    e = expectation(singlet(), bloch(0.0), bloch(-3 * math.pi / 4))
    assert abs(e - oracle) < 1e-12
    assert abs(program_singlet_correlation(0.0, -3 * math.pi / 4) - oracle) < 1e-12


def test_singlet_x_against_other_tilted_axis():
    e = expectation(singlet(), bloch(math.pi / 2), bloch(3 * math.pi / 4))
    assert abs(e + 1 / SQRT2) < 1e-12
    assert abs(program_singlet_correlation(math.pi / 2, 3 * math.pi / 4) + 1 / SQRT2) < 1e-12


def test_singlet_correlation_closed_form_over_random_angles():
    rng = np.random.default_rng(20240811)
    psi = singlet()
    for _ in range(1000):
        ta, tb = rng.uniform(-math.pi, math.pi, size=2)
        e = expectation(psi, bloch(ta), bloch(tb))
        assert abs(e + math.cos(ta - tb)) < 1e-12
        assert abs(program_singlet_correlation(ta, tb) + math.cos(ta - tb)) < 1e-12


def test_correlation_tensor_is_kept_on_the_state_and_read_only():
    rng = np.random.default_rng(44)
    state = q.QuantumState(random_density_matrix(rng, 4).ravel())
    tensor = state.correlation_tensor
    assert state.correlation_tensor is tensor
    with pytest.raises(TypeError):
        tensor[0][0] = 2.0
    for i, j in np.ndindex(3, 3):
        expected = np.trace(state.density_matrix() @ np.kron(PAULIS[i], PAULIS[j])).real
        assert abs(tensor[i][j] - expected) < 1e-14


def einsum_tensor(state):
    """The correlation tensor as one contraction over the basis, in numpy."""
    rho = state.density_matrix().reshape(2, 2, 2, 2)
    return np.einsum("abcd,ica,jdb->ij", rho, PAULIS, PAULIS).real


def test_correlation_tensor_is_bitwise_the_einsum():
    # the engine's outcome table, and so every log body, is built from these bits
    states = [h.event_ready_state.__wrapped__(model, errors).spin_state
              for model, errors in _equivalence_grid() + _random_points(400)]
    rng = np.random.default_rng(2727)
    states += [q.QuantumState(random_density_matrix(rng, 4).ravel()) for _ in range(1000)]
    for state in states:
        tensor = np.array(state.correlation_tensor)
        assert tensor.tobytes() == einsum_tensor(state).tobytes(), state


def test_a_replaced_state_computes_its_own_tensor():
    state = singlet()
    kept = state.correlation_tensor
    # kept in the instance dict, beside the one field: no field, repr or equality sees it
    assert state.__dict__["correlation_tensor"] is kept
    assert [f.name for f in dataclasses.fields(state)] == ["data"]
    assert state == singlet() and "correlation_tensor" not in repr(state)
    up_up = dataclasses.replace(state, data=np.diag([1.0, 0.0, 0.0, 0.0]).ravel())
    assert "correlation_tensor" not in up_up.__dict__
    tensor = up_up.correlation_tensor
    assert tensor is not kept
    assert tensor[1][1] == 1.0
    assert abs(kept[1][1] + 1.0) < 1e-15
    assert state.correlation_tensor is kept
    # a copy that keeps the data recomputes the same bits
    assert dataclasses.replace(state).correlation_tensor == kept


# ---- channels -------------------------------------------------------------------


def test_full_depolarizing_kills_zz_correlation():
    # Kraus set of the p = 1 depolarizing map: I, X, Y and Z, each with weight 1/4
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1]))
    out = q.QuantumState(apply_kraus(singlet().density_matrix(),
                                     [embed(0.5 * p, 0) for p in paulis]).ravel())
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

    out = apply_kraus(singlet().density_matrix(), [embed(np.array([[0, 1], [1, 0]]), 0)])
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
        state = q.QuantumState(random_density_matrix(rng, 4).ravel())
        ta0, ta1, tb0, tb1 = rng.uniform(-math.pi, math.pi, size=4)
        e = {
            (a, b): expectation(state, bloch(t_a), bloch(t_b))
            for (a, t_a) in ((0, ta0), (1, ta1))
            for (b, t_b) in ((0, tb0), (1, tb1))
        }
        s = e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
        assert abs(s) <= bound
