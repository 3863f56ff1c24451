import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import readout as r
from test_engine import measure_in_basis
from test_quantum import rotated_povm, singlet

SQRT2 = math.sqrt(2.0)
UP_UP = np.diag([1.0, 0.0, 0.0, 0.0])  # both spins up; the tests read spin A


# ---- fidelity curve ------------------------------------------------------------


def at_window(model, t_us):
    """The same rates read out over a window of ``t_us`` microseconds."""
    return dataclasses.replace(model, duration_us=t_us)


def test_long_window_with_clean_detector_saturates():
    model = r.ReadoutModel(5.0, 0.0, 0.0, duration_us=1e4)
    f_plus, f_minus = model.fidelities
    assert abs(f_plus - 1.0) < 1e-12
    assert f_minus == 1.0
    assert abs(0.5 * (f_plus + f_minus) - 1.0) < 1e-12


@pytest.mark.parametrize("mean", [0.971, 0.963])
def test_calibration_hits_the_anchor(mean):
    model = r.calibrate_readout(mean)
    f_plus, f_minus = model.fidelities
    assert abs(0.5 * (f_plus + f_minus) - mean) < 1e-9
    assert f_minus > 0.98


def test_fidelity_monotonicity_in_duration():
    model = r.calibrate_readout(0.971)
    ts = np.linspace(0.0, 12.0, 200)[1:]  # a model's window is positive
    curves = [at_window(model, float(t)).fidelities for t in ts]
    plus = [c[0] for c in curves]
    minus = [c[1] for c in curves]
    assert all(b >= a - 1e-12 for a, b in zip(plus, plus[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(minus, minus[1:]))


def test_average_fidelity_has_interior_maximum():
    model = r.ReadoutModel(3.0, 0.05, 0.1)
    ts = np.linspace(0.01, 30.0, 600)
    avg = [0.5 * sum(at_window(model, float(t)).fidelities) for t in ts]
    peak = int(np.argmax(avg))
    assert 0 < peak < len(ts) - 1
    assert avg[peak] > avg[0] and avg[peak] > avg[-1]


def test_fidelities_are_computed_once_and_a_replaced_model_recomputes():
    model = r.ReadoutModel(5.0, 0.01, 0.02, duration_us=3.7)
    # bright emission until an exponential flip, dark counts over the whole window
    survival = (0.02 / 5.02) * (1.0 - math.exp(-5.02 * 3.7)) + math.exp(-5.02 * 3.7)
    assert model.fidelities == (1.0 - math.exp(-0.01 * 3.7) * survival, math.exp(-0.01 * 3.7))
    assert model.fidelities is model.fidelities
    shorter = at_window(model, 1.0)
    assert shorter.fidelities != model.fidelities
    assert shorter == r.ReadoutModel(5.0, 0.01, 0.02, duration_us=1.0)


# ---- POVM ------------------------------------------------------------------------


def test_perfect_model_gives_projective_z():
    model = r.ReadoutModel(1e9, 0.0, 0.0, duration_us=10.0)
    e_plus, e_minus = rotated_povm(model, 0.0)
    np.testing.assert_allclose(e_plus, np.diag([1.0, 0.0]), atol=1e-9)
    np.testing.assert_allclose(e_minus, np.diag([0.0, 1.0]), atol=1e-9)


def test_bright_state_click_probability_matches_f_plus():
    model = r.calibrate_readout(0.971)
    e_plus, _ = rotated_povm(model, 0.0)
    p = float(np.real(e_plus[0, 0]))
    assert abs(p - model.fidelities[0]) < 1e-12


def test_uninformative_limit():
    # F+ = F- = 1/2 makes the outcome independent of the state
    model = r.ReadoutModel(math.log(2.0), 0.0, 0.0, duration_us=1.0)
    f_plus, f_minus = model.fidelities
    assert abs(f_plus - 0.5) < 1e-12 and f_minus == 1.0
    # construct the uninformative POVM directly as the edge case
    e_plus = 0.5 * np.eye(2)
    for rho in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.ones((2, 2)) / 2):
        assert abs(np.trace(rho @ e_plus).real - 0.5) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.05, 20.0), st.floats(-math.pi, math.pi))
def test_povm_completeness(bright, dark, flip, duration, theta):
    model = r.ReadoutModel(bright, dark, flip, duration)
    e_plus, e_minus = rotated_povm(model, theta)
    assert np.max(np.abs(e_plus + e_minus - np.eye(2))) < 1e-12
    for e in (e_plus, e_minus):
        assert np.min(np.linalg.eigvalsh(e)) > -1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 100.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.05, 20.0), st.floats(-math.pi, math.pi))
def test_observable_components_decompose_the_povm(bright, dark, flip, duration, theta):
    # E+ - E- = u . (I, Z, X): each component is Tr(sigma (E+ - E-)) / 2
    model = r.ReadoutModel(bright, dark, flip, duration)
    e_plus, e_minus = rotated_povm(model, theta)
    paulis = (np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    oracle = [np.trace(sigma @ (e_plus - e_minus)).real / 2 for sigma in paulis]
    np.testing.assert_allclose(r.observable_components(model, theta), oracle, atol=1e-12)


# ---- sampling ----------------------------------------------------------------------


def perfect_model():
    return r.ReadoutModel(1e9, 0.0, 0.0, duration_us=10.0)


def test_singlet_anticorrelation_after_first_collapse():
    rng = np.random.default_rng(3)
    model = perfect_model()
    outcome_a, post = measure_in_basis(singlet().density_matrix(), 0.0, model, rng, side=0)
    outcome_b, _ = measure_in_basis(post, 0.0, model, rng, side=1)
    assert outcome_b == -outcome_a


def test_up_state_along_x_is_unbiased():
    rng = np.random.default_rng(11)
    model = perfect_model()
    outcomes = [measure_in_basis(UP_UP, math.pi / 2, model, rng, side=0)[0]
                for _ in range(4000)]
    mean = np.mean(outcomes)
    assert abs(mean) < 3 / math.sqrt(4000)  # 3 sigma


def test_sampling_is_deterministic_given_seed():
    model = r.calibrate_readout(0.971)
    a = [measure_in_basis(UP_UP, 0.3, model, np.random.default_rng(5), side=0)[0]
         for _ in range(20)]
    b = [measure_in_basis(UP_UP, 0.3, model, np.random.default_rng(5), side=0)[0]
         for _ in range(20)]
    assert a == b


def test_born_rule_convergence_chi_square():
    # empirical frequencies of the four joint outcomes vs Born probabilities
    rng = np.random.default_rng(17)
    model = perfect_model()
    theta_a, theta_b = 0.0, -3 * math.pi / 4
    probs = np.zeros(4)
    psi = singlet()
    for i, (x, y) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
        ea = rotated_povm(model, theta_a)[0 if x == 1 else 1]
        eb = rotated_povm(model, theta_b)[0 if y == 1 else 1]
        probs[i] = np.real(np.trace(psi.density_matrix() @ np.kron(ea, eb)))
    n = 100_000
    counts = rng.multinomial(n, probs)
    chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
    assert chi2 < 16.27  # chi-square_{3 dof} at the 0.1 % level


def test_monte_carlo_s_at_ideal_angles_matches_tsirelson():
    # 10^6 joint samples across the four settings, perfect model
    rng = np.random.default_rng(23)
    model = perfect_model()
    basis = r.ReadoutBasisSet.from_tilt(0.0)
    psi = singlet()
    n_per_setting = 250_000
    s_hat = 0.0
    var = 0.0
    for (a, b), sign in (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)):
        probs = np.zeros(4)
        for i, (x, y) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
            ea = rotated_povm(model, (basis.a0, basis.a1)[a])[0 if x == 1 else 1]
            eb = rotated_povm(model, (basis.b0, basis.b1)[b])[0 if y == 1 else 1]
            probs[i] = max(0.0, float(np.real(np.trace(psi.density_matrix() @ np.kron(ea, eb)))))
        probs /= probs.sum()
        counts = rng.multinomial(n_per_setting, probs)
        e = (counts[0] + counts[3] - counts[1] - counts[2]) / n_per_setting
        s_hat += sign * e
        var += (1 - e * e) / n_per_setting
    assert abs(s_hat - 2 * SQRT2) < 3 * math.sqrt(var)


# ---- basis set ------------------------------------------------------------------------


def test_default_basis_angles():
    basis = r.ReadoutBasisSet.from_tilt(0.026 * math.pi)
    assert basis.a0 == 0.0
    assert basis.a1 == math.pi / 2
    assert abs(basis.b0 - (-3 * math.pi / 4 - 0.026 * math.pi)) < 1e-15
    assert abs(basis.b1 - (3 * math.pi / 4 + 0.026 * math.pi)) < 1e-15


def test_model_validation():
    with pytest.raises(r.ReadoutError):
        r.ReadoutModel(-1.0, 0.0, 0.0)
    with pytest.raises(r.ReadoutError):
        r.ReadoutModel(1.0, 0.0, 0.0, duration_us=0.0)
    with pytest.raises(r.ReadoutError):
        r.calibrate_readout(0.4)


def test_calibration_rejects_a_zero_window():
    with pytest.raises(r.ReadoutError, match="duration must be positive"):
        r.calibrate_readout(0.971, duration_us=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["bright_rate_per_us", "dark_rate_per_us",
                                   "flip_rate_per_us", "duration_us"])
def test_model_rejects_non_finite_fields(field, value):
    fields = dict(bright_rate_per_us=1.0, dark_rate_per_us=0.0, flip_rate_per_us=0.0,
                  duration_us=3.7)
    with pytest.raises(r.ReadoutError, match="finite"):
        r.ReadoutModel(**{**fields, field: value})
