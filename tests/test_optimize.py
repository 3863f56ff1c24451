import builtins
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from bellsim import bell_stats as bs
from bellsim import heralding as h
from bellsim import optimizer as opt
from bellsim import quantum as q
from bellsim.config import default_config
from bellsim.readout import ReadoutBasisSet, ReadoutModel

from test_heralding import sweep_points
from test_quantum import expectation, rotated_povm, singlet

SQRT2 = math.sqrt(2.0)
NO_ERRORS = h.SpinPhotonErrorModel(0.0, 0.0, 0.0, 0.0)


def perfect_readout():
    return ReadoutModel(1e9, 0.0, 0.0, duration_us=10.0)


def calibrated_inputs(visibility=None):
    cfg = default_config()
    if visibility is not None:
        cfg = dataclasses.replace(
            cfg, interference=dataclasses.replace(cfg.interference, visibility=visibility))
    state = cfg.heralded_state().spin_state
    return state, cfg.readout_model("A"), cfg.readout_model("B")


# ---- reference: per-observable correlations and the grid scan with polish ---------


def reference_correlations(state, readout_a, readout_b, basis):
    """E(a,b) as <A (x) B> of the noisy observables E+ - E-."""
    def observable(model, theta):
        e_plus, e_minus = rotated_povm(model, theta)
        return e_plus - e_minus

    angles_a, angles_b = (basis.a0, basis.a1), (basis.b0, basis.b1)
    return {(a, b): expectation(state, observable(readout_a, angles_a[a]),
                                observable(readout_b, angles_b[b]))
            for a, b in bs.SETTING_PAIRS}


def reference_s(state, readout_a, readout_b, eps):
    basis = ReadoutBasisSet.from_tilt(eps)
    return bs.chsh_combination(reference_correlations(state, readout_a, readout_b, basis))


def reference_optimize(state, readout_a, readout_b, lo=-math.pi / 8, hi=math.pi / 8,
                       grid_points=64, min_step=1e-5):
    """Grid scan over [lo, hi], then coordinate polish with a halving step.

    Ties break toward the smallest |eps|. Returns (eps, S).
    """
    def better(value, eps, best_value, best_eps):
        if value > best_value + 1e-15:
            return True
        return abs(value - best_value) <= 1e-15 and abs(eps) < abs(best_eps)

    def s_at(eps):
        return reference_s(state, readout_a, readout_b, eps)

    grid = [lo + (hi - lo) * i / (grid_points - 1) for i in range(grid_points)]
    best_eps, best_value = grid[0], s_at(grid[0])
    for e in grid[1:]:
        v = s_at(e)
        if better(v, e, best_value, best_eps):
            best_eps, best_value = e, v
    step = (hi - lo) / (grid_points - 1)
    while step > min_step:
        moved = True
        while moved:
            moved = False
            for candidate in (best_eps - step, best_eps + step):
                if lo <= candidate <= hi:
                    v = s_at(candidate)
                    if better(v, candidate, best_value, best_eps):
                        best_eps, best_value = candidate, v
                        moved = True
        step /= 2.0
    return best_eps, best_value


def random_inputs(rng):
    """A random two-qubit state (half of them mixed with the singlet) and two readouts."""
    g = rng.normal(size=(4, 4))
    rho = g @ g.T
    rho /= np.trace(rho)
    if rng.random() < 0.5:
        weight = rng.uniform(0.5, 1.0)
        rho = weight * singlet().density_matrix() + (1 - weight) * rho
    state = q.QuantumState(rho.ravel())

    def readout():
        return ReadoutModel(rng.uniform(0.2, 5.0), rng.uniform(0.0, 0.1),
                            rng.uniform(0.0, 0.1), duration_us=rng.uniform(0.5, 5.0))

    return state, readout(), readout()


RANDOM_CASES = [random_inputs(np.random.default_rng([2718, i])) for i in range(24)]


@pytest.mark.parametrize("case", range(len(RANDOM_CASES)))
def test_tensor_correlations_match_observable_path(case):
    state, ra, rb = RANDOM_CASES[case]
    rng = np.random.default_rng(case)
    for _ in range(3):
        a0, a1, b0, b1 = rng.uniform(-math.pi, math.pi, 4)
        basis = ReadoutBasisSet(a0, a1, b0, b1)
        got = bs.expected_correlations(state, ra, rb, basis)
        want = reference_correlations(state, ra, rb, basis)
        for pair in bs.SETTING_PAIRS:
            assert abs(got[pair] - want[pair]) < 1e-12


@pytest.mark.parametrize("case", range(len(RANDOM_CASES)))
def test_tilt_coefficients_reproduce_s(case):
    state, ra, rb = RANDOM_CASES[case]
    c0, c1, c2 = opt.tilt_coefficients(state, ra, rb)
    for eps in np.random.default_rng(case).uniform(-math.pi, math.pi, 5):
        assert abs(c0 + c1 * math.cos(eps) + c2 * math.sin(eps)
                   - reference_s(state, ra, rb, eps)) < 1e-12


@pytest.mark.parametrize("case", range(len(RANDOM_CASES)))
def test_closed_form_matches_grid_search(case):
    state, ra, rb = RANDOM_CASES[case]
    ref_eps, ref_s = reference_optimize(state, ra, rb)
    result = opt.optimize(opt.OptimizationSpec(), state, ra, rb)
    assert abs(result.epsilon - ref_eps) < 1e-5
    assert result.expected_s >= ref_s - 1e-12
    assert abs(result.expected_s - reference_s(state, ra, rb, result.epsilon)) < 1e-12


def test_calibrated_model_matches_grid_search():
    state, ra, rb = calibrated_inputs()
    ref_eps, ref_s = reference_optimize(state, ra, rb)
    result = opt.optimize(opt.OptimizationSpec(), state, ra, rb)
    assert abs(result.epsilon - ref_eps) < 1e-5
    assert result.expected_s >= ref_s - 1e-12


# ---- expected S ------------------------------------------------------------------


def test_expected_s_ideal_no_tilt():
    s = opt.expected_s(singlet(), perfect_readout(), perfect_readout(),
                       ReadoutBasisSet.from_tilt(0.0))
    assert abs(s - 2 * SQRT2) < 1e-9


def test_expected_s_ideal_quarter_pi_tilt():
    # closed form: S(eps) = 2 cos(pi/4 - eps) + 2 sin(pi/4 - eps) -> 2 at eps = pi/4
    s = opt.expected_s(singlet(), perfect_readout(), perfect_readout(),
                       ReadoutBasisSet.from_tilt(math.pi / 4))
    assert abs(s - 2.0) < 1e-9


def test_expected_s_fully_mixed_is_zero():
    mixed = q.QuantumState(np.eye(4).ravel() / 4)
    s = opt.expected_s(mixed, perfect_readout(), perfect_readout(),
                       ReadoutBasisSet.from_tilt(0.0))
    assert abs(s) < 1e-12


# ---- optimise --------------------------------------------------------------------


def test_ideal_state_prefers_zero_tilt():
    result = opt.optimize(opt.OptimizationSpec(), singlet(),
                          perfect_readout(), perfect_readout())
    assert abs(result.epsilon) < 1e-3
    assert not result.degenerate
    assert abs(result.expected_s - 2 * SQRT2) < 1e-6


def test_calibrated_model_prefers_small_positive_tilt():
    state, ra, rb = calibrated_inputs()
    result = opt.optimize(opt.OptimizationSpec(), state, ra, rb)
    assert 0.0 < result.epsilon < 0.05 * math.pi
    assert abs(result.epsilon - 0.026 * math.pi) < 0.015 * math.pi
    s_zero = opt.expected_s(state, ra, rb, ReadoutBasisSet.from_tilt(0.0))
    assert result.expected_s > s_zero


@pytest.mark.parametrize("lo, hi, want", [
    (0.1, 0.3, 0.1),                   # optimum below the bounds
    (-0.3, -0.1, -0.1),                # optimum above the bounds
    (3.0, 3.5, 3.5),                   # 3.5 is nearer to 0 modulo 2 pi than 3.0
    (2 * math.pi - 0.2, 2 * math.pi + 0.2, 2 * math.pi),  # inside, one turn away
])
def test_optimum_outside_bounds_sits_on_the_nearest_point(lo, hi, want):
    # the ideal singlet with perfect readout peaks at eps = 0 (mod 2 pi)
    spec = opt.OptimizationSpec(epsilon_min=lo, epsilon_max=hi)
    result = opt.optimize(spec, singlet(), perfect_readout(), perfect_readout())
    assert abs(result.epsilon - want) < 1e-12
    assert not result.degenerate
    ref_eps, ref_s = reference_optimize(singlet(), perfect_readout(), perfect_readout(),
                                        lo, hi)
    assert abs(result.epsilon - ref_eps) < 1e-5
    assert result.expected_s >= ref_s - 1e-12


def test_significance_objective_finds_the_same_tilt():
    state, ra, rb = calibrated_inputs()
    r_s = opt.optimize(opt.OptimizationSpec(objective="expected-s"), state, ra, rb)
    r_sig = opt.optimize(opt.OptimizationSpec(objective="expected-complete-significance"),
                         state, ra, rb)
    assert abs(r_s.epsilon - r_sig.epsilon) < 1e-3


def test_objectives_agree_below_the_local_bound_region():
    # at V = 0.7 S dips below 2 inside the default bounds; a rate that also grew
    # below 2 would pull the significance objective to the far bound
    state, ra, rb = calibrated_inputs(visibility=0.7)
    r_s = opt.optimize(opt.OptimizationSpec(objective="expected-s"), state, ra, rb)
    r_sig = opt.optimize(opt.OptimizationSpec(objective="expected-complete-significance"),
                         state, ra, rb)
    assert r_sig.epsilon == r_s.epsilon
    assert r_sig.expected_s == r_s.expected_s


def test_significance_rate_is_non_decreasing_in_s():
    values = [opt._significance_rate(s) for s in np.linspace(-2 * SQRT2, 2 * SQRT2, 401)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert opt._significance_rate(2.0) == 0.0
    assert opt._significance_rate(1.5) == 0.0
    assert opt._significance_rate(2.4) > 0.0


def test_uninformative_readout_flags_degeneracy():
    state, _, rb = calibrated_inputs()
    # zero bright rate and dark counts at rate ln2 give F+ = F- = 1/2,
    # so the outcome carries no information and the objective is flat
    flat = ReadoutModel(0.0, math.log(2.0), 0.0, duration_us=1.0)
    assert np.allclose(flat.fidelities, (0.5, 0.5), atol=1e-12)
    result = opt.optimize(opt.OptimizationSpec(), state, flat, rb)
    assert result.degenerate
    assert result.epsilon == 0.0


def test_optimum_beats_random_probes():
    state, ra, rb = calibrated_inputs()
    spec = opt.OptimizationSpec()
    result = opt.optimize(spec, state, ra, rb)
    rng = np.random.default_rng(1234)
    probes = rng.uniform(spec.epsilon_min, spec.epsilon_max, size=1000)
    best_probe = max(
        opt.expected_s(state, ra, rb, ReadoutBasisSet.from_tilt(float(e))) for e in probes
    )
    assert result.expected_s >= best_probe - 1e-9


def test_optimizer_is_reproducible():
    state, ra, rb = calibrated_inputs()
    r1 = opt.optimize(opt.OptimizationSpec(), state, ra, rb)
    r2 = opt.optimize(opt.OptimizationSpec(), state, ra, rb)
    assert r1 == r2


def test_tsirelson_ceiling_respected():
    state, ra, rb = calibrated_inputs()
    result = opt.optimize(opt.OptimizationSpec(), state, ra, rb)
    assert result.expected_s <= 2 * SQRT2 + 1e-9


@pytest.mark.parametrize("bad_s", [math.nan, math.inf, 2 * SQRT2 + 1e-6])
def test_final_s_is_checked(monkeypatch, bad_s):
    monkeypatch.setattr(opt, "expected_s", lambda *args: bad_s)
    with pytest.raises(opt.OptimizerError):
        opt.optimize(opt.OptimizationSpec(), singlet(), perfect_readout(), perfect_readout())


def test_spec_validation():
    with pytest.raises(opt.OptimizerError):
        opt.OptimizationSpec(objective="maximize-vibes")
    with pytest.raises(opt.OptimizerError):
        opt.OptimizationSpec(epsilon_min=1.0, epsilon_max=-1.0)
    with pytest.raises(opt.OptimizerError):
        opt.OptimizationSpec(grid_points=1)


SWEEP_DIGEST = "fbc86b6d44de9c2148b3448a6f74942654cef979794dab344d2f2f2a45f7220a"


def sweep_point_digest():
    """200 distinct model points: the heralded state's bytes, its probability,
    the four expected correlations and the optimizer's tilt and S."""
    cfg = default_config()
    ra, rb = cfg.readout_model("A"), cfg.readout_model("B")
    spec = cfg.optimizer.spec()
    digest = hashlib.sha256()
    for model, errors in sweep_points():
        herald = h.event_ready_state(model, errors)
        corr = bs.expected_correlations(herald.spin_state, ra, rb, cfg.basis_set())
        result = opt.optimize(spec, herald.spin_state, ra, rb)
        digest.update(herald.spin_state.density_matrix().tobytes())
        digest.update(repr((herald.probability, corr, result.epsilon,
                            result.expected_s)).encode())
    return digest.hexdigest()


def test_sweep_points_are_pinned_by_digest():
    assert sweep_point_digest() == SWEEP_DIGEST


def neumaier_sum(terms, start=0):
    """The builtin ``sum`` as CPython 3.12 on rounds floats: compensated (Neumaier)."""
    terms = list(terms)
    if not any(isinstance(t, float) for t in terms):
        return builtins.sum(terms, start)
    total, compensation = float(start), 0.0
    for t in terms:
        x = total + t
        compensation += (total - x) + t if abs(total) >= abs(t) else (t - x) + total
        total = x
    return total + compensation if compensation else total


def test_model_points_do_not_depend_on_how_the_interpreter_sums_floats(monkeypatch):
    # the pins hold on every interpreter only if no float sum of a model point
    # goes through the builtin sum, which CPython 3.12 made compensated
    def default_point():
        cfg = default_config()
        herald = cfg.heralded_state()
        s = opt.expected_s(herald.spin_state, cfg.readout_model("A"), cfg.readout_model("B"),
                           cfg.basis_set())
        return herald.probability, herald.spin_state.data, s

    def clear_caches():
        h.event_ready_state.cache_clear()
        h._pattern_grams.cache_clear()

    clear_caches()
    probability, state, s = default_point()
    for module in (h, bs):
        monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
    clear_caches()
    try:
        compensated_probability, compensated_state, compensated_s = default_point()
        assert compensated_probability.hex() == probability.hex()
        assert repr(compensated_state) == repr(state)
        assert compensated_s.hex() == s.hex()
        assert sweep_point_digest() == SWEEP_DIGEST
    finally:
        clear_caches()  # drop what the patched sums built
