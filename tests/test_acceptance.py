"""Acceptance gate: the quantitative claims the package must reproduce.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np

from bellsim import bell_stats as bs
from bellsim import engine, heralding, optimizer, quantum, randomness, spacetime
from bellsim.config import default_config
from bellsim.logio import write_log
from bellsim.readout import ReadoutBasisSet, ReadoutModel

from test_engine import run_trial
from test_heralding import oracle_psi_minus_herald
from test_quantum import (apply_kraus, bloch, expectation, random_channel,
                          random_density_matrix, rotated_povm, singlet)

SQRT2 = math.sqrt(2.0)
CFG = default_config()
NO_ERRORS = heralding.SpinPhotonErrorModel(0.0, 0.0, 0.0, 0.0)


def report(number: int, description: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}")
    return ok


def perfect_readout():
    return ReadoutModel(1e9, 0.0, 0.0, duration_us=10.0)


def test_c01_ideal_chsh_value():
    start = time.time()
    s = optimizer.expected_s(singlet(), perfect_readout(), perfect_readout(),
                             ReadoutBasisSet.from_tilt(0.0))
    ok = abs(s - 2 * SQRT2) < 1e-9 and (time.time() - start) < 1.0
    assert report(1, f"ideal expected S = {s:.12f} (2*sqrt2 within 1e-9)", ok)


def test_c02_i_statistic_exact():
    value = bs.i_statistic(196, 245)
    ok = value == 2.4
    assert report(2, f"I(196, 245) = {value} exactly", ok)


def test_c03_conventional_pvalue():
    p = bs.conventional_pvalue(2.42, 0.20)
    ok = 0.017 <= p <= 0.020
    assert report(3, f"conventional p(2.42, 0.20) = {p:.6f} in [0.017, 0.020]", ok)


def test_c04_complete_pvalue_vs_oracle():
    start = time.time()
    p = bs.complete_pvalue(196, 245, 0.0)
    mp.mp.dps = 60
    oracle = float(mp.betainc(196, 245 - 196 + 1, 0, mp.mpf(3) / 4, regularized=True))
    ok = (abs(p - oracle) / oracle < 1e-12 and 0.03 <= p <= 0.05
          and (time.time() - start) < 1.0)
    assert report(4, f"complete p(196, 245, 0) = {p:.12f}, oracle match 1e-12, in [0.03, 0.05]", ok)


def test_c05_heralded_state_law():
    start = time.time()
    ok = True
    psi_minus = np.array([0, 1, -1, 0]) / SQRT2
    for v in (0.0, 0.5, 0.9, 1.0):
        res = heralding.event_ready_state(heralding.InterferenceModel(visibility=v), NO_ERRORS)
        fid = quantum.singlet_fidelity(res.spin_state)
        oracle_p, oracle_rho = oracle_psi_minus_herald(v)
        oracle_fid = float(np.real(psi_minus @ oracle_rho @ psi_minus))
        ok = ok and abs(fid - (1 + v) / 2) < 1e-9 and abs(fid - oracle_fid) < 1e-9
        ok = ok and abs(res.probability - oracle_p) < 1e-9
    composed = quantum.singlet_fidelity(heralding.event_ready_state(
        heralding.InterferenceModel(visibility=0.90), heralding.SpinPhotonErrorModel()
    ).spin_state)
    ok = ok and 0.89 <= composed <= 0.95 and (time.time() - start) < 10.0
    assert report(5, f"herald fidelity law (1+V)/2 vs oracle; composed = {composed:.4f} "
                     "in 0.92 +- 0.03", ok)


def test_c06_expected_violation():
    start = time.time()
    s = optimizer.expected_s(CFG.heralded_state().spin_state, CFG.readout_model("A"),
                             CFG.readout_model("B"), CFG.basis_set())
    ok = 2.23 <= s <= 2.37 and (time.time() - start) < 1.0
    assert report(6, f"calibrated expected S = {s:.4f} in [2.23, 2.37]", ok)


def test_c07_visibility_estimate():
    est = heralding.hom_visibility(3, 28)
    ok = abs(est.value - 0.893) < 5e-4 and abs(est.sigma - 0.06) < 0.01
    assert report(7, f"visibility(3, 28) = {est.value:.3f} +- {est.sigma:.3f}", ok)


def test_c08_locality_audit_margins():
    geometry = CFG.spacetime_geometry()
    budget = CFG.timing_budget()
    window = geometry.light_times_ns[0]
    # nominal (jitter-free) schedule from the configured budget
    cfg = dataclasses.replace(CFG, timing=dataclasses.replace(CFG.timing, jitter_ns=0.0))
    rec = run_trial(cfg, 0, engine.TrialStreams.from_seed(0))
    rep = spacetime.audit_trial(engine.record_events(rec), geometry, budget)
    margin = min(c.margin_ns for c in rep.checks)
    ok = (rep.all_pass and abs(window - 4269.6) < 0.1
          and abs(margin - 89.6) < 0.1 and abs(margin - 90.0) < 0.5)
    assert report(8, f"audit passes; min margin {margin:.1f} ns (~90 before the 16 ns "
                     f"allowance); light_time(1280 m) = {window:.1f} ns", ok)


def test_c09_monte_carlo_consistency():
    start = time.time()
    replicas = 1000
    values = np.empty(replicas)
    for i in range(replicas):
        log = engine.run_experiment(CFG, n_trials=245, seed=engine.replica_seed(2025, i))
        values[i] = bs.chsh_estimate(log.records).s
    mean, std = float(values.mean()), float(values.std(ddof=1))
    elapsed = time.time() - start
    ok = 2.2 <= mean <= 2.4 and 0.15 <= std <= 0.25 and elapsed < 120.0
    assert report(9, f"1000 runs: mean S = {mean:.3f} in [2.2, 2.4], per-run sigma = "
                     f"{std:.3f} (~0.20), {elapsed:.0f} s", ok)


def test_c10_optimizer_crossover():
    start = time.time()
    ideal = optimizer.optimize(optimizer.OptimizationSpec(), singlet(),
                               perfect_readout(), perfect_readout())
    state = CFG.heralded_state().spin_state
    ra, rb = CFG.readout_model("A"), CFG.readout_model("B")
    tuned = optimizer.optimize(optimizer.OptimizationSpec(), state, ra, rb)
    s_zero = optimizer.expected_s(state, ra, rb, ReadoutBasisSet.from_tilt(0.0))
    ok = (abs(ideal.epsilon) < 1e-3
          and 0.0 < tuned.epsilon < 0.05 * math.pi
          and abs(tuned.epsilon - 0.026 * math.pi) < 0.015 * math.pi
          and tuned.expected_s > s_zero
          and (time.time() - start) < 30.0)
    assert report(10, f"optimizer: ideal eps = {ideal.epsilon:.2e}, calibrated eps = "
                      f"{tuned.epsilon / math.pi:.4f} pi, S(eps*) > S(0)", ok)


def test_c11_property_suites(tmp_path):
    start = time.time()
    rng = np.random.default_rng(77)
    ok = True

    # channel trace preservation and positivity
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        m = apply_kraus(random_density_matrix(rng, dim), random_channel(rng, dim))
        ok = ok and abs(np.trace(m).real - 1.0) < 1e-10
        ok = ok and np.min(np.linalg.eigvalsh(m)) > -1e-9

    # POVM completeness across parameter draws
    for _ in range(200):
        model = ReadoutModel(float(rng.uniform(0.1, 50)), float(rng.uniform(0, 1)),
                             float(rng.uniform(0, 1)), float(rng.uniform(0.1, 10)))
        e_plus, e_minus = rotated_povm(model, float(rng.uniform(-math.pi, math.pi)))
        ok = ok and np.max(np.abs(e_plus + e_minus - np.eye(2))) < 1e-12

    # Tsirelson ceiling on 1000 random two-qubit states
    for _ in range(1000):
        state = quantum.QuantumState(random_density_matrix(rng, 4).ravel())
        angles = rng.uniform(-math.pi, math.pi, size=4)
        e = {
            (a, b): expectation(state, bloch(angles[a]), bloch(angles[2 + b]))
            for a in (0, 1) for b in (0, 1)
        }
        s = e[(0, 0)] + e[(0, 1)] + e[(1, 0)] - e[(1, 1)]
        ok = ok and abs(s) <= 2 * SQRT2 + 1e-9

    # parity extractor piling-up law at measurable block sizes
    n = 200_000
    for k in (1, 2, 3, 4):
        for eps in (0.1, 0.2):
            model = randomness.RngModel(excess_predictability=eps, raw_bits_per_output=k)
            raw = randomness.raw_bits(model, n * k, rng).reshape(n, k)
            parity = raw.sum(axis=1) & 1
            expected = 0.5 - randomness.output_predictability(eps, k) * (-1.0) ** k
            ok = ok and abs(parity.mean() - expected) < 5 * math.sqrt(0.25 / n)

    # geometric attempt counts
    link = dataclasses.replace(CFG.link, collection_efficiency=1.0,
                               detector_efficiency=1.0, loss_db_per_km=0.0)
    fast = dataclasses.replace(CFG, link=link)
    log = engine.run_experiment(fast, n_trials=10_000, seed=31)
    p = link.herald_probability
    attempts = np.array([r.attempts for r in log.records], dtype=float)
    sigma = math.sqrt((1 - p) / p**2 / attempts.size)
    ok = ok and abs(attempts.mean() - 1 / p) < 3 * sigma

    # byte-identical seeded replay
    write_log(engine.run_experiment(fast, n_trials=200, seed=99), tmp_path / "a.jsonl")
    write_log(engine.run_experiment(fast, n_trials=200, seed=99), tmp_path / "b.jsonl")
    ok = ok and (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    assert report(11, f"property suites (channels, POVMs, Tsirelson, extractor, "
                      f"attempts, replay) green in {elapsed:.0f} s", ok)
