import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellsim import randomness as rnd


def test_unbiased_source_mean():
    model = rnd.RngModel(excess_predictability=0.0)
    bits = rnd.raw_bits(model, 100_000, np.random.default_rng(1))
    assert abs(bits.mean() - 0.5) < 3 * 0.5 / math.sqrt(100_000)


def test_biased_source_mean():
    model = rnd.RngModel(excess_predictability=0.1)
    bits = rnd.raw_bits(model, 100_000, np.random.default_rng(2))
    sigma = math.sqrt(0.6 * 0.4 / 100_000)
    assert abs(bits.mean() - 0.6) < 3 * sigma


def test_zero_count_gives_empty_sequence():
    model = rnd.RngModel()
    assert rnd.raw_bits(model, 0, np.random.default_rng(3)).size == 0


class FixedUniforms:
    """Stands in for a generator: ``random(count)`` returns preset values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, count):
        assert count == self.values.size
        return self.values


def test_parity_of_all_zeros_and_single_one():
    # a uniform below P(1) = 1/2 makes a raw 1; block i is raw bits 8i..8i+7
    model = rnd.RngModel(excess_predictability=0.0, raw_bits_per_output=8)
    zeros, one_at_5 = [0.9] * 8, [0.9] * 5 + [0.1] + [0.9] * 2
    bits = rnd.setting_bits(model, 3, FixedUniforms(zeros + one_at_5 + zeros))
    assert bits.tolist() == [0, 1, 0]


# ---- output predictability ---------------------------------------------------


def exhaustive_parity_bias(tau, k):
    """Oracle: enumerate all 2^k blocks of independent biased bits."""
    p1 = 0.5 + tau
    p_one = 0.0
    for bits in product((0, 1), repeat=k):
        w = 1.0
        for b in bits:
            w *= p1 if b else (1.0 - p1)
        if sum(bits) % 2 == 1:
            p_one += w
    return abs(p_one - 0.5)


def test_output_predictability_closed_form_vs_enumeration():
    for tau in (0.0, 0.05, 0.1, 0.2, 0.5):
        for k in (1, 2, 3, 4):
            assert abs(rnd.output_predictability(tau, k)
                       - exhaustive_parity_bias(tau, k)) < 1e-12


def test_output_predictability_examples():
    assert rnd.output_predictability(0.0, 32) == 0.0
    assert rnd.output_predictability(0.5, 7) == 0.5
    assert abs(rnd.output_predictability(0.1, 4) - 8e-4) < 1e-15


def test_output_predictability_k32_is_negligible():
    tau = rnd.output_predictability(0.1, 32)
    assert 0.0 < tau < 1e-22


def test_tau_out_monotone_in_tau_and_decreasing_in_k():
    taus = np.linspace(0.0, 0.5, 21)
    for k in (1, 2, 4, 8, 16, 32):
        vals = [rnd.output_predictability(float(t), k) for t in taus]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for tau in (0.05, 0.1, 0.2, 0.4):
        vals = [rnd.output_predictability(tau, k) for k in range(1, 33)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_piling_up_law_by_monte_carlo():
    # measurable regime: small blocks, biases where 2^(k-1) eps^k is visible
    rng = np.random.default_rng(2024)
    n = 1_000_000
    for k in (1, 2, 3, 4):
        for eps in (0.05, 0.1, 0.2):
            model = rnd.RngModel(excess_predictability=eps, raw_bits_per_output=k)
            raw = rnd.raw_bits(model, n * k, rng).reshape(n, k)
            parity = raw.sum(axis=1) & 1
            expected = 0.5 - rnd.output_predictability(eps, k) * (-1.0) ** k
            observed = parity.mean()
            sigma = math.sqrt(0.25 / n)
            assert abs(observed - expected) < 4 * sigma


def test_setting_bits_deterministic_replay():
    model = rnd.RngModel()
    a = rnd.setting_bits(model, 500, np.random.default_rng(99))
    b = rnd.setting_bits(model, 500, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


def test_extracted_bits_are_unbiased_despite_raw_bias():
    model = rnd.RngModel(excess_predictability=0.1, raw_bits_per_output=32)
    bits = rnd.setting_bits(model, 50_000, np.random.default_rng(5))
    assert abs(bits.mean() - 0.5) < 3 * 0.5 / math.sqrt(50_000)


@given(st.floats(0.0, 0.5), st.integers(1, 64))
def test_output_predictability_range(tau, k):
    out = rnd.output_predictability(tau, k)
    assert 0.0 <= out <= max(tau, 0.0) + 1e-15


@given(st.floats(0.0, 0.5), st.integers(1, 64))
def test_output_predictability_rounds_up(tau, k):
    # a tau_out below the exact value would lower the win bound and the p-value
    exact = Fraction(1, 2) * (2 * Fraction(tau)) ** k
    out = rnd.output_predictability(tau, k)
    assert Fraction(out) >= min(exact, Fraction(1, 2))
    if 0.0 < out < 0.5:  # and it is the smallest such float
        assert Fraction(math.nextafter(out, 0.0)) < exact


def test_output_predictability_default_point():
    assert rnd.output_predictability(0.1, 32) == 2.147483648000004e-23


def test_raw_bits_per_output_is_bounded():
    # the exact tau_out and one sampling block's raw bits both grow with the block
    top = rnd.RngModel(raw_bits_per_output=rnd.MAX_RAW_BITS_PER_OUTPUT)
    assert 0 < top.tau_out == rnd.output_predictability(0.1, rnd.MAX_RAW_BITS_PER_OUTPUT)
    for k in (rnd.MAX_RAW_BITS_PER_OUTPUT + 1, 10**6, 10**12):
        with pytest.raises(rnd.RandomnessError, match=f"got {k}"):
            rnd.RngModel(raw_bits_per_output=k)
    assert rnd.RngModel().tau_out == 2.147483648000004e-23
    assert rnd.RngModel(raw_bits_per_output=2).tau_out == rnd.output_predictability(0.1, 2)


def test_tau_out_is_computed_once_per_model(monkeypatch):
    calls = []
    exact = rnd.output_predictability
    monkeypatch.setattr(rnd, "output_predictability",
                        lambda tau, k: calls.append((tau, k)) or exact(tau, k))
    model = rnd.RngModel(raw_bits_per_output=2)
    assert model.tau_out == exact(0.1, 2) and model.tau_out == exact(0.1, 2)
    assert calls == [(0.1, 2)]
    # no field or equality sees it, and a replaced model computes its own
    assert model == rnd.RngModel(raw_bits_per_output=2) and len(dataclasses.fields(model)) == 2
    longer = dataclasses.replace(model, raw_bits_per_output=3)
    assert longer.tau_out == exact(0.1, 3) and calls == [(0.1, 2), (0.1, 3)]


def test_model_validation():
    with pytest.raises(rnd.RandomnessError):
        rnd.RngModel(excess_predictability=0.6)
    with pytest.raises(rnd.RandomnessError):
        rnd.RngModel(raw_bits_per_output=0)
    with pytest.raises(ValueError):
        rnd.raw_bits(rnd.RngModel(), -1, np.random.default_rng(0))
    with pytest.raises(rnd.RandomnessError, match="raw excess predictability"):
        rnd.output_predictability(0.6, 3)
    with pytest.raises(rnd.RandomnessError, match="block length"):
        rnd.output_predictability(0.1, 0)


# ---- the setting-source assumption ----------------------------------------------------
#
# 2^(k-1) tau^k holds only for raw bits independent of each other. A Santha-Vazirani
# source keeps every raw bit within [1/2 - tau, 1/2 + tau] given all earlier bits, and
# may lean the last bit of a block by the parity of the others: the XOR is then
# predictable by tau itself.


def parity_adversary_bias(tau: Fraction, k: int) -> Fraction:
    """P(XOR of the block = 1) - 1/2, exactly, when the first k - 1 raw bits are 1 with
    1/2 + tau and the last is 1 with 1/2 + tau after an even parity, 0 after an odd one."""
    lean = Fraction(1, 2) + tau
    even, odd = Fraction(1), Fraction(0)  # two states: the parity of the bits so far
    for _ in range(k - 1):
        even, odd = even * (1 - lean) + odd * lean, even * lean + odd * (1 - lean)
    last_one = {0: lean, 1: 1 - lean}  # P(last bit = 1 | parity of the others)
    assert all(abs(p - Fraction(1, 2)) <= tau for p in last_one.values())
    return even * last_one[0] + odd * (1 - last_one[1]) - Fraction(1, 2)


@pytest.mark.parametrize("k", [1, 2, 32])
def test_a_parity_leaning_source_keeps_the_raw_bias_through_the_xor(k):
    tau = Fraction(0.1)
    assert parity_adversary_bias(tau, k) == tau
    assert rnd.output_predictability(0.1, k) <= 0.1  # the independent-bits bound


def test_at_the_raw_bias_the_golden_win_count_is_not_significant():
    from bellsim import bell_stats
    assert bell_stats.complete_pvalue(196, 245, 0.1, 1.0) == 0.9863180123039944
    assert bell_stats.complete_pvalue(196, 245, 0.1, 3.0) == 1.0
