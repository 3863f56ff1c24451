"""Partially predictable bit sources and real-time parity extraction.

Each basis-choice bit is the XOR of a block of raw bits, each 1 with
probability 1/2 + tau (an adversary's advantage over 1/2). For independent
raw bits the parity of k bits has excess predictability 2^(k-1) tau^k, the
bound propagated to the hypothesis tests. Independence is assumed, not the
worst case: a Santha-Vazirani source (each bit 1 with a probability in
[1/2 - tau, 1/2 + tau] given the earlier ones) can lean a block's last bit
by the parity of the others, leaving the XOR predictable by tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class RandomnessError(ValueError):
    """Invalid randomness model input."""


def output_predictability(tau_raw: float, k: int) -> float:
    """Excess predictability of the XOR of k raw bits with bias ``tau_raw``.

    2^(k-1) tau^k, clamped to [0, 0.5]. It is computed exactly from the float
    ``tau_raw`` and rounded up to the nearest float, so the win bound and the
    p-value built on it are never too small. Monotone in tau and decreasing
    in k for tau < 0.5.
    """
    if not 0.0 <= tau_raw <= 0.5:
        raise RandomnessError("raw excess predictability must be in [0, 0.5]")
    if k < 1:
        raise RandomnessError("block length must be >= 1")
    from fractions import Fraction  # only the statistics ask for tau_out
    exact = Fraction(1, 2) * (2 * Fraction(tau_raw)) ** k
    out = float(exact)
    return min(0.5, out if Fraction(out) >= exact else math.nextafter(out, math.inf))


# Longest raw-bit block per output. Two costs grow with it: the exact tau_out,
# a Fraction power whose numerator has about 55 bits per raw bit (under 1 ms at
# 1024, 0.5 s at 10^5), and one sampling block's 4096 x k float64 raw-bit draws
# (32 MiB at 1024, 3.2 GB at 10^5). At the default tau = 0.1 the output bias is
# already the smallest float from k = 463 on.
MAX_RAW_BITS_PER_OUTPUT = 1024


@dataclass(frozen=True)
class RngModel:
    """Raw-bit bias and extraction block length."""

    excess_predictability: float = 0.1
    raw_bits_per_output: int = 32

    def __post_init__(self):
        if not 0.0 <= self.excess_predictability <= 0.5:
            raise RandomnessError("excess predictability must be in [0, 0.5]")
        if not 1 <= self.raw_bits_per_output <= MAX_RAW_BITS_PER_OUTPUT:
            raise RandomnessError(f"raw bits per output must be in [1, {MAX_RAW_BITS_PER_OUTPUT}], "
                                  f"got {self.raw_bits_per_output}")

    @cached_property  # once per model: the exact power is a Fraction of ~55 bits per raw bit
    def tau_out(self) -> float:
        return output_predictability(self.excess_predictability, self.raw_bits_per_output)


def raw_bits(model: RngModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. raw bits with P(1) = 1/2 + tau (the model's constant bias)."""
    import numpy as np
    p_one = 0.5 + model.excess_predictability
    return (rng.random(count) < p_one).astype(np.uint8)


def setting_bits(model: RngModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` extracted basis-choice bits (one block of raw bits each)."""
    import numpy as np
    k = model.raw_bits_per_output
    raw = raw_bits(model, count * k, rng).reshape(count, k)
    return np.bitwise_xor.reduce(raw, axis=1)
