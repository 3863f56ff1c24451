"""The validated two-spin state the simulator runs, and what it reads from it.

The state is the density matrix of the heralded spin pair, spin A first:
basis index s_a * 2 + s_b. The model's amplitudes and readout bases all lie
in the Z-X plane, so the matrix is real: 16 floats in row-major order,
validated at construction time in plain Python, so building, checking and
reading a state loads no numpy; only :meth:`QuantumState.density_matrix`,
which hands out an array, imports it. The simulator reads the state only
through the (I, Z, X) correlation tensor and its fidelity to the singlet.

The eigenvalue floor is checked by an LDL^T factorisation of rho - floor * I:
every pivot positive means every eigenvalue lies above the floor. The same
factorisation, bisected over the shift, measures the smallest eigenvalue of a
state that fails.

Conventions: qubit basis index 0 is spin-up (the optically bright level) and
index 1 is spin-down; a measurement direction is given by its angle from Z.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

ATOL = 1e-10             # construction-time validity tolerance
EIGENVALUE_FLOOR = -1e-9  # density matrices may dip this far below PSD

# (row-major index of entry [i][j], of entry [j][i]) over the strict upper triangle
_TRANSPOSED = tuple((i * 4 + j, j * 4 + i) for i, j in combinations(range(4), 2))


class StateError(ValueError):
    """State data violates a construction invariant."""


def _positive_definite_above(m: tuple[float, ...], floor: float) -> bool:
    """Whether the symmetric ``m`` - floor * I is positive definite: LDL^T by three
    Schur-complement steps on the lower triangle, every pivot > 0 exactly when
    the matrix is positive definite (Sylvester's law of inertia).
    """
    d0, _, _, _, a10, d1, _, _, a20, a21, d2, _, a30, a31, a32, d3 = m
    d0, d1, d2, d3 = d0 - floor, d1 - floor, d2 - floor, d3 - floor
    if not d0 > 0.0:
        return False
    l1, l2, l3 = a10 / d0, a20 / d0, a30 / d0
    d1 -= l1 * a10
    if not d1 > 0.0:
        return False
    a21, a31 = a21 - l2 * a10, a31 - l3 * a10
    a32 -= l3 * a20
    d2 -= l2 * a20
    d3 -= l3 * a30
    l2, l3 = a21 / d1, a31 / d1
    d2 -= l2 * a21
    if not d2 > 0.0:
        return False
    a32 -= l3 * a21
    d3 -= l3 * a31
    d3 -= a32 / d2 * a32
    return d3 > 0.0


def _eigenvalue_below_floor(m: tuple[float, ...]) -> float | None:
    """The smallest eigenvalue of the symmetric ``m`` if it is below EIGENVALUE_FLOOR, else None.

    The LDL^T at the floor decides. Only when it fails is the eigenvalue found: as
    the largest shift f at which ``m`` - f * I is still positive definite, by
    bisection down to adjacent floats. No eigenvalue of a symmetric 4x4 lies below
    -4 max |m_ij|, which bounds the bracket; halving before adding keeps it finite.
    """
    if _positive_definite_above(m, EIGENVALUE_FLOOR):
        return None
    lo, hi = max(-4.0 * max(map(abs, m)) - 1.0, -sys.float_info.max), EIGENVALUE_FLOOR
    while (mid := 0.5 * lo + 0.5 * hi) not in (lo, hi):
        if _positive_definite_above(m, mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class QuantumState:
    """The spin pair's density matrix (index s_a * 2 + s_b), 16 floats in row-major order."""

    data: tuple[float, ...]

    def __post_init__(self):
        entries = tuple(self.data)
        if len(entries) != 16:
            raise StateError(f"density matrix has {len(entries)} entries, expected 16")
        # a number is kept if it is finite and real: a complex one only with imaginary part 0
        try:
            data = tuple([float(z.real) for z in entries if isinstance(z, (int, float, complex))
                          and z.imag == 0.0 and math.isfinite(z.real)])
        except OverflowError:  # an int beyond the float range
            data = ()
        if len(data) != 16:
            raise StateError("state data has non-finite or non-real entries")
        if max([abs(data[i] - data[j]) for i, j in _TRANSPOSED]) > ATOL:
            raise StateError("density matrix is not Hermitian")
        tr = data[0] + data[5] + data[10] + data[15]
        if abs(tr - 1.0) > ATOL:
            raise StateError(f"density matrix trace {tr} deviates from 1")
        object.__setattr__(self, "data", data)
        min_eig = _eigenvalue_below_floor(data)
        if min_eig is not None:
            raise StateError(f"density matrix has eigenvalue {min_eig} below floor")

    def density_matrix(self) -> np.ndarray:
        """A writable copy of the density matrix, as a 4x4 complex128 array."""
        import numpy as np  # building and reading a state loads no numpy
        return np.array(self.data, dtype=np.complex128).reshape(4, 4)

    @cached_property  # once per state: a replaced state is a new object
    def correlation_tensor(self) -> tuple[tuple[float, float, float], ...]:
        """T[i][j] = Tr(rho sigma_i (x) sigma_j) for sigma_i, sigma_j in (I, Z, X).

        Every product of two observables in the Z-X plane, u_A . (I, Z, X) on
        spin A and u_B . (I, Z, X) on spin B, has <A (x) B> = u_A T u_B. Each
        entry sums four entries of rho in row order, as a contraction over the
        basis does.
        """
        r00, r01, r02, r03, r10, r11, r12, r13, r20, r21, r22, r23, r30, r31, r32, r33 = self.data
        return ((r00 + r11 + r22 + r33, r00 - r11 + r22 - r33, r01 + r10 + r23 + r32),
                (r00 + r11 - r22 - r33, r00 - r11 - r22 + r33, r01 + r10 - r23 - r32),
                (r02 + r13 + r20 + r31, r02 - r13 + r20 - r31, r03 + r12 + r21 + r30))


# the singlet (|up,down> - |down,up>)/sqrt(2)
SINGLET = (0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)


def times_tensor(u: tuple[float, float, float],
                 tensor: tuple[tuple[float, float, float], ...]) -> tuple[float, float, float]:
    """The row u T, so that <A (x) B> = (u_A T) . u_B."""
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = tensor
    u0, u1, u2 = u
    return (u0 * t00 + u1 * t10 + u2 * t20,
            u0 * t01 + u1 * t11 + u2 * t21,
            u0 * t02 + u1 * t12 + u2 * t22)


def singlet_fidelity(state: QuantumState) -> float:
    """<psi-|rho|psi->: the spin pair's overlap with the singlet."""
    _, up_down, down_up, _ = SINGLET
    rho = state.data
    row = (up_down * rho[5] + down_up * rho[9], up_down * rho[6] + down_up * rho[10])
    return row[0] * up_down + row[1] * down_up
