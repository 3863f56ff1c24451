"""The validated two-spin state the simulator runs, and what it reads from it.

The state is the 4x4 density matrix of the heralded spin pair, spin A first:
basis index s_a * 2 + s_b. It is held as nested tuples of ``complex`` and
validated at construction time in plain Python, so building, checking and
reading a state loads no numpy; only :meth:`QuantumState.density_matrix`,
which hands out an array, imports it. The simulator reads the state only
through the (I, Z, X) correlation tensor and its fidelity to the singlet.

The eigenvalue floor is checked by an LDL^H factorisation of rho - floor * I:
every pivot positive means the matrix is positive definite, so every
eigenvalue lies above the floor. Only when a pivot fails is the smallest
eigenvalue computed, by cyclic Jacobi rotations, to decide and to report it.

Conventions: qubit basis index 0 is spin-up (the optically bright level) and
index 1 is spin-down. Measurement directions are confined to the Z-X plane,
parameterised by the angle from Z.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

ATOL = 1e-10             # construction-time validity tolerance
EIGENVALUE_FLOOR = -1e-9  # density matrices may dip this far below PSD
JACOBI_SWEEPS = 50        # cyclic Jacobi converges in a handful for 4x4; a cap, not a tolerance

Matrix = tuple[tuple[complex, ...], ...]

# (row-major index of entry [i][j], of entry [j][i]) over the upper triangle
_TRANSPOSED = tuple((i * 4 + j, j * 4 + i) for i in range(4) for j in range(i, 4))


class StateError(ValueError):
    """State data violates a construction invariant."""


def _entries(data) -> tuple[list[complex], tuple[int, ...]]:
    """``data``'s entries as complex numbers in row-major order, and its shape.

    ``data`` is a number, a nested sequence of them or an array (read through
    its ``tolist``); rows of unequal shape are rejected.
    """
    if hasattr(data, "tolist"):
        data = data.tolist()
    if not isinstance(data, (list, tuple)):
        return [complex(data)], ()
    try:  # a matrix: a sequence of sequences of numbers
        entries = list(map(complex, [z for row in data for z in row]))
        shapes = {(len(row),) for row in data}
    except TypeError:  # a vector, or nested deeper
        parts = [_entries(x) for x in data]
        entries = [z for part, _ in parts for z in part]
        shapes = {shape for _, shape in parts}
    if len(shapes) > 1:
        raise StateError("state data rows have unequal shapes")
    return entries, (len(data), *(shapes.pop() if shapes else ()))


def _positive_definite_above(m: Matrix, floor: float) -> bool:
    """Whether the Hermitian ``m`` - floor * I is positive definite.

    LDL^H by three Schur-complement steps on the lower triangle: by
    Sylvester's law of inertia, every pivot > 0 exactly when the matrix is
    positive definite.
    """
    (d0, _, _, _), (a10, d1, _, _), (a20, a21, d2, _), (a30, a31, a32, d3) = m
    d0, d1, d2, d3 = d0.real - floor, d1.real - floor, d2.real - floor, d3.real - floor
    if not d0 > 0.0:
        return False
    l1, l2, l3 = a10 / d0, a20 / d0, a30 / d0
    d1 -= (l1 * a10.conjugate()).real
    if not d1 > 0.0:
        return False
    a21, a31 = a21 - l2 * a10.conjugate(), a31 - l3 * a10.conjugate()
    a32 -= l3 * a20.conjugate()
    d2 -= (l2 * a20.conjugate()).real
    d3 -= (l3 * a30.conjugate()).real
    l2, l3 = a21 / d1, a31 / d1
    d2 -= (l2 * a21.conjugate()).real
    if not d2 > 0.0:
        return False
    a32 -= l3 * a21.conjugate()
    d3 -= (l3 * a31.conjugate()).real
    d3 -= (a32 / d2 * a32.conjugate()).real
    return d3 > 0.0


def _smallest_eigenvalue(m: Matrix) -> float:
    """The smallest eigenvalue of the Hermitian 4x4 ``m`` (its lower triangle read,
    as LAPACK's ``eigvalsh`` does), by cyclic Jacobi rotations.

    Each rotation zeroes a[p][q] = r e^{i phi} with the unitary whose columns
    are c e_p - s e^{-i phi} e_q and s e_p + c e^{-i phi} e_q, t = s / c the
    smaller root of t^2 + 2 t (a_qq - a_pp) / (2 r) - 1 = 0.
    """
    a = [[m[i][j] if i >= j else m[j][i].conjugate() for j in range(4)] for i in range(4)]
    for _ in range(JACOBI_SWEEPS):
        if not any(a[p][q] for p, q in combinations(range(4), 2)):
            break
        for p, q in combinations(range(4), 2):
            r = abs(a[p][q])
            if abs(a[p][p].real) + 100.0 * r == abs(a[p][p].real) \
                    and abs(a[q][q].real) + 100.0 * r == abs(a[q][q].real):
                a[p][q] = a[q][p] = 0j  # below rounding of both diagonal entries
                continue
            phase = a[p][q].conjugate() / r
            theta = (a[q][q].real - a[p][p].real) / (2.0 * r)
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for k in range(4):
                if k != p and k != q:
                    a_kp, a_kq = a[k][p], a[k][q] * phase
                    a[k][p], a[k][q] = c * a_kp - s * a_kq, s * a_kp + c * a_kq
                    a[p][k], a[q][k] = a[k][p].conjugate(), a[k][q].conjugate()
            a[p][p], a[q][q] = a[p][p].real - t * r, a[q][q].real + t * r
            a[p][q] = a[q][p] = 0j
    return min(a[k][k].real for k in range(4))


def _eigenvalue_below_floor(m: Matrix) -> float | None:
    """The smallest eigenvalue of the Hermitian ``m`` if it is below EIGENVALUE_FLOOR, else None."""
    if _positive_definite_above(m, EIGENVALUE_FLOOR):
        return None
    min_eig = _smallest_eigenvalue(m)
    return min_eig if min_eig < EIGENVALUE_FLOOR else None


@dataclass(frozen=True)
class QuantumState:
    """The spin pair's 4x4 density matrix, spin A first (index s_a * 2 + s_b)."""

    data: Matrix
    _tensor: tuple[tuple[float, ...], ...] | None = field(default=None, init=False, repr=False,
                                                          compare=False)

    def __post_init__(self):
        entries, shape = _entries(self.data)
        if not all(map(cmath.isfinite, entries)):
            raise StateError("state data has non-finite entries")
        if shape != (4, 4):
            raise StateError(f"density matrix has shape {shape}, expected (4, 4)")
        if max([abs(entries[i] - entries[j].conjugate()) for i, j in _TRANSPOSED]) > ATOL:
            raise StateError("density matrix is not Hermitian")
        tr = entries[0] + entries[5] + entries[10] + entries[15]
        if abs(tr - 1.0) > ATOL:
            raise StateError(f"density matrix trace {tr} deviates from 1")
        data = (tuple(entries[0:4]), tuple(entries[4:8]), tuple(entries[8:12]),
                tuple(entries[12:16]))
        object.__setattr__(self, "data", data)
        min_eig = _eigenvalue_below_floor(data)
        if min_eig is not None:
            raise StateError(f"density matrix has eigenvalue {min_eig} below floor")

    def density_matrix(self) -> np.ndarray:
        """A writable copy of the density matrix, as a complex128 array."""
        import numpy as np  # building and reading a state loads no numpy
        return np.array(self.data, dtype=np.complex128)


# the singlet (|up,down> - |down,up>)/sqrt(2)
SINGLET = (0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)


def correlation_tensor(state: QuantumState) -> tuple[tuple[float, float, float], ...]:
    """T[i][j] = Tr(rho sigma_i (x) sigma_j) for sigma_i, sigma_j in (I, Z, X).

    Every product of two observables in the Z-X plane, u_A . (I, Z, X) on
    spin A and u_B . (I, Z, X) on spin B, has <A (x) B> = u_A T u_B. Each
    entry sums four real parts of rho in row order, as a contraction over the
    basis does. Computed once per state and kept on it, as tuples.
    """
    if state._tensor is None:
        (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = (
            [z.real for z in row] for row in state.data)
        tensor = ((r00 + r11 + r22 + r33, r00 - r11 + r22 - r33, r01 + r10 + r23 + r32),
                  (r00 + r11 - r22 - r33, r00 - r11 - r22 + r33, r01 + r10 - r23 - r32),
                  (r02 + r13 + r20 + r31, r02 - r13 + r20 - r31, r03 + r12 + r21 + r30))
        object.__setattr__(state, "_tensor", tensor)
    return state._tensor


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
    row = [up_down * rho[1][k].real + down_up * rho[2][k].real for k in (1, 2)]
    return row[0] * up_down + row[1] * down_up
