"""The validated two-spin state the simulator runs, and what it reads from it.

The state is the 4x4 density matrix of the heralded spin pair, spin A first:
basis index s_a * 2 + s_b. It is double precision, dense, and validated at
construction time. The simulator reads it only through the (I, Z, X)
correlation tensor and its fidelity to the singlet.

Conventions: qubit basis index 0 is spin-up (the optically bright level) and
index 1 is spin-down. Measurement directions are confined to the Z-X plane,
parameterised by the angle from Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ATOL = 1e-10             # construction-time validity tolerance
EIGENVALUE_FLOOR = -1e-9  # density matrices may dip this far below PSD


class StateError(ValueError):
    """State data violates a construction invariant."""


@dataclass(frozen=True)
class QuantumState:
    """The spin pair's 4x4 density matrix, spin A first (index s_a * 2 + s_b)."""

    data: np.ndarray
    _tensor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.array(self.data, dtype=np.complex128)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if not np.isfinite(data).all():
            raise StateError("state data has non-finite entries")
        if data.shape != (4, 4):
            raise StateError(f"density matrix has shape {data.shape}, expected (4, 4)")
        if float(abs(data - data.conj().T).max()) > ATOL:
            raise StateError("density matrix is not Hermitian")
        tr = complex(data.trace())
        if abs(tr - 1.0) > ATOL:
            raise StateError(f"density matrix trace {tr} deviates from 1")
        min_eig = float(np.linalg.eigvalsh(data).min())
        if min_eig < EIGENVALUE_FLOOR:
            raise StateError(f"density matrix has eigenvalue {min_eig} below floor")

    def density_matrix(self) -> np.ndarray:
        """A writable copy of the density matrix."""
        return np.array(self.data)


# I, Z and X in the up/down basis
PAULIS = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]], dtype=np.complex128)
PAULIS.setflags(write=False)

# the singlet (|up,down> - |down,up>)/sqrt(2)
SINGLET = np.array([0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0], dtype=np.complex128)
SINGLET.setflags(write=False)


def correlation_tensor(state: QuantumState) -> np.ndarray:
    """T[i, j] = Tr(rho sigma_i (x) sigma_j) for sigma_i, sigma_j in (I, Z, X).

    Every product of two observables in the Z-X plane, u_A . (I, Z, X) on
    spin A and u_B . (I, Z, X) on spin B, has <A (x) B> = u_A T u_B.
    Computed once per state and kept on it, read-only.
    """
    if state._tensor is None:
        rho = state.data.reshape(2, 2, 2, 2)
        tensor = np.einsum("abcd,ica,jdb->ij", rho, PAULIS, PAULIS).real
        tensor.setflags(write=False)
        object.__setattr__(state, "_tensor", tensor)
    return state._tensor


def singlet_fidelity(state: QuantumState) -> float:
    """<psi-|rho|psi->: the spin pair's overlap with the singlet."""
    return float(np.real(SINGLET.conj() @ state.data @ SINGLET))
