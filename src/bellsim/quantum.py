"""The validated two-spin state the simulator runs, and what it reads from it.

A state lives on an ordered tuple of named subsystems and is stored either as
an amplitude vector (pure state) or a density matrix. Everything is double
precision, dense, and validated at construction time. The simulator builds
the heralded spin pair and the single spin-photon states with it, and reads
them only through the (I, Z, X) correlation tensor and the fidelity to a pure
target.

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

Subsystem = tuple[str, int]


class StateError(ValueError):
    """State data violates a construction invariant."""


@dataclass(frozen=True)
class QuantumState:
    """A pure or mixed state on an ordered tuple of named subsystems.

    ``data`` is either a length-``dim`` amplitude vector or a ``dim x dim``
    density matrix, where ``dim`` is the product of the subsystem dimensions.
    """

    data: np.ndarray
    subsystems: tuple[Subsystem, ...]
    _tensor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.array(self.data, dtype=np.complex128)
        data.setflags(write=False)
        subsystems = tuple((str(n), int(d)) for n, d in self.subsystems)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "subsystems", subsystems)
        labels = [n for n, _ in subsystems]
        if not subsystems:
            raise StateError("state needs at least one subsystem")
        if len(set(labels)) != len(labels):
            raise StateError(f"duplicate subsystem names: {labels}")
        if any(d < 1 for _, d in subsystems):
            raise StateError("subsystem dimensions must be >= 1")
        dim = self.dim
        if not np.isfinite(data).all():
            raise StateError("state data has non-finite entries")
        if data.ndim == 1:
            if data.shape != (dim,):
                raise StateError(f"amplitude vector has length {data.shape[0]}, expected {dim}")
            norm = float(np.linalg.norm(data))
            if abs(norm - 1.0) > ATOL:
                raise StateError(f"amplitude vector norm {norm} deviates from 1")
        elif data.ndim == 2:
            if data.shape != (dim, dim):
                raise StateError(f"density matrix has shape {data.shape}, expected {(dim, dim)}")
            if float(np.max(np.abs(data - data.conj().T))) > ATOL:
                raise StateError("density matrix is not Hermitian")
            tr = complex(np.trace(data))
            if abs(tr - 1.0) > ATOL:
                raise StateError(f"density matrix trace {tr} deviates from 1")
            min_eig = float(np.min(np.linalg.eigvalsh(data)))
            if min_eig < EIGENVALUE_FLOOR:
                raise StateError(f"density matrix has eigenvalue {min_eig} below floor")
        else:
            raise StateError("state data must be a vector or a square matrix")

    @property
    def dim(self) -> int:
        return math.prod(d for _, d in self.subsystems)

    @property
    def is_ket(self) -> bool:
        return self.data.ndim == 1

    def density_matrix(self) -> np.ndarray:
        """Dense density matrix regardless of the stored representation."""
        if self.is_ket:
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


# I, Z and X in the up/down basis
PAULIS = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]], dtype=np.complex128)
PAULIS.setflags(write=False)


def psi_minus(name_a: str = "spin_a", name_b: str = "spin_b") -> QuantumState:
    """The two-qubit singlet (|up,down> - |down,up>)/sqrt(2)."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[1] = 1 / math.sqrt(2)
    vec[2] = -1 / math.sqrt(2)
    return QuantumState(vec, ((name_a, 2), (name_b, 2)))


def correlation_tensor(state: QuantumState) -> np.ndarray:
    """T[i, j] = Tr(rho sigma_i (x) sigma_j) for sigma_i, sigma_j in (I, Z, X).

    Every product of two observables in the Z-X plane, u_A . (I, Z, X) on the
    first qubit and u_B . (I, Z, X) on the second, has <A (x) B> = u_A T u_B.
    Computed once per state and kept on it, read-only.
    """
    if state._tensor is None:
        if tuple(d for _, d in state.subsystems) != (2, 2):
            raise StateError(f"correlation tensor needs a two-qubit state, got {state.subsystems}")
        rho = state.density_matrix().reshape(2, 2, 2, 2)
        tensor = np.einsum("abcd,ica,jdb->ij", rho, PAULIS, PAULIS).real
        tensor.setflags(write=False)
        object.__setattr__(state, "_tensor", tensor)
    return state._tensor


def fidelity_to_pure(state: QuantumState, target: QuantumState) -> float:
    """<psi|rho|psi> against a pure target with matching dimension."""
    if not target.is_ket:
        raise StateError("fidelity target must be a pure state")
    if target.dim != state.dim:
        raise StateError(f"dimension mismatch: state {state.dim}, target {target.dim}")
    psi = target.data
    return float(np.real(psi.conj() @ state.density_matrix() @ psi))
