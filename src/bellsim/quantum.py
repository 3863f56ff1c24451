"""Dense complex linear algebra for small multipartite quantum systems.

States live on an ordered tensor product of named subsystems and are stored
either as amplitude vectors (pure states) or density matrices. Everything is
double precision, dense, and validated at construction time; the module trades
generality for exact testability on the few-hundred-dimensional spaces the
simulator needs.

Conventions: qubit basis index 0 is spin-up (the optically bright level) and
index 1 is spin-down. Measurement directions are confined to the Z-X plane,
parameterised by the angle from Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-10             # construction-time validity tolerance
EIGENVALUE_FLOOR = -1e-9  # density matrices may dip this far below PSD
DIM_CAP = 4096           # largest joint dimension the dense backend accepts

Subsystem = tuple[str, int]


class StateError(ValueError):
    """State, observable, or channel data violates a construction invariant."""


class CapacityError(StateError):
    """Joint dimension would exceed the dense-representation cap."""


def _readonly_complex(a) -> np.ndarray:
    arr = np.array(a, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuantumState:
    """A pure or mixed state on an ordered tuple of named subsystems.

    ``data`` is either a length-``dim`` amplitude vector or a ``dim x dim``
    density matrix, where ``dim`` is the product of the subsystem dimensions.
    """

    data: np.ndarray
    subsystems: tuple[Subsystem, ...]

    def __post_init__(self):
        data = _readonly_complex(self.data)
        subsystems = tuple((str(n), int(d)) for n, d in self.subsystems)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "subsystems", subsystems)
        names = [n for n, _ in subsystems]
        if not subsystems:
            raise StateError("state needs at least one subsystem")
        if len(set(names)) != len(names):
            raise StateError(f"duplicate subsystem names: {names}")
        if any(d < 1 for _, d in subsystems):
            raise StateError("subsystem dimensions must be >= 1")
        dim = 1
        for _, d in subsystems:
            dim *= d
        if dim > DIM_CAP:
            raise CapacityError(f"joint dimension {dim} exceeds cap {DIM_CAP}")
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
        d = 1
        for _, k in self.subsystems:
            d *= k
        return d

    @property
    def is_ket(self) -> bool:
        return self.data.ndim == 1

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.subsystems)

    def subsystem_dim(self, name: str) -> int:
        for n, d in self.subsystems:
            if n == name:
                return d
        raise StateError(f"unknown subsystem {name!r}; have {self.names}")

    def subsystem_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.subsystems):
            if n == name:
                return i
        raise StateError(f"unknown subsystem {name!r}; have {self.names}")

    def density_matrix(self) -> np.ndarray:
        """Dense density matrix regardless of the stored representation."""
        if self.is_ket:
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)


@dataclass(frozen=True)
class Observable:
    """Hermitian operator on a single space (use with :func:`expectation`)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _readonly_complex(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateError("observable must be a square matrix")
        if float(np.max(np.abs(m - m.conj().T))) > ATOL:
            raise StateError("observable is not Hermitian")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_readonly_complex(k) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        if not ops:
            raise StateError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.ndim != 2 or k.shape != (d, d):
                raise StateError("Kraus operators must share one square shape")
        total = sum(k.conj().T @ k for k in ops)
        if float(np.max(np.abs(total - np.eye(d)))) > ATOL:
            raise StateError("Kraus set is not trace preserving")

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


# Pauli matrices in the up/down basis.
PAULI_I = _readonly_complex(np.eye(2))
PAULI_X = _readonly_complex([[0, 1], [1, 0]])
PAULI_Z = _readonly_complex([[1, 0], [0, -1]])


def psi_minus(name_a: str = "spin_a", name_b: str = "spin_b") -> QuantumState:
    """The two-qubit singlet (|up,down> - |down,up>)/sqrt(2)."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[1] = 1 / math.sqrt(2)
    vec[2] = -1 / math.sqrt(2)
    return QuantumState(vec, ((name_a, 2), (name_b, 2)))


def bloch_observable(theta: float) -> Observable:
    """Spin observable along cos(theta) Z + sin(theta) X; eigenvalues are +-1."""
    if not math.isfinite(theta):
        raise StateError("angle must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return Observable(np.array([[c, s], [s, -c]], dtype=np.complex128))


def expectation(state: QuantumState, obs_a: Observable, obs_b: Observable) -> float:
    """<A (x) B> for a bipartite state; A acts on the first subsystem."""
    if len(state.subsystems) != 2:
        raise StateError(f"expectation needs a bipartite state, got {state.names}")
    (_, da), (_, db) = state.subsystems
    if obs_a.dim != da or obs_b.dim != db:
        raise StateError(
            f"observable dimensions ({obs_a.dim}, {obs_b.dim}) do not match state ({da}, {db})"
        )
    value = complex(np.trace(state.density_matrix() @ np.kron(obs_a.matrix, obs_b.matrix)))
    return float(value.real)


def correlation_tensor(state: QuantumState) -> np.ndarray:
    """T[i, j] = Tr(rho sigma_i (x) sigma_j) for sigma_i, sigma_j in (I, Z, X).

    Every product of two observables in the Z-X plane, u_A . (I, Z, X) on the
    first qubit and u_B . (I, Z, X) on the second, has <A (x) B> = u_A T u_B.
    """
    if tuple(d for _, d in state.subsystems) != (2, 2):
        raise StateError(f"correlation tensor needs a two-qubit state, got {state.subsystems}")
    paulis = np.array([PAULI_I, PAULI_Z, PAULI_X])
    rho = state.density_matrix().reshape(2, 2, 2, 2)
    return np.einsum("abcd,ica,jdb->ij", rho, paulis, paulis).real


def _embed(op: np.ndarray, state: QuantumState, name: str) -> np.ndarray:
    """Lift an operator on one subsystem to the joint space by kron with identities."""
    idx = state.subsystem_index(name)
    left = 1
    for _, d in state.subsystems[:idx]:
        left *= d
    right = 1
    for _, d in state.subsystems[idx + 1:]:
        right *= d
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def apply_channel(state: QuantumState, channel: Channel, subsystem: str) -> QuantumState:
    """Apply a CPTP map to one named subsystem; output is trace preserving."""
    if channel.dim != state.subsystem_dim(subsystem):
        raise StateError(
            f"channel dimension {channel.dim} does not match subsystem "
            f"{subsystem!r} of dimension {state.subsystem_dim(subsystem)}"
        )
    if state.is_ket and len(channel.kraus) == 1:
        return QuantumState(_embed(channel.kraus[0], state, subsystem) @ state.data,
                            state.subsystems)
    rho = state.density_matrix()
    out = np.zeros_like(rho)
    for k in channel.kraus:
        big = _embed(k, state, subsystem)
        out += big @ rho @ big.conj().T
    return QuantumState(out, state.subsystems)


def fidelity_to_pure(state: QuantumState, target: QuantumState) -> float:
    """<psi|rho|psi> against a pure target with matching dimension."""
    if not target.is_ket:
        raise StateError("fidelity target must be a pure state")
    if target.dim != state.dim:
        raise StateError(f"dimension mismatch: state {state.dim}, target {target.dim}")
    psi = target.data
    return float(np.real(psi.conj() @ state.density_matrix() @ psi))
