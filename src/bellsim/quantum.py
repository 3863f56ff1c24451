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
from typing import Iterable, Sequence

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
PAULI_Y = _readonly_complex([[0, -1j], [1j, 0]])
PAULI_Z = _readonly_complex([[1, 0], [0, -1]])


def basis_ket(index: int, subsystems: Iterable[Subsystem]) -> QuantumState:
    subs = tuple(subsystems)
    dim = 1
    for _, d in subs:
        dim *= d
    vec = np.zeros(dim, dtype=np.complex128)
    vec[index] = 1.0
    return QuantumState(vec, subs)


def spin_up(name: str = "spin") -> QuantumState:
    return basis_ket(0, [(name, 2)])


def spin_down(name: str = "spin") -> QuantumState:
    return basis_ket(1, [(name, 2)])


def psi_minus(name_a: str = "spin_a", name_b: str = "spin_b") -> QuantumState:
    """The two-qubit singlet (|up,down> - |down,up>)/sqrt(2)."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[1] = 1 / math.sqrt(2)
    vec[2] = -1 / math.sqrt(2)
    return QuantumState(vec, ((name_a, 2), (name_b, 2)))


def maximally_mixed(subsystems: Iterable[Subsystem]) -> QuantumState:
    subs = tuple(subsystems)
    dim = 1
    for _, d in subs:
        dim *= d
    return QuantumState(np.eye(dim) / dim, subs)


def tensor(s1: QuantumState, s2: QuantumState) -> QuantumState:
    """Tensor product of two states; kets stay kets, otherwise density form."""
    overlap = set(s1.names) & set(s2.names)
    if overlap:
        raise StateError(f"subsystem names collide: {sorted(overlap)}")
    dim = s1.dim * s2.dim
    if dim > DIM_CAP:
        raise CapacityError(f"joint dimension {dim} exceeds cap {DIM_CAP}")
    subs = s1.subsystems + s2.subsystems
    if s1.is_ket and s2.is_ket:
        return QuantumState(np.kron(s1.data, s2.data), subs)
    return QuantumState(np.kron(s1.density_matrix(), s2.density_matrix()), subs)


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


def partial_trace(state: QuantumState, keep: Sequence[str]) -> QuantumState:
    """Trace out every subsystem not named in ``keep`` (original order kept)."""
    keep_set = set(keep)
    unknown = keep_set - set(state.names)
    if unknown:
        raise StateError(f"unknown subsystem(s) {sorted(unknown)}; have {state.names}")
    if keep_set == set(state.names):
        return state
    if not keep_set:
        raise StateError("cannot trace out every subsystem")
    subs = state.subsystems
    n = len(subs)
    dims = [d for _, d in subs]
    rho = state.density_matrix().reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row, col, out_row, out_col = [], [], [], []
    next_letter = 0
    for i, (name, _) in enumerate(subs):
        if name in keep_set:
            r, c = letters[next_letter], letters[next_letter + 1]
            next_letter += 2
            out_row.append(r)
            out_col.append(c)
        else:
            r = c = letters[next_letter]
            next_letter += 1
        row.append(r)
        col.append(c)
    subscripts = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    kept = tuple(s for s in subs if s[0] in keep_set)
    dim_out = 1
    for _, d in kept:
        dim_out *= d
    reduced = np.einsum(subscripts, rho).reshape(dim_out, dim_out)
    return QuantumState(reduced, kept)


def fidelity_to_pure(state: QuantumState, target: QuantumState) -> float:
    """<psi|rho|psi> against a pure target with matching dimension."""
    if not target.is_ket:
        raise StateError("fidelity target must be a pure state")
    if target.dim != state.dim:
        raise StateError(f"dimension mismatch: state {state.dim}, target {target.dim}")
    psi = target.data
    return float(np.real(psi.conj() @ state.density_matrix() @ psi))


def identity_channel(dim: int = 2) -> Channel:
    return Channel((np.eye(dim, dtype=np.complex128),))


def bit_flip_channel(p: float) -> Channel:
    """Flip the qubit basis states with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise StateError("flip probability must be in [0, 1]")
    ops = []
    if p < 1.0:
        ops.append(math.sqrt(1 - p) * np.asarray(PAULI_I))
    if p > 0.0:
        ops.append(math.sqrt(p) * np.asarray(PAULI_X))
    return Channel(tuple(ops))


def depolarizing_channel(p: float) -> Channel:
    """Replace the qubit state by the maximally mixed one with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise StateError("depolarizing probability must be in [0, 1]")
    ops = [math.sqrt(1 - 3 * p / 4) * np.asarray(PAULI_I)]
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        if p > 0.0:
            ops.append(math.sqrt(p / 4) * np.asarray(pauli))
    return Channel(tuple(ops))
