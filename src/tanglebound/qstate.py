"""Three- and four-qubit pure states, rank-2 mixed states, and single-qubit unitaries.

Amplitude storage is i1-major: a four-qubit amplitude a_{i1 i2 i3 i4} lives at
flat index 8*i1 + 4*i2 + 2*i3 + i4, so ``amps.reshape(2, 2, 2, 2)`` has axes
(i1, i2, i3, i4) and qubits are ordered (A1, A2, A3, A4).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    BadPermutation,
    BadQubitIndex,
    BadQubitLabel,
    BadStateFormat,
    NonFinite,
    NotDensityMatrix,
    NotNormalized,
    NotUnitary,
    RankTooHigh,
    ZeroState,
)

NORM_TOL = 1e-9          # slack allowed on "state is normalized" preconditions
UNITARY_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
RANK2_TOL = 1e-10        # third-largest eigenvalue below this counts as rank <= 2
ZERO_NORM_TOL = 1e-28


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _holds_bool(values) -> bool:
    """Whether values is a bool or a boolean array, or nests one in its lists."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind == "b"
    if isinstance(values, (list, tuple)):
        return not {int, float, complex}.issuperset(map(type, values)) and any(map(_holds_bool, values))
    return isinstance(values, (bool, np.bool_))


def _valid_array(values, shape: tuple, what: str) -> np.ndarray:
    """values as a read-only complex array of the given shape; a one-axis shape
    (n,) takes any array of n entries, flattened. BadStateFormat where an entry
    is not a number (a bool, which np.asarray reads as 0 or 1, included) or the
    shape is wrong, NonFinite on a NaN or inf entry or an integer too large for
    a float."""
    if _holds_bool(values):
        raise BadStateFormat(f"{what} entries must be numbers, not booleans")
    try:
        a = np.asarray(values, dtype=complex)
    except OverflowError as exc:
        raise NonFinite(f"{what} entry too large for a float: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise BadStateFormat(f"{what} entries must be numbers: {exc}") from None
    if len(shape) == 1:
        a = a.reshape(-1)
    if a.shape != shape:
        raise BadStateFormat(f"{what} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        k = int(np.flatnonzero(~np.isfinite(a))[0])
        raise NonFinite(f"non-finite {what} entry {complex(a.flat[k])!r} at flat index {k}")
    return _read_only(a.copy())     # np.asarray may return the caller's array


@dataclass(frozen=True)
class _PureState:
    """The body of PureState3 and PureState4, which set the shapes of their
    amplitude vector and tensor."""

    amps: np.ndarray = field()
    _AMPS: ClassVar[tuple]
    _TENSOR: ClassVar[tuple]

    def __post_init__(self):
        object.__setattr__(self, "amps", _valid_array(self.amps, self._AMPS, "amplitude vector"))

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self._TENSOR)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True)
class PureState3(_PureState):
    """Three-qubit pure state over (A1, A2, A3)."""

    _AMPS = (8,)
    _TENSOR = (2, 2, 2)


@dataclass(frozen=True)
class PureState4(_PureState):
    """Four-qubit pure state over (A1, A2, A3, A4)."""

    _AMPS = (16,)
    _TENSOR = (2, 2, 2, 2)


@dataclass(frozen=True)
class MixedState3:
    """8x8 three-qubit density matrix (Hermitian, unit trace, PSD within tolerance)."""

    rho: np.ndarray = field()

    def __post_init__(self):
        r = _valid_array(self.rho, (8, 8), "density matrix")
        if np.max(np.abs(r - r.conj().T)) > HERMITIAN_TOL:
            raise NotDensityMatrix("matrix is not Hermitian")
        if abs(np.trace(r).real - 1.0) > TRACE_TOL or abs(np.trace(r).imag) > TRACE_TOL:
            raise NotDensityMatrix("trace is not 1")
        if np.min(np.linalg.eigvalsh(r)) < EIGENVALUE_FLOOR:
            raise NotDensityMatrix("matrix has a negative eigenvalue")
        object.__setattr__(self, "rho", r)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        return np.linalg.eigvalsh(self.rho)[::-1]


@dataclass(frozen=True)
class Qubit2Unitary:
    """2x2 unitary; ``special`` asserts det = 1."""

    u: np.ndarray = field()
    special: bool = False

    def __post_init__(self):
        m = _valid_array(self.u, (2, 2), "unitary")
        if np.max(np.abs(m @ m.conj().T - np.eye(2))) > UNITARY_TOL:
            raise NotUnitary("u @ u^dagger deviates from the identity")
        if self.special and abs(np.linalg.det(m) - 1.0) > UNITARY_TOL:
            raise NotUnitary("special unitary must have det = 1")
        object.__setattr__(self, "u", m)


#: the largest norm^2 that np.vdot may read for norm_squared() not to
#: overflow: the two round differently by a few ulps
_NORM2_MAX = sys.float_info.max * (1.0 - 2.0 ** -40)


def normalize(state):
    """Scale amplitudes to unit norm, leaving the global phase untouched.

    Raises NonFinite where the norm^2 of finite amplitudes overflows. The
    check reads np.vdot, which overflows to inf without a warning, before
    norm_squared() squares the moduli.
    """
    if not np.vdot(state.amps, state.amps).real <= _NORM2_MAX:
        raise NonFinite("norm^2 of the amplitudes overflows; scale them down")
    n2 = state.norm_squared()
    if n2 < ZERO_NORM_TOL:
        raise ZeroState("cannot normalize a zero amplitude vector")
    return type(state)(state.amps / math.sqrt(n2))


def check_normalized(state) -> None:
    """Raise NotNormalized unless |norm^2 - 1| <= NORM_TOL.

    A check only, so one np.vdot call suffices: it rounds differently from
    norm_squared() by a few ulps, far below NORM_TOL. normalize() keeps
    norm_squared(), so no normalized state changes. The message prints the
    np.vdot value, which overflows to inf without a warning where the squared
    moduli would warn.
    """
    n2 = np.vdot(state.amps, state.amps).real
    if abs(n2 - 1.0) > NORM_TOL:
        raise NotNormalized(f"norm^2 = {float(n2)!r}")


def _of_kind(state, kind: type) -> None:
    """BadStateFormat unless state is a kind, PureState3 or PureState4."""
    if not isinstance(state, kind):
        qubits = "four" if kind is PureState4 else "three"
        raise BadStateFormat(f"needs a {qubits}-qubit state, got {type(state).__name__}")


def _finite_x(x, name: str = "x") -> complex:
    """x as a Python complex; NonFinite, which names it, unless it is a finite number."""
    try:
        z = complex(x)
    except OverflowError:
        raise NonFinite(f"{name} is too large for a float") from None
    except (TypeError, ValueError):
        raise NonFinite(f"{name} = {x!r} is not a number") from None
    if not cmath.isfinite(z):
        raise NonFinite(f"{name} = {z!r}")
    return z


def u_of_x(x: complex) -> Qubit2Unitary:
    """The det-1 unitary (1/sqrt(1+|x|^2)) [[1, -conj(x)], [x, 1]]."""
    x = _finite_x(x)
    # halved, as 1 + |x|^2 overflows at |x| = 1.3e154 and sqrt(1 + |x|^2) at 1.8e308
    h = math.hypot(0.5, 0.5 * x.real, 0.5 * x.imag)
    return Qubit2Unitary(np.array([[0.5, -0.5 * x.conjugate()], [0.5 * x, 0.5]]) / h, special=True)


def apply_local_unitary(state, qubit: int, u) -> "PureState4 | PureState3":
    """Contract a 2x2 unitary into the given qubit slot (1-based index)."""
    if not isinstance(u, Qubit2Unitary):
        u = Qubit2Unitary(u)
    t = state.tensor()
    n = t.ndim
    if not isinstance(qubit, int) or qubit < 1 or qubit > n:
        raise BadQubitIndex(f"qubit must be 1..{n}, got {qubit!r}")
    ax = qubit - 1
    out = np.tensordot(u.u, t, axes=([1], [ax]))     # new index is now axis 0
    out = np.moveaxis(out, 0, ax)
    return type(state)(out.reshape(-1))


def permute_qubits(state: PureState4, perm) -> PureState4:
    """Reindex amplitudes so position k of the result carries old qubit perm[k].

    The new amplitude at (i_{perm[1]}, i_{perm[2]}, i_{perm[3]}, i_{perm[4]})
    equals the old amplitude at (i_1, i_2, i_3, i_4). ``perm`` is 1-based.
    Pure reindexing: exact, norm preserving, a group action.
    """
    _of_kind(state, PureState4)
    perm = tuple(perm)
    if sorted(perm) != [1, 2, 3, 4]:
        raise BadPermutation(f"not a bijection of 1..4: {perm!r}")
    return PureState4(state.tensor().transpose([p - 1 for p in perm]))


#: traced qubit -> permutation that moves it to position 4, keeping A1 first
#: and the remaining qubits in ascending order (entry k = old qubit now at k)
TRACE_PERMS = {"A4": (1, 2, 3, 4), "A3": (1, 2, 4, 3), "A2": (1, 3, 4, 2)}


#: traced qubit -> flat indices g with ``state.amps[g]`` equal to
#: ``permute_qubits(state, TRACE_PERMS[traced]).amps``: permute_qubits'
#: transpose applied to the flat indices themselves
TRACED_LAST_INDEX = {
    traced: _read_only(np.arange(16).reshape(2, 2, 2, 2).transpose([p - 1 for p in perm]).reshape(-1))
    for traced, perm in TRACE_PERMS.items()
}


def partial_trace_last(state: PureState4) -> tuple[MixedState3, float, float]:
    """Trace out qubit A4; returns (rho3, p0, p1) with p_i the branch probabilities."""
    check_normalized(state)
    branches = branch_vectors(state)
    phi0, phi1 = branches
    rho = np.outer(phi0, phi0.conj()) + np.outer(phi1, phi1.conj())
    p0, p1 = (np.abs(branches) ** 2).sum(axis=1).tolist()
    return MixedState3(rho), p0, p1


#: traced qubit -> (2, 8) flat indices into ``state.amps``: row b gathers the
#: branch of ``permute_qubits(state, TRACE_PERMS[traced])`` whose last qubit is b
BRANCH_INDEX = {
    traced: _read_only(g.reshape(8, 2).T) for traced, g in TRACED_LAST_INDEX.items()
}


def _for_traced(table: dict, traced: str):
    """table[traced] for a table keyed by the traced qubits A2, A3 and A4;
    BadQubitLabel for any other label."""
    try:
        return table[traced]
    except KeyError:
        raise BadQubitLabel(f"traced qubit must be A2, A3 or A4, got {traced!r}") from None


def branch_vectors(state: PureState4, traced: str = "A4") -> np.ndarray:
    """The traced qubit's subnormalized branches phi0, phi1, the rows of a (2, 8)
    array gathered on BRANCH_INDEX; BadQubitLabel unless traced is A2, A3 or A4."""
    _of_kind(state, PureState4)
    return state.amps[_for_traced(BRANCH_INDEX, traced)]


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first entry above 1e-12 in modulus is real positive."""
    for z in v:
        if abs(z) > 1e-12:
            return v * cmath.exp(-1j * cmath.phase(z))
    return v


def rank2_basis(rho: MixedState3) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(p0, p1, v0, v1): the two largest eigenvalues, descending, and their eigenvectors.

    Eigenvector phases are fixed by making the first nonzero component real
    positive. Raises RankTooHigh when the third-largest eigenvalue exceeds
    RANK2_TOL.
    """
    evals, vecs = np.linalg.eigh(rho.rho)
    if evals[-3] > RANK2_TOL:
        raise RankTooHigh(f"third-largest eigenvalue {evals[-3]:.3e} exceeds {RANK2_TOL}")
    p0 = float(max(evals[-1], 0.0))
    p1 = float(max(evals[-2], 0.0))
    return p0, p1, _phase_fix(vecs[:, -1]), _phase_fix(vecs[:, -2])


def purify_rank2(rho: MixedState3, theta: float) -> PureState4:
    """Four-qubit purification sqrt(p0)|v0>|0> + e^{i theta} sqrt(p1)|v1>|1>.

    The eigenbranch with the larger eigenvalue is attached to |0> of the ancilla;
    theta is the relative phase of the second branch. The eigenbasis is
    ``rank2_basis(rho)``; with p0 = p1 any orthonormal eigenbasis is acceptable.
    """
    if not math.isfinite(theta):
        raise NonFinite(f"theta = {theta!r}")
    return _purification(*rank2_basis(rho), theta)


def _purification(p0, p1, v0, v1, theta: float) -> PureState4:
    """purify_rank2 on the eigenbasis (p0, p1, v0, v1) that rank2_basis returned."""
    t = np.zeros((8, 2), dtype=complex)   # flat (i1 i2 i3) x ancilla, C-order flattens correctly
    t[:, 0] = math.sqrt(p0) * v0
    if p1 > 0.0:
        t[:, 1] = cmath.exp(1j * theta) * math.sqrt(p1) * v1
    return normalize(PureState4(t.reshape(16)))


def random_state(seed) -> PureState4:
    """Normalized four-qubit state with i.i.d. complex Gaussian amplitudes."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    return normalize(PureState4(a))


def random_special_unitary(seed) -> Qubit2Unitary:
    """Haar-ish det-1 unitary from QR orthonormalization of a complex Gaussian."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    q = q / np.sqrt(det)
    return Qubit2Unitary(q, special=True)


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------

def _to_pairs(a: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs of Python floats."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _from_pairs(raw, shape: tuple, what: str) -> list:
    """Nested lists of [re, im] pairs, ``shape`` lists deep, as nested lists of
    Python complex; BadStateFormat for any other nesting or a non-number (a
    boolean included), NonFinite for an integer too large for a float."""
    if not isinstance(raw, list) or len(raw) != shape[0]:
        raise BadStateFormat(f"{what} must be {' x '.join(map(str, shape))} [re, im] pairs")
    if len(shape) > 1:
        return [_from_pairs(r, shape[1:], what) for r in raw]
    try:
        pairs = [complex(re, im) for re, im in raw]
    except OverflowError as exc:
        raise NonFinite(f"{what} entry too large for a float: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise BadStateFormat(f"{what} must be [re, im] pairs of numbers: {exc}") from None
    if _holds_bool(raw):
        raise BadStateFormat(f"{what} must be [re, im] pairs of numbers, not booleans")
    return pairs


def state_to_json(state) -> dict:
    """{"n_qubits": 3|4, "amps": [[re, im], ...]} in the module index convention."""
    return {"n_qubits": len(state._TENSOR), "amps": _to_pairs(state.amps)}


def state_from_json(obj) -> "PureState3 | PureState4":
    if not isinstance(obj, dict) or "n_qubits" not in obj or "amps" not in obj:
        raise BadStateFormat("state JSON needs 'n_qubits' and 'amps'")
    n = obj["n_qubits"]
    if n not in (3, 4):
        raise BadStateFormat(f"n_qubits must be 3 or 4, got {n!r}")
    cls = PureState3 if n == 3 else PureState4
    return cls(_from_pairs(obj["amps"], cls._AMPS, "'amps'"))


def density_to_json(rho: MixedState3) -> dict:
    return {"dim": 8, "rho": _to_pairs(rho.rho)}


def density_from_json(obj) -> MixedState3:
    if not isinstance(obj, dict) or obj.get("dim") != 8 or "rho" not in obj:
        raise BadStateFormat("density JSON needs 'dim': 8 and 'rho'")
    return MixedState3(_from_pairs(obj["rho"], (8, 8), "'rho'"))
