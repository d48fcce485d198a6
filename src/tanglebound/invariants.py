"""Degree-four three-qubit invariants of three- and four-qubit states.

For a four-qubit state and a chosen traced qubit, the five invariants
{I^{4-m,m} : m = 0..4} are unchanged by det-1 unitaries on the three untraced
qubits and transform as the coefficients of a binary quartic form under a
unitary on the traced qubit. Everything downstream (correlation measures,
tangle bounds) is built from this set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadQubitLabel, NonFinite
from .fonts import compute_fonts3, compute_fonts4
from .qstate import PureState3, PureState4, check_normalized, permute_qubits

#: triple of kept qubits -> label of the traced qubit
TRIPLES = {"A1A2A3": "A4", "A1A2A4": "A3", "A1A3A4": "A2"}

#: traced qubit -> permutation that moves it to position 4, keeping A1 first
#: and the remaining qubits in ascending order (entry k = old qubit now at k)
TRACE_PERMS = {"A4": (1, 2, 3, 4), "A3": (1, 2, 4, 3), "A2": (1, 3, 4, 2)}


@dataclass(frozen=True)
class ThreeQubitInvariantSet:
    """The five invariants for one traced qubit (A2, A3 or A4)."""

    traced: str
    i40: complex
    i31: complex
    i22: complex
    i13: complex
    i04: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.i40, self.i31, self.i22, self.i13, self.i04])

    def scale(self) -> float:
        """Largest modulus in the set."""
        return float(np.max(np.abs(self.as_array())))


@dataclass(frozen=True)
class CorrelationSummary:
    """Degree-eight correlation quantities of one qubit triple.

    three_way = 16 (N_{4,8} - 2 |I_{4,8}|) measures three-way correlations;
    tau48 = 16 |12 I_{4,8}| is the associated four-tangle.
    """

    triple: str
    n48: float
    i48: complex
    tau48: float
    three_way: float


def three_tangle_pure(state: PureState3) -> float:
    """Three-tangle of a normalized pure state: 4 |(D000 + D001)^2 - 4 D00_0 D00_1|."""
    check_normalized(state)
    f = compute_fonts3(state)
    inv = (f.d3way[0] + f.d3way[1]) ** 2 - 4.0 * f.d2way[0] * f.d2way[1]
    return 4.0 * abs(inv)


def invariant_set_A4(state: PureState4) -> ThreeQubitInvariantSet:
    """The five invariants for traced qubit A4 (triple A1 A2 A3)."""
    check_normalized(state)
    return _set_from_fonts(state, "A4")


def invariant_set(state: PureState4, traced: str) -> ThreeQubitInvariantSet:
    """Invariant set for any traced qubit from {A2, A3, A4}.

    Traced qubits other than A4 are handled by permuting the traced qubit into
    position 4 (A1 stays first, the rest keep ascending order) and evaluating
    the canonical A4 expressions on the permuted state.
    """
    if traced not in TRACE_PERMS:
        raise BadQubitLabel(f"traced qubit must be A2, A3 or A4, got {traced!r}")
    check_normalized(state)
    if traced != "A4":
        state = permute_qubits(state, TRACE_PERMS[traced])
    return _set_from_fonts(state, traced)


def _set_from_fonts(state: PureState4, traced: str) -> ThreeQubitInvariantSet:
    f = compute_fonts4(state)
    d2 = f.d2_A3A4
    sA4_0 = f.d3_A4[0, 0] + f.d3_A4[1, 0]
    sA4_1 = f.d3_A4[0, 1] + f.d3_A4[1, 1]
    sA3_0 = f.d3_A3[0, 0] + f.d3_A3[1, 0]
    sA3_1 = f.d3_A3[0, 1] + f.d3_A3[1, 1]
    s4 = f.d4[0, 0] + f.d4[0, 1] + f.d4[1, 0] + f.d4[1, 1]

    i40 = sA4_0 ** 2 - 4.0 * d2[1, 0] * d2[0, 0]
    i31 = 0.5 * sA4_0 * s4 - (d2[1, 0] * sA3_0 + d2[0, 0] * sA3_1)
    i22 = (
        s4 ** 2 / 6.0
        - (2.0 / 3.0) * sA3_1 * sA3_0
        + (1.0 / 3.0) * sA4_0 * sA4_1
        - (2.0 / 3.0) * (d2[1, 0] * d2[0, 1] + d2[0, 0] * d2[1, 1])
    )
    i13 = 0.5 * s4 * sA4_1 - (d2[1, 1] * sA3_0 + sA3_1 * d2[0, 1])
    i04 = sA4_1 ** 2 - 4.0 * d2[1, 1] * d2[0, 1]
    return ThreeQubitInvariantSet(traced, i40, i31, i22, i13, i04)


def _endpoint_forms(inv: ThreeQubitInvariantSet, x):
    """Numerators of I^{4,0}(x), I^{0,4}(x) and their common denominator
    (1+|x|^2)^2; x is a Python complex or a complex ndarray."""
    xc = x.conjugate()
    den = (1.0 + abs(x) ** 2) ** 2
    f40 = (
        inv.i40 - 4.0 * xc * inv.i31 + 6.0 * xc ** 2 * inv.i22
        - 4.0 * xc ** 3 * inv.i13 + xc ** 4 * inv.i04
    )
    f04 = (
        inv.i04 + 4.0 * x * inv.i13 + 6.0 * x ** 2 * inv.i22
        + 4.0 * x ** 3 * inv.i31 + x ** 4 * inv.i40
    )
    return f40, f04, den


def transform_endpoints(inv: ThreeQubitInvariantSet, x: complex) -> tuple[complex, complex]:
    """Endpoint invariants (I^{4,0}(x), I^{0,4}(x)) after the det-1 unitary u_of_x(x)
    acts on the traced qubit.

    I^{4,0}(x) is a quartic in conj(x), I^{0,4}(x) a quartic in x, both divided
    by (1+|x|^2)^2.
    """
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise NonFinite(f"x = {x!r}")
    f40, f04, den = _endpoint_forms(inv, x)
    return f40 / den, f04 / den


def n48_i48(inv: ThreeQubitInvariantSet) -> tuple[float, complex]:
    """Degree-eight norm and the four-body invariant of one invariant set."""
    n48 = float(
        6.0 * abs(inv.i22) ** 2
        + 4.0 * abs(inv.i31) ** 2
        + 4.0 * abs(inv.i13) ** 2
        + abs(inv.i40) ** 2
        + abs(inv.i04) ** 2
    )
    i48 = 3.0 * inv.i22 ** 2 - 4.0 * inv.i31 * inv.i13 + inv.i40 * inv.i04
    return n48, i48


def traced_qubit_of(triple: str) -> str:
    if triple not in TRIPLES:
        raise BadQubitLabel(
            f"unsupported triple {triple!r}: must contain the focus qubit A1 "
            f"(one of {sorted(TRIPLES)})"
        )
    return TRIPLES[triple]


def summary_from_set(triple: str, inv: ThreeQubitInvariantSet) -> CorrelationSummary:
    """N48, I48, tau48 and the three-way correlation measure of one invariant set."""
    n48, i48 = n48_i48(inv)
    return CorrelationSummary(
        triple, n48, i48, 16.0 * abs(12.0 * i48), 16.0 * (n48 - 2.0 * abs(i48))
    )


def correlation_summary(state: PureState4, triple: str) -> CorrelationSummary:
    """N48, I48, tau48 and the three-way correlation measure for one qubit triple."""
    return summary_from_set(triple, invariant_set(state, traced_qubit_of(triple)))


def invariants_to_json(inv: ThreeQubitInvariantSet) -> dict:
    """Invariant report: set entries plus the derived degree-eight quantities."""
    triple = next(t for t, traced in TRIPLES.items() if traced == inv.traced)
    summary = summary_from_set(triple, inv)
    return {
        "traced": inv.traced,
        "I": {
            "40": _pair(inv.i40),
            "31": _pair(inv.i31),
            "22": _pair(inv.i22),
            "13": _pair(inv.i13),
            "04": _pair(inv.i04),
        },
        "N48": summary.n48,
        "absI48": abs(summary.i48),
        "tau48": summary.tau48,
        "three_way": summary.three_way,
    }


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]
