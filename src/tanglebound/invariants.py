"""Degree-four three-qubit invariants of three- and four-qubit states.

For a four-qubit state and a chosen traced qubit, the five invariants
{I^{4-m,m} : m = 0..4} are unchanged by det-1 unitaries on the three untraced
qubits and transform as the coefficients of a binary quartic form under a
unitary on the traced qubit. Everything downstream (correlation measures,
tangle bounds) is built from this set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadQubitLabel
from .fonts import FontSet4, _fonts4_index, compute_fonts3, compute_fonts4
from .qstate import PureState3, PureState4, _finite_x, check_normalized
from .quartic import roots

#: triple of kept qubits -> label of the traced qubit
TRIPLES = {"A1A2A3": "A4", "A1A2A4": "A3", "A1A3A4": "A2"}


@dataclass(frozen=True)
class Stars:
    """The Majorana stars of an invariant set's endpoint quartic.

    The I04 numerator sum_m c04[m] x^m (_endpoint_coefficients) is
    c_d prod_j (x - x_j): ``xs`` are its d finite roots, in quartic.roots'
    order, and ``lead`` is |c_d|, its leading kept coefficient. The 4 - d
    roots that quartic.roots drops are stars at x = infinity.

    A star's point n on the unit sphere follows the one convention
    (x, 1)(x, 1)^dagger / (1 + |x|^2) = (I + n.sigma) / 2, that is
    n = (2 Re x, -2 Im x, |x|^2 - 1) / (1 + |x|^2); a star at infinity, the
    limit (1, 0), sits at the pole (0, 0, 1).
    """

    lead: float
    xs: tuple[complex, ...]

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Read-only (4, 3) array: the finite stars' points in ``xs`` order,
        then the pole once per star at infinity; computed on first read."""
        x = np.array(self.xs, dtype=complex)
        den = 1.0 + np.abs(x) ** 2
        finite = np.column_stack((2.0 * x.real, -2.0 * x.imag, den - 2.0)) / den[:, None]
        points = np.vstack((finite, np.tile((0.0, 0.0, 1.0), (4 - len(x), 1))))
        points.setflags(write=False)
        return points


@dataclass(frozen=True)
class ThreeQubitInvariantSet:
    """The five invariants for one traced qubit (A2, A3 or A4).

    ``invariant_set`` fills the five entries with Python ``complex`` numbers,
    never numpy scalars, and scale() is a Python ``float``: every step after
    the font gather is scalar arithmetic on Python numbers.
    """

    traced: str
    i40: complex
    i31: complex
    i22: complex
    i13: complex
    i04: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.i40, self.i31, self.i22, self.i13, self.i04])

    def scale(self) -> float:
        """Largest modulus in the set, computed on the first call only."""
        scale = self.__dict__.get("_scale")
        if scale is None:
            # not a field: equality, hashing and repr are unchanged
            scale = self.__dict__["_scale"] = float(max(
                abs(self.i40), abs(self.i31), abs(self.i22), abs(self.i13), abs(self.i04)
            ))
        return scale

    def stars(self) -> Stars:
        """The Majorana stars of the set's endpoint quartic, from its one
        quartic.roots call, made on the first call only: every later call
        returns the same object. Raises ZeroPolynomial on a set with no
        three- or four-way content (scale() == 0), whose form has no stars.
        """
        stars = self.__dict__.get("_stars")
        if stars is None:
            c04 = _endpoint_coefficients(self)[1]
            xs = roots(c04)
            stars = self.__dict__["_stars"] = Stars(abs(c04[len(xs)]), tuple(xs))
        return stars


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


def invariant_set(state: PureState4, traced: str) -> ThreeQubitInvariantSet:
    """Invariant set for any traced qubit from {A2, A3, A4}.

    The canonical A4 expressions are evaluated on the fonts of the state with
    the traced qubit moved to position 4 (A1 stays first, the rest keep
    ascending order; ``qstate.TRACE_PERMS``). ``compute_fonts4`` gathers those fonts
    from the state's own amplitudes, so no permuted state is built. Any other
    label raises BadQubitLabel first; then the norm is checked, before the
    gather, so that amplitudes far from unit norm raise NotNormalized and
    never reach the font products, where they could overflow.
    """
    _fonts4_index(traced)
    check_normalized(state)
    return _set_from_fonts(compute_fonts4(state, traced), traced)


def _square(z: complex) -> complex:
    """z * z, as numpy squares a complex scalar: +0 for a zero z of either sign."""
    return z * z if z else 0j


def _divide(z: complex, f: float) -> complex:
    """z / f for a real f > 0, as numpy divides a complex scalar by a real: both
    parts times 1 / f, where Python's z / f divides them and rounds otherwise,
    after adding the other part times 0, which decides the sign of a zero."""
    k = 1.0 / f
    return complex((z.real + z.imag * 0.0) * k, (z.imag - z.real * 0.0) * k)


def _set_from_fonts(f: FontSet4, traced: str) -> ThreeQubitInvariantSet:
    """The canonical A4 expressions on the fonts, read with one tolist() into
    Python complex (d3_A3 is stored in [i3, i4] order, so b10 precedes b01).

    Complex sums and products round alike in Python and numpy; squares and
    the division by 6 go through _square and _divide, so every entry is bit
    for bit what numpy scalar arithmetic gives.
    """
    (d00, d01, d10, d11, a00, a01, a10, a11,
     b00, b10, b01, b11, e00, e01, e10, e11) = f.flat.tolist()
    sA4_0 = a00 + a10
    sA4_1 = a01 + a11
    sA3_0 = b00 + b10
    sA3_1 = b01 + b11
    s4 = e00 + e01 + e10 + e11

    i40 = _square(sA4_0) - 4.0 * d10 * d00
    i31 = 0.5 * sA4_0 * s4 - (d10 * sA3_0 + d00 * sA3_1)
    i22 = (
        _divide(_square(s4), 6.0)
        - (2.0 / 3.0) * sA3_1 * sA3_0
        + (1.0 / 3.0) * sA4_0 * sA4_1
        - (2.0 / 3.0) * (d10 * d01 + d00 * d11)
    )
    i13 = 0.5 * s4 * sA4_1 - (d11 * sA3_0 + sA3_1 * d01)
    i04 = _square(sA4_1) - 4.0 * d11 * d01
    return ThreeQubitInvariantSet(traced, i40, i31, i22, i13, i04)


def _endpoint_coefficients(inv: ThreeQubitInvariantSet):
    """Ascending coefficients of the endpoint numerators: I40 in w = conj(x), I04 in w = x.

    The only coding of the binary quartic form: the star solve and the
    sphere grid in ``bounds`` and transform_endpoints read it. Built on the
    first call only and kept on the set, as scale() and stars() keep theirs.
    """
    pair = inv.__dict__.get("_endpoints")
    if pair is None:
        i40, i31, i22, i13, i04 = inv.i40, inv.i31, 6.0 * inv.i22, inv.i13, inv.i04
        pair = inv.__dict__["_endpoints"] = ((i40, -4.0 * i31, i22, -4.0 * i13, i04),
                                             (i04, 4.0 * i13, i22, 4.0 * i31, i40))
    return pair


def transform_endpoints(inv: ThreeQubitInvariantSet, x: complex) -> tuple[complex, complex]:
    """Endpoint invariants (I^{4,0}(x), I^{0,4}(x)) after the det-1 unitary u_of_x(x)
    acts on the traced qubit.

    I^{4,0}(x) is a quartic in conj(x), I^{0,4}(x) a quartic in x, both divided
    by (1+|x|^2)^2: Horner's rule on _endpoint_coefficients, the table that
    the star solve and the sphere grid read too. Raises NonFinite unless x is
    a finite number.
    """
    c40, c04 = _endpoint_coefficients(inv)
    x = _finite_x(x)
    w = x.conjugate()
    f40 = (((c40[4] * w + c40[3]) * w + c40[2]) * w + c40[1]) * w + c40[0]
    f04 = (((c04[4] * x + c04[3]) * x + c04[2]) * x + c04[1]) * x + c04[0]
    den = (1.0 + abs(x) ** 2) ** 2
    return _divide(f40, den), _divide(f04, den)


def n48_i48(inv: ThreeQubitInvariantSet) -> tuple[float, complex]:
    """Degree-eight norm and the four-body invariant of one invariant set."""
    n48 = float(
        6.0 * abs(inv.i22) ** 2
        + 4.0 * abs(inv.i31) ** 2
        + 4.0 * abs(inv.i13) ** 2
        + abs(inv.i40) ** 2
        + abs(inv.i04) ** 2
    )
    i48 = 3.0 * _square(inv.i22) - 4.0 * inv.i31 * inv.i13 + inv.i40 * inv.i04
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
    entries = {"40": inv.i40, "31": inv.i31, "22": inv.i22, "13": inv.i13, "04": inv.i04}
    return {
        "traced": inv.traced,
        "I": {k: [float(z.real), float(z.imag)] for k, z in entries.items()},
        "N48": summary.n48,
        "absI48": abs(summary.i48),
        "tau48": summary.tau48,
        "three_way": summary.three_way,
    }
