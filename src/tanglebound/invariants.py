"""Degree-four three-qubit invariants of three- and four-qubit states.

For a four-qubit state and a chosen traced qubit, the five invariants
{I^{4-m,m} : m = 0..4} are unchanged by det-1 unitaries on the three untraced
qubits and transform as the coefficients of a binary quartic form under a
unitary on the traced qubit. Everything downstream (correlation measures,
tangle bounds) is built from this set.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadQubitLabel, OutOfRange
from .fonts import compute_fonts4
from .qstate import TRACE_PERMS, PureState3, PureState4, _finite_x, _for_traced, check_normalized
from .quartic import _rescaled, roots

#: triple of kept qubits -> label of the traced qubit
TRIPLES = {"A1A2A3": "A4", "A1A2A4": "A3", "A1A3A4": "A2"}


def _kept(compute):
    """compute(inv), never None, built on the first call and kept in the set's
    __dict__, from where every later call returns the same object. The value
    is not a field: equality, hashing and repr do not see it."""
    key = "_" + compute.__name__

    @functools.wraps(compute)
    def kept(inv):
        value = inv.__dict__.get(key)
        if value is None:
            value = inv.__dict__[key] = compute(inv)
        return value

    return kept


@dataclass(frozen=True)
class Stars:
    """The Majorana stars of an invariant set's endpoint quartic.

    The I04 numerator sum_m c04[m] x^m (_endpoint_coefficients) is
    c_d prod_j (x - x_j): ``xs`` are its d finite roots, in quartic.roots'
    order, so c_d is c04[len(xs)]. The 4 - d roots that quartic.roots drops
    are stars at x = infinity.

    A star's point n on the unit sphere follows the one convention
    (x, 1)(x, 1)^dagger / (1 + |x|^2) = (I + n.sigma) / 2, that is
    n = (2 Re x, -2 Im x, |x|^2 - 1) / (1 + |x|^2); a star at infinity, the
    limit (1, 0), sits at the pole (0, 0, 1).
    """

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
    the font gather is plain arithmetic on Python numbers.
    """

    traced: str
    i40: complex
    i31: complex
    i22: complex
    i13: complex
    i04: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.i40, self.i31, self.i22, self.i13, self.i04])

    @_kept
    def scale(self) -> float:
        """Largest modulus in the set."""
        return float(max(abs(self.i40), abs(self.i31), abs(self.i22), abs(self.i13), abs(self.i04)))

    @_kept
    def stars(self) -> Stars:
        """The Majorana stars of the set's endpoint quartic, from its one
        quartic.roots call. Raises ZeroPolynomial on a set with no three- or
        four-way content (scale() == 0), whose form has no stars.
        """
        return Stars(tuple(roots(_endpoint_coefficients(self)[1])))

    @_kept
    def unit(self) -> tuple[ThreeQubitInvariantSet, int]:
        """(copy, e): the set times 2^-e, its largest modulus in [1/2, 1)
        (quartic._rescaled). The copy of the set times 2^k is the same, so a
        value read off it and multiplied back by 2^e is exactly equivariant.
        Where the set's scale is normal, the copy's is that times 2^-e, exactly."""
        scale = self.scale()
        entries, k = _rescaled([self.i40, self.i31, self.i22, self.i13, self.i04], scale)
        copy = ThreeQubitInvariantSet(self.traced, *entries)
        if scale >= sys.float_info.min:
            copy.__dict__["_scale"] = math.ldexp(scale, k)
        return copy, -k


@dataclass(frozen=True)
class CorrelationSummary:
    """Degree-eight correlation quantities of one qubit triple.

    three_way = 16 (N_{4,8} - 2 |I_{4,8}|) measures three-way correlations;
    tau48 = 16 |12 I_{4,8}| is the associated four-tangle.
    """

    n48: float
    i48: complex
    tau48: float
    three_way: float


def three_tangle_pure(state: PureState3) -> float:
    """Three-tangle of a normalized pure state: 4 |(D000 + D001)^2 - 4 D00_0 D00_1|,
    Cayley's hyperdeterminant in the fonts' grouping on Python complex, with
    D00_i = a00i a11i - a10i a01i and D00i = a00i a11j - a10i a01j, j = 1 - i."""
    check_normalized(state)
    a000, a001, a010, a011, a100, a101, a110, a111 = state.amps.tolist()
    d3 = a000 * a111 - a100 * a011 + (a001 * a110 - a101 * a010)
    hyperdeterminant = d3 * d3 - 4.0 * (a000 * a110 - a100 * a010) * (a001 * a111 - a101 * a011)
    return 4.0 * abs(hyperdeterminant)


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
    _for_traced(TRACE_PERMS, traced)
    check_normalized(state)
    return _set_from_fonts(compute_fonts4(state, traced), traced)


def _set_from_fonts(flat: np.ndarray, traced: str) -> ThreeQubitInvariantSet:
    """The canonical A4 expressions, in Python complex arithmetic, on
    compute_fonts4's (16,) array read with one tolist() (d3_A3 is stored in
    [i3, i4] order, so b10 precedes b01)."""
    (d00, d01, d10, d11, a00, a01, a10, a11,
     b00, b10, b01, b11, e00, e01, e10, e11) = flat.tolist()
    sA4_0 = a00 + a10
    sA4_1 = a01 + a11
    sA3_0 = b00 + b10
    sA3_1 = b01 + b11
    s4 = e00 + e01 + e10 + e11

    i40 = sA4_0 * sA4_0 - 4.0 * d10 * d00
    i31 = 0.5 * sA4_0 * s4 - (d10 * sA3_0 + d00 * sA3_1)
    i22 = (
        s4 * s4 / 6.0
        - (2.0 / 3.0) * sA3_1 * sA3_0
        + (1.0 / 3.0) * sA4_0 * sA4_1
        - (2.0 / 3.0) * (d10 * d01 + d00 * d11)
    )
    i13 = 0.5 * s4 * sA4_1 - (d11 * sA3_0 + sA3_1 * d01)
    i04 = sA4_1 * sA4_1 - 4.0 * d11 * d01
    return ThreeQubitInvariantSet(traced, i40, i31, i22, i13, i04)


@_kept
def _endpoint_coefficients(inv: ThreeQubitInvariantSet):
    """Ascending coefficients of the endpoint numerators: I40 in w = conj(x), I04 in w = x.

    The only coding of the binary quartic form: the star solve and the
    sphere grid in ``bounds`` and transform_endpoints read it.
    """
    i40, i31, i22, i13, i04 = inv.i40, inv.i31, 6.0 * inv.i22, inv.i13, inv.i04
    return ((i40, -4.0 * i31, i22, -4.0 * i13, i04),
            (i04, 4.0 * i13, i22, 4.0 * i31, i40))


def transform_endpoints(inv: ThreeQubitInvariantSet, x: complex) -> tuple[complex, complex]:
    """Endpoint invariants (I^{4,0}(x), I^{0,4}(x)) after the det-1 unitary u_of_x(x)
    acts on the traced qubit.

    I^{4,0}(x) is a quartic in conj(x), I^{0,4}(x) a quartic in x, both divided
    by (1+|x|^2)^2: _endpoint_coefficients, the table that the star solve and
    the sphere grid read too, taken as binary forms at the point
    (u, v) = (x, 1) / m, m = max(1, |Re x|, |Im x|), by Horner's rule in u with
    powers of v, over (|u|^2 + v^2)^2. The form is homogeneous of degree
    four, so m cancels, and as |u| <= sqrt(2) and v <= 1 every power stays
    finite however large x is. Inside the unit square m = 1 and v = 1.0, so
    each product by a power of v is exact. Raises NonFinite unless x is a
    finite number.
    """
    c40, c04 = _endpoint_coefficients(inv)
    x = _finite_x(x)
    m = max(1.0, abs(x.real), abs(x.imag))
    u = complex(x.real / m, x.imag / m)
    v = 1.0 / m
    v2 = v * v
    v3, v4 = v2 * v, v2 * v2
    w = u.conjugate()
    f40 = (((c40[4] * w + c40[3] * v) * w + c40[2] * v2) * w + c40[1] * v3) * w + c40[0] * v4
    f04 = (((c04[4] * u + c04[3] * v) * u + c04[2] * v2) * u + c04[1] * v3) * u + c04[0] * v4
    den = (abs(u) ** 2 + v2) ** 2
    return f40 / den, f04 / den


def traced_qubit_of(triple: str) -> str:
    if triple not in TRIPLES:
        raise BadQubitLabel(
            f"unsupported triple {triple!r}: must contain the focus qubit A1 "
            f"(one of {sorted(TRIPLES)})"
        )
    return TRIPLES[triple]


@_kept
def summary_from_set(inv: ThreeQubitInvariantSet) -> CorrelationSummary:
    """N48, I48, tau48 and the three-way correlation measure of one invariant
    set: the one coding of N48 and I48. Raises OutOfRange, naming the set's
    scale, where one of them is past the largest float."""
    try:
        n48 = float(6.0 * abs(inv.i22) ** 2 + 4.0 * abs(inv.i31) ** 2 + 4.0 * abs(inv.i13) ** 2
                    + abs(inv.i40) ** 2 + abs(inv.i04) ** 2)
        i48 = 3.0 * inv.i22 * inv.i22 - 4.0 * inv.i31 * inv.i13 + inv.i40 * inv.i04
        tau48, three_way = 16.0 * abs(12.0 * i48), 16.0 * (n48 - 2.0 * abs(i48))
        if math.isfinite(tau48) and math.isfinite(three_way):
            return CorrelationSummary(n48, i48, tau48, three_way)
    except OverflowError:    # float ** and a complex abs() raise where * gives inf
        pass
    raise OutOfRange(f"N48 and I48 of a set of scale {inv.scale():.3e} overflow")


def correlation_summary(state: PureState4, triple: str) -> CorrelationSummary:
    """N48, I48, tau48 and the three-way correlation measure for one qubit triple."""
    return summary_from_set(invariant_set(state, traced_qubit_of(triple)))


def invariants_to_json(inv: ThreeQubitInvariantSet) -> dict:
    """Invariant report: set entries plus the derived degree-eight quantities."""
    summary = summary_from_set(inv)
    entries = {"40": inv.i40, "31": inv.i31, "22": inv.i22, "13": inv.i13, "04": inv.i04}
    return {
        "traced": inv.traced,
        "I": {k: [float(z.real), float(z.imag)] for k, z in entries.items()},
        "N48": summary.n48,
        "absI48": abs(summary.i48),
        "tau48": summary.tau48,
        "three_way": summary.three_way,
    }
