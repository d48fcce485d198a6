"""Upper bounds on the three-tangle of a three-qubit reduced state.

Three constructions are provided, all driven by one invariant set:

* ``bound_quartic_A4``: rotate the traced qubit; zero one endpoint invariant
  by solving a quartic, evaluate the other endpoint at each root, take the min.
* ``bound_unitary_3q``: same idea on the orthogonal three-qubit branch pair,
  with probability-weighted coefficients.
* ``bound_grid``: direct minimization of the two-endpoint average over the
  Riemann sphere of rotation parameters.

A six-way zero-pattern classifier routes sparse invariant sets to closed
formulas, and the universal cap 4 sqrt(N48 - 2|I48|) tops everything.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbability, OutOfRange, WrongCase
from .invariants import (
    TRACE_PERMS,
    CorrelationSummary,
    ThreeQubitInvariantSet,
    _endpoint_forms,
    invariant_set,
    summary_from_set,
    traced_qubit_of,
    transform_endpoints,
)
from .qstate import PureState4, branch_vectors, permute_qubits
from .quartic import PolyDeg4, roots

PROB_FLOOR = 1e-12
EQUAL_PROB_TOL = 1e-9
ZERO_PATTERN_TOL = 1e-10
#: coordinate-descent steps after the grid search
REFINE_ITERS = 50

GROUP_CASES = ("i", "ii", "iii", "iv", "v", "vi", "generic")


@dataclass(frozen=True)
class BoundWitness:
    """One bound value with the parameter that realizes it."""

    method: str
    value: float
    witness_x: complex | None = None
    roots_used: tuple[complex, ...] = ()
    group_case: str | None = None


@dataclass(frozen=True)
class BoundReport:
    """All method values for one triple; best is their minimum."""

    triple: str
    methods: tuple[BoundWitness, ...]
    best: float
    tightness_f: float


# ---------------------------------------------------------------------------
# quartic bound on the traced qubit
# ---------------------------------------------------------------------------

def _family_roots(coeffs, conjugate_back: bool) -> list[complex]:
    """Roots of one endpoint quartic, mapped back to the rotation parameter x."""
    ws = roots(PolyDeg4(*coeffs))
    return [w.conjugate() if conjugate_back else w for w in ws]


def _endpoint_coefficients(inv: ThreeQubitInvariantSet):
    """Ascending coefficients of the endpoint numerators: I40 in w = conj(x), I04 in w = x."""
    c40 = (inv.i40, -4.0 * inv.i31, 6.0 * inv.i22, -4.0 * inv.i13, inv.i04)
    c04 = (inv.i04, 4.0 * inv.i13, 6.0 * inv.i22, 4.0 * inv.i31, inv.i40)
    return c40, c04


def _endpoint_roots(inv: ThreeQubitInvariantSet):
    """(|I04(x)|, x) at the roots x zeroing I40, and (|I40(x)|, x) at those zeroing I04."""
    c40, c04 = _endpoint_coefficients(inv)
    zero40 = [(abs(transform_endpoints(inv, x)[1]), x) for x in _family_roots(c40, True)]
    zero04 = [(abs(transform_endpoints(inv, x)[0]), x) for x in _family_roots(c04, False)]
    return zero40, zero04


def quartic_root_candidates(inv: ThreeQubitInvariantSet) -> list[tuple[float, complex]]:
    """(value, x) pairs: 4 |complementary endpoint| at every root of both families."""
    zero40, zero04 = _endpoint_roots(inv)
    return [(4.0 * a, x) for a, x in zero40 + zero04]


def bound_quartic_A4(inv: ThreeQubitInvariantSet) -> BoundWitness:
    """Zero one endpoint invariant exactly, read off the other: 4 min over roots.

    Both root families are scanned (multiple roots exist even though a single
    witness suffices in principle). A set with no three- or four-way content
    yields zero directly.
    """
    if inv.scale() == 0.0:
        return BoundWitness("quartic_A4", 0.0, None, (), None)
    cands = quartic_root_candidates(inv)
    cands.sort(key=_candidate_key)
    value, x = cands[0]
    return BoundWitness("quartic_A4", value, x, tuple(x for _, x in cands), None)


def _candidate_key(cand):
    v, x = cand
    return (v, abs(x), cmath.phase(x))


# ---------------------------------------------------------------------------
# unitary on the three-qubit branch pair
# ---------------------------------------------------------------------------

def branch_form_coefficients(inv: ThreeQubitInvariantSet, p0: float, p1: float) -> np.ndarray:
    """Invariants of the orthonormal branch pair: entry m is I^{4-m,m} scaled by
    1 / (p0^{(4-m)/2} p1^{m/2})."""
    return np.array(
        [
            inv.i40 / p0 ** 2,
            inv.i31 / math.sqrt(p0 ** 3 * p1),
            inv.i22 / (p0 * p1),
            inv.i13 / math.sqrt(p0 * p1 ** 3),
            inv.i04 / p1 ** 2,
        ]
    )


def bound_unitary_3q(inv: ThreeQubitInvariantSet, p0: float, p1: float) -> BoundWitness:
    """Endpoint-zeroing bound on the branch decomposition with probabilities p0, p1.

    The two endpoint forms carry coefficients i40/p0^2, 4 i31/sqrt(p0^3 p1),
    6 i22/(p0 p1), 4 i13/sqrt(p0 p1^3), i04/p1^2. Each family is zeroed and the
    complementary endpoint evaluated; the value is
    min(4 p0^2 |f04(y1)|, 4 p1^2 |f40(y2)|) over all roots. Requires both
    probabilities strictly positive; coincides with bound_quartic_A4 when
    p0 = p1.
    """
    if p0 < PROB_FLOOR or p1 < PROB_FLOOR:
        raise DegenerateProbability(
            f"branch probabilities ({p0!r}, {p1!r}): reduced state is pure; "
            "use three_tangle_pure on the surviving branch"
        )
    if inv.scale() == 0.0:
        return BoundWitness("unitary_3q", 0.0, None, (), None)
    # f40(y), f04(y) are the endpoint forms I04(y), I40(y) of the scaled set in
    # reverse order; zeroing f40 leaves weight p0^2 on f04, zeroing f04 leaves p1^2 on f40
    g = branch_form_coefficients(inv, p0, p1)
    zero_f04, zero_f40 = _endpoint_roots(ThreeQubitInvariantSet(inv.traced, *g[::-1]))
    cands = [(4.0 * p0 ** 2 * a, y) for a, y in zero_f40]
    cands += [(4.0 * p1 ** 2 * a, y) for a, y in zero_f04]
    cands.sort(key=_candidate_key)
    value, y = cands[0]
    return BoundWitness("unitary_3q", value, y, tuple(y for _, y in cands), None)


# ---------------------------------------------------------------------------
# grid minimization over the Riemann sphere
# ---------------------------------------------------------------------------

def _sphere_values(inv: ThreeQubitInvariantSet, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """f(x) = 2 (sqrt|I40(x)| + sqrt|I04(x)|) at x = tan(theta_j/2) e^{i phi_l}.

    With r = tan(theta/2) the endpoint numerators are I04 = sum_k c_k r^k e^{ik phi}
    and I40 = sum_k c'_k r^k e^{-ik phi}, so each is one (n_theta, 5) @ (5, n_phi)
    product; the common denominator (1 + r^2)^2 depends on theta only.
    """
    r = np.tan(theta / 2.0)
    powers = r[:, None] ** np.arange(5)
    e = np.exp(1j * np.outer(np.arange(5), phi))
    c40, c04 = _endpoint_coefficients(inv)
    den = ((1.0 + r ** 2) ** 2)[:, None]
    a40 = np.abs((powers * c40) @ e.conj()) / den
    a04 = np.abs((powers * c04) @ e) / den
    return 2.0 * (np.sqrt(a40) + np.sqrt(a04))


def bound_grid(inv: ThreeQubitInvariantSet, n_theta: int = 256, n_phi: int = 256) -> BoundWitness:
    """Minimize f(x) = 2 (sqrt|I40(x)| + sqrt|I04(x)|) over the sphere; value = min^2.

    x = tan(theta/2) e^{i phi} covers theta in (0, pi); the pole x -> infinity
    swaps the endpoint roles and evaluates to the same f as x = 0, so both ends
    are covered explicitly. The grid is evaluated as a separable product in
    theta and phi. The best grid point is refined by REFINE_ITERS rounds of
    coordinate descent with shrinking steps, one neighbour at a time in scalar
    arithmetic. Quartic endpoint roots are seeded into the candidate set, which
    makes this a minimum over a superset of the quartic-bound witnesses.
    """
    for name, count in (("n_theta", n_theta), ("n_phi", n_phi)):
        if count < 1:
            raise OutOfRange(f"{name} must be at least 1, got {count!r}")
    if inv.scale() == 0.0:
        return BoundWitness("grid", 0.0, None, (), None)
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    vals = _sphere_values(inv, theta, phi)
    j, l = divmod(int(np.argmin(vals)), n_phi)
    best_theta = float(theta[j])
    best_phi = float(phi[l])
    best = float(vals[j, l])

    # endpoints of the theta range: x = 0 and the pole give the same f value
    pole = 2.0 * (math.sqrt(abs(inv.i04)) + math.sqrt(abs(inv.i40)))
    if pole < best:
        best, best_theta, best_phi = pole, 0.0, 0.0

    # exact quartic witnesses are feasible points; seed them in
    for value, x in quartic_root_candidates(inv):
        fx = 2.0 * math.sqrt(value / 4.0)
        if fx < best:
            best = fx
            best_theta = 2.0 * math.atan(abs(x))
            best_phi = cmath.phase(x) % (2.0 * math.pi)

    dt = np.pi / n_theta
    dp = 2.0 * np.pi / n_phi
    for _ in range(REFINE_ITERS):
        moved = False
        for t2, p2 in (
            (best_theta + dt, best_phi),
            (best_theta - dt, best_phi),
            (best_theta, best_phi + dp),
            (best_theta, best_phi - dp),
        ):
            t2 = min(max(t2, 0.0), np.pi * (1.0 - 1e-12))
            f40, f04, den = _endpoint_forms(inv, math.tan(t2 / 2.0) * cmath.exp(1j * p2))
            v2 = 2.0 * (math.sqrt(abs(f40) / den) + math.sqrt(abs(f04) / den))
            if v2 < best:
                best, best_theta, best_phi = v2, t2, p2 % (2.0 * math.pi)
                moved = True
        if not moved:
            dt /= 2.0
            dp /= 2.0
    witness = math.tan(best_theta / 2.0) * cmath.exp(1j * best_phi)
    return BoundWitness("grid", best ** 2, witness, (), None)


# ---------------------------------------------------------------------------
# zero-pattern classifier and closed forms
# ---------------------------------------------------------------------------

def classify_group(inv: ThreeQubitInvariantSet, three_way: float) -> str:
    """Assign one of the six sparse groups, or "generic".

    An invariant counts as zero when its modulus is below ZERO_PATTERN_TOL times
    the largest modulus in the set (scale-free), the tolerance that
    bound_closed_form checks its case against. Vanishing three-way correlation
    short-circuits to case "i".
    """
    scale = inv.scale()
    if scale == 0.0 or three_way < ZERO_PATTERN_TOL * 16.0 * scale ** 2:
        return "i"
    nz = _nonzero_pattern(inv)
    return {
        frozenset({"40"}): "ii",
        frozenset({"04"}): "iii",
        frozenset({"40", "22"}): "iv",
        frozenset({"04", "22"}): "v",
        frozenset({"04", "13"}): "vi",
    }.get(nz, "generic")


def _nonzero_pattern(inv: ThreeQubitInvariantSet) -> frozenset:
    scale = inv.scale()
    labels = ("40", "31", "22", "13", "04")
    return frozenset(
        lab for lab, z in zip(labels, inv.as_array()) if abs(z) >= ZERO_PATTERN_TOL * scale
    )


#: case -> invariants allowed to be nonzero
_CASE_SUPPORT = {
    "i": frozenset({"40", "31", "22", "13", "04"}),
    "ii": frozenset({"40"}),
    "iii": frozenset({"04"}),
    "iv": frozenset({"40", "22"}),
    "v": frozenset({"04", "22"}),
    "vi": frozenset({"04", "13"}),
}


def bound_closed_form(inv: ThreeQubitInvariantSet, case: str) -> BoundWitness:
    """Closed-form bound for one of the six sparse groups.

    (i) 0, (ii) 4|i40|, (iii) 4|i04|,
    (iv) 4|i40| ||6 i22| - |i40|| / (|6 i22| + |i40|),
    (v)  4|i04| ||6 i22| - |i04|| / (|6 i22| + |i04|),
    (vi) 4|i04|^3 / (|4 i13|^2 + |i04|^2).
    """
    if case not in _CASE_SUPPORT:
        raise WrongCase(f"unknown case {case!r}")
    if case != "i" and not _nonzero_pattern(inv) <= _CASE_SUPPORT[case]:
        raise WrongCase(
            f"case {case!r} incompatible with nonzero pattern {sorted(_nonzero_pattern(inv))}"
        )
    a40, a22, a13, a04 = abs(inv.i40), abs(6.0 * inv.i22), abs(4.0 * inv.i13), abs(inv.i04)
    if case == "i":
        value = 0.0
    elif case == "ii":
        value = 4.0 * a40
    elif case == "iii":
        value = 4.0 * a04
    elif case == "iv":
        value = 4.0 * a40 * abs(a22 - a40) / (a22 + a40) if a22 + a40 > 0.0 else 0.0
    elif case == "v":
        value = 4.0 * a04 * abs(a22 - a04) / (a22 + a04) if a22 + a04 > 0.0 else 0.0
    else:  # vi
        value = 4.0 * a04 ** 3 / (a13 ** 2 + a04 ** 2) if a13 + a04 > 0.0 else 0.0
    return BoundWitness("closed_form", value, None, (), case)


def bound_cap(summary: CorrelationSummary) -> BoundWitness:
    """Universal cap 4 sqrt(N48 - 2|I48|); every other bound sits below it."""
    value = 4.0 * math.sqrt(max(0.0, summary.n48 - 2.0 * abs(summary.i48)))
    return BoundWitness("cap", value, None, (), None)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

def best_bound(state: PureState4, triple: str) -> BoundReport:
    """Run every applicable method for one triple and report the minimum.

    Methods: cap, classifier + closed form (sparse patterns only), the quartic
    bound, the branch-pair bound, and the grid minimization. The branch-pair
    method enters the comparison only when the traced qubit's branch
    probabilities are equal: that is its regime of validity (it then coincides
    with the quartic bound), whereas at unequal probabilities its
    probability-weighted value can drop below what any decomposition of the
    reduced state realizes.
    """
    traced = traced_qubit_of(triple)
    inv = invariant_set(state, traced)
    summary = summary_from_set(triple, inv)
    methods = [bound_cap(summary)]
    case = classify_group(inv, summary.three_way)
    if case != "generic":
        methods.append(bound_closed_form(inv, case))
    methods.append(bound_quartic_A4(inv))
    phi0, phi1 = branch_vectors(permute_qubits(state, TRACE_PERMS[traced]))
    p0 = float(np.sum(np.abs(phi0) ** 2))
    p1 = float(np.sum(np.abs(phi1) ** 2))
    if min(p0, p1) >= PROB_FLOOR and abs(p0 - p1) <= EQUAL_PROB_TOL:
        methods.append(bound_unitary_3q(inv, p0, p1))
    methods.append(bound_grid(inv))
    best = min(m.value for m in methods)
    cap = methods[0].value
    tightness = best / cap if cap > 0.0 else 0.0
    return BoundReport(triple, tuple(methods), best, tightness)


def report_to_json(report: BoundReport) -> dict:
    return {
        "triple": report.triple,
        "methods": [
            {
                "method": m.method,
                "value": m.value,
                "x": None if m.witness_x is None
                else [float(m.witness_x.real), float(m.witness_x.imag)],
                **({"case": m.group_case} if m.group_case is not None else {}),
            }
            for m in report.methods
        ],
        "best": report.best,
        "F": report.tightness_f,
    }
