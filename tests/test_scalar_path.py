"""The per-set scalar path on Python numbers, bit for bit against numpy scalars.

After the font gather, an invariant set and everything computed from it run on
Python complex and float. The oracles below are the numpy-scalar formulas that
path replaced, kept verbatim: the invariants on the fonts' array entries, the
endpoint transform's division, the degree-eight pair and the branch-pair
bound's coefficient division. Values are compared by their bits (float.hex),
which also tells a signed zero from an unsigned one.
"""

import math

import numpy as np
import pytest

from tanglebound import bounds
from tanglebound.acceptance import class_draws
from tanglebound.bounds import best_bound, bound_unitary_3q
from tanglebound.classes import SUPPORTED_TRIPLES, representative
from tanglebound.fonts import compute_fonts4
from tanglebound.invariants import (
    ThreeQubitInvariantSet,
    _endpoint_coefficients,
    invariant_set,
    n48_i48,
    summary_from_set,
    traced_qubit_of,
    transform_endpoints,
)
from tanglebound.qstate import BRANCH_INDEX, PureState4, normalize, random_state
from tanglebound.quartic import SCALE_TOL

TRACED = ("A4", "A3", "A2")


def bits(z) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def signed_zero_states(count: int) -> list[PureState4]:
    """Sparse states whose zero amplitudes carry random signs in both parts and
    whose nonzero ones are real or imaginary, so fonts, their sums and their
    squares meet signed zeros."""
    rng = np.random.default_rng(77)
    states = []
    for _ in range(count):
        parts = rng.choice([-0.0, 0.0], size=(16, 2))
        live = rng.choice(16, size=rng.integers(3, 8), replace=False)
        parts[live, rng.integers(0, 2, live.size)] = rng.standard_normal(live.size)
        states.append(normalize(PureState4(parts[:, 0] + 1j * parts[:, 1])))
    return states


def corpus() -> list[PureState4]:
    """Random states, class I-IX draws and signed-zero states."""
    states = [random_state(4000 + k) for k in range(40)]
    states += [representative(spec) for draw in class_draws(6) for spec in draw]
    return states + signed_zero_states(60)


CORPUS = corpus()


def numpy_scalar_set(state: PureState4, traced: str) -> ThreeQubitInvariantSet:
    """The invariants on the fonts' numpy array entries, as computed before the
    set moved to Python complex."""
    f = compute_fonts4(state, traced)
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


def numpy_scalar_n48_i48(inv):
    n48 = float(
        6.0 * abs(inv.i22) ** 2
        + 4.0 * abs(inv.i31) ** 2
        + 4.0 * abs(inv.i13) ** 2
        + abs(inv.i40) ** 2
        + abs(inv.i04) ** 2
    )
    i48 = 3.0 * inv.i22 ** 2 - 4.0 * inv.i31 * inv.i13 + inv.i40 * inv.i04
    return n48, i48


def numpy_scalar_endpoints(inv, x: complex):
    c40, c04 = _endpoint_coefficients(inv)
    w = x.conjugate()
    f40 = (((c40[4] * w + c40[3]) * w + c40[2]) * w + c40[1]) * w + c40[0]
    f04 = (((c04[4] * x + c04[3]) * x + c04[2]) * x + c04[1]) * x + c04[0]
    den = (1.0 + abs(x) ** 2) ** 2
    return f40 / den, f04 / den


def numpy_scalar_unitary_3q(inv, p0: float, p1: float):
    """bound_unitary_3q with its coefficients divided as numpy scalars."""
    xs = inv.stars().xs
    c04 = _endpoint_coefficients(inv)[1]
    c = [a / (math.sqrt(p0) ** (4 - m) * math.sqrt(p1) ** m) for m, a in enumerate(c04[::-1])]
    tol = SCALE_TOL * max(abs(a) for a in c)
    d = max(m for m, a in enumerate(c) if abs(a) >= tol)
    ratio = math.sqrt(p1 / p0)
    ts = sorted([ratio / x for x in xs if x] + [0j] * (4 - len(xs)), key=abs)[:d]
    return bounds._star_candidates(c, abs(c[d]), ts, p0 ** 2, p1 ** 2)


def numpy_branch_probabilities(state, traced):
    phi0, phi1 = state.amps[BRANCH_INDEX[traced]]
    return float(np.sum(np.abs(phi0) ** 2)), float(np.sum(np.abs(phi1) ** 2))


def assert_same_set(new, old, tag):
    for name in ("i40", "i31", "i22", "i13", "i04"):
        assert type(getattr(new, name)) is complex, (tag, name)
        assert bits(getattr(new, name)) == bits(getattr(old, name)), (tag, name)


@pytest.mark.parametrize("traced", TRACED)
def test_invariant_set_equals_the_numpy_scalar_formulas(traced):
    for k, state in enumerate(CORPUS):
        old = numpy_scalar_set(state, traced)
        assert isinstance(old.i40, np.complexfloating)
        assert_same_set(invariant_set(state, traced), old, k)


@pytest.mark.parametrize("traced", TRACED)
def test_degree_eight_pair_and_summary_equal_the_numpy_scalar_formulas(traced):
    triple = next(t for t in SUPPORTED_TRIPLES if traced_qubit_of(t) == traced)
    for k, state in enumerate(CORPUS):
        inv = invariant_set(state, traced)
        n48, i48 = n48_i48(inv)
        old_n48, old_i48 = numpy_scalar_n48_i48(numpy_scalar_set(state, traced))
        assert type(n48) is float and type(i48) is complex, k
        assert (n48.hex(), bits(i48)) == (old_n48.hex(), bits(old_i48)), k
        summary = summary_from_set(triple, inv)
        for name in ("n48", "tau48", "three_way"):
            assert type(getattr(summary, name)) is float, (k, name)
        assert type(summary.i48) is complex, k
        assert type(inv.scale()) is float, k


def test_transform_endpoints_equals_the_numpy_division():
    rng = np.random.default_rng(5)
    for k, state in enumerate(CORPUS):
        inv = invariant_set(state, "A4")
        old = numpy_scalar_set(state, "A4")
        for x in (0j, complex(*rng.standard_normal(2)), 1j * rng.standard_normal()):
            new = transform_endpoints(inv, x)
            assert all(type(v) is complex for v in new), k
            assert [bits(v) for v in new] == [bits(v) for v in numpy_scalar_endpoints(old, x)], (k, x)


def test_branch_pair_bound_equals_the_numpy_division():
    # class I draws on every traced qubit at their own branch probabilities,
    # where best_bound reports unitary_3q, and random states at random ones
    rng = np.random.default_rng(6)
    cases = [(representative(draw[0]), t, *numpy_branch_probabilities(representative(draw[0]), t))
             for draw in class_draws(20) for t in TRACED]
    for state in CORPUS[:40]:
        p0 = float(rng.uniform(0.05, 0.95))
        cases.append((state, "A4", p0, 1.0 - p0))
    for k, (state, traced, p0, p1) in enumerate(cases):
        inv = invariant_set(state, traced)
        if inv.scale() == 0.0:
            continue
        new = bound_unitary_3q(inv, p0, p1)
        old = numpy_scalar_unitary_3q(numpy_scalar_set(state, traced), p0, p1)
        assert type(new.value) is float and type(new.witness_x) is complex, k
        assert new.value.hex() == float(old[0][0]).hex(), k
        assert bits(new.witness_x) == bits(old[0][1]), k
        assert [bits(y) for y in new.roots_used] == [bits(y) for _, y in old], k


def test_best_bound_reports_python_numbers_and_the_numpy_branch_probabilities():
    unitary = 0
    for k, state in enumerate(CORPUS):
        for triple in SUPPORTED_TRIPLES:
            report = best_bound(state, triple)
            assert type(report.best) is float and type(report.tightness_f) is float, k
            for m in report.methods:
                assert type(m.value) is float, (k, m)
                assert m.witness_x is None or type(m.witness_x) is complex, (k, m)
            if any(m.method == "unitary_3q" for m in report.methods):
                # only at equal probabilities: the bound at p0, p1 summed
                # one branch at a time, as numpy_branch_probabilities does
                traced = traced_qubit_of(triple)
                p0, p1 = numpy_branch_probabilities(state, traced)
                expected = bound_unitary_3q(invariant_set(state, traced), p0, p1)
                assert repr(report.methods[-2]) == repr(expected), k
                unitary += 1
    assert unitary > 0
