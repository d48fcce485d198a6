"""The per-set scalar path on Python numbers, and the star solve's polish bit
for bit against its reference.

After the font gather, an invariant set and everything computed from it run on
Python complex and float. CORPUS (random states, class draws and states with
signed zeros) is also the corpus of the hyperdeterminant oracles
(test_invariants.TestHyperdeterminantOracles), which check the values.
reference_roots is the star solve's polish and ordering as they stood before
the per-set path ran in one pass, kept verbatim; roots are compared by their
bits (float.hex), which also tells a signed zero from an unsigned one.
"""

import cmath

import numpy as np
import pytest

from tanglebound import quartic
from tanglebound.acceptance import class_draws
from tanglebound.bounds import best_bound, bound_unitary_3q
from tanglebound.classes import SUPPORTED_TRIPLES, representative
from tanglebound.errors import BadArity, DidNotConverge, NonFinite, ZeroPolynomial
from tanglebound.invariants import (
    invariant_set,
    summary_from_set,
    traced_qubit_of,
    transform_endpoints,
)
from tanglebound.qstate import BRANCH_INDEX, PureState4, normalize, random_state
from tanglebound.quartic import RESIDUAL_TOL, SCALE_TOL
from test_quartic import REFERENCE_KINDS, reference_cases

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


def reference_roots(c) -> list[complex]:
    """quartic.roots with the polish and ordering it had before the one-pass
    solve, verbatim: every Newton step evaluates its trial point, the
    residual bound is formed per root and the roots are sorted by a lambda.
    The closed-form starts are quartic._closed_form's."""
    try:
        c = [complex(a) for a in c]
    except TypeError:
        raise BadArity(f"expected 5 coefficients, got {c!r}") from None
    if len(c) != 5:
        raise BadArity(f"expected 5 coefficients, got {len(c)}")
    if not all(map(cmath.isfinite, c)):
        raise NonFinite(f"coefficients {c!r}")
    moduli = [abs(a) for a in c]
    scale = max(moduli)
    if scale == 0.0:
        raise ZeroPolynomial("all coefficients are zero")
    deg = 4
    while deg > 0 and moduli[deg] < SCALE_TOL * scale:
        deg -= 1
    low = 0
    while low < deg and c[low] == 0:
        low += 1
    found = [0j] * low + quartic._closed_form(c[low: deg + 1])

    # guarded Newton polish on the full polynomial
    c0, c1, c2, c3, c4 = c
    d0, d1, d2, d3 = c1, c2 * 2, c3 * 3, c4 * 4
    out = []
    for w in found:
        # p(w) is evaluated once per point: its modulus is the residual and
        # the value itself the next step's numerator
        p = c0 + w * (c1 + w * (c2 + w * (c3 + w * c4)))
        r = abs(p)
        for _ in range(3):
            d = d0 + w * (d1 + w * (d2 + w * d3))
            if d == 0:
                break
            w2 = w - p / d
            p2 = c0 + w2 * (c1 + w2 * (c2 + w2 * (c3 + w2 * c4)))
            r2 = abs(p2)
            if r2 < r:
                w, p, r = w2, p2, r2
            else:
                break
        if r > RESIDUAL_TOL * scale * max(1.0, abs(w)) ** 4:
            raise DidNotConverge(f"residual {r:.3e} at root {w!r}")
        out.append(w)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def numpy_branch_probabilities(state, traced):
    phi0, phi1 = state.amps[BRANCH_INDEX[traced]]
    return float(np.sum(np.abs(phi0) ** 2)), float(np.sum(np.abs(phi1) ** 2))


@pytest.mark.parametrize("traced", TRACED)
def test_sets_and_summaries_hold_python_numbers(traced):
    for k, state in enumerate(CORPUS):
        inv = invariant_set(state, traced)
        for name in ("i40", "i31", "i22", "i13", "i04"):
            assert type(getattr(inv, name)) is complex, (k, name)
        summary = summary_from_set(inv)
        for name in ("n48", "tau48", "three_way"):
            assert type(getattr(summary, name)) is float, (k, name)
        assert type(summary.i48) is complex, k
        assert type(inv.scale()) is float, k
        assert all(type(v) is complex for v in transform_endpoints(inv, 0.5 - 1j)), k


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


@pytest.mark.parametrize("kind", REFERENCE_KINDS)
def test_roots_equal_the_reference_polish(kind):
    cases = reference_cases(kind)
    for c in cases:
        assert [bits(w) for w in quartic.roots(c)] == [bits(w) for w in reference_roots(c)], c
    if kind in ("degree_drop", "below_scale_tol", "roots_spread_1e16"):
        assert any(len(quartic.roots(c)) < 4 for c in cases)
    if kind.startswith("c0_"):
        assert all(0j in quartic.roots(c) for c in cases)
