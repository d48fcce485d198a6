"""The per-set scalar path on Python numbers, bit for bit against numpy scalars.

After the font gather, an invariant set and everything computed from it run on
Python complex and float. The oracles below are the numpy-scalar formulas that
path replaced, kept verbatim: the invariants on the fonts' array entries, the
endpoint transform's division, the degree-eight pair and the branch-pair
bound's coefficient division. So are the star solve's polish and ordering and
the quartic bound's candidates and witness, as they stood before the per-set
path ran in one pass. Values are compared by their bits (float.hex), which
also tells a signed zero from an unsigned one.
"""

import cmath
import math

import numpy as np
import pytest

from tanglebound import bounds, quartic
from tanglebound.acceptance import class_draws
from tanglebound.bounds import (
    best_bound,
    bound_quartic_A4,
    bound_unitary_3q,
    quartic_root_candidates,
)
from tanglebound.classes import SUPPORTED_TRIPLES, representative
from tanglebound.errors import BadArity, DidNotConverge, NonFinite, ZeroPolynomial
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


def numpy_scalar_set(state: PureState4, traced: str) -> ThreeQubitInvariantSet:
    """The invariants on the fonts' numpy array entries, as computed before the
    set moved to Python complex."""
    f = compute_fonts4(state, traced).reshape(4, 2, 2)
    d2, d3_A4, d3_A3, d4 = f[0], f[1], f[2].T, f[3]    # d3_A3 is stored transposed
    sA4_0 = d3_A4[0, 0] + d3_A4[1, 0]
    sA4_1 = d3_A4[0, 1] + d3_A4[1, 1]
    sA3_0 = d3_A3[0, 0] + d3_A3[1, 0]
    sA3_1 = d3_A3[0, 1] + d3_A3[1, 1]
    s4 = d4[0, 0] + d4[0, 1] + d4[1, 0] + d4[1, 1]

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
    return reference_star_candidates(c, abs(c[d]), ts, p0 ** 2, p1 ** 2)


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


def reference_star_candidates(c, lead, xs, w_star=1.0, w_antipode=1.0):
    """bounds._star_candidates before the one-pass solve, verbatim: moduli and
    |x| taken anew at each use, the list sorted by a key function."""
    tol = SCALE_TOL * max(abs(a) for a in c)
    low = next(m for m, a in enumerate(c) if abs(a) >= tol)
    d = len(xs)
    cands = [(4.0 * w_antipode * abs(c[0]), 0j)] * (4 - d)
    xs = sorted(xs, key=abs)
    for i, x in enumerate(xs):
        xc = x.conjugate()
        v = 4.0 * lead * abs(x) ** (4 - d) / (1.0 + abs(x) ** 2)
        for j, y in enumerate(xs):
            if j != i:
                v *= abs(1.0 + xc * y)
        cands.append((w_star * v, x))
        if i >= low and x:
            cands.append((w_antipode * v, -1.0 / xc))
    cands.sort(key=reference_candidate_key)
    return cands


def reference_candidate_key(cand):
    v, x = cand
    return (v, abs(x), cmath.phase(x))


def reference_quartic_bound(inv):
    """(stars, candidates, witness) of bound_quartic_A4 before the one-pass
    solve: the endpoint coefficients built anew, the stars from
    reference_roots, roots_used through a generator."""
    if inv.scale() == 0.0:
        return None, [], bounds.BoundWitness("quartic_A4", 0.0, None, (), None)
    c04 = (inv.i04, 4.0 * inv.i13, 6.0 * inv.i22, 4.0 * inv.i31, inv.i40)
    xs = reference_roots(c04)
    lead = abs(c04[len(xs)])
    candidates = reference_star_candidates(c04, lead, xs)
    value, x = candidates[0]
    witness = bounds.BoundWitness("quartic_A4", value, x, tuple(x for _, x in candidates), None)
    return (lead, tuple(xs)), candidates, witness


def witness_bits(w):
    x = None if w.witness_x is None else bits(w.witness_x)
    return w.method, w.value.hex(), x, [bits(y) for y in w.roots_used], w.group_case


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


@pytest.mark.parametrize("traced", TRACED)
def test_star_solve_and_quartic_bound_equal_the_reference_path(traced):
    # the bound on a fresh set makes the set's one solve; its stars, the
    # candidate list and the witness then match the reference bit for bit
    solved = 0
    for k, state in enumerate(CORPUS):
        inv = invariant_set(state, traced)
        new = bound_quartic_A4(inv)
        stars, candidates, old = reference_quartic_bound(invariant_set(state, traced))
        assert type(new.roots_used) is tuple, k
        assert witness_bits(new) == witness_bits(old), k
        assert [(v.hex(), bits(x)) for v, x in quartic_root_candidates(inv)] == [
            (v.hex(), bits(x)) for v, x in candidates], k
        if stars is not None:
            assert (inv.stars().lead.hex(), [bits(x) for x in inv.stars().xs]) == (
                stars[0].hex(), [bits(x) for x in stars[1]]), k
            solved += 1
    assert solved >= len(CORPUS) // 2


@pytest.mark.parametrize("kind", REFERENCE_KINDS)
def test_roots_equal_the_reference_polish(kind):
    cases = reference_cases(kind)
    for c in cases:
        assert [bits(w) for w in quartic.roots(c)] == [bits(w) for w in reference_roots(c)], c
    if kind in ("degree_drop", "below_scale_tol", "roots_spread_1e16"):
        assert any(len(quartic.roots(c)) < 4 for c in cases)
    if kind.startswith("c0_"):
        assert all(0j in quartic.roots(c) for c in cases)
