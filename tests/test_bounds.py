"""Bound constructions: quartic, branch pair, grid, classifier, closed forms, cap."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tanglebound import bounds, errors, fonts, invariants, qstate
from tanglebound.acceptance import _random_states, branch_pair_value, class_draws
from tanglebound.bounds import (
    BoundWitness,
    best_bound,
    bound_cap,
    bound_closed_form,
    bound_grid,
    bound_quartic_A4,
    bound_unitary_3q,
    classify_group,
)
from tanglebound.classes import (
    CLASS_IDS,
    CLASS_PARAMS,
    SUPPORTED_TRIPLES,
    ClassSpec,
    literature_bound,
    representative,
    spec_from_values,
)
from tanglebound.invariants import (
    ThreeQubitInvariantSet,
    _endpoint_coefficients,
    correlation_summary,
    invariant_set,
    traced_qubit_of,
    transform_endpoints,
)
from tanglebound.qstate import (
    PureState4,
    apply_local_unitary,
    random_special_unitary,
    random_state,
)
from tanglebound.quartic import SCALE_TOL, roots

RNG = np.random.default_rng(101)


def synthetic_set(**entries) -> ThreeQubitInvariantSet:
    values = {"i40": 0j, "i31": 0j, "i22": 0j, "i13": 0j, "i04": 0j}
    values.update(entries)
    return ThreeQubitInvariantSet("A4", **values)


def random_set(rng) -> ThreeQubitInvariantSet:
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return ThreeQubitInvariantSet("A4", *z)


class TestQuarticBound:
    def test_class_one_real_params_is_zero(self):
        for _ in range(5):
            spec = spec_from_values("I", *[complex(v) for v in RNG.uniform(0.2, 2, 4)])
            state = representative(spec)
            report = best_bound(state, "A1A2A3")
            assert report.best < 1e-10

    def test_class_two_printed_value(self):
        inv = invariant_set(representative(ClassSpec("II", a=2 + 0j, d=1 + 0j, c=1 + 0j)), "A4")
        assert bound_quartic_A4(inv).value == pytest.approx(3.0 / 16.0, abs=1e-9)

    def test_only_i04_gives_four_times_modulus(self):
        inv = synthetic_set(i04=0.3 - 0.4j)
        assert bound_quartic_A4(inv).value == pytest.approx(4 * 0.5, rel=1e-12)

    def test_all_zero_returns_zero(self):
        assert bound_quartic_A4(synthetic_set()).value == 0.0

    def test_witness_zeroes_one_endpoint(self):
        from tanglebound.invariants import transform_endpoints
        inv = random_set(np.random.default_rng(5))
        wit = bound_quartic_A4(inv)
        i40x, i04x = transform_endpoints(inv, wit.witness_x)
        assert min(abs(i40x), abs(i04x)) < 1e-11
        assert wit.value == pytest.approx(4 * max_min(abs(i40x), abs(i04x)), rel=1e-9)

    def test_rephasing_invariance_exact(self):
        s = random_state(61)
        inv = invariant_set(s, "A4")
        rephased = PureState4(cmath.exp(0.83j) * s.amps)
        inv2 = invariant_set(rephased, "A4")
        assert bound_quartic_A4(inv).value == pytest.approx(
            bound_quartic_A4(inv2).value, abs=1e-12
        )


def max_min(a, b):
    """The endpoint that was not zeroed."""
    return a if a > b else b


class TestUnitary3q:
    def test_equal_probabilities_coincide_with_quartic(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            inv = random_set(rng)
            q = bound_quartic_A4(inv).value
            u = bound_unitary_3q(inv, 0.5, 0.5).value
            assert u == pytest.approx(q, abs=1e-9 * max(1.0, q))

    def test_all_zero_returns_zero(self):
        assert bound_unitary_3q(synthetic_set(), 0.4, 0.6).value == 0.0

    def test_degenerate_probability_rejected(self):
        with pytest.raises(errors.DegenerateProbability):
            bound_unitary_3q(random_set(np.random.default_rng(1)), 1.0, 0.0)

    def test_witness_zeroes_one_weighted_endpoint(self):
        """The witness zeroes one branch form of reference_branch_endpoints, and
        the value is the other, weighted p0^2 (f40 zeroed) or p1^2 (f04 zeroed)."""
        rng = np.random.default_rng(23)
        families = set()
        for _ in range(60):
            inv = random_set(rng)
            p0 = float(rng.uniform(0.05, 0.95))
            p1 = 1.0 - p0
            wit = bound_unitary_3q(inv, p0, p1)
            g = branch_coefficients(inv, p0, p1)
            f40, f04 = reference_branch_endpoints(g, wit.witness_x)
            scale = float(np.max(np.abs(g)))
            if abs(f40) < abs(f04):
                assert abs(f40) < 1e-11 * scale
                expected = 4.0 * p0 ** 2 * abs(f04)
            else:
                assert abs(f04) < 1e-11 * scale
                expected = 4.0 * p1 ** 2 * abs(f40)
            families.add(abs(f40) < abs(f04))
            assert wit.value == pytest.approx(expected, rel=1e-12)
        assert families == {True, False}

    def test_value_is_the_smallest_reference_candidate(self):
        """Over every root the witness list reports, the value is the smallest
        weighted complementary branch form."""
        rng = np.random.default_rng(29)
        for _ in range(20):
            inv = random_set(rng)
            p0 = float(rng.uniform(0.05, 0.95))
            wit = bound_unitary_3q(inv, p0, 1.0 - p0)
            g = branch_coefficients(inv, p0, 1.0 - p0)
            cands = []
            for _, y in bounds._unitary_3q_candidates(inv, p0, 1.0 - p0):
                f40, f04 = reference_branch_endpoints(g, y)
                if abs(f40) < abs(f04):
                    cands.append(4.0 * p0 ** 2 * abs(f04))
                else:
                    cands.append(4.0 * (1.0 - p0) ** 2 * abs(f40))
            assert len(cands) == 8
            assert wit.value == pytest.approx(min(cands), rel=1e-12)


def branch_coefficients(inv, p0, p1):
    """Invariants of the orthonormal branch pair, written out: entry m is
    I^{4-m,m} / (p0^{(4-m)/2} p1^{m/2})."""
    m = np.arange(5)
    return inv.as_array() / (p0 ** ((4 - m) / 2) * p1 ** (m / 2))


def branch_form_set(inv, p0, p1):
    """The branch coefficients stored reversed, as I^{m,4-m}: the set's I04(y),
    I40(y) are the pair's f40(y), f04(y), so the set's own quartic solves are
    the branch pair's."""
    return ThreeQubitInvariantSet(inv.traced, *branch_coefficients(inv, p0, p1)[::-1])


def reference_branch_endpoints(g, y):
    """Probability-weighted endpoint forms at rotation parameter y, written out
    on the branch coefficients g (the formula bound_unitary_3q is checked against)."""
    yc = y.conjugate()
    den = (1.0 + abs(y) ** 2) ** 2
    f40 = (g[0] + 4.0 * y * g[1] + 6.0 * y ** 2 * g[2] + 4.0 * y ** 3 * g[3] + y ** 4 * g[4]) / den
    f04 = (g[4] - 4.0 * yc * g[3] + 6.0 * yc ** 2 * g[2] - 4.0 * yc ** 3 * g[1] + yc ** 4 * g[0]) / den
    return f40, f04


def reference_family_roots(coeffs, conjugate_back: bool) -> list[complex]:
    """Roots of one endpoint quartic, mapped back to the rotation parameter x."""
    ws = roots(coeffs)
    return [w.conjugate() if conjugate_back else w for w in ws]


def reference_endpoint_roots(inv: ThreeQubitInvariantSet):
    """(|I04(x)|, x) at the roots x zeroing I40, and (|I40(x)|, x) at those zeroing I04.

    Both quartics solved, each with its own degree drop: the independent
    oracle for the one-solve candidates of bounds.quartic_root_candidates.
    """
    c40, c04 = _endpoint_coefficients(inv)
    zero40 = [(abs(transform_endpoints(inv, x)[1]), x) for x in reference_family_roots(c40, True)]
    zero04 = [(abs(transform_endpoints(inv, x)[0]), x) for x in reference_family_roots(c04, False)]
    return zero40, zero04


def degenerate_sets(rng, count):
    """Random sets with i40 = 0, i04 = 0, both 0, and i40, i04 or both at 0.5x
    and 2x the modulus below which quartic.roots drops a leading coefficient."""
    sets = []
    for _ in range(count):
        z = random_set(rng).as_array()
        sets += [ThreeQubitInvariantSet("A4", *np.where(mask, 0j, z))
                 for mask in ([1, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 1])]
        for slots in ((0,), (4,), (0, 4)):
            zero = z.copy()
            zero[list(slots)] = 0.0
            c04 = _endpoint_coefficients(ThreeQubitInvariantSet("A4", *zero))[1]
            tol = SCALE_TOL * max(abs(c) for c in c04)
            for factor in (0.5, 2.0):
                near = zero.copy()
                near[list(slots)] = factor * tol * z[list(slots)] / np.abs(z[list(slots)])
                sets.append(ThreeQubitInvariantSet("A4", *near))
    return sets


def near_drop(inv):
    """Some nonzero endpoint coefficient is within 4x the modulus below which
    quartic.roots drops a leading coefficient."""
    c04 = _endpoint_coefficients(inv)[1]
    tol = SCALE_TOL * max(abs(c) for c in c04)
    return any(0.0 < abs(c) <= 4.0 * tol for c in c04)


def one_solve_sets():
    """Random sets, random states' sets for A4, A3 and A2, the grid comparison
    sets, class draws I-IX on every traced qubit and degenerate sets."""
    rng = np.random.default_rng(406)
    sets = [random_set(rng) for _ in range(40)]
    sets += [invariant_set(random_state(720 + k), t) for k in range(15) for t in ("A4", "A3", "A2")]
    sets += [inv for inv, _ in grid_comparison_sets()]
    specs = [spec for draw in class_draws(3) for spec in draw]
    specs += [ClassSpec(c) for c in ("VII", "VIII", "IX")]
    sets += [invariant_set(representative(spec), t) for spec in specs for t in ("A4", "A3", "A2")]
    return sets + degenerate_sets(rng, 10)


def witness_problems(inv, value, x):
    """perfbench's rule for a quartic witness: the zeroed endpoint is within
    1e-8 * scale of zero and the other endpoint realizes the value."""
    zeroed, other = sorted(abs(e) for e in transform_endpoints(inv, x))
    return zeroed > 1e-8 * inv.scale() or abs(4.0 * other - value) > 1e-9 * max(1.0, value)


class TestOneEndpointSolve:
    """One root solve per set: the candidates are the endpoint quartic's stars
    and their antipodes, valued by products over the other stars, and equal
    both families solved on their own."""

    def test_candidates_match_the_two_solve_reference(self):
        # a zero value (two antipodal stars) is 0 here and rounding in the
        # reference; near a degree drop the reference solves a second quartic
        for inv in one_solve_sets():
            if inv.scale() == 0.0:
                continue
            zero40, zero04 = reference_endpoint_roots(inv)
            old = sorted(4.0 * a for a, _ in zero40 + zero04)
            cands = bounds.quartic_root_candidates(inv)
            abs_ = (1e-10 if near_drop(inv) else 1e-14) * inv.scale()
            assert len(cands) == len(old), inv
            for a, b in zip(old, sorted(v for v, _ in cands)):
                assert values_agree(a, b, abs_=abs_), (inv, a, b)
            assert values_agree(bound_quartic_A4(inv).value, old[0], abs_=abs_), inv
            assert not any(witness_problems(inv, v, x) for v, x in cands), inv

    def test_star_products_equal_the_endpoint_values(self):
        # at a star x, 4 |I40(x)|; at an antipode or at x = 0 for a star at
        # infinity, 4 |I04(x)|; both by Horner (transform_endpoints), to 1e-12
        # relative. Absolute bounds: 1e-14 scale where two stars are antipodal
        # and the value is 0, 1e-10 scale on sets with a coefficient near the
        # drop modulus, where a star near 0 or infinity is taken at it
        rng = np.random.default_rng(407)
        sets = [random_set(rng) for _ in range(40)]
        specs = [spec for draw in class_draws(3) for spec in draw]
        specs += [ClassSpec(c) for c in ("VII", "VIII", "IX")]
        sets += [invariant_set(representative(spec), t) for spec in specs for t in ("A4", "A3", "A2")]
        sets += degenerate_sets(rng, 10)
        for inv in sets:
            if inv.scale() == 0.0:
                continue
            xs = inv.stars().xs
            abs_ = (1e-10 if near_drop(inv) else 1e-14) * inv.scale()
            for v, x in bounds.quartic_root_candidates(inv):
                i40, i04 = transform_endpoints(inv, x)
                zeroed, other = (i04, i40) if x in xs else (i40, i04)
                assert abs(zeroed) <= abs_ + 1e-14 * inv.scale(), (inv, x)
                assert values_agree(v, 4.0 * abs(other), abs_=abs_), (inv, x, v, other)

    def test_branch_pair_bound_matches_the_two_solve_reference(self):
        # near a degree drop the pair's quartic may keep a root the set's drops
        # (taken at t = 0, whose antipode is infinite) and the counts part
        rng = np.random.default_rng(408)
        for inv in one_solve_sets():
            if inv.scale() == 0.0:
                continue
            p0 = float(rng.uniform(0.05, 0.95))
            p1 = 1.0 - p0
            zero_f04, zero_f40 = reference_endpoint_roots(branch_form_set(inv, p0, p1))
            old = [4.0 * p0 ** 2 * a for a, _ in zero_f40] + [4.0 * p1 ** 2 * a for a, _ in zero_f04]
            wit = bound_unitary_3q(inv, p0, p1)
            abs_ = (1e-10 if near_drop(inv) else 1e-14) * inv.scale()
            used = bounds._unitary_3q_candidates(inv, p0, p1)
            assert used[0] == (wit.value, wit.witness_x), inv
            assert len(used) == len(old) or near_drop(inv), inv
            assert values_agree(wit.value, min(old), abs_=abs_), (inv, wit.value, min(old))

    def test_quartic_bound_solves_one_quartic(self, monkeypatch):
        calls = []

        def counting(c):
            calls.append(c)
            return roots(c)

        monkeypatch.setattr(invariants, "roots", counting)
        rng = np.random.default_rng(409)
        sets = [random_set(rng) for _ in range(5)] + degenerate_sets(rng, 1)
        near_zero = 0
        for inv in sets:
            calls.clear()
            bound_quartic_A4(inv)
            # with i40 nonzero below the drop modulus, the star the quartic
            # drops is at infinity, its antipode at x = 0: no second solve
            tol = SCALE_TOL * max(abs(c) for c in _endpoint_coefficients(inv)[1])
            assert len(calls) == 1, inv
            near_zero += 0.0 < abs(inv.i40) < tol
        assert near_zero == 2

    def test_grid_seed_and_quartic_witness_are_one_point(self):
        # an antipodal pair ties exactly; the candidates list its member with
        # |x| <= 1 first, and both the quartic bound and the grid's seeds take it
        def grid_point(x):
            theta = 2.0 * math.atan(abs(x))
            return math.tan(theta / 2.0) * cmath.exp(1j * (cmath.phase(x) % (2.0 * math.pi)))

        seeded = 0
        sets = [inv for inv, _ in grid_comparison_sets()]
        sets += [invariant_set(random_state(740 + k), t) for k in range(20) for t in ("A4", "A3", "A2")]
        for inv in sets:
            if inv.scale() == 0.0:
                continue
            quartic, grid = bound_quartic_A4(inv), bound_grid(inv)
            assert abs(quartic.witness_x) <= 1.0, inv
            if grid.value < bound_grid(inv, candidates=[]).value:
                assert grid.witness_x == grid_point(quartic.witness_x), inv
                seeded += 1
        assert seeded > len(sets) // 2

    def test_one_ulp_moves_of_the_invariants_keep_the_witness(self):
        # each nonzero part of one entry moved one ulp up, then down, on the
        # comparison sets and the class draws: 130 sets, 1,300 moves. Where a
        # root pair ties, as the +x and -x of class I-III, the exact order of
        # the values picked the witness, and 22 of these moves flipped it to
        # its twin (a relative move of 2)
        moves = 0
        sets = [inv for inv, _ in grid_comparison_sets()] + [inv for _, _, inv in class_draw_sets()]
        for inv in sets:
            if inv.scale() == 0.0:
                continue
            x = bound_quartic_A4(inv).witness_x
            for name in ("i40", "i31", "i22", "i13", "i04"):
                z = getattr(inv, name)
                for toward in (math.inf, -math.inf):
                    step = [math.nextafter(t, toward) if t else t for t in (z.real, z.imag)]
                    moved = dataclasses.replace(inv, **{name: complex(*step)})
                    y = bound_quartic_A4(moved).witness_x
                    assert abs(y - x) <= 1e-6 * abs(x), (inv, name, toward, x, y)
                    moves += 1
        assert moves == 1300


class TestGridBound:
    def test_all_zero(self):
        assert bound_grid(synthetic_set()).value == 0.0

    def test_never_above_quartic(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            inv = random_set(rng)
            assert bound_grid(inv).value <= bound_quartic_A4(inv).value + 1e-8

    def test_class_three_equal_parameters(self):
        state = representative(ClassSpec("III", a=1 + 0j, b=1 + 0j))
        inv = invariant_set(state, "A3")
        assert bound_grid(inv).value == pytest.approx(4.0 / 9.0, abs=1e-6)

    def test_constant_objective_only_i40(self):
        # with a single endpoint invariant the objective is flat: any x works,
        # and the pole's value is returned exactly
        inv = synthetic_set(i40=0.25)
        assert bound_grid(inv).value == 1.0


def reference_sum_sqrt(inv, xs):
    """2 (sqrt|I40(x)| + sqrt|I04(x)|), evaluated pointwise on an array of x,
    with the endpoint forms written out in powers of conj(x) and x."""
    x = np.asarray(xs, dtype=complex)
    xc = x.conjugate()
    den = (1.0 + np.abs(x) ** 2) ** 2
    f40 = (
        inv.i40 - 4.0 * xc * inv.i31 + 6.0 * xc ** 2 * inv.i22
        - 4.0 * xc ** 3 * inv.i13 + xc ** 4 * inv.i04
    )
    f04 = (
        inv.i04 + 4.0 * x * inv.i13 + 6.0 * x ** 2 * inv.i22
        + 4.0 * x ** 3 * inv.i31 + x ** 4 * inv.i40
    )
    return 2.0 * (np.sqrt(np.abs(f40) / den) + np.sqrt(np.abs(f04) / den))


def reference_bound_grid(inv, n_theta=256, n_phi=256):
    """The pointwise grid search that bound_grid replaced: a meshgrid of x
    values and one array evaluation, then the pole and the quartic seeds."""
    if inv.scale() == 0.0:
        return BoundWitness("grid", 0.0)
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    xs = np.tan(tg / 2.0) * np.exp(1j * pg)
    vals = reference_sum_sqrt(inv, xs)
    k = int(np.argmin(vals))
    best_theta = float(tg.flat[k])
    best_phi = float(pg.flat[k])
    best = float(vals.flat[k])

    # endpoints of the theta range: x = 0 and the pole give the same f value
    pole = 2.0 * (math.sqrt(abs(inv.i04)) + math.sqrt(abs(inv.i40)))
    if pole < best:
        best, best_theta, best_phi = pole, 0.0, 0.0

    # exact quartic witnesses are feasible points; seed them in
    for value, x in bounds.quartic_root_candidates(inv):
        fx = 2.0 * math.sqrt(value / 4.0)
        if fx < best:
            best = fx
            best_theta = 2.0 * math.atan(abs(x))
            best_phi = cmath.phase(x) % (2.0 * math.pi)

    witness = math.tan(best_theta / 2.0) * cmath.exp(1j * best_phi)
    return BoundWitness("grid", best ** 2, witness)


def values_agree(a, b, rel=1e-12, abs_=1e-15):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def antipodal(x, y):
    """x and y are antipodes on the Riemann sphere: y = -1 / conj(x)."""
    return abs(x * y.conjugate() + 1.0) < 1e-12


CLASS_GRID_SPECS = [
    ClassSpec("II", a=1.4 + 0.3j, d=0.6 - 0.5j, c=0.8 + 0.2j),
    ClassSpec("II", a=2 + 0j, d=1 + 0j, c=1 + 0j),
    ClassSpec("III", a=1.3 - 0.2j, b=0.4 + 0.7j),
    ClassSpec("III", a=1 + 0j, b=1 + 0j),
    ClassSpec("IV", a=1.2 + 0.1j, b=0.5 - 0.6j),
    ClassSpec("IV", a=0.9 + 0j, b=0.4 + 0j),
    ClassSpec("V", a=0.9 - 0.6j),
    ClassSpec("V", a=1.1 + 0j),
]


GRID_FAMILIES = ("random", "state_A4", "state_A3", "state_A2", "class_A4", "class_A3", "class_A2")


def grid_comparison_sets(family=None):
    """Random sets, invariant sets of random states, and class representatives
    (II-V, every traced qubit), each tagged as generic or as a class set.

    ``family``, one of GRID_FAMILIES, keeps the sets of one origin and traced
    qubit; None keeps all of them.
    """
    rng = np.random.default_rng(404)
    sets = [("random", random_set(rng), False) for _ in range(30)]
    sets += [("state_" + t, invariant_set(random_state(700 + k), t), False)
             for k in range(10) for t in ("A4", "A3", "A2")]
    sets += [("class_" + t, invariant_set(representative(spec), t), True)
             for spec in CLASS_GRID_SPECS for t in ("A4", "A3", "A2")]
    kept = [(inv, is_class) for name, inv, is_class in sets if family in (None, name)]
    assert kept, family
    return kept


def sphere_values(inv: ThreeQubitInvariantSet, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """f(x) = 2 (sqrt|I40(x)| + sqrt|I04(x)|) at x = tan(theta_j/2) e^{i phi_l}.

    With r = tan(theta/2) the endpoint numerators are I04 = sum_k c_k r^k e^{ik phi}
    and I40 = sum_k c'_k r^k e^{-ik phi}, so each is one (n_theta, 5) @ (5, n_phi)
    product; the common denominator (1 + r^2)^2 depends on theta only.
    (bound_grid's sphere evaluation before it ran in row blocks.)
    """
    r = np.tan(theta / 2.0)
    powers = r[:, None] ** np.arange(5)
    e = np.exp(1j * np.outer(np.arange(5), phi))
    c40, c04 = _endpoint_coefficients(inv)
    den = ((1.0 + r ** 2) ** 2)[:, None]
    a40 = np.abs((powers * c40) @ e.conj()) / den
    a04 = np.abs((powers * c04) @ e) / den
    return 2.0 * (np.sqrt(a40) + np.sqrt(a04))


class TestGridMatchesReference:
    """bound_grid against the pointwise search it replaced."""

    def test_sphere_product_equals_pointwise_values(self):
        rng = np.random.default_rng(17)
        theta = np.pi * (np.arange(32) + 0.5) / 32
        phi = 2.0 * np.pi * np.arange(48) / 48
        tg, pg = np.meshgrid(theta, phi, indexing="ij")
        xs = np.tan(tg / 2.0) * np.exp(1j * pg)
        for _ in range(10):
            inv = random_set(rng)
            np.testing.assert_allclose(
                sphere_values(inv, theta, phi), reference_sum_sqrt(inv, xs), rtol=1e-12
            )

    def test_objective_is_antipodally_symmetric(self):
        # f(x) = f(-1/conj(x)): grid point (j, l) ties with (n-1-j, l+n/2), so
        # every grid minimum is a tie that rounding breaks
        inv = random_set(np.random.default_rng(18))
        theta = np.pi * (np.arange(16) + 0.5) / 16
        phi = 2.0 * np.pi * np.arange(16) / 16
        vals = sphere_values(inv, theta, phi)
        np.testing.assert_allclose(vals, np.roll(vals[::-1], 8, axis=1), rtol=1e-12)

    @pytest.mark.parametrize("family", GRID_FAMILIES)
    def test_values_match_and_witnesses_move_only_on_flat_minima(self, family, monkeypatch):
        # the antipode of a grid point is on the grid, so only the rows
        # j < 128 of the 256 x 256 grid are evaluated
        sphere_rows = []
        sphere_min = bounds._sphere_min

        def recording(c40, c04, grid, threshold=math.inf):
            sphere_rows.append(len(grid.powers))
            return sphere_min(c40, c04, grid, threshold)

        monkeypatch.setattr(bounds, "_sphere_min", recording)
        for inv, is_class in grid_comparison_sets(family):
            new = bound_grid(inv)
            old = reference_bound_grid(inv, 256, 256)
            assert values_agree(new.value, old.value), (inv, new.value, old.value)
            if new.witness_x != old.witness_x:
                # a witness may only move to another point of equal objective
                assert is_class, inv
                f_new = float(reference_sum_sqrt(inv, [new.witness_x])[0]) ** 2
                assert values_agree(f_new, old.value), (inv, f_new, old.value)
        assert set(sphere_rows) == {128}

    def test_unseeded_search_matches_up_to_the_antipodal_tie(self, monkeypatch):
        # without quartic seeds the sphere search and the pole decide the
        # value; the witness is the reference's or its antipodal twin, which
        # the half sphere leaves in place of a full-sphere minimum in the
        # other half
        rng = np.random.default_rng(405)
        sets = [random_set(rng) for _ in range(40)]
        quartic = [bound_quartic_A4(inv).value for inv in sets]
        monkeypatch.setattr(bounds, "quartic_root_candidates", lambda inv: [])
        same = 0
        for inv, q in zip(sets, quartic):
            new, old = bound_grid(inv), reference_bound_grid(inv)
            assert new.value >= q - 1e-8
            assert values_agree(new.value, old.value), (inv, new.value, old.value)
            assert new.witness_x == old.witness_x or antipodal(new.witness_x, old.witness_x)
            same += new.witness_x == old.witness_x
        assert same > len(sets) // 2

    def test_unseeded_search_never_beats_the_quartic_bound(self):
        # the sphere alone, without the quartic roots, stays above the quartic
        # bound on class representatives and random states as well
        for inv, _ in grid_comparison_sets():
            q = bound_quartic_A4(inv).value
            assert bound_grid(inv, candidates=[]).value >= q - 1e-8, (inv, q)


def test_subnormal_parts_in_place_of_zeros_raise_nothing():
    # each zero real or imaginary part of the grid comparison and class draw
    # sets' invariants, moved alone to +5e-324 and to -5e-324: 640 parts, 1,280
    # sets. There SCALE_TOL times the largest coefficient can underflow to 0,
    # which kept exact-zero leading coefficients, and Ferrari's factor pair
    # can be 0 / 0; every bound must return a number
    sets = [inv for inv, _ in grid_comparison_sets()] + [inv for _, _, inv in class_draw_sets()]
    assert len(sets) == 138
    moved = []
    for inv in sets:
        entries = [complex(z) for z in inv.as_array()]
        for k, z in enumerate(entries):
            parts = [complex(t, z.imag) for t in (5e-324, -5e-324) if z.real == 0.0]
            parts += [complex(z.real, t) for t in (5e-324, -5e-324) if z.imag == 0.0]
            moved += [ThreeQubitInvariantSet(inv.traced, *entries[:k], part, *entries[k + 1:])
                      for part in parts]
    assert len(moved) == 1280
    for inv in moved:
        for wit in (bound_quartic_A4(inv), bound_grid(inv), bound_unitary_3q(inv, 0.5, 0.5),
                    bound_unitary_3q(inv, 0.3, 0.7)):
            assert math.isfinite(wit.value), (inv, wit)


class TestSphereMin:
    """_sphere_min finds the full grid's first minimum over its live region, bit for bit."""

    @pytest.mark.parametrize("family", GRID_FAMILIES)
    def test_equals_the_full_grid_argmin(self, family):
        # the 128 evaluated rows make eight blocks of 15 and one of 8
        theta = np.pi * (np.arange(256) + 0.5) / 256
        phi = 2.0 * np.pi * np.arange(256) / 256
        grid = bounds._sphere_grid()
        assert [stop - start for start, stop in grid.blocks] == [15] * 8 + [8]
        for inv, _ in grid_comparison_sets(family):
            vals = sphere_values(inv, theta[:128], phi)
            k = int(np.argmin(vals))
            c40, c04 = _endpoint_coefficients(inv)
            assert bounds._sphere_min(c40, c04, grid) == (k, vals.flat[k]), inv

    def test_live_region_keeps_the_full_grid_argmin(self):
        # finite thresholds whose live tiles sit in several blocks and several
        # sectors, so the evaluated rows x columns region holds cross tiles
        # that the tile bound ruled out: class II on A1A2A3 and III on A1A2A4
        # (4 to 256 live tiles at T = min(pole, seed)) and the four-minima
        # set. Each set runs at T, at its grid minimum, one ulp below it and
        # at every eighth of its 96 least tile minima, which keep tiles that
        # need not share a block or a sector with the minimum's
        theta = np.pi * (np.arange(128) + 0.5) / 256
        phi = 2.0 * np.pi * np.arange(256) / 256
        grid = bounds._sphere_grid()
        rng = np.random.default_rng(25)
        specs = [(spec_from_values(c, *rng.uniform(0.2, 2.0, len(CLASS_PARAMS[c]))), t)
                 for c, t in [("II", "A1A2A3"), ("III", "A1A2A4")] for _ in range(8)]
        sets = [invariant_set(representative(spec), traced_qubit_of(t)) for spec, t in specs]
        sets.append(four_minima_set())
        crossed = 0
        for inv in sets:
            vals = sphere_values(inv, theta, phi)
            k = int(np.argmin(vals))
            c40, c04 = _endpoint_coefficients(inv)
            low = vals.flat[k]
            ladder = np.sort(tile_minima(vals), axis=None)[1:96:8]
            for threshold in (min(pole_and_seed(inv)), low, np.nextafter(low, 0.0), *ladder):
                live = bounds._live_tiles(coefficient_rows(inv), grid, threshold)
                blocks, sectors = live.any(axis=1).sum(), live.any(axis=0).sum()
                crossed += blocks >= 2 and sectors >= 2 and blocks * sectors > live.sum()
                found = bounds._sphere_min(c40, c04, grid, threshold)
                if low <= threshold:
                    assert found == (k, low), (inv, threshold)
                else:
                    assert found[1] > threshold, (inv, threshold)
        assert crossed >= 20, crossed

    def test_default_grid_builds_no_full_grid_array(self):
        # one (128, 256) complex product of the half sphere is 512 KiB
        inv = invariant_set(random_state(71), "A4")
        tracemalloc.start()
        try:
            bound_grid(inv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_cached_tables_are_read_only_and_shared(self):
        grid = bounds._sphere_grid()
        for name in ("theta", "phi", "powers", "phase", "den", "row_block", "column_sector",
                     "taylor", "tail", "shrink"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0] = 0
        assert bounds._sphere_grid() is grid
        # calls through the shared tables give the results of a cold cache
        sets = [inv for inv, _ in grid_comparison_sets()][::6]
        warm = [repr(bound_grid(inv)) for inv in sets]
        cold = []
        for inv in sets:
            bounds._sphere_grid.cache_clear()
            cold.append(repr(bound_grid(inv)))
        assert warm == cold


def full_grid_bound(inv, n_theta, n_phi, candidates=None, sphere=True) -> BoundWitness:
    """bound_grid written out on the whole half-sphere array at once: first
    argmin, then the pole, then the quartic seeds, value = min^2. With
    ``sphere`` false the grid is left out: min(pole, seeds)^2."""
    if inv.scale() == 0.0:
        return BoundWitness("grid", 0.0)
    best, best_theta, best_phi = math.inf, 0.0, 0.0
    if sphere:
        theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        rows = (n_theta + 1) // 2 if n_phi % 2 == 0 else n_theta
        vals = sphere_values(inv, theta[:rows], phi)
        j, l = divmod(int(np.argmin(vals)), n_phi)
        best, best_theta, best_phi = float(vals[j, l]), float(theta[j]), float(phi[l])
    pole = 2.0 * (math.sqrt(abs(inv.i04)) + math.sqrt(abs(inv.i40)))
    if pole < best:
        best, best_theta, best_phi = pole, 0.0, 0.0
    if candidates is None:
        candidates = bounds.quartic_root_candidates(inv)
    for value, x in candidates:
        fx = 2.0 * math.sqrt(value / 4.0)
        if fx < best:
            best = fx
            best_theta = 2.0 * math.atan(abs(x))
            best_phi = cmath.phase(x) % (2.0 * math.pi)
    witness = math.tan(best_theta / 2.0) * cmath.exp(1j * best_phi)
    return BoundWitness("grid", best ** 2, witness)


def pole_and_seed(inv, candidates=None):
    """The pole value and the least quartic candidate's value of f, infinity
    without candidates."""
    pole = 2.0 * (math.sqrt(abs(inv.i04)) + math.sqrt(abs(inv.i40)))
    if candidates is None:
        candidates = bounds.quartic_root_candidates(inv)
    seed = 2.0 * math.sqrt(candidates[0][0] / 4.0) if candidates else math.inf
    return pole, seed


def end_and_rest(inv):
    """(a, E, S): the larger end modulus of the I04 numerator's coefficients,
    the sum of the other four moduli, and the sum of all five."""
    moduli = [abs(c) for c in _endpoint_coefficients(inv)[1]]
    a = max(moduli[0], moduli[4])
    return a, sum(moduli) - a, sum(moduli)


def sphere_floor(inv):
    """F = max(0, 2 sqrt(a) - 4 sqrt(E)), a floor of f on the whole sphere."""
    a, e, _ = end_and_rest(inv)
    return max(0.0, 2.0 * math.sqrt(a) - 4.0 * math.sqrt(e))


def sphere_skipped(inv, candidates=None):
    """Whether bound_grid leaves the sphere out on a set with content: where
    the floor F reaches T = min(pole, seed) within (128 - 32) sqrt(u S)."""
    s = end_and_rest(inv)[2]
    return sphere_floor(inv) >= min(pole_and_seed(inv, candidates)) - 96.0 * math.sqrt(2.0 ** -53 * s)


def earlier_sphere_skipped(inv, candidates=None):
    """The two exits the floor rule replaced: T = 0, or E <= 256 u S."""
    _, e, s = end_and_rest(inv)
    return min(pole_and_seed(inv, candidates)) == 0.0 or e <= 256.0 * 2.0 ** -53 * s


def assert_grid_contract(inv, candidates=None):
    """bound_grid's value and witness: the full grid search's, bit for bit, or,
    where the sphere is skipped, exactly min(pole, seed)^2 at the pole's or the
    seed's point, with the full search's grid minimum at most the skipping
    margin below min(pole, seed)."""
    new = bound_grid(inv, candidates=candidates)
    if not sphere_skipped(inv, candidates):
        assert repr(new) == repr(full_grid_bound(inv, 256, 256, candidates=candidates)), inv
        return
    threshold = min(pole_and_seed(inv, candidates))
    assert new.value == threshold ** 2, inv
    assert repr(new) == repr(full_grid_bound(inv, 256, 256, candidates=candidates, sphere=False))
    theta = np.pi * (np.arange(128) + 0.5) / 256
    phi = 2.0 * np.pi * np.arange(256) / 256
    assert sphere_values(inv, theta, phi).min() >= threshold - skipping_margin(inv), inv


class TestGridComposition:
    """bound_grid is min(sphere minimum, pole, seeds)^2, bit for bit, with the
    witness tan(theta/2) e^{i phi} at the point that attains it, except where
    no grid value can beat the pole or seed: there it is that value."""

    @pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
    @pytest.mark.parametrize("family", GRID_FAMILIES)
    def test_repr_equal_to_the_full_grid_search(self, family, seeded):
        # unseeded, the sphere or the pole decides; seeded, mostly a quartic
        # root. The class families hold flat sets (IV, V) and zero thresholds
        # (III on A1A2A3 and A1A3A4), whose search is skipped
        candidates = None if seeded else []
        skipped = 0
        for inv, _ in grid_comparison_sets(family):
            assert_grid_contract(inv, candidates)
            skipped += sphere_skipped(inv, candidates)
        assert skipped == {"class_A4": 7, "class_A3": 4, "class_A2": 7}.get(family, 0)

    def test_seeded_search_equals_the_quartic_bound(self):
        # the seeds put the grid at or below the quartic bound and the sphere
        # never goes further below it, so best_bound's grid value is the
        # quartic bound on class representatives and random states
        for inv, _ in grid_comparison_sets():
            q = bound_quartic_A4(inv).value
            assert values_agree(bound_grid(inv).value, q), (inv, bound_grid(inv).value, q)


def class_draw_sets():
    """(class id, triple, invariant set) of two draws of every class I-IX on
    every supported triple."""
    rng = np.random.default_rng(9)
    specs = [spec_from_values(c, *rng.uniform(0.2, 2.0, len(CLASS_PARAMS[c])))
             for c in CLASS_IDS for _ in range(2)]
    return [(spec.id, t, invariant_set(representative(spec), traced_qubit_of(t)))
            for spec in specs for t in SUPPORTED_TRIPLES]


def skipping_sets():
    """Class draws I-IX on every supported triple and the edge sets of the
    block skipping: f constant (only i40), i40 below SCALE_TOL times the scale
    (an I04 root at infinity), and an I04 root on |x| = 1."""
    sets = [inv for _, _, inv in class_draw_sets()]
    sets.append(synthetic_set(i40=0.25))
    sets.append(synthetic_set(i40=3e-13, i31=0.2 + 0.1j, i22=-0.3j, i13=0.4, i04=0.5 - 0.2j))
    a = np.poly([cmath.exp(0.7j), 0.3 + 0.2j, -1.5 + 0.5j, 2j])[::-1]
    sets.append(synthetic_set(i04=a[0], i13=a[1] / 4, i22=a[2] / 6, i31=a[3] / 4, i40=a[4]))
    return sets


def record_live_tiles(monkeypatch):
    """Patch bounds._live_tiles to record (threshold, live tile mask)."""
    calls = []
    live_tiles = bounds._live_tiles

    def recording(coefficients, grid, threshold):
        live = live_tiles(coefficients, grid, threshold)
        calls.append((threshold, live.copy()))
        return live

    monkeypatch.setattr(bounds, "_live_tiles", recording)
    return calls


def coefficient_rows(inv):
    """The (2, 5) array of conj(c40) and c04 that _live_tiles reads."""
    c40, c04 = _endpoint_coefficients(inv)
    return np.array((np.conj(c40), c04))


def skipping_margin(inv):
    """C sqrt(u sum_m |c_m|), the rounding margin _live_tiles adds to the threshold."""
    c04 = _endpoint_coefficients(inv)[1]
    return bounds._MARGIN_C * math.sqrt(2.0 ** -53 * sum(abs(c) for c in c04))


def reference_tile_bounds(inv):
    """Each tile's lower bound on f, (blocks, sectors), written out: for both
    endpoint quartics p = sum_m a_m x^m, |p(c)| - |p'(c)| rho about every tile
    centre c, less the triangle sums sum_m |a_m| binom(m, k) |c|^(m-k) rho^k of
    the orders k = 2, 3, 4, with rho the largest distance from a centre to the
    grid points of its tile."""
    grid = bounds._sphere_grid()
    width = bounds.GRID_POINTS // bounds.SPHERE_SECTORS
    r = np.tan(grid.theta[:128] / 2.0)
    c40, c04 = _endpoint_coefficients(inv)
    quartics = [np.polynomial.Polynomial(np.conj(c40)), np.polynomial.Polynomial(c04)]
    lower = []
    for start, stop in grid.blocks:
        r_c = (r[start] + r[stop - 1]) / 2.0
        phi = grid.phi.reshape(-1, width)
        c = r_c * np.exp(1j * (phi[:, 0] + phi[:, -1]) / 2.0)
        xs = r[start:stop, None, None] * np.exp(1j * phi)
        rho = np.abs(xs - c[:, None]).max(axis=(0, 2))
        total = 0.0
        for p in quartics:
            tail = sum(abs(a) * math.comb(m, k) * r_c ** (m - k) * rho ** k
                       for k in range(2, 5) for m, a in enumerate(p.coef) if m >= k)
            lb = np.abs(p(c)) - np.abs(p.deriv()(c)) * rho - tail
            total = total + np.sqrt(np.maximum(lb, 0.0))
        lower.append(2.0 * total / (1.0 + r[stop - 1] ** 2))
    return np.array(lower)


def tile_minima(vals):
    """The least grid value of every tile, (blocks, sectors), from the (128, 256)
    half-sphere values."""
    return np.array([
        vals[start:stop].reshape(stop - start, bounds.SPHERE_SECTORS, -1).min(axis=(0, 2))
        for start, stop in bounds._sphere_grid().blocks
    ])


class TestSphereSkipping:
    """_sphere_min skips only tiles whose every grid value is above the
    threshold, the smallest of the pole and seed values, so bound_grid's output
    is that of the full search; bound_grid skips the whole search, with no
    _live_tiles call, where no grid value can beat that threshold."""

    THETA = np.pi * (np.arange(256) + 0.5) / 256
    PHI = 2.0 * np.pi * np.arange(256) / 256

    def assert_skipped_tiles_are_above_the_threshold(self, sets, calls, candidates=None):
        # one call per set whose search is not skipped, in order, and none
        # for the others
        searched = [inv for inv in sets if not sphere_skipped(inv, candidates)]
        assert len(calls) == len(searched)
        for inv, (threshold, live) in zip(searched, calls):
            assert threshold == min(pole_and_seed(inv, candidates)), inv
            minima = tile_minima(sphere_values(inv, self.THETA[:128], self.PHI))
            assert live.shape == minima.shape == (9, 32)
            assert (minima[~live] > threshold).all(), (inv, threshold)

    @pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
    def test_skipped_tiles_on_the_comparison_sets(self, seeded, monkeypatch):
        candidates = None if seeded else []
        sets = [inv for inv, _ in grid_comparison_sets() if inv.scale() > 0.0]
        calls = record_live_tiles(monkeypatch)
        for inv in sets:
            bound_grid(inv, candidates=candidates)
        assert len(sets) == 82
        assert sum(sphere_skipped(inv, candidates) for inv in sets) == 16
        self.assert_skipped_tiles_are_above_the_threshold(sets, calls, candidates)

    def test_skipped_tiles_on_class_draws_and_edge_sets(self, monkeypatch):
        # the search still returns the full search's value and witness, or
        # where it is skipped the pole's or the seed's
        sets = skipping_sets()
        nonzero = [inv for inv in sets if inv.scale() > 0.0]
        assert len(nonzero) == len(sets) - 6   # class IX sets are all zero
        calls = record_live_tiles(monkeypatch)
        for inv in nonzero:
            assert_grid_contract(inv)
        # every call above came from bound_grid: assert_grid_contract's
        # references do not call _live_tiles
        self.assert_skipped_tiles_are_above_the_threshold(nonzero, calls)
        assert sum(sphere_skipped(inv) for inv in nonzero) == 39

    def test_skip_fires_on_the_single_endpoint_class_draws(self, monkeypatch):
        # flat where only i40 or only i04 is nonzero up to rounding: class IV
        # on every triple, V on A1A2A3 and A1A3A4, VII and VIII; T = 0 on
        # class III on A1A2A3 and A1A3A4 and on VI; T rounding of 0 on class
        # I. Everywhere else, and on the all-zero class IX sets, which return
        # before the grid, the sphere is searched
        flat = {("IV", t) for t in SUPPORTED_TRIPLES} | {("V", "A1A2A3"), ("V", "A1A3A4")}
        flat |= {(c, t) for c in ("VII", "VIII") for t in SUPPORTED_TRIPLES}
        zero = {("III", "A1A2A3"), ("III", "A1A3A4")} | {("VI", t) for t in SUPPORTED_TRIPLES}
        rounding = {("I", t) for t in SUPPORTED_TRIPLES}
        calls = record_live_tiles(monkeypatch)
        for class_id, triple, inv in class_draw_sets():
            del calls[:]
            bound_grid(inv)
            skipped = not calls and class_id != "IX"
            assert skipped == ((class_id, triple) in flat | zero | rounding), (class_id, triple)
            if (class_id, triple) in flat:
                assert classify_group(inv) in ("ii", "iii"), (class_id, triple)
            if (class_id, triple) in zero:
                assert min(pole_and_seed(inv)) == 0.0, (class_id, triple)
            if (class_id, triple) in rounding:
                s = end_and_rest(inv)[2]
                assert min(pole_and_seed(inv)) <= 2.0 * math.sqrt(2.0 ** -53 * s), (class_id, triple)

    def test_floor_is_below_the_objective_on_the_half_sphere(self):
        # F <= f at every point of the evaluated 128 x 256 rows, on random
        # sets, class draws, a constant objective and equal end moduli, where
        # either end may carry the larger weight. The constant objective has
        # F = f exactly, so the pointwise values get their relative rounding
        rng = np.random.default_rng(24)
        sets = [random_set(rng) for _ in range(20)]
        sets += [inv for _, _, inv in class_draw_sets() if inv.scale() > 0.0]
        sets += [synthetic_set(i40=0.25),
                 synthetic_set(i40=0.5, i31=0.01j, i22=-0.02, i13=0.01, i04=-0.5j)]
        tg, pg = np.meshgrid(self.THETA[:128], self.PHI, indexing="ij")
        xs = np.tan(tg / 2.0) * np.exp(1j * pg)
        for inv in sets:
            assert sphere_floor(inv) <= reference_sum_sqrt(inv, xs).min() * (1.0 + 1e-14), inv

    def test_floor_rule_fires_wherever_the_earlier_exits_fire(self, monkeypatch):
        # the earlier exits, T = 0 and E <= 256 u S, are special cases of the
        # floor rule: each set they skip is skipped now, with no _live_tiles
        # call, and every other skip is within 96 sqrt(u S) of T
        sets = [inv for inv in skipping_sets() if inv.scale() > 0.0]
        sets += [inv for inv, _ in grid_comparison_sets() if inv.scale() > 0.0]
        calls = record_live_tiles(monkeypatch)
        earlier = 0
        for inv in sets:
            del calls[:]
            bound_grid(inv)
            if earlier_sphere_skipped(inv):
                earlier += 1
                assert not calls, inv
            if not calls:
                s = end_and_rest(inv)[2]
                assert min(pole_and_seed(inv)) - sphere_floor(inv) <= 96.0 * math.sqrt(2.0 ** -53 * s)
        assert earlier == 33 + 16

    @pytest.mark.parametrize("triple", SUPPORTED_TRIPLES)
    def test_skip_never_fires_on_random_states(self, triple, monkeypatch):
        calls = record_live_tiles(monkeypatch)
        traced = traced_qubit_of(triple)
        for k in range(300):
            bound_grid(invariant_set(random_state(k), traced))
        assert len(calls) == 300

    def test_tile_bounds_match_the_reference(self):
        # a tile is evaluated exactly when its bound is within the margin of
        # the threshold: live just inside, skipped just outside. An array of
        # thresholds, one per tile, puts every tile at its own edge in one call
        grid = bounds._sphere_grid()
        for inv in skipping_sets() + [inv for inv, _ in grid_comparison_sets()]:
            if inv.scale() == 0.0:
                continue
            margin = skipping_margin(inv)
            coefficients = coefficient_rows(inv)
            lower = reference_tile_bounds(inv)
            assert bounds._live_tiles(coefficients, grid, lower - 0.5 * margin).all(), inv
            assert not bounds._live_tiles(coefficients, grid, lower - 1.5 * margin).any(), inv

    def test_infinite_threshold_keeps_every_tile(self):
        coefficients = coefficient_rows(invariant_set(random_state(71), "A4"))
        live = bounds._live_tiles(coefficients, bounds._sphere_grid(), math.inf)
        assert live.shape == (9, 32) and live.all()

    def test_tables_refuse_tiles_beyond_the_margin_derivation(self, monkeypatch):
        # the margin assumes r < 1 and |c| + rho <= 1.05 on every tile; 16
        # sectors of 16 columns reach about 1.13 in the last block
        monkeypatch.setattr(bounds, "SPHERE_SECTORS", 16)
        with pytest.raises(RuntimeError, match="_MARGIN_C"):
            bounds._sphere_grid.__wrapped__()

    def test_random_states_evaluate_few_tiles_on_average(self, monkeypatch):
        calls = record_live_tiles(monkeypatch)
        for k in range(30):
            state = random_state(700 + k)
            for triple in SUPPORTED_TRIPLES:
                best_bound(state, triple)
        assert len(calls) == 90
        assert sum(int(live.sum()) for _, live in calls) <= 8 * 90

    def test_constant_objective_evaluates_no_tile(self, monkeypatch):
        # f = 2 sqrt|i40| everywhere: no grid value can beat the pole, whose
        # value and witness are returned exactly
        calls = record_live_tiles(monkeypatch)
        grid = bound_grid(synthetic_set(i40=0.25))
        assert calls == []
        assert grid.value == 1.0 and grid.witness_x == 0j

    def test_live_tiles_apart_in_one_block_map_back_to_their_columns(self, monkeypatch):
        # |I04| = |x^4 - e^{i alpha}| and |I40| have four minima a quarter turn
        # apart on the last row, in sectors 7, 15, 23 and 31 of the last block;
        # a small i13 makes the one at column 252, in the last sector, the
        # least. A stand-in candidate whose value sits just above the largest
        # of the four sets T there: those four tiles stay live and the grid
        # decides
        inv = four_minima_set()
        vals = sphere_values(inv, self.THETA[:128], self.PHI)
        assert np.argwhere(vals == vals.min()).tolist() == [[127, 252]]
        seed = max(vals[:, 64 * q:64 * (q + 1)].min() for q in range(4)) * (1.0 + 1e-9)
        candidates = [(seed * seed, 0.5 + 0j)]
        calls = record_live_tiles(monkeypatch)
        new = bound_grid(inv, candidates=candidates)
        assert repr(new) == repr(full_grid_bound(inv, 256, 256, candidates=candidates))
        assert new.value == vals[127, 252] ** 2
        [(_, live)] = calls
        assert [b for b in range(9) if live[b].any()] == [8]
        assert np.flatnonzero(live[8]).tolist() == [7, 15, 23, 31]

    def test_rounding_near_an_endpoint_zero_needs_the_square_root_margin(self):
        # at an I04 root on a grid point the grid's sqrt(|I04| / den) is
        # rounding's sqrt(u |P|): above a relative 1e-9 of f, within the margin
        grid = bounds._sphere_grid()
        relative = []
        for j, l in [(40, 77), (10, 3), (90, 200), (127, 128), (64, 31), (110, 17)]:
            x = complex(grid.powers[j, 1] * grid.phase[1, l])
            a = np.poly([x, 0.3 + 0.2j, -1.5 + 0.5j, 2j])[::-1]
            inv = synthetic_set(i04=a[0], i13=a[1] / 4, i22=a[2] / 6, i31=a[3] / 4, i40=a[4])
            value = sphere_values(inv, self.THETA[:128], self.PHI)[j, l]
            exact = float(reference_sum_sqrt_extended(inv, x))
            assert abs(value - exact) < 0.5 * skipping_margin(inv), (j, l, value, exact)
            relative.append(abs(value - exact) / exact)
        assert max(relative) > 1e-9, relative


def four_minima_set():
    """|I04| = |x^4 - e^{i alpha}| and |I40| have four minima a quarter turn
    apart on the last evaluated row; a small i13 makes the one at column 252
    the least."""
    phi0 = 2.0 * np.pi * 252 / 256
    alpha = 4.0 * phi0 % (2.0 * np.pi)
    return synthetic_set(i40=1.0, i13=1e-3 * cmath.exp(1j * (alpha - phi0)) / 4,
                         i04=-cmath.exp(1j * alpha))


def reference_sum_sqrt_extended(inv, x):
    """reference_sum_sqrt at one point in numpy's extended precision."""
    x = np.clongdouble(x)
    xc = np.conj(x)
    c40, c04 = (np.array(c, dtype=np.clongdouble) for c in _endpoint_coefficients(inv))
    den = (1 + abs(x) ** 2) ** 2
    f40 = sum(c40[k] * xc ** k for k in range(5))
    f04 = sum(c04[k] * x ** k for k in range(5))
    return 2 * (np.sqrt(abs(f40) / den) + np.sqrt(abs(f04) / den))


class TestClassifier:
    def test_class_one_is_case_i(self):
        spec = spec_from_values("I", *[complex(v) for v in RNG.uniform(0.2, 2, 4)])
        inv = invariant_set(representative(spec), "A4")
        assert classify_group(inv) == "i"

    def test_class_two_is_case_iv(self):
        inv = invariant_set(representative(ClassSpec("II", a=1.7 + 0.4j, d=0.9 - 0.2j, c=0.5 + 0.1j)), "A4")
        assert classify_group(inv) == "iv"

    def test_class_five_traced_a3_is_case_vi(self):
        inv = invariant_set(representative(ClassSpec("V", a=0.8 + 0.1j)), "A3")
        assert classify_group(inv) == "vi"

    def test_generic_set(self):
        inv = random_set(np.random.default_rng(3))
        assert classify_group(inv) == "generic"

    @pytest.mark.parametrize("entries,case", [
        ({"i40": 1 + 1j}, "ii"),
        ({"i04": 0.5j}, "iii"),
        ({"i40": 1.0, "i22": 0.3j}, "iv"),
        ({"i04": 1.0, "i22": 0.3j}, "v"),
        ({"i04": 1.0, "i13": 0.3j}, "vi"),
    ])
    def test_synthetic_patterns(self, entries, case):
        inv = synthetic_set(**{k: complex(v) for k, v in entries.items()})
        assert classify_group(inv) == case


class TestClosedForm:
    def test_case_i_is_zero(self):
        assert bound_closed_form(synthetic_set(i22=1.0)) == BoundWitness("closed_form", 0.0, None, "i")

    def test_case_i_needs_a_vanishing_three_way_correlation(self):
        # a random state's set has three-way content (its quartic bound is
        # 0.018) and no sparse pattern, so it has no closed form; class I
        # sets, whose three-way correlation vanishes, read as case i with 0
        inv = invariant_set(random_state(1), "A4")
        assert bound_closed_form(inv) is None
        assert bound_quartic_A4(inv).value > 0.01
        class_one = [inv for cid, _, inv in class_draw_sets() if cid == "I"]
        assert len(class_one) == 6
        for inv in class_one:
            assert bound_closed_form(inv) == BoundWitness("closed_form", 0.0, None, "i"), inv

    def test_case_v_matches_class_three(self):
        a, b = 1.3 - 0.2j, 0.4 + 0.7j
        state = representative(ClassSpec("III", a=a, b=b))
        inv = invariant_set(state, "A3")
        witness = bound_closed_form(inv)
        assert witness.group_case == "v"
        value = witness.value
        ab = abs(a * b)
        w = abs(a ** 2 - b ** 2) ** 2
        k = (abs(a) ** 2 + abs(b) ** 2 + 1) ** 2
        assert value == pytest.approx((4 * ab / k) * abs(4 * ab - w) / (4 * ab + w), rel=1e-10)

    def test_case_vi_matches_class_five(self):
        a = 0.9 - 0.6j
        inv = invariant_set(representative(ClassSpec("V", a=a)), "A3")
        k = (3 + 4 * abs(a) ** 2) ** 2
        witness = bound_closed_form(inv)
        assert witness.group_case == "vi"
        assert witness.value == pytest.approx((4.0 / k) / (1.0 + 64.0 * abs(a) ** 4), rel=1e-10)

    def test_the_set_decides_its_own_case(self):
        # {i40, i04} fits no sparse pattern of cases ii-vi, but N48 = 2 and
        # |I48| = 1 make its three-way correlation vanish: it is case i, with
        # value 0, which its quartic bound confirms
        inv = synthetic_set(i40=1.0, i04=1.0)
        assert bound_closed_form(inv) == BoundWitness("closed_form", 0.0, None, "i")
        assert bound_quartic_A4(inv).value == pytest.approx(0.0, abs=1e-12)


class TestCap:
    def test_class_one_cap_zero(self):
        spec = spec_from_values("I", *[complex(v) for v in RNG.uniform(0.2, 2, 4)])
        state = representative(spec)
        summary = correlation_summary(state, "A1A2A3")
        assert bound_cap(summary).value == 0.0

    def test_class_two_cap_is_four_i40(self):
        state = representative(ClassSpec("II", a=1.1 + 0.3j, d=0.7 - 0.4j, c=0.9 + 0j))
        summary = correlation_summary(state, "A1A2A3")
        inv = invariant_set(state, "A4")
        assert bound_cap(summary).value == pytest.approx(4 * abs(inv.i40), rel=1e-10)

    def test_class_four_cap_equals_tangle(self):
        spec = ClassSpec("IV", a=1.2 + 0.1j, b=0.5 - 0.6j)
        state = representative(spec)
        summary = correlation_summary(state, "A1A2A3")
        inv = invariant_set(state, "A4")
        report = best_bound(state, "A1A2A3")
        assert bound_cap(summary).value == pytest.approx(4 * abs(inv.i04), rel=1e-10)
        assert report.best == pytest.approx(bound_cap(summary).value, rel=1e-9)

    def test_rounding_of_a_zero_difference_reads_zero(self):
        # where N48 - 2|I48| is 0 its rounding, at most 4 u N48 here (3.53 u
        # N48 at worst), would print as a cap of 2.9e-11 to 3.7e-9 on 120 of
        # the class-draw reports (classes I, III and VI); every other cap is
        # the unclamped formula bit for bit, on a difference far above the
        # clamp
        clamped = []
        for draw in class_draws(50):
            for spec in draw:
                state = representative(spec)
                for triple in SUPPORTED_TRIPLES:
                    summary = correlation_summary(state, triple)
                    residual = summary.n48 - 2.0 * abs(summary.i48)
                    unclamped = 4.0 * math.sqrt(max(0.0, residual))
                    cap = bound_cap(summary).value
                    if 0.0 < unclamped <= 4e-9:
                        assert cap == 0.0 and residual <= 4 * 2.0 ** -53 * summary.n48
                        clamped.append(spec.id)
                        continue
                    assert cap == unclamped, (spec, triple)
                    assert cap == 0.0 or residual >= 0.08 * summary.n48, (spec, triple)
        assert len(clamped) == 120 and set(clamped) == {"I", "III", "VI"}

    def test_random_state_caps_unchanged_by_the_clamp(self):
        for k in range(300):
            state = random_state(k)
            for triple in SUPPORTED_TRIPLES:
                summary = correlation_summary(state, triple)
                residual = summary.n48 - 2.0 * abs(summary.i48)
                assert bound_cap(summary).value == 4.0 * math.sqrt(residual), (k, triple)
                assert residual >= 0.01 * summary.n48, (k, triple)


class TestBestBound:
    def test_class_seven_a1_triples(self):
        state = representative(ClassSpec("VII"))
        for triple in ("A1A2A3", "A1A2A4", "A1A3A4"):
            assert best_bound(state, triple).best == pytest.approx(0.25, abs=1e-10)

    def test_class_six_zero(self):
        state = representative(ClassSpec("VI", a=1.3 - 0.8j))
        for triple in ("A1A2A3", "A1A2A4", "A1A3A4"):
            assert best_bound(state, triple).best < 1e-10

    def test_triple_without_focus_rejected(self):
        with pytest.raises(errors.BadQubitLabel):
            best_bound(representative(ClassSpec("VII")), "A2A3A4")

    def test_a_state_a_hair_from_class_nine_is_bounded(self):
        # class IX plus 1e-160 noise: invariants of order 1e-320, where
        # RESIDUAL_TOL times the set's scale underflows and every triple's
        # star solve raised DidNotConverge
        g = np.random.default_rng(0)
        noise = 1e-160 * (g.standard_normal(16) + 1j * g.standard_normal(16))
        state = qstate.normalize(PureState4(representative(spec_from_values("IX")).amps + noise))
        for triple in SUPPORTED_TRIPLES:
            inv = invariant_set(state, traced_qubit_of(triple))
            assert 0.0 < inv.scale() < 1e-300
            report = best_bound(state, triple)
            assert all(0.0 <= m.value < 1e-300 for m in report.methods), report

    def test_a_case_vi_set_of_order_1e_240_is_bounded(self):
        # the A4 set is (0, 0, 0, 1e-240j, 4e-240j), case vi, whose closed form
        # raised ZeroDivisionError; the A3 set is i40 = 1e-320 alone, which
        # read "generic" with no closed form. The cap's N48 underflowed: it
        # read 0.0 on A1A2A3 and 3.99998e-160 on A1A3A4, below the quartic
        # values that their witnesses realize
        a = np.zeros(16, dtype=complex)
        a[11] = 1.0
        a[0] = a[1] = a[13] = 1e-80
        a[7] = 1e-80j
        state = qstate.normalize(PureState4(a))
        assert classify_group(invariant_set(state, "A4")) == "vi"
        assert bound_closed_form(invariant_set(state, "A3")).group_case == "ii"
        for triple in SUPPORTED_TRIPLES:
            report = best_bound(state, triple)
            assert all(math.isfinite(m.value) for m in report.methods), report
            values = {m.method: m.value for m in report.methods}
            assert values["cap"] >= values["quartic_A4"] > 0.0, report

    def test_a_start_that_meets_the_residual_contract_is_kept(self):
        # the A3 endpoint quartic drops to degree 3 (roots, test_quartic); its
        # polished root met the residual bound in |p| but not in the contract's
        # |p| / max(1, |w|)^4, and best_bound raised DidNotConverge
        a = np.zeros(16, dtype=complex)
        a[0], a[3], a[4], a[10], a[12], a[13] = -1e-7j, 1e-4, 1e-4j, 0.1j, 1e-3j, 1e-6
        report = best_bound(qstate.normalize(PureState4(a)), "A1A2A4")
        assert all(math.isfinite(m.value) for m in report.methods), report

    def test_wide_dynamic_range_states_are_bounded(self):
        # amplitudes spread over up to 20, 80, 160 and 300 decades, one of
        # them 1: 2,500 states per span, 30,000 reports, raised 65
        # ZeroDivisionError (case vi) and 1 DidNotConverge, and raise nothing
        # now; the first 400 states per span here, 9 of whose reports raised
        for i, span in enumerate((20, 80, 160, 300)):
            g = np.random.default_rng(100 + i)
            for _ in range(400):
                a = (g.standard_normal(16) + 1j * g.standard_normal(16)) * 10.0 ** -g.integers(0, span, 16)
                a[g.integers(16)] = 1
                state = qstate.normalize(PureState4(a))
                for triple in SUPPORTED_TRIPLES:
                    assert math.isfinite(best_bound(state, triple).best), (span, a, triple)

    def test_one_classification_and_one_summary_per_report(self, monkeypatch):
        # the closed form classifies the set itself, and the classifier and
        # the cap read the summary kept on the set
        calls = {"classify_group": 0, "CorrelationSummary": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)
        counted(bounds, "classify_group")
        counted(invariants, "CorrelationSummary")
        report = best_bound(representative(ClassSpec("II", a=2 + 0j, d=1 + 0j, c=1 + 0j)), "A1A2A3")
        assert calls == {"classify_group": 1, "CorrelationSummary": 1}
        assert [m.method for m in report.methods][:2] == ["cap", "closed_form"]
        assert report.methods[1].group_case == "ii"

    def test_report_structure(self):
        report = best_bound(random_state(77), "A1A2A4")
        names = [m.method for m in report.methods]
        assert names[0] == "cap"
        assert "quartic_A4" in names and "grid" in names
        assert report.best == pytest.approx(min(m.value for m in report.methods))
        assert 0.0 <= report.tightness_f <= 1.0 + 1e-9

    @pytest.mark.parametrize("state,triple,unitary", [
        (random_state(78), "A1A2A4", False),
        (representative(ClassSpec("III", a=1.3 - 0.2j, b=0.4 + 0.7j)), "A1A2A3", True),
    ])
    def test_endpoint_quartics_solved_once_per_report(self, state, triple, unitary, monkeypatch):
        # quartic_A4, the grid's seeds and unitary_3q (equal branch
        # probabilities, class III on A1A2A3) read one endpoint quartic's stars
        calls = []

        def counting(c):
            calls.append(c)
            return roots(c)

        monkeypatch.setattr(invariants, "roots", counting)
        report = best_bound(state, triple)
        assert ("unitary_3q" in [m.method for m in report.methods]) == unitary
        assert len(calls) == 1

    @pytest.mark.parametrize("triple", ["A1A2A3", "A1A2A4", "A1A3A4"])
    def test_state_never_permuted_per_report(self, triple, monkeypatch):
        # the fonts and the branch probabilities are gathered from the
        # state's own amplitudes: a report neither permutes the state nor
        # builds any other four-qubit state
        state = random_state(79)
        calls = []
        permute, post_init = qstate.permute_qubits, qstate.PureState4.__post_init__

        def counting_permute(s, perm):
            calls.append(perm)
            return permute(s, perm)

        def counting_post_init(s):
            calls.append("PureState4")
            post_init(s)

        for module in (bounds, invariants, fonts, qstate):
            if hasattr(module, "permute_qubits"):
                monkeypatch.setattr(module, "permute_qubits", counting_permute)
        monkeypatch.setattr(qstate.PureState4, "__post_init__", counting_post_init)
        best_bound(state, triple)
        assert calls == []

    def test_scale_is_the_largest_modulus_computed_once(self):
        rng = np.random.default_rng(80)
        sets = [random_set(rng) for _ in range(20)]
        sets += [invariant_set(representative(spec), t)
                 for spec in CLASS_GRID_SPECS for t in ("A4", "A3", "A2")]
        sets.append(synthetic_set())
        for inv in sets:
            # the scalar modulus abs(), equal for Python and numpy scalars;
            # numpy's array modulus can differ from it in the last bit
            expected = max(abs(inv.i40), abs(inv.i31), abs(inv.i22), abs(inv.i13), abs(inv.i04))
            assert inv.scale() == expected and type(inv.scale()) is float, inv
            assert inv.scale() is inv.scale()

    def test_invariance_under_special_unitaries(self):
        # every method value, not just the minimum, survives det-1 rotations
        # of the untraced qubits
        for seed in range(8):
            state = random_state(seed + 900)
            rotated = state
            for q in (1, 2, 3):
                rotated = apply_local_unitary(rotated, q, random_special_unitary(31 * seed + q))
            r1 = best_bound(state, "A1A2A3")
            r2 = best_bound(rotated, "A1A2A3")
            v1 = {m.method: m.value for m in r1.methods}
            v2 = {m.method: m.value for m in r2.methods}
            assert set(v1) == set(v2)
            for method, value in v1.items():
                assert v2[method] == pytest.approx(value, rel=1e-8, abs=1e-10)
            assert r2.best == pytest.approx(r1.best, rel=1e-8, abs=1e-10)


class TestBranchPairValue:
    """The value criterion 6 holds the quartic bound to, computed from the
    traced qubit's untransformed branches through three_tangle_pure."""

    def test_equals_endpoint_square_root_sum(self):
        for seed in range(20):
            state = random_state(seed + 1200)
            for traced in ("A4", "A3", "A2"):
                inv = invariant_set(state, traced)
                expected = 4.0 * (abs(inv.i40) ** 0.5 + abs(inv.i04) ** 0.5) ** 2
                assert branch_pair_value(state, traced) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("spec,triple", [
        (ClassSpec("II", a=1.4 + 0.3j, d=0.6 - 0.5j, c=0.8 + 0.2j), "A1A2A3"),
        (ClassSpec("II", a=1.4 + 0.3j, d=0.6 - 0.5j, c=0.8 + 0.2j), "A1A2A4"),
        (ClassSpec("II", a=1.4 + 0.3j, d=0.6 - 0.5j, c=0.8 + 0.2j), "A1A3A4"),
        (ClassSpec("III", a=1.3 - 0.2j, b=0.4 + 0.7j), "A1A2A4"),
        (ClassSpec("IV", a=1.2 + 0.1j, b=0.5 - 0.6j), "A1A2A3"),
        (ClassSpec("IV", a=1.2 + 0.1j, b=0.5 - 0.6j), "A1A2A4"),
        (ClassSpec("IV", a=1.2 + 0.1j, b=0.5 - 0.6j), "A1A3A4"),
        (ClassSpec("V", a=0.9 - 0.6j), "A1A2A3"),
        (ClassSpec("V", a=0.9 - 0.6j), "A1A3A4"),
    ])
    def test_equals_linear_sum_and_regu_on_class_representatives(self, spec, triple):
        state = representative(spec)
        traced = traced_qubit_of(triple)
        inv = invariant_set(state, traced)
        value = branch_pair_value(state, traced)
        assert value == pytest.approx(4.0 * abs(inv.i40) + 4.0 * abs(inv.i04), rel=1e-12)
        assert value == pytest.approx(literature_bound(spec, triple, "regu"), rel=1e-12)

    def test_quartic_bound_between_linear_sum_and_branch_pair(self):
        # criterion 6's state 5 traced A2: the linear sum undercuts the bound
        state = _random_states(50, 6)[5]
        inv = invariant_set(state, "A2")
        linear = 4.0 * abs(inv.i40) + 4.0 * abs(inv.i04)
        quartic = bound_quartic_A4(inv).value
        assert linear == pytest.approx(0.148738, abs=1e-6)
        assert quartic == pytest.approx(0.177002, abs=1e-6)
        assert linear < quartic < branch_pair_value(state, "A2")
