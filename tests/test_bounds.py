"""Bound constructions: quartic, branch pair, grid, classifier, closed forms, cap."""

import cmath

import numpy as np
import pytest

from tanglebound import errors
from tanglebound.acceptance import _random_states, branch_pair_value
from tanglebound.bounds import (
    best_bound,
    bound_cap,
    bound_closed_form,
    bound_grid,
    bound_quartic_A4,
    bound_unitary_3q,
    branch_form_coefficients,
    classify_group,
)
from tanglebound.classes import ClassSpec, literature_bound, representative, spec_from_values
from tanglebound.invariants import (
    ThreeQubitInvariantSet,
    correlation_summary,
    invariant_set,
    n48_i48,
    traced_qubit_of,
)
from tanglebound.qstate import (
    PureState4,
    apply_local_unitary,
    random_special_unitary,
    random_state,
)

RNG = np.random.default_rng(101)


def synthetic_set(**entries) -> ThreeQubitInvariantSet:
    values = {"i40": 0j, "i31": 0j, "i22": 0j, "i13": 0j, "i04": 0j}
    values.update(entries)
    return ThreeQubitInvariantSet("A4", **values)


def random_set(rng) -> ThreeQubitInvariantSet:
    z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    return ThreeQubitInvariantSet("A4", *z)


def three_way_of(inv) -> float:
    n48, i48 = n48_i48(inv)
    return 16.0 * (n48 - 2.0 * abs(i48))


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
            g = branch_form_coefficients(inv, p0, p1)
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
            g = branch_form_coefficients(inv, p0, 1.0 - p0)
            cands = []
            for y in wit.roots_used:
                f40, f04 = reference_branch_endpoints(g, y)
                if abs(f40) < abs(f04):
                    cands.append(4.0 * p0 ** 2 * abs(f04))
                else:
                    cands.append(4.0 * (1.0 - p0) ** 2 * abs(f40))
            assert len(cands) == 8
            assert wit.value == pytest.approx(min(cands), rel=1e-12)


def reference_branch_endpoints(g, y):
    """Probability-weighted endpoint forms at rotation parameter y, written out
    on the branch coefficients g (the formula bound_unitary_3q is checked against)."""
    yc = y.conjugate()
    den = (1.0 + abs(y) ** 2) ** 2
    f40 = (g[0] + 4.0 * y * g[1] + 6.0 * y ** 2 * g[2] + 4.0 * y ** 3 * g[3] + y ** 4 * g[4]) / den
    f04 = (g[4] - 4.0 * yc * g[3] + 6.0 * yc ** 2 * g[2] - 4.0 * yc ** 3 * g[1] + yc ** 4 * g[0]) / den
    return f40, f04


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
        # with a single endpoint invariant the objective is flat: any x works
        inv = synthetic_set(i40=0.25)
        assert bound_grid(inv).value == pytest.approx(1.0, rel=1e-9)


class TestClassifier:
    def test_class_one_is_case_i(self):
        spec = spec_from_values("I", *[complex(v) for v in RNG.uniform(0.2, 2, 4)])
        inv = invariant_set(representative(spec), "A4")
        assert classify_group(inv, three_way_of(inv)) == "i"

    def test_class_two_is_case_iv(self):
        inv = invariant_set(representative(ClassSpec("II", a=1.7 + 0.4j, d=0.9 - 0.2j, c=0.5 + 0.1j)), "A4")
        assert classify_group(inv, three_way_of(inv)) == "iv"

    def test_class_five_traced_a3_is_case_vi(self):
        inv = invariant_set(representative(ClassSpec("V", a=0.8 + 0.1j)), "A3")
        assert classify_group(inv, three_way_of(inv)) == "vi"

    def test_generic_set(self):
        inv = random_set(np.random.default_rng(3))
        assert classify_group(inv, three_way_of(inv)) == "generic"

    @pytest.mark.parametrize("entries,case", [
        ({"i40": 1 + 1j}, "ii"),
        ({"i04": 0.5j}, "iii"),
        ({"i40": 1.0, "i22": 0.3j}, "iv"),
        ({"i04": 1.0, "i22": 0.3j}, "v"),
        ({"i04": 1.0, "i13": 0.3j}, "vi"),
    ])
    def test_synthetic_patterns(self, entries, case):
        inv = synthetic_set(**{k: complex(v) for k, v in entries.items()})
        assert classify_group(inv, three_way_of(inv)) == case


class TestClosedForm:
    def test_case_i_is_zero(self):
        assert bound_closed_form(synthetic_set(i22=1.0), "i").value == 0.0

    def test_case_v_matches_class_three(self):
        a, b = 1.3 - 0.2j, 0.4 + 0.7j
        state = representative(ClassSpec("III", a=a, b=b))
        inv = invariant_set(state, "A3")
        value = bound_closed_form(inv, "v").value
        ab = abs(a * b)
        w = abs(a ** 2 - b ** 2) ** 2
        k = (abs(a) ** 2 + abs(b) ** 2 + 1) ** 2
        assert value == pytest.approx((4 * ab / k) * abs(4 * ab - w) / (4 * ab + w), rel=1e-10)

    def test_case_vi_matches_class_five(self):
        a = 0.9 - 0.6j
        inv = invariant_set(representative(ClassSpec("V", a=a)), "A3")
        k = (3 + 4 * abs(a) ** 2) ** 2
        assert bound_closed_form(inv, "vi").value == pytest.approx(
            (4.0 / k) / (1.0 + 64.0 * abs(a) ** 4), rel=1e-10
        )

    def test_wrong_case_rejected(self):
        with pytest.raises(errors.WrongCase):
            bound_closed_form(synthetic_set(i40=1.0, i04=1.0), "ii")

    def test_quartic_matches_closed_form_on_sparse_sets(self):
        rng = np.random.default_rng(11)
        for case, slots in (("iv", ("i40", "i22")), ("v", ("i04", "i22")), ("vi", ("i04", "i13"))):
            for _ in range(25):
                entries = {s: complex(rng.standard_normal(), rng.standard_normal()) for s in slots}
                inv = synthetic_set(**entries)
                closed = bound_closed_form(inv, case).value
                assert bound_quartic_A4(inv).value == pytest.approx(closed, rel=1e-9)


class TestCap:
    def test_class_one_cap_zero(self):
        spec = spec_from_values("I", *[complex(v) for v in RNG.uniform(0.2, 2, 4)])
        state = representative(spec)
        summary = correlation_summary(state, "A1A2A3")
        assert bound_cap(summary).value < 1e-9

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

    def test_report_structure(self):
        report = best_bound(random_state(77), "A1A2A4")
        names = [m.method for m in report.methods]
        assert names[0] == "cap"
        assert "quartic_A4" in names and "grid" in names
        assert report.best == pytest.approx(min(m.value for m in report.methods))
        assert 0.0 <= report.tightness_f <= 1.0 + 1e-9

    def test_dominance_chain_small(self):
        for seed in range(20):
            state = random_state(seed + 300)
            for triple in ("A1A2A3", "A1A2A4", "A1A3A4"):
                report = best_bound(state, triple)
                values = {m.method: m.value for m in report.methods}
                assert values["grid"] <= values["quartic_A4"] + 1e-8
                assert values["quartic_A4"] <= values["cap"] + 1e-8

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
