"""Invariant sets, endpoint transforms, and degree-eight correlation measures."""

import cmath
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tanglebound import bounds, errors, invariants
from tanglebound.classes import ClassSpec, representative, spec_from_values
from tanglebound.invariants import (
    _endpoint_coefficients,
    _set_from_fonts,
    correlation_summary,
    invariant_set,
    summary_from_set,
    three_tangle_pure,
    transform_endpoints,
)
from tanglebound.qstate import (
    TRACE_PERMS,
    PureState3,
    PureState4,
    apply_local_unitary,
    branch_vectors,
    normalize,
    permute_qubits,
    random_special_unitary,
    random_state,
)
from oracles import ExactComplex, det3, endpoint_quartic, stars_oracle
from test_fonts import ORACLE_STATES, brute_force_fonts3, reference_fonts4
from test_scalar_path import CORPUS


def ket3(bits: str) -> np.ndarray:
    a = np.zeros(8, dtype=complex)
    a[int(bits, 2)] = 1.0
    return a


GHZ3 = PureState3((ket3("000") + ket3("111")) / math.sqrt(2))
W3 = PureState3((ket3("100") + ket3("010") + ket3("001")) / math.sqrt(3))


class TestThreeTanglePure:
    def test_ghz3_is_one(self):
        assert three_tangle_pure(GHZ3) == pytest.approx(1.0, abs=1e-14)

    def test_w3_is_zero(self):
        assert three_tangle_pure(W3) == pytest.approx(0.0, abs=1e-14)

    def test_product_state_is_zero(self):
        assert three_tangle_pure(PureState3(ket3("000"))) == 0.0

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = normalize(PureState3(rng.standard_normal(8) + 1j * rng.standard_normal(8)))
            assert -1e-12 <= three_tangle_pure(s) <= 1.0 + 1e-12

    def test_random_states_against_the_brute_force_fonts(self):
        # the grouping (d3way[0] + d3way[1])^2 - 4 d2way[0] d2way[1] on the
        # fonts of test_fonts.THREE_QUBIT_RULES, read off the tensor by rule
        rng = np.random.default_rng(34)
        for _ in range(30):
            s = normalize(PureState3(rng.standard_normal(8) + 1j * rng.standard_normal(8)))
            fonts = brute_force_fonts3(s)
            d2way, d3way = fonts["d2way"], fonts["d3way"]
            expected = 4.0 * abs((d3way[0] + d3way[1]) ** 2 - 4.0 * d2way[0] * d2way[1])
            assert abs(three_tangle_pure(s) - expected) <= 1e-15

    def test_local_special_unitary_and_permutation_invariance(self):
        # the fonts' grouping singles out qubit 3; the tangle must not
        for seed in range(30):
            s = normalize(PureState3(np.asarray(random_state(seed + 900).amps)[0::2]))
            base = three_tangle_pure(s)
            rotated = s
            for q in (1, 2, 3):
                rotated = apply_local_unitary(rotated, q, random_special_unitary(11 * seed + q))
            assert abs(three_tangle_pure(rotated) - base) <= 1e-13
            for perm in ((1, 0, 2), (0, 2, 1), (2, 0, 1)):
                permuted = PureState3(s.tensor().transpose(perm).reshape(8))
                assert abs(three_tangle_pure(permuted) - base) <= 1e-14

    def test_requires_normalized(self):
        with pytest.raises(errors.NotNormalized):
            three_tangle_pure(PureState3(2.0 * ket3("000")))


class TestInvariantSetA4:
    def test_product_state_all_zero(self):
        a = np.zeros(16, dtype=complex)
        a[0] = 1.0
        inv = invariant_set(PureState4(a), "A4")
        np.testing.assert_array_equal(inv.as_array(), np.zeros(5))

    @pytest.mark.parametrize("a,d,c", [
        (2.0 + 0j, 1.0 + 0j, 1.0 + 0j),
        (0.8 - 0.5j, 1.4 + 0.2j, 0.6 + 0.9j),
    ])
    def test_class_two_values(self, a, d, c):
        inv = invariant_set(representative(ClassSpec("II", a=a, d=d, c=c)), "A4")
        k = (abs(a) ** 2 + abs(d) ** 2 + 2 * abs(c) ** 2 + 1) ** 2
        assert inv.i40 == pytest.approx(c * (a ** 2 - d ** 2) / k, abs=1e-13)
        assert inv.i22 == pytest.approx((a ** 2 - c ** 2) * (d ** 2 - c ** 2) / (6 * k), abs=1e-13)
        assert abs(inv.i31) < 1e-14 and abs(inv.i13) < 1e-14 and abs(inv.i04) < 1e-14

    def test_class_five_traced_a4(self):
        a = 0.7 + 0.3j
        inv = invariant_set(representative(ClassSpec("V", a=a)), "A4")
        k = (3 + 4 * abs(a) ** 2) ** 2
        assert inv.i04 == pytest.approx(-4 * a ** 2 / k, abs=1e-13)
        for entry in (inv.i40, inv.i31, inv.i22, inv.i13):
            assert abs(entry) < 1e-14


class TestInvariantSetTraced:
    def test_class_three_traced_a3(self):
        # moduli match the tabulated values; the i04 sign convention follows the
        # permutation construction (see the class-III notes in the bounds tests)
        a, b = 1.2 - 0.4j, 0.5 + 0.9j
        inv = invariant_set(representative(ClassSpec("III", a=a, b=b)), "A3")
        k = (2 * abs(a) ** 2 + 2 * abs(b) ** 2 + 2) ** 2
        assert abs(inv.i04) == pytest.approx(abs(4 * a * b) / k, abs=1e-13)
        assert inv.i22 == pytest.approx((a ** 2 - b ** 2) ** 2 / (6 * k), abs=1e-13)
        assert abs(inv.i40) < 1e-14 and abs(inv.i31) < 1e-14 and abs(inv.i13) < 1e-14

    def test_class_five_traced_a2(self):
        a = 0.7 + 0.3j
        inv = invariant_set(representative(ClassSpec("V", a=a)), "A2")
        k = (3 + 4 * abs(a) ** 2) ** 2
        assert inv.i40 == pytest.approx(-4 * a ** 2 / k, abs=1e-13)
        for entry in (inv.i31, inv.i22, inv.i13, inv.i04):
            assert abs(entry) < 1e-14

    def test_class_five_traced_a3(self):
        a = 0.7 + 0.3j
        inv = invariant_set(representative(ClassSpec("V", a=a)), "A3")
        k = (3 + 4 * abs(a) ** 2) ** 2
        assert inv.i04 == pytest.approx(-1.0 / k, abs=1e-13)
        assert abs(inv.i13) == pytest.approx(2 * abs(a) ** 2 / k, abs=1e-13)
        assert abs(inv.i40) < 1e-14 and abs(inv.i31) < 1e-14 and abs(inv.i22) < 1e-14

    @pytest.mark.parametrize("traced", ["A4", "A3", "A2"])
    def test_fields_equal_to_the_permute_then_reference_path(self, traced):
        # the gathered fonts against the tensor-slice fonts of the state with
        # the traced qubit moved last, field by field and exactly
        for name, state in ORACLE_STATES.items():
            moved = permute_qubits(state, TRACE_PERMS[traced])
            expected = _set_from_fonts(reference_fonts4(moved), traced)
            assert dataclasses.astuple(invariant_set(state, traced)) == dataclasses.astuple(expected), name

    def test_focus_qubit_cannot_be_traced(self):
        with pytest.raises(errors.BadQubitLabel):
            invariant_set(random_state(0), "A1")
        # the label is checked before the norm
        with pytest.raises(errors.BadQubitLabel):
            invariant_set(PureState4(2.0 * random_state(0).amps), "A1")

    def test_unnormalized_state_rejected(self):
        s = PureState4(2.0 * random_state(0).amps)
        for traced in ("A4", "A3", "A2"):
            with pytest.raises(errors.NotNormalized):
                invariant_set(s, traced)

    def test_norm_is_checked_before_the_fonts_are_gathered(self):
        # amplitudes of 1e200 would overflow in the font products; the norm
        # check comes first, and its message does not overflow either
        s = PureState4(np.full(16, 1e200 + 0j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for traced in ("A4", "A3", "A2"):
                with pytest.raises(errors.NotNormalized, match="inf"):
                    invariant_set(s, traced)
            with pytest.raises(errors.BadQubitLabel):
                invariant_set(s, "A1")


class TestTransformEndpoints:
    def test_x_zero_is_identity(self):
        inv = invariant_set(random_state(41), "A4")
        i40x, i04x = transform_endpoints(inv, 0.0)
        assert i40x == pytest.approx(inv.i40, abs=1e-15)
        assert i04x == pytest.approx(inv.i04, abs=1e-15)

    def test_sparse_case_iv_form(self):
        # with only i40 and i22 alive: i04(x) = x^2 (6 i22 + x^2 i40) / (1+|x|^2)^2
        from tanglebound.invariants import ThreeQubitInvariantSet
        inv = ThreeQubitInvariantSet("A4", 0.3 - 0.2j, 0j, 0.1 + 0.4j, 0j, 0j)
        for x in (0.5 + 0.1j, -1.2j, 2.0 + 0j):
            _, i04x = transform_endpoints(inv, x)
            expect = x ** 2 * (6 * inv.i22 + x ** 2 * inv.i40) / (1 + abs(x) ** 2) ** 2
            assert i04x == pytest.approx(expect, abs=1e-14)

    def test_nonfinite_rejected(self):
        inv = invariant_set(random_state(0), "A4")
        with pytest.raises(errors.NonFinite):
            transform_endpoints(inv, complex("nan"))

    @pytest.mark.parametrize("modulus", [1e80, 1e300])
    def test_large_x_matches_the_antipode(self, modulus):
        # |I40(x)| = |I04(-1/conj x)|, and -1/conj x lies inside the unit disk,
        # where the direct form runs; at |x| = 1.2e77 that form overflowed
        rng = np.random.default_rng(int(math.log10(modulus)) + 3)
        for k in range(10):
            inv = invariant_set(random_state(60 + k), ("A4", "A3", "A2")[k % 3])
            x = modulus * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            i40x, i04x = transform_endpoints(inv, x)
            i40y, i04y = transform_endpoints(inv, -1.0 / x.conjugate())
            assert abs(i40x) == pytest.approx(abs(i04y), rel=1e-14)
            assert abs(i04x) == pytest.approx(abs(i40y), rel=1e-14)

    def test_large_x_keeps_the_phase_of_the_direct_form(self):
        # beyond the unit disk the reversed form equals the direct one, phase
        # included, to rounding: at 3 + 4j and along a ray to 1e300, where the
        # limit is conj(u)^4 i04 and u^4 i40 with u = x / |x|
        for k in range(10):
            inv = invariant_set(random_state(70 + k), "A4")
            x = 3.0 + 4.0j
            den = (1.0 + abs(x) ** 2) ** 2
            c40, c04 = _endpoint_coefficients(inv)
            direct = (sum(c * x.conjugate() ** m for m, c in enumerate(c40)) / den,
                      sum(c * x ** m for m, c in enumerate(c04)) / den)
            for got, want in zip(transform_endpoints(inv, x), direct):
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
            u = 0.6 + 0.8j
            i40x, i04x = transform_endpoints(inv, 1e300 * u)
            assert abs(i40x - u.conjugate() ** 4 * inv.i04) <= 1e-15
            assert abs(i04x - u ** 4 * inv.i40) <= 1e-15
            # |x| = 2.1e308 is past the largest float, though both parts are finite
            i40x, i04x = transform_endpoints(inv, 1.5e308 + 1.5e308j)
            assert abs(i40x + inv.i04) <= 1e-15 and abs(i04x + inv.i40) <= 1e-15


class TestCorrelationSummary:
    def test_product_state(self):
        a = np.zeros(16, dtype=complex)
        a[0] = 1.0
        summary = correlation_summary(PureState4(a), "A1A2A3")
        assert summary.n48 == 0.0
        assert summary.i48 == 0.0
        assert summary.tau48 == 0.0
        assert summary.three_way == 0.0

    def test_class_one_three_way_vanishes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            spec = spec_from_values("I", *[complex(v) for v in rng.uniform(0.2, 2.0, 4)])
            state = representative(spec)
            for triple in ("A1A2A3", "A1A2A4", "A1A3A4"):
                summary = correlation_summary(state, triple)
                assert summary.three_way == pytest.approx(0.0, abs=1e-12)
                assert summary.n48 == pytest.approx(2 * abs(summary.i48), abs=1e-12)

    def test_class_three_structure(self):
        a, b = 1.1 + 0.2j, 0.6 - 0.8j
        state = representative(ClassSpec("III", a=a, b=b))
        summary = correlation_summary(state, "A1A2A4")
        inv = invariant_set(state, "A3")
        assert abs(summary.i48) == pytest.approx(3 * abs(inv.i22) ** 2, rel=1e-12)
        assert summary.three_way == pytest.approx(16 * abs(inv.i04) ** 2, rel=1e-12)

    def test_unsupported_triple(self):
        with pytest.raises(errors.BadQubitLabel):
            correlation_summary(random_state(0), "A2A3A4")

    def test_summary_is_built_once_and_kept_on_the_set(self):
        inv = invariant_set(random_state(5), "A3")
        twin = dataclasses.replace(inv)
        summary = summary_from_set(inv)
        assert summary_from_set(inv) is summary
        # kept outside the fields: equality and repr do not see it
        assert inv == twin and repr(inv) == repr(twin)
        assert summary_from_set(twin) == summary and summary_from_set(twin) is not summary

    def test_tau48_ghz4(self):
        a = np.zeros(16, dtype=complex)
        a[0b0000] = a[0b1111] = 1 / math.sqrt(2)
        summary = correlation_summary(PureState4(a), "A1A2A3")
        assert summary.tau48 == pytest.approx(1.0, abs=1e-12)
        assert summary.three_way == pytest.approx(0.0, abs=1e-13)

    def test_three_way_never_negative(self):
        # n48 dominates 2|i48| by the arithmetic-geometric split of its terms
        for seed in range(60):
            for triple in ("A1A2A3", "A1A2A4", "A1A3A4"):
                summary = correlation_summary(random_state(seed + 40), triple)
                assert summary.three_way >= -1e-9


class TestInvarianceProperties:
    def test_embedding_matches_three_tangle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            phi /= np.linalg.norm(phi)
            amps = np.zeros(16, dtype=complex)
            amps[0::2] = phi
            inv = invariant_set(PureState4(amps), "A4")
            assert 4 * abs(inv.i40) == pytest.approx(
                three_tangle_pure(PureState3(phi)), abs=1e-12
            )


class TestHyperdeterminantOracles:
    """The fonts' invariants against Cayley's hyperdeterminant written out
    (tests/oracles.py), on random states, class draws and signed-zero states."""

    @pytest.mark.parametrize("traced", ["A4", "A3", "A2"])
    def test_three_tangle_is_four_times_the_hyperdeterminant(self, traced):
        for k, state in enumerate(CORPUS):
            for phi in branch_vectors(state, traced):
                norm = np.linalg.norm(phi)
                if norm == 0.0:
                    continue
                branch = PureState3(phi / norm)
                assert abs(three_tangle_pure(branch) - 4.0 * abs(det3(branch.amps))) <= 1e-15, k

    @pytest.mark.parametrize("traced", ["A4", "A3", "A2"])
    def test_three_tangle_against_the_exact_hyperdeterminant(self, traced):
        # tau^2 against 16 |det3|^2 in exact rational arithmetic on the same
        # float amplitudes; squares avoid the square root. Tolerance 64 u,
        # u = 2^-53, to first order in u: three_tangle_pure's Det is
        # d3^2 - 4 P Q from eight complex products (each within sqrt(5) u of
        # the product of the moduli) and a few sums, within 14 u M, where M is
        # the same expression on the moduli of the terms. For a unit vector
        # M <= 1/2: d3's four pairs of amplitudes, and P's and Q's two each,
        # have products of moduli summing to at most half their norm^2. So tau
        # = 4|Det| is within 4 (7 u + 2 u |Det|) <= 32 u, as 4 |Det| <= 1, and
        # tau^2 within 2 x 32 u. Worst seen 3.0 u
        for k, state in enumerate(CORPUS):
            for phi in branch_vectors(state, traced):
                norm = np.linalg.norm(phi)
                if norm == 0.0:
                    continue
                branch = PureState3(phi / norm)
                exact = 16 * det3(branch.amps, ExactComplex).abs2()
                assert abs(Fraction(three_tangle_pure(branch)) ** 2 - exact) <= 64 * 2.0 ** -53, k

    @pytest.mark.parametrize("traced", ["A4", "A3", "A2"])
    def test_endpoint_quartic_is_the_hyperdeterminant_of_the_branch_pencil(self, traced):
        # _endpoint_coefficients(inv)[1] holds the ascending coefficients of
        # det3(x phi0 + phi1), the I04 numerator
        for k, state in enumerate(CORPUS):
            got = np.array(_endpoint_coefficients(invariant_set(state, traced))[1])
            expected = endpoint_quartic(*branch_vectors(state, traced))
            tol = 1e-13 * np.max(np.abs(got))
            assert np.max(np.abs(got - expected)) <= tol, (k, got, expected)

    @pytest.mark.parametrize("traced", ["A4", "A3", "A2"])
    def test_endpoint_transform_is_the_hyperdeterminant_of_the_rotated_pair(self, traced):
        # I40(x) = det3(phi0 - conj(x) phi1) and I04(x) = det3(x phi0 + phi1),
        # both over (1 + |x|^2)^2, within 1e-13 of the bound
        # 16 scale() max(1, |x|)^4 / (1 + |x|^2)^2 on their moduli (worst seen
        # 9.5e-16 of it)
        rng = np.random.default_rng(8)
        for k, state in enumerate(CORPUS):
            inv = invariant_set(state, traced)
            phi0, phi1 = branch_vectors(state, traced)
            for x in (0j, complex(*rng.standard_normal(2)), 30j * rng.standard_normal()):
                den = (1.0 + abs(x) ** 2) ** 2
                expected = (det3(phi0 - x.conjugate() * phi1) / den, det3(x * phi0 + phi1) / den)
                tol = 1.6e-12 * inv.scale() * max(1.0, abs(x)) ** 4 / den
                for got, value in zip(transform_endpoints(inv, x), expected):
                    assert abs(got - value) <= tol, (k, x, got, value)

    def test_stars_are_the_roots_of_the_hyperdeterminant_quartic(self):
        # Every set with content has as many stars as stars_oracle has roots.
        # Where the oracle's roots lie at least 1e-3 (1 + |x|) apart, each star
        # is within 1e-12 (1 + |x|) of its own root (worst seen 2.3e-14). The
        # 149 sets with closer roots hold a multiple root, which the rounding
        # of the oracle's coefficients splits by up to its fourth root, 1e-4:
        # they are counted and skipped
        skipped = checked = 0
        for k, state in enumerate(CORPUS):
            for traced in ("A4", "A3", "A2"):
                inv = invariant_set(state, traced)
                if inv.scale() == 0.0:
                    continue
                xs = np.array(inv.stars().xs)
                expected = stars_oracle(*branch_vectors(state, traced))
                assert len(xs) == len(expected), (k, traced, xs, expected)
                size = 1.0 + np.abs(expected)
                gaps = np.abs(expected[:, None] - expected) / np.maximum(size[:, None], size)
                if (gaps + np.eye(len(xs)) < 1e-3).any():
                    skipped += 1
                    continue
                nearest = [int(np.abs(expected - x).argmin()) for x in xs]
                assert sorted(nearest) == list(range(len(xs))), (k, traced, xs, expected)
                assert (np.abs(xs - expected[nearest]) <= 1e-12 * size[nearest]).all(), (
                    k, traced, xs, expected)
                checked += 1
        assert (skipped, checked) == (149, 210)


def star_states():
    """Random states, a state whose A4 = 0 branch has zero tangle (i40 = 0:
    a degree drop, one star at infinity) and one whose A4 = 1 branch has
    (i04 = 0: a star at x = 0)."""
    states = [random_state(900 + k) for k in range(20)]
    rng = np.random.default_rng(31)
    generic = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    for pair in ((W3.amps, generic), (generic, W3.amps)):
        states.append(normalize(PureState4(np.stack(pair, axis=1).reshape(16))))
    return states


class TestStars:
    def test_each_star_has_a_zero_tangle_member(self):
        # the A4 branches phi0, phi1: x phi0 + phi1 at a finite star, phi0 at
        # a star at infinity, has zero three-tangle
        drops = zeros = 0
        for state in star_states():
            inv = invariant_set(state, "A4")
            stars = inv.stars()
            phi0, phi1 = state.amps.reshape(8, 2).T
            members = [x * phi0 + phi1 for x in stars.xs] + [phi0] * (4 - len(stars.xs))
            for member in members:
                assert three_tangle_pure(normalize(PureState3(member))) <= 1e-12, stars
            drops += len(stars.xs) < 4
            zeros += 0j in stars.xs
        assert drops == 1 and zeros == 1

    def test_points_follow_the_stated_convention(self):
        # (x, 1)(x, 1)^dagger / (1 + |x|^2) = (I + n.sigma) / 2, and (1, 0)
        # for a star at infinity
        sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        for state in star_states():
            stars = invariant_set(state, "A4").stars()
            assert stars.points.shape == (4, 3)
            vectors = [np.array([x, 1.0]) for x in stars.xs]
            vectors += [np.array([1.0, 0.0])] * (4 - len(stars.xs))
            for u, n in zip(vectors, stars.points):
                projector = np.outer(u, u.conj()) / np.vdot(u, u).real
                expected = (np.eye(2) + np.tensordot(n, sigma, axes=1)) / 2.0
                np.testing.assert_allclose(projector, expected, rtol=0, atol=1e-15)
                assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)

    def test_one_solve_per_set_and_the_same_object(self, monkeypatch):
        calls = []
        solve = invariants.roots

        def counting(c):
            calls.append(c)
            return solve(c)

        monkeypatch.setattr(invariants, "roots", counting)
        inv = invariant_set(random_state(950), "A4")
        stars = inv.stars()
        bounds.bound_quartic_A4(inv)
        bounds.bound_unitary_3q(inv, 0.3, 0.7)
        bounds.bound_grid(inv)
        assert inv.stars() is stars and stars.points is stars.points
        assert len(calls) == 1
        # the cache is no field: equality and repr are the set's five entries
        assert inv == invariant_set(random_state(950), "A4")
        assert "stars" not in repr(inv)

    def test_a_set_with_no_content_has_no_stars(self):
        with pytest.raises(errors.ZeroPolynomial):
            dataclasses.replace(invariant_set(random_state(951), "A4"),
                                i40=0j, i31=0j, i22=0j, i13=0j, i04=0j).stars()
