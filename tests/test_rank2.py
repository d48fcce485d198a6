"""GHZ/W closed forms, optimal decompositions, and the general rank-2 workflow."""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from tanglebound import bounds, classes, errors, invariants, qstate, quartic, rank2
from tanglebound.bounds import bound_cap, bound_quartic_A4, bound_unitary_3q
from tanglebound.invariants import correlation_summary, invariant_set, three_tangle_pure
from tanglebound.qstate import (
    MixedState3,
    PureState4,
    normalize,
    partial_trace_last,
    permute_qubits,
    purify_rank2,
    random_state,
    rank2_basis,
)
from tanglebound.rank2 import (
    WEIGHT_DROP,
    decompose_rank2,
    ghz_state,
    ghzw_bound,
    ghzw_decomposition,
    ghzw_invariants,
    ghzw_rho,
    ghzw_threshold,
    ghzw_x0,
    w_state,
)


class TestGhzwInvariants:
    def test_pure_ghz_endpoint(self):
        assert ghzw_invariants(1.0) == (pytest.approx(0.25), pytest.approx(0.0))

    def test_pure_w_endpoint(self):
        assert ghzw_invariants(0.0) == (pytest.approx(0.0), pytest.approx(0.0))

    def test_pipeline_cross_check_direct_purification(self):
        for p in (0.5, 0.7):
            i40, i13 = ghzw_invariants(p)
            # sqrt(p)|GHZ>|0> + sqrt(1-p)|W>|1>
            amps = np.stack([math.sqrt(p) * ghz_state().amps, math.sqrt(1.0 - p) * w_state().amps], 1)
            inv = invariant_set(qstate.PureState4(amps.reshape(16)), "A4")
            assert abs(inv.i40 - i40) < 1e-10
            assert abs(inv.i13 - i13) < 1e-10
            assert abs(inv.i31) < 1e-12 and abs(inv.i22) < 1e-12 and abs(inv.i04) < 1e-12

    def test_pipeline_cross_check_eigen_purification(self):
        # away from the degenerate point the eigenbranches are forced, so the
        # spectral purification reproduces the closed-form invariant moduli
        p = 0.7
        i40, i13 = ghzw_invariants(p)
        inv = invariant_set(purify_rank2(ghzw_rho(p), 0.0), "A4")
        assert abs(inv.i40 - i40) < 1e-10
        assert abs(abs(inv.i13) - i13) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(errors.OutOfRange):
            ghzw_invariants(1.5)


class TestX0AndThreshold:
    def test_x0_at_zero(self):
        assert ghzw_x0(0.0) == 0.0

    def test_x0_at_half(self):
        assert ghzw_x0(0.5) == pytest.approx(math.sqrt(3 * 2 ** (5 / 3) / 16), rel=1e-12)
        assert ghzw_x0(0.5) == pytest.approx(0.77155, abs=1e-5)

    def test_x0_is_one_at_threshold(self):
        assert ghzw_x0(ghzw_threshold()) == pytest.approx(1.0, abs=1e-12)

    def test_threshold_value(self):
        assert ghzw_threshold() == pytest.approx(0.626851, abs=1e-5)

    def test_threshold_bracket(self):
        pstar = ghzw_threshold()
        assert ghzw_x0(pstar - 1e-6) < 1.0 < ghzw_x0(pstar + 1e-6)

    def test_threshold_against_bisection(self):
        lo, hi = 0.0, 1.0 - 1e-12
        for _ in range(200):
            mid = (lo + hi) / 2
            if ghzw_x0(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        assert ghzw_threshold() == pytest.approx((lo + hi) / 2, abs=1e-12)

    def test_x0_diverges_at_one(self):
        with pytest.raises(errors.OutOfRange):
            ghzw_x0(1.0)


class TestGhzwBound:
    def test_below_threshold_zero(self):
        assert ghzw_bound(0.5) == 0.0
        assert ghzw_bound(0.3) == 0.0

    def test_at_point_eight(self):
        expect = abs(0.8 ** 2 / 4 - 4 * math.sqrt(0.8 * 0.2 ** 3) / (3 * math.sqrt(6)))
        assert ghzw_bound(0.8) == pytest.approx(expect, rel=1e-12)
        assert ghzw_bound(0.8) == pytest.approx(0.11645, abs=1e-5)

    def test_at_one_gives_tabulated_formula_value(self):
        # the tabulated formula value; the pure GHZ tangle itself is 1
        assert ghzw_bound(1.0) == pytest.approx(0.25, rel=1e-12)

    def test_small_near_threshold_from_above(self):
        pstar = ghzw_threshold()
        values = [ghzw_bound(p) for p in (pstar + 0.001, pstar + 0.01, pstar + 0.05)]
        assert abs(values[0]) < 0.02
        assert values[0] < values[1] < values[2]


class TestGhzwDecomposition:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5])
    def test_below_threshold(self, p):
        deco = ghzw_decomposition(p, "below")
        np.testing.assert_allclose(deco.reconstructed.rho, ghzw_rho(p).rho, atol=1e-8)
        assert sum(w for w, _ in deco.members) == pytest.approx(1.0, abs=1e-10)
        for _, member in deco.members:
            assert three_tangle_pure(member) < 1e-9

    def test_above_threshold_member_tangles(self):
        p = 0.8
        deco = ghzw_decomposition(p, "above")
        np.testing.assert_allclose(deco.reconstructed.rho, ghzw_rho(p).rho, atol=1e-8)
        tangles = [three_tangle_pure(member) for _, member in deco.members]
        # all three members share one tangle: four times the tabulated formula value
        for t in tangles:
            assert t == pytest.approx(4 * ghzw_bound(p), abs=1e-9)

    def test_branch_mismatch(self):
        with pytest.raises(errors.BranchMismatch):
            ghzw_decomposition(0.8, "below")
        with pytest.raises(errors.BranchMismatch):
            ghzw_decomposition(0.5, "above")

    def test_above_threshold_x_equals_one_is_optimal(self):
        # scan |x| in [0, 1]: the branch tangle is minimal at the boundary
        p = 0.8
        i40, i13 = ghzw_invariants(p)
        xs = np.linspace(0.0, 1.0, 201)
        values = [
            4 * abs(i40 - 4 * x ** 3 * i13) / (p + (1 - p) * x ** 2) ** 2 for x in xs
        ]
        assert np.argmin(values) == len(xs) - 1

    def test_weight_at_the_threshold_edge_stays_in_range(self):
        # the member weight p (1 + (3/8) 2^(2/3)) is p / pstar, so the largest
        # p the below branch takes gives at most 1 + 1.6e-12, which is clamped
        deco = ghzw_decomposition(ghzw_threshold() + 1e-12, "below")
        assert [w for w, _ in deco.members] == [pytest.approx(1.0 / 3.0, abs=1e-12)] * 3


def _invariant_set():
    return invariant_set(random_state(5), "A4")


#: (call, error, message fragment): one entry per input check of the module
_BAD_INPUTS = {
    "weights_not_summing_to_one": (lambda: rank2.make_decomposition([(0.5, ghz_state())]),
                                   errors.BranchMismatch, "sum"),
    "nan_weight": (lambda: rank2.make_decomposition([(math.nan, w_state()), (1.0, ghz_state())]),
                   errors.NonFinite, "weight"),
    "inf_weight": (lambda: rank2.make_decomposition([(math.inf, w_state()), (1.0, ghz_state())]),
                   errors.NonFinite, "weight"),
    "ghzw_bound_p_below_0": (lambda: ghzw_bound(-0.1), errors.OutOfRange, r"\[0, 1\]"),
    "ghzw_bound_p_above_1": (lambda: ghzw_bound(1.5), errors.OutOfRange, r"\[0, 1\]"),
    "decomposition_p_below_0": (lambda: ghzw_decomposition(-0.1, "below"),
                                errors.OutOfRange, r"\[0, 1\]"),
    "decomposition_p_above_1": (lambda: ghzw_decomposition(1.5, "above"),
                                errors.OutOfRange, r"\[0, 1\]"),
    "unknown_branch": (lambda: ghzw_decomposition(0.5, "middle"), errors.BranchMismatch, "branch"),
    "unitary_3q_nan_p0": (lambda: bound_unitary_3q(_invariant_set(), math.nan, 0.5),
                          errors.NonFinite, "probabilities"),
    "unitary_3q_nan_p1": (lambda: bound_unitary_3q(_invariant_set(), 0.5, math.nan),
                          errors.NonFinite, "probabilities"),
    "unitary_3q_inf_p0": (lambda: bound_unitary_3q(_invariant_set(), math.inf, 0.5),
                          errors.NonFinite, "probabilities"),
}


@pytest.mark.parametrize("call,error,fragment", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_raises_its_error(call, error, fragment):
    with pytest.raises(error, match=fragment) as info:
        call()
    assert isinstance(info.value, errors.TangleboundError)


class TestDecomposeRank2:
    def test_pure_ghz(self):
        g = ghz_state().amps
        rho = MixedState3(np.outer(g, g.conj()))
        witness, deco = decompose_rank2(rho)
        assert witness.value == pytest.approx(1.0, abs=1e-9)
        assert len(deco.members) == 1
        assert deco.members[0][0] == pytest.approx(1.0)

    def test_half_mixture_certified_zero(self):
        witness, deco = decompose_rank2(ghzw_rho(0.5))
        assert witness.value < 1e-6
        np.testing.assert_allclose(deco.reconstructed.rho, ghzw_rho(0.5).rho, atol=1e-8)
        for _, member in deco.members:
            assert three_tangle_pure(member) < 1e-9

    def test_rounding_level_root_mixture_skips_the_bounds(self, monkeypatch):
        # below the GHZ/W threshold the root mixture realizes ~1e-16 and is
        # returned before the bounds run; above it the quartic candidates are
        # built once, from the stars the mixture test read
        solved = []

        def counting(inv, **kw):
            solved.append(inv)
            return quartic_root_candidates(inv, **kw)

        quartic_root_candidates = bounds.quartic_root_candidates
        monkeypatch.setattr(bounds, "quartic_root_candidates", counting)
        for p in (0.3, 0.5):
            witness, _ = decompose_rank2(ghzw_rho(p))
            assert witness.method == "root_mixture"
            assert 0.0 <= witness.value <= 1e-14
        assert solved == []
        decompose_rank2(ghzw_rho(0.8))
        assert len(solved) == 1

    def test_one_endpoint_quartic_per_bound(self, monkeypatch):
        # one star solve, the invariant set's, serves the root-mixture test,
        # quartic_A4 and unitary_3q
        calls = []
        solve = quartic.roots

        def counting(c):
            calls.append(c)
            return solve(c)

        monkeypatch.setattr(invariants, "roots", counting)
        rhos = [ghzw_rho(0.8), partial_trace_last(random_state(123))[0]]
        for rho in rhos:
            calls.clear()
            witness, _ = decompose_rank2(rho)
            assert witness.method != "root_mixture"
            assert len(calls) == 1

    def test_branch_pair_stars_are_the_set_stars_rescaled(self):
        # the branch pair's f40 numerator, the set's I04 numerator reversed
        # and scaled, has the roots t_j = sqrt(p1/p0) / x_j
        for k in range(40):
            p0, p1, v0, v1 = rank2_basis(partial_trace_last(random_state(123 + k))[0])
            inv = invariant_set(qstate._purification(p0, p1, v0, v1, 0.0), "A4")
            xs = inv.stars().xs
            m = np.arange(5)
            pair = inv.as_array() / (p0 ** ((4 - m) / 2) * p1 ** (m / 2))
            ts = quartic.roots(pair * np.array([1.0, 4.0, 6.0, 4.0, 1.0]))
            assert len(ts) == len(xs) == 4
            for t in ts:
                near = min(abs(t - math.sqrt(p1 / p0) / x) for x in xs)
                assert near <= 1e-13 * abs(t), (k, t, xs)

    def test_one_invariant_set_per_call(self, monkeypatch):
        # the theta = 0 purification's set serves the root-mixture test and
        # both bounds, whether or not the mixture is returned early
        calls = []
        build = rank2.invariant_set

        def counting(state, traced):
            calls.append(state)
            return build(state, traced)

        monkeypatch.setattr(rank2, "invariant_set", counting)
        rhos = [ghzw_rho(0.3), ghzw_rho(0.8), partial_trace_last(random_state(123))[0]]
        for rho in rhos:
            calls.clear()
            decompose_rank2(rho)
            assert len(calls) == 1

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        # the theta = 0 purification is built from the eigenbasis that
        # decompose_rank2 already holds, not from a second rank2_basis
        calls = []

        def counting(rho):
            calls.append(rho)
            return rank2_basis(rho)

        monkeypatch.setattr(rank2, "rank2_basis", counting)
        monkeypatch.setattr(qstate, "rank2_basis", counting)
        rhos = [ghzw_rho(0.3), ghzw_rho(0.8), partial_trace_last(random_state(123))[0]]
        for rho in rhos:
            calls.clear()
            decompose_rank2(rho)
            assert len(calls) == 1

    def test_point_eight_bounded_by_tabulated_value(self):
        witness, deco = decompose_rank2(ghzw_rho(0.8))
        assert witness.value <= ghzw_bound(0.8) + 1e-6
        np.testing.assert_allclose(deco.reconstructed.rho, ghzw_rho(0.8).rho, atol=1e-8)

    def test_bound_below_purification_cap(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            v0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v0 /= np.linalg.norm(v0)
            v1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v1 -= np.vdot(v0, v1) * v0
            v1 /= np.linalg.norm(v1)
            lam = rng.uniform(0.1, 0.9)
            rho = MixedState3(lam * np.outer(v0, v0.conj()) + (1 - lam) * np.outer(v1, v1.conj()))
            witness, deco = decompose_rank2(rho)
            cap = bound_cap(correlation_summary(purify_rank2(rho, 0.0), "A1A2A3")).value
            assert 0.0 <= witness.value <= cap + 1e-8
            np.testing.assert_allclose(deco.reconstructed.rho, rho.rho, atol=1e-8)

    @pytest.mark.parametrize(
        "seed", [*range(900, 910), None], ids=lambda s: "ghzw_0.8" if s is None else f"random_{s}"
    )
    def test_bounds_do_not_depend_on_the_purification_phase(self, seed):
        # theta is a diagonal unitary on the traced qubit: it sends I^{4-m,m}
        # to e^{i m theta} I^{4-m,m} and only reparametrizes x, so one
        # purification gives every phase's bounds
        rho = ghzw_rho(0.8) if seed is None else partial_trace_last(random_state(seed))[0]
        p0, p1, _, _ = rank2_basis(rho)
        values = []
        for k in range(24):
            inv = invariant_set(purify_rank2(rho, 2.0 * math.pi * k / 24), "A4")
            values.append((bound_quartic_A4(inv).value, bound_unitary_3q(inv, p0, p1).value))
        for quartic, unitary in values[1:]:
            assert quartic == pytest.approx(values[0][0], rel=1e-12, abs=0.0)
            assert unitary == pytest.approx(values[0][1], rel=1e-12, abs=0.0)

    def test_rank_too_high(self):
        with pytest.raises(errors.RankTooHigh):
            decompose_rank2(MixedState3(np.eye(8) / 8.0))

    def test_w_plus_orthogonal_product_mixture(self):
        # W mixed with |111>: both zero-tangle, so decompose_rank2 certifies zero
        w = w_state().amps
        e = np.zeros(8, dtype=complex)
        e[7] = 1.0
        rho = MixedState3(0.6 * np.outer(w, w.conj()) + 0.4 * np.outer(e, e.conj()))
        witness, deco = decompose_rank2(rho)
        assert witness.value < 1e-9
        np.testing.assert_allclose(deco.reconstructed.rho, rho.rho, atol=1e-8)

    def test_all_zero_invariant_set_gives_the_root_mixture(self):
        # |000> and |001> differ on one qubit only: every purification phase
        # has an all-zero invariant set and no rotation witness
        rho = MixedState3(np.diag([0.6, 0.4, 0, 0, 0, 0, 0, 0]).astype(complex))
        witness, deco = decompose_rank2(rho)
        assert witness.method == "root_mixture"
        assert witness.value == 0.0
        np.testing.assert_allclose(deco.reconstructed.rho, rho.rho, atol=1e-8)

    def test_nonorthogonal_product_mixture_certified_zero(self):
        # both members are product states (tangle 0) but not orthogonal; the
        # root states of the quartic form still contain them, so the mixture
        # is certified as zero-tangle with an explicit decomposition
        rng = np.random.default_rng(77)
        for _ in range(8):
            singles = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
            products = []
            for pair in singles:
                vec = np.kron(np.kron(pair[0], pair[1]), pair[2])
                products.append(vec / np.linalg.norm(vec))
            lam = rng.uniform(0.2, 0.8)
            rho = MixedState3(
                lam * np.outer(products[0], products[0].conj())
                + (1 - lam) * np.outer(products[1], products[1].conj())
            )
            witness, deco = decompose_rank2(rho)
            assert witness.value < 1e-8
            np.testing.assert_allclose(deco.reconstructed.rho, rho.rho, atol=1e-8)
            for _, member in deco.members:
                assert three_tangle_pure(member) < 1e-8


def reference_mixture_weights(cols, target, solve):
    """The subset enumeration the single solve replaced, as an oracle.

    Tries every nonempty subset of the columns of the hull system (a column
    (1, n_j) per star, the target (2, 0, 0, 0)), smallest first, and returns
    the first feasible subset's coefficients c_j placed in their columns, or
    None. The system's first row carries sum_j c_j = 2, so the residual check
    covers it. ``solve`` is np.linalg.lstsq.
    """
    n = cols.shape[1]
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            sub = cols[:, list(subset)]
            w, *_ = solve(sub, target, rcond=None)
            if np.any(w < -1e-10):
                continue
            w = np.clip(w, 0.0, None)
            if np.max(np.abs(sub @ w - target)) > 1e-10:
                continue
            full = np.zeros(n)
            full[list(subset)] = w
            return full
    return None


def rank_deficient_corpus():
    """Random, real-amplitude and class I reduced states.

    Real amplitudes and class I put the stars on one great circle, so these
    include hull systems without full column rank.
    """
    rhos = [partial_trace_last(random_state(700 + k))[0] for k in range(30)]
    rng = np.random.default_rng(5)
    for _ in range(60):
        state = normalize(PureState4(rng.standard_normal(16).astype(complex)))
        rhos.append(partial_trace_last(state)[0])
    for _ in range(5):
        spec = classes.spec_from_values("I", *(complex(v) for v in rng.uniform(0.2, 2.0, 4)))
        state = classes.representative(spec)
        for perm in ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)):
            rhos.append(partial_trace_last(permute_qubits(state, perm))[0])
    return rhos


class TestZeroTangleMixture:
    def test_one_solve_matches_the_subset_enumeration(self, monkeypatch):
        # one lstsq call per mixture test, on the hull system of the stars'
        # points; feasibility agrees with the enumeration everywhere, on full
        # column rank the weights c_j |psi_j|^2 are bit for bit the
        # reference's, and the rank-deficient mixtures, which may pick other
        # members, still reconstruct rho at a zero value
        solved, mixtures = [], []
        solve, mixture = np.linalg.lstsq, rank2._zero_tangle_mixture

        def recording_solve(a, b, rcond=None):
            out = solve(a, b, rcond=rcond)
            solved.append((a, b, out[2]))
            return out

        def counting_mixture(*args):
            mixtures.append(args)
            return mixture(*args)

        monkeypatch.setattr(np.linalg, "lstsq", recording_solve)
        monkeypatch.setattr(rank2, "_zero_tangle_mixture", counting_mixture)
        deficient = 0
        for rho in rank_deficient_corpus():
            solved.clear()
            mixtures.clear()
            witness, deco = decompose_rank2(rho)
            assert len(mixtures) == 1
            assert len(solved) == 1
            hull, target, rank = solved[0]
            reference = reference_mixture_weights(hull, target, solve)
            assert (witness.method == "root_mixture") == (reference is not None)
            if rank < hull.shape[1]:
                deficient += 1
            elif reference is not None:
                # the members come in canonical order, not in column order
                states, _ = rank2._range_states(*mixtures[0])
                norms2 = np.array([np.vdot(psi, psi).real for psi in states])
                assert sorted(w for w, _ in deco.members) == sorted(
                    float(w) for w in reference * norms2 if w > WEIGHT_DROP)
            if reference is not None:
                assert witness.value == rank2._realized_value(deco)
                assert witness.value <= 1e-15
                np.testing.assert_allclose(deco.reconstructed.rho, rho.rho, atol=1e-8)
        # the null-direction step is taken, so that branch stays tested
        assert deficient > 0

    def test_members_keep_their_order_and_phase_under_ulp_moves_of_the_stars(self):
        # every star moved by one ulp in each part, in random directions: the
        # mixture keeps its members, their order and their global phases, up
        # to rounding. The GHZ/W mixtures hold three members of equal weight,
        # and at p = 0.6 a star of rounding size, x ~ -6e-33. Where four stars
        # lie on one circle (real amplitudes, class I) the hull system has no
        # full column rank, and the breakpoint rule must not let rounding pick
        # another mixture either
        rng = np.random.default_rng(25)
        rhos = [ghzw_rho(p) for p in (0.2, 0.3, 0.5, 0.6)] + rank_deficient_corpus()
        checked = deficient = 0
        for rho in rhos:
            p0, p1, v0, v1 = rank2_basis(rho)
            inv = invariant_set(qstate._purification(p0, p1, v0, v1, 0.0), "A4")
            stars = inv.stars()
            phi0, phi1 = math.sqrt(p0) * v0, math.sqrt(p1) * v1
            mixture = rank2._zero_tangle_mixture(stars, phi0, phi1)
            if mixture is None:
                continue
            checked += 1
            states, points = rank2._range_states(stars, phi0, phi1)
            hull = np.vstack((np.ones(len(states)), points.T))
            deficient += np.linalg.matrix_rank(hull, 1e-10) < len(states)
            for _ in range(8):
                ends = rng.choice([-np.inf, np.inf], (len(stars.xs), 2))
                moved = tuple(complex(np.nextafter(x.real, a), np.nextafter(x.imag, b))
                              for x, (a, b) in zip(stars.xs, ends))
                again = rank2._zero_tangle_mixture(dataclasses.replace(stars, xs=moved), phi0, phi1)
                assert len(again.members) == len(mixture.members)
                for (w, a), (w2, b) in zip(mixture.members, again.members):
                    assert w2 == pytest.approx(w, abs=1e-12)
                    np.testing.assert_allclose(b.amps, a.amps, atol=1e-9)
        assert checked >= 40 and deficient >= 25, (checked, deficient)

    def test_ghzw_mixture_exists_up_to_the_threshold(self):
        pstar = ghzw_threshold()
        for p in [*np.linspace(0.0, 1.0, 199)[1:-1], pstar - 1e-4, pstar + 1e-4]:
            witness, _ = decompose_rank2(ghzw_rho(float(p)))
            assert (witness.method == "root_mixture") == (p <= pstar), p

    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_ghzw_root_mixture_realizes_its_value(self, p):
        witness, deco = decompose_rank2(ghzw_rho(p))
        assert witness.method == "root_mixture"
        assert witness.value == rank2._realized_value(deco)
        assert witness.value < 1e-15
        np.testing.assert_allclose(deco.reconstructed.rho, ghzw_rho(p).rho, atol=1e-8)

    def test_class_vi_a2a3a4_criterion(self):
        # A1 traced from class VI leaves rho on the Bloch axis at
        # z = 3/(2|a|^2 + 3); the zero-tangle range states are |111> and
        # psi0 +- (2i/sqrt a)|111>, so a zero-tangle mixture exists exactly
        # when z <= (1 - s^2)/(1 + s^2), s^2 = 4/(|a|(|a|^2 + 3))
        rng = np.random.default_rng(11)
        feasible = 0
        for modulus, phase in zip(rng.uniform(0.2, 2.0, 200), rng.uniform(0.0, 2.0 * math.pi, 200)):
            state = classes.representative(classes.spec_from_values("VI", modulus * np.exp(1j * phase)))
            rho = partial_trace_last(permute_qubits(state, (2, 3, 4, 1)))[0]
            s2 = 4.0 / (modulus * (modulus ** 2 + 3.0))
            expected = 3.0 / (2.0 * modulus ** 2 + 3.0) <= (1.0 - s2) / (1.0 + s2)
            witness, _ = decompose_rank2(rho)
            assert (witness.method == "root_mixture") == expected, modulus
            feasible += expected
        assert 0 < feasible < 200
