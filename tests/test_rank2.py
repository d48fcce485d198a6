"""GHZ/W closed forms, optimal decompositions, and the general rank-2 scan."""

import math

import numpy as np
import pytest

from tanglebound import errors
from tanglebound.bounds import bound_cap
from tanglebound.invariants import (
    correlation_summary,
    invariant_set_A4,
    three_tangle_pure,
)
from tanglebound.qstate import MixedState3, purify_rank2
from tanglebound.rank2 import (
    GhzWMixture,
    decompose_rank2,
    ghz_state,
    ghzw_bound,
    ghzw_decomposition,
    ghzw_invariants,
    ghzw_purification,
    ghzw_rho,
    ghzw_threshold,
    ghzw_x0,
    w_state,
)


class TestGhzWMixture:
    def test_valid_range(self):
        m = GhzWMixture(0.4, 1.3)
        assert m.p == 0.4 and m.theta == 1.3

    def test_out_of_range(self):
        with pytest.raises(errors.OutOfRange):
            GhzWMixture(1.2)


class TestGhzwInvariants:
    def test_pure_ghz_endpoint(self):
        assert ghzw_invariants(1.0) == (pytest.approx(0.25), pytest.approx(0.0))

    def test_pure_w_endpoint(self):
        assert ghzw_invariants(0.0) == (pytest.approx(0.0), pytest.approx(0.0))

    def test_pipeline_cross_check_direct_purification(self):
        for p in (0.5, 0.7):
            i40, i13 = ghzw_invariants(p)
            inv = invariant_set_A4(ghzw_purification(p, 0.0))
            assert abs(inv.i40 - i40) < 1e-10
            assert abs(inv.i13 - i13) < 1e-10
            assert abs(inv.i31) < 1e-12 and abs(inv.i22) < 1e-12 and abs(inv.i04) < 1e-12

    def test_pipeline_cross_check_eigen_purification(self):
        # away from the degenerate point the eigenbranches are forced, so the
        # spectral purification reproduces the closed-form invariant moduli
        p = 0.7
        i40, i13 = ghzw_invariants(p)
        inv = invariant_set_A4(purify_rank2(ghzw_rho(p), 0.0))
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


class TestDecomposeRank2:
    def test_pure_ghz(self):
        g = ghz_state().amps
        rho = MixedState3(np.outer(g, g.conj()))
        witness, deco = decompose_rank2(rho)
        assert witness.value == pytest.approx(1.0, abs=1e-9)
        assert len(deco.members) == 1
        assert deco.members[0][0] == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs,name", [
        ({"theta_samples": 0}, "theta_samples"),
        ({"grid": 0}, "grid"),
    ])
    def test_empty_scan_rejected(self, kwargs, name):
        # also on the pure-state shortcut, which runs no scan at all
        g = ghz_state().amps
        for rho in (ghzw_rho(0.8), MixedState3(np.outer(g, g.conj()))):
            with pytest.raises(errors.OutOfRange, match=name):
                decompose_rank2(rho, **kwargs)

    def test_half_mixture_certified_zero(self):
        witness, deco = decompose_rank2(ghzw_rho(0.5))
        assert witness.value < 1e-6
        np.testing.assert_allclose(deco.reconstructed.rho, ghzw_rho(0.5).rho, atol=1e-8)
        for _, member in deco.members:
            assert three_tangle_pure(member) < 1e-9

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
            witness, deco = decompose_rank2(rho, theta_samples=8, grid=64)
            cap = bound_cap(correlation_summary(purify_rank2(rho, 0.0), "A1A2A3")).value
            assert 0.0 <= witness.value <= cap + 1e-8
            np.testing.assert_allclose(deco.reconstructed.rho, rho.rho, atol=1e-8)

    def test_theta_periodicity_of_ghzw_scan(self):
        # the scan objective is periodic in the purification phase with period 2*pi/3
        from tanglebound.bounds import bound_quartic_A4
        for theta in (0.2, 1.1):
            a = bound_quartic_A4(invariant_set_A4(ghzw_purification(0.8, theta))).value
            b = bound_quartic_A4(
                invariant_set_A4(ghzw_purification(0.8, theta + 2 * math.pi / 3))
            ).value
            assert a == pytest.approx(b, abs=1e-9)

    def test_rank_too_high(self):
        with pytest.raises(errors.RankTooHigh):
            decompose_rank2(MixedState3(np.eye(8) / 8.0))

    def test_w_plus_orthogonal_product_mixture(self):
        # W mixed with |111>: both zero-tangle, so the scan certifies zero
        w = w_state().amps
        e = np.zeros(8, dtype=complex)
        e[7] = 1.0
        rho = MixedState3(0.6 * np.outer(w, w.conj()) + 0.4 * np.outer(e, e.conj()))
        witness, deco = decompose_rank2(rho, theta_samples=8, grid=64)
        assert witness.value < 1e-9
        np.testing.assert_allclose(deco.reconstructed.rho, rho.rho, atol=1e-8)

    def test_all_zero_invariant_set_gives_the_root_mixture(self):
        # |000> and |001> differ on one qubit only: every purification phase
        # has an all-zero invariant set and no rotation witness
        rho = MixedState3(np.diag([0.6, 0.4, 0, 0, 0, 0, 0, 0]).astype(complex))
        witness, deco = decompose_rank2(rho, theta_samples=4, grid=16)
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
            witness, deco = decompose_rank2(rho, theta_samples=6, grid=48)
            assert witness.value < 1e-8
            np.testing.assert_allclose(deco.reconstructed.rho, rho.rho, atol=1e-8)
            for _, member in deco.members:
                assert three_tangle_pure(member) < 1e-8
