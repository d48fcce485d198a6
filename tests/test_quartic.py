"""Root finder contracts: residuals, degree handling, reconstruction."""

import numpy as np
import pytest

from tanglebound import quartic
from tanglebound.invariants import _endpoint_coefficients
from tanglebound.errors import BadArity, DidNotConverge, ZeroPolynomial
from tanglebound.invariants import invariant_set
from tanglebound.qstate import random_state
from tanglebound.quartic import RESIDUAL_TOL, SCALE_TOL, reconstruct_monic, roots


class TestRoots:
    def test_fourth_roots_of_unity(self):
        found = roots((-1.0, 0, 0, 0, 1.0))
        expect = sorted([1, -1, 1j, -1j], key=lambda z: (z.real, z.imag))
        for w, e in zip(found, expect):
            assert abs(w - e) < 1e-10

    def test_sparse_biquadratic_structure(self):
        # c0 + c2 w^2: two plus/minus pairs with w^2 = -c0/c2
        c0, c2 = 0.4 - 0.9j, 1.1 + 0.3j
        found = roots((c0, 0, c2, 0, 0))
        assert len(found) == 2
        for w in found:
            assert abs(w ** 2 + c0 / c2) < 1e-12
        assert abs(found[0] + found[1]) < 1e-12

    def test_residual_contract_random(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            scale = np.max(np.abs(c))
            for w in roots(c):
                assert abs(np.polynomial.polynomial.polyval(w, c)) <= 1e-9 * scale * max(1.0, abs(w)) ** 4

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            roots((0, 0, 0, 0, 0))

    @pytest.mark.parametrize("c", [(1.0, 2.0, 3.0, 4.0), (1.0,) * 6, 1.0])
    def test_five_coefficients_required(self, c):
        with pytest.raises(BadArity):
            roots(c)

    def test_constant_has_no_roots(self):
        assert roots((3.0 + 1j, 0, 0, 0, 0)) == []

    def test_roots_at_zero_alone_are_complex(self):
        # c04 = (0, 0, 0, 0, i40) on class IV sets: every root is an exact 0
        found = quartic._companion_roots(np.array((0, 0, 0, 0, 0.5 - 0.2j)))
        assert found.dtype == np.complex128
        assert found.tolist() == [0j] * 4
        assert [type(w) for w in roots((0, 0, 0, 0, 0.5 - 0.2j))] == [complex] * 4

    def test_degree_degradation_drops_tiny_leading(self):
        found = roots((-1.0, 1.0, 0, 0, 1e-15))
        assert len(found) == 1
        assert abs(found[0] - 1.0) < 1e-12

    def test_root_count_matches_effective_degree(self):
        rng = np.random.default_rng(78)
        for degree in (1, 2, 3, 4):
            c = np.zeros(5, dtype=complex)
            c[: degree + 1] = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            assert len(roots(c)) == degree

    def test_multiple_root_returned_with_multiplicity(self):
        # (w - 1)^4
        found = roots((1.0, -4.0, 6.0, -4.0, 1.0))
        assert len(found) == 4
        for w in found:
            assert abs(w - 1.0) < 2e-3  # quadruple root: accuracy ~ eps^{1/4}

    def test_monic_reconstruction(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            found = roots(c)
            monic = reconstruct_monic(found)
            ref = c / c[4]
            np.testing.assert_allclose(monic, ref, atol=1e-8 * max(1.0, np.max(np.abs(ref))))

    def test_deterministic_ordering(self):
        c = (0.3 - 1j, 0.7, -0.2j, 1.1, 0.9 + 0.4j)
        assert roots(c) == roots(c)


def reference_roots(coeffs) -> list[complex]:
    """The implementation roots replaced: np.roots, then a Newton polish in
    numpy scalar arithmetic (Horner's rule on the complex128 coefficients)."""
    c = np.array(coeffs, dtype=complex)

    def p(w):
        return c[0] + w * (c[1] + w * (c[2] + w * (c[3] + w * c[4])))

    scale = float(np.max(np.abs(c)))
    deg = 4
    while deg > 0 and abs(c[deg]) < SCALE_TOL * scale:
        deg -= 1
    if deg == 0:
        return []
    found = np.roots(c[: deg + 1][::-1])
    dc = c[1:] * np.arange(1, 5)
    out = []
    for w in found:
        r = abs(p(w))
        for _ in range(3):
            d = dc[0] + w * (dc[1] + w * (dc[2] + w * dc[3]))
            if d == 0:
                break
            w2 = w - p(w) / d
            r2 = abs(p(w2))
            if r2 < r:
                w, r = w2, r2
            else:
                break
        if r > RESIDUAL_TOL * scale * max(1.0, abs(w)) ** 4:
            raise DidNotConverge(f"residual {r:.3e} at root {w!r}")
        out.append(complex(w))
    out.sort(key=lambda z: (z.real, z.imag))
    return out


#: coefficients fixed in each drawn case: a degree drop (c4 below
#: SCALE_TOL * max|c_i|), one root exactly at 0, a double root at 0, every
#: root at 0
FIXED_COEFFICIENTS = {
    "random": {},
    "degree_drop": {4: 1e-15},
    "c0_zero": {0: 0.0},
    "c0_c1_zero": {0: 0.0, 1: 0.0},
    "c0_to_c3_zero": {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0},
}


def reference_cases(kind: str) -> list:
    if kind == "fourfold":                # (w - 1)^4
        return [(1.0, -4.0, 6.0, -4.0, 1.0)]
    if kind == "invariant_sets":          # both endpoint quartics of 60 sets
        return [
            c for k in range(20) for traced in ("A4", "A3", "A2")
            for c in _endpoint_coefficients(invariant_set(random_state(900 + k), traced))
        ]
    rng = np.random.default_rng(80)
    cases = []
    for _ in range(100):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        for k, value in FIXED_COEFFICIENTS[kind].items():
            c[k] = value
        cases.append(c)
    return cases


class TestRootsMatchReference:
    """roots against the np.roots + numpy-scalar polish it replaced, bit for bit."""

    @pytest.mark.parametrize(
        "kind",
        ["random", "degree_drop", "c0_zero", "c0_c1_zero", "c0_to_c3_zero", "fourfold",
         "invariant_sets"],
    )
    def test_same_roots(self, kind):
        for poly in reference_cases(kind):
            new, old = roots(poly), reference_roots(poly)
            assert new == old, poly
            # == does not see the sign of a zero part; the repr does
            assert repr(new) == repr(old), poly
