"""Root finder contracts: residuals, degree handling, reconstruction."""

import numpy as np
import pytest

from tanglebound import quartic
from tanglebound.invariants import _endpoint_coefficients
from tanglebound.errors import BadArity, DidNotConverge, NonFinite, ZeroPolynomial
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
        found = roots((0, 0, 0, 0, 0.5 - 0.2j))
        assert found == [0j] * 4
        assert [type(w) for w in found] == [complex] * 4

    @pytest.mark.parametrize(
        "c", [(np.nan, 1, 1, 1, 1), (1, 1, np.inf, 1, 1), (1, 1, 1, complex(0.0, -np.inf), 1)]
    )
    def test_non_finite_coefficients_rejected(self, c):
        with pytest.raises(NonFinite):
            roots(c)

    def test_no_eigenvalue_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("roots called np.linalg.eigvals")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for kind in REFERENCE_KINDS:
            for poly in reference_cases(kind)[:5]:
                roots(poly)

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

    def test_residual_contract_failure_raises(self, monkeypatch):
        # starts far out: each guarded Newton step shrinks w by about a
        # quarter, so three leave |p(w)| near |c4| |w|^4, far above the bound
        monkeypatch.setattr(quartic, "_closed_form", lambda c: [1e3 + 1e3j] * (len(c) - 1))
        with pytest.raises(DidNotConverge, match="residual"):
            roots((1.0, -2.0, 0.5, 1j, 1.0))

    def test_deterministic_ordering(self):
        c = (0.3 - 1j, 0.7, -0.2j, 1.1, 0.9 + 0.4j)
        assert roots(c) == roots(c)


def reference_roots(coeffs) -> list[complex]:
    """An independent oracle: np.roots (companion-matrix eigenvalues), then a
    Newton polish in numpy scalar arithmetic (Horner's rule on the complex128
    coefficients), under the same degree trimming and residual contract."""
    c = np.array(coeffs, dtype=complex)

    def p(w):
        return c[0] + w * (c[1] + w * (c[2] + w * (c[3] + w * c[4])))

    scale = _scale(c)
    deg = 4
    while deg > 0 and abs(complex(c[deg])) < SCALE_TOL * scale:
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


def _scale(c) -> float:
    """max|c_i| as roots takes it, in Python's complex modulus."""
    return max(abs(complex(a)) for a in c)


def _at_scale_tol(rng, below: bool):
    """Random coefficients whose c4 sits exactly at SCALE_TOL * max|c_i|, where
    roots keeps degree 4, or one ulp below it, where it drops to degree 3."""
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c[4] = 0.0
    c4 = SCALE_TOL * _scale(c)
    c[4] = np.nextafter(c4, 0.0) if below else c4
    return c


#: coefficients fixed in each drawn case: a degree drop (c4 below
#: SCALE_TOL * max|c_i|), one root exactly at 0, a double root at 0, every
#: root at 0, the biquadratic c1 = c3 = 0 of the class II/IV endpoint forms
FIXED_COEFFICIENTS = {
    "random": {},
    "degree_drop": {4: 1e-15},
    "c0_zero": {0: 0.0},
    "c0_c1_zero": {0: 0.0, 1: 0.0},
    "c0_to_c3_zero": {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0},
    "biquadratic": {1: 0.0, 3: 0.0},
}

REFERENCE_KINDS = [
    *FIXED_COEFFICIENTS, "at_scale_tol", "below_scale_tol", "spread_1e12", "roots_spread_1e16",
    "invariant_sets",
]


def reference_cases(kind: str) -> list:
    if kind == "invariant_sets":          # both endpoint quartics of 60 sets
        return [
            c for k in range(20) for traced in ("A4", "A3", "A2")
            for c in _endpoint_coefficients(invariant_set(random_state(900 + k), traced))
        ]
    rng = np.random.default_rng(80)
    if kind in ("at_scale_tol", "below_scale_tol"):
        return [_at_scale_tol(rng, kind == "below_scale_tol") for _ in range(100)]
    cases = []
    for i in range(100):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        if kind == "spread_1e12":         # moduli 10^-6 ... 10^6
            c *= 10.0 ** rng.uniform(-6.0, 6.0, 5)
        if kind == "roots_spread_1e16":   # 2, 3 or 4 root moduli 10^-8 ... 10^8
            n = 2 + i % 3
            c[: n + 1] = np.poly(c[:n] * 10.0 ** rng.uniform(-8.0, 8.0, n))[::-1]
            c[n + 1:] = 0.0
        for k, value in FIXED_COEFFICIENTS.get(kind, {}).items():
            c[k] = value
        cases.append(c)
    return cases


#: simple roots: each returned root lies within this distance, relative to
#: max(1, |w|), of its own np.roots root. Both solvers end within a few ulps of
#: a root times that root's condition number; on these draws they agree to
#: 5.3e-15 or better (roots spread over 1e16; 1.2e-15 on the invariant sets),
#: and the tolerance leaves two decades for larger condition numbers
SIMPLE_ROOT_TOL = 1e-12


def assert_same_multiset(found, expect, tol):
    """Every root of ``found`` within tol * max(1, |e|) of a distinct root e of
    ``expect``, each taken by the nearest match."""
    assert len(found) == len(expect)
    left = list(expect)
    for w in found:
        e = min(left, key=lambda e: abs(e - w))
        assert abs(w - e) <= tol * max(1.0, abs(e)), (w, e)
        left.remove(e)


def assert_residual_contract(c, found):
    scale = _scale(c)
    for w in found:
        residual = abs(np.polynomial.polynomial.polyval(w, np.asarray(c, dtype=complex)))
        assert residual <= RESIDUAL_TOL * scale * max(1.0, abs(w)) ** 4, (c, w)


class TestRootsMatchReference:
    """roots against the np.roots oracle: the same root multisets to
    SIMPLE_ROOT_TOL. The closed forms and the companion-matrix eigenvalues
    round differently, so the two agree to rounding, not bit for bit."""

    @pytest.mark.parametrize("kind", REFERENCE_KINDS)
    def test_same_roots(self, kind):
        for poly in reference_cases(kind):
            assert_same_multiset(roots(poly), reference_roots(poly), SIMPLE_ROOT_TOL)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_quadratic_roots_far_apart(self, sign):
        # w^2 -+ 1e8 w + 1 has the roots +-1e8 and +-1e-8; taken with the other
        # sign, the discriminant's root would cancel the linear term to 0
        poly = (1.0, -sign * 1e8, 1.0, 0, 0)
        assert_same_multiset(roots(poly), [sign * 1e8, sign * 1e-8], SIMPLE_ROOT_TOL)

    def test_biquadratic_roots_in_pairs(self):
        for poly in reference_cases("biquadratic"):
            found = roots(poly)
            for w in found:
                assert min(abs(w + v) for v in found) <= 1e-12 * max(1.0, abs(w)), poly

    @pytest.mark.parametrize("below", [False, True])
    def test_degree_at_scale_tol(self, below):
        for poly in reference_cases("below_scale_tol" if below else "at_scale_tol"):
            assert len(roots(poly)) == (3 if below else 4)

    @pytest.mark.parametrize(
        "multiset",
        [
            (1.0, 1.0, 1.0, 1.0),                        # fourfold
            (1.0, 1.0, 1.0, -2.0),                       # triple
            (1 + 1j, 1 + 1j, 1 + 1j, -2j),               # triple, off the real line
            (1.0, 1.0, -1.0, -1.0),                      # double-double, biquadratic
            (1 + 1j, 1 + 1j, 2.0, 2.0),                  # double-double
        ],
    )
    def test_multiple_roots(self, multiset):
        # an m-fold root moves by about eps^(1/m) under rounding, so these are
        # checked by residual, by the monic round trip and by that distance
        c = np.poly(multiset)[::-1]  # small Gaussian integers: exact coefficients
        found = roots(c)
        assert_residual_contract(c, found)
        np.testing.assert_allclose(reconstruct_monic(found), c, atol=1e-8)
        for w in found:
            m = multiset.count(min(multiset, key=lambda e: abs(e - w)))
            assert min(abs(w - e) for e in multiset) <= 10.0 * np.finfo(float).eps ** (1.0 / m)
