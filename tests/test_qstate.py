"""State construction, local unitaries, permutation, partial trace, purification."""

import itertools
import math
import warnings

import numpy as np
import pytest

from tanglebound import bounds, errors, fonts, invariants, qstate
from tanglebound.qstate import (
    MixedState3,
    PureState3,
    PureState4,
    Qubit2Unitary,
    apply_local_unitary,
    branch_vectors,
    normalize,
    partial_trace_last,
    permute_qubits,
    purify_rank2,
    random_special_unitary,
    random_state,
    rank2_basis,
    u_of_x,
)


def ket4(bits: str, coeff: complex = 1.0) -> np.ndarray:
    a = np.zeros(16, dtype=complex)
    a[int(bits, 2)] = coeff
    return a


def ghz4() -> PureState4:
    a = ket4("0000") + ket4("1111")
    return PureState4(a / math.sqrt(2.0))


class TestNormalize:
    def test_unit_state_unchanged(self):
        s = normalize(PureState4(ket4("0000")))
        np.testing.assert_allclose(s.amps, ket4("0000"), atol=1e-15)

    def test_uniform_sixteen(self):
        s = normalize(PureState4(np.ones(16)))
        np.testing.assert_allclose(s.amps, np.full(16, 0.25), atol=1e-15)

    def test_class_two_norm(self):
        # a=2, d=1, c=1 gives squared norm |a|^2 + |d|^2 + 2|c|^2 + 1 = 8
        a, d, c = 2.0, 1.0, 1.0
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = amps[0b1111] = (a + d) / 2
        amps[0b0011] = amps[0b1100] = (a - d) / 2
        amps[0b0101] = amps[0b1010] = c
        amps[0b0110] = 1.0
        raw = PureState4(amps)
        assert raw.norm_squared() == pytest.approx(8.0, abs=1e-12)
        assert normalize(raw).norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_zero_state_rejected(self):
        with pytest.raises(errors.ZeroState):
            normalize(PureState4(np.zeros(16)))

    def test_global_phase_untouched(self):
        a = np.exp(0.37j) * ket4("0101", 2.0)
        s = normalize(PureState4(a))
        np.testing.assert_allclose(s.amps[0b0101], np.exp(0.37j), atol=1e-14)


class TestNormOverflow:
    """normalize rejects a finite state whose norm^2 overflows, before
    norm_squared() squares (a RuntimeWarning, then a state of zeros)."""

    @pytest.mark.parametrize("cls,n", [(PureState3, 8), (PureState4, 16)])
    @pytest.mark.parametrize("scale", [1e200, 3e154, 1.7e308])
    def test_overflowing_norm_is_non_finite(self, cls, n, scale):
        a = np.zeros(n, dtype=complex)
        a[n - 1] = complex(scale, -scale)
        with pytest.raises(errors.NonFinite, match="overflows"):
            normalize(cls(a))

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e150, 1.3e154])
    def test_finite_norms_normalize_as_before(self, scale):
        # 1.3e154 puts norm^2 at 1.69e308, just below the largest float
        a = scale * random_state(26).amps
        state = PureState4(a)
        expected = a / math.sqrt(state.norm_squared())
        assert normalize(state).amps.tobytes() == expected.tobytes()


class TestCheckNormalized:
    """norm^2 within NORM_TOL = 1e-9 of 1 passes, further off raises."""

    @pytest.mark.parametrize("cls, n", [(PureState3, 8), (PureState4, 16)])
    @pytest.mark.parametrize("offset, passes", [(5e-10, True), (-5e-10, True),
                                                (2e-9, False), (-2e-9, False)])
    def test_tolerance(self, cls, n, offset, passes):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            state = cls(a * math.sqrt((1.0 + offset) / np.sum(np.abs(a) ** 2)))
            assert state.norm_squared() == pytest.approx(1.0 + offset, abs=1e-15)
            if passes:
                qstate.check_normalized(state)
            else:
                with pytest.raises(errors.NotNormalized, match="norm"):
                    qstate.check_normalized(state)


class TestLocalUnitary:
    def test_identity_leaves_state(self):
        s = random_state(11)
        u = Qubit2Unitary(np.eye(2))
        for q in range(1, 5):
            np.testing.assert_allclose(apply_local_unitary(s, q, u).amps, s.amps, atol=1e-14)

    def test_u_of_zero_is_identity(self):
        s = random_state(12)
        out = apply_local_unitary(s, 4, u_of_x(0.0))
        np.testing.assert_allclose(out.amps, s.amps, atol=1e-14)

    def test_bitflip_on_fourth_qubit_of_ghz(self):
        flip = Qubit2Unitary(np.array([[0, 1], [1, 0]], dtype=complex))
        out = apply_local_unitary(ghz4(), 4, flip)
        expect = (ket4("0001") + ket4("1110")) / math.sqrt(2.0)
        np.testing.assert_allclose(out.amps, expect, atol=1e-14)

    def test_norm_preserved_on_random_states(self):
        for seed in range(1000):
            s = random_state(seed)
            u = random_special_unitary(seed + 5000)
            out = apply_local_unitary(s, 1 + seed % 4, u)
            assert abs(out.norm_squared() - 1.0) < 1e-12

    def test_bad_qubit_index(self):
        with pytest.raises(errors.BadQubitIndex):
            apply_local_unitary(random_state(0), 5, Qubit2Unitary(np.eye(2)))

    def test_not_unitary_rejected(self):
        with pytest.raises(errors.NotUnitary):
            apply_local_unitary(random_state(0), 1, np.array([[1, 1], [0, 1]], dtype=complex))


class TestUOfX:
    def test_x_zero(self):
        np.testing.assert_allclose(u_of_x(0).u, np.eye(2), atol=1e-15)

    def test_x_one(self):
        expect = np.array([[1, -1], [1, 1]]) / math.sqrt(2.0)
        np.testing.assert_allclose(u_of_x(1).u, expect, atol=1e-14)

    def test_x_i(self):
        # -conj(i) = i sits in the upper right corner
        expect = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2.0)
        np.testing.assert_allclose(u_of_x(1j).u, expect, atol=1e-14)

    def test_unitary_for_random_x(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.uniform(-10, 10) + 1j * rng.uniform(-10, 10)
            u = u_of_x(x).u
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(errors.NonFinite):
            u_of_x(complex("inf"))

    @pytest.mark.parametrize("x", [1.35e154, -2e200j, 1e300 * (0.6 - 0.8j), complex(1.7e308, -1.7e308)])
    def test_large_x_is_the_limit_unitary(self, x):
        # 1 + |x|^2 overflows from |x| = 1.3e154: the diagonal is 1/|x| and
        # the off-diagonal the unit phases -conj(x)/|x| and x/|x|, to rounding
        u = u_of_x(x).u
        phase = x / abs(complex(0.5 * x)) / 2.0
        np.testing.assert_allclose(u, [[0.0, -phase.conjugate()], [phase, 0.0]], rtol=0, atol=1e-15)
        assert u[0, 0].real == pytest.approx(0.5 / abs(complex(0.5 * x)), rel=1e-15)


class TestPermutation:
    def test_identity(self):
        s = random_state(3)
        np.testing.assert_array_equal(permute_qubits(s, (1, 2, 3, 4)).amps, s.amps)

    def test_swap_3_4_on_basis_ket(self):
        out = permute_qubits(PureState4(ket4("0010")), (1, 2, 4, 3))
        np.testing.assert_array_equal(out.amps, ket4("0001"))

    def test_inverse_round_trip_exact(self):
        s = random_state(4)
        perm = (3, 1, 4, 2)
        inverse = tuple(perm.index(k) + 1 for k in (1, 2, 3, 4))
        out = permute_qubits(permute_qubits(s, perm), inverse)
        np.testing.assert_array_equal(out.amps, s.amps)

    def test_group_action_composition(self):
        # position k of the final layout holds old qubit p1[p2[k]]
        s = random_state(5)
        p1, p2 = (2, 3, 1, 4), (4, 1, 3, 2)
        composed = tuple(p1[p2[k] - 1] for k in range(4))
        lhs = permute_qubits(permute_qubits(s, p1), p2)
        rhs = permute_qubits(s, composed)
        np.testing.assert_array_equal(lhs.amps, rhs.amps)

    def test_bad_permutation(self):
        with pytest.raises(errors.BadPermutation):
            permute_qubits(random_state(0), (1, 1, 3, 4))

    def test_all_permutations_match_the_index_loop(self):
        s = random_state(6)
        t = s.tensor()
        for perm in itertools.permutations((1, 2, 3, 4)):
            expected = np.empty_like(t)
            for idx in np.ndindex(2, 2, 2, 2):
                expected[tuple(idx[p - 1] for p in perm)] = t[idx]
            assert np.array_equal(permute_qubits(s, perm).amps, expected.reshape(-1)), perm

    @pytest.mark.parametrize("traced", ["A4", "A3", "A2"])
    def test_traced_last_index_gathers_the_permuted_state(self, traced):
        index = qstate.TRACED_LAST_INDEX[traced]
        assert not index.flags.writeable
        for seed in range(10):
            s = random_state(60 + seed)
            moved = permute_qubits(s, qstate.TRACE_PERMS[traced])
            assert s.amps[index].tobytes() == moved.amps.tobytes()

    @pytest.mark.parametrize("traced", ["A4", "A3", "A2"])
    def test_branch_index_gathers_the_permuted_branches(self, traced):
        # branch_vectors gathers on BRANCH_INDEX: bit for bit the branches of
        # the state with the traced qubit moved last, and so are the branch
        # probabilities best_bound sums from them
        index = qstate.BRANCH_INDEX[traced]
        assert index.shape == (2, 8) and not index.flags.writeable
        rng = np.random.default_rng(61)
        states = [random_state(70 + seed) for seed in range(200)]
        states += [normalize(PureState4(rng.standard_normal(16) + 0j)) for _ in range(10)]
        states.append(ghz4())
        for s in states:
            branches = branch_vectors(s, traced)
            assert branches.shape == (2, 8)
            moved = permute_qubits(s, qstate.TRACE_PERMS[traced]).tensor()
            p = (np.abs(branches) ** 2).sum(axis=1).tolist()
            for b in (0, 1):
                phi = moved[:, :, :, b].reshape(8)
                assert branches[b].tobytes() == phi.tobytes()
                assert p[b] == float(np.sum(np.abs(phi) ** 2))

    def test_branch_vectors_default_is_a4(self):
        s = random_state(62)
        assert branch_vectors(s).tobytes() == branch_vectors(s, "A4").tobytes()

    @pytest.mark.parametrize("label", ["A1", "a4", "A5", ""])
    def test_branch_vectors_rejects_other_labels(self, label):
        with pytest.raises(errors.BadQubitLabel, match="A2, A3 or A4"):
            branch_vectors(random_state(63), label)


class TestPartialTrace:
    def test_product_state(self):
        rho, p0, p1 = partial_trace_last(PureState4(ket4("0000")))
        expect = np.zeros((8, 8))
        expect[0, 0] = 1.0
        np.testing.assert_allclose(rho.rho, expect, atol=1e-14)
        assert p0 == pytest.approx(1.0) and p1 == pytest.approx(0.0)

    def test_ghz4(self):
        rho, p0, p1 = partial_trace_last(ghz4())
        expect = np.zeros((8, 8))
        expect[0, 0] = expect[7, 7] = 0.5
        np.testing.assert_allclose(rho.rho, expect, atol=1e-14)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        for seed in range(20):
            _, p0, p1 = partial_trace_last(random_state(seed))
            assert abs(p0 + p1 - 1.0) < 1e-12

    def test_class_three_marginal_has_rank_two(self):
        # trace qubit A3 of a class-III representative: permute it last first
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = amps[0b1111] = 1.3
        amps[0b0101] = amps[0b1010] = 0.4
        amps[0b0011] = amps[0b0110] = 1.0
        s = permute_qubits(normalize(PureState4(amps)), (1, 2, 4, 3))
        rho, _, _ = partial_trace_last(s)
        evals = rho.eigenvalues()
        assert evals[2] < 1e-10

    def test_requires_normalized(self):
        with pytest.raises(errors.NotNormalized):
            partial_trace_last(PureState4(2.0 * ket4("0000")))


class TestPurify:
    def test_pure_input(self):
        rho = MixedState3(np.outer(_ket3("000"), _ket3("000").conj()))
        out = purify_rank2(rho, 0.7)
        probe = np.zeros(16, dtype=complex)
        probe[0] = 1.0
        np.testing.assert_allclose(np.abs(out.amps), np.abs(probe), atol=1e-12)

    def test_spectral_mixture(self):
        v0, v1 = _ket3("000"), _ket3("111")
        rho = MixedState3(0.5 * np.outer(v0, v0.conj()) + 0.5 * np.outer(v1, v1.conj()))
        out = purify_rank2(rho, 0.0)
        back, p0, p1 = partial_trace_last(out)
        np.testing.assert_allclose(back.rho, rho.rho, atol=1e-10)
        assert p0 == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_random_rank2(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            v0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v0 /= np.linalg.norm(v0)
            v1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v1 -= np.vdot(v0, v1) * v0
            v1 /= np.linalg.norm(v1)
            w = rng.uniform(0.05, 0.95)
            rho = MixedState3(w * np.outer(v0, v0.conj()) + (1 - w) * np.outer(v1, v1.conj()))
            theta = rng.uniform(0.0, 2 * np.pi)
            back, _, _ = partial_trace_last(purify_rank2(rho, theta))
            np.testing.assert_allclose(back.rho, rho.rho, atol=1e-10)

    def test_larger_eigenvalue_on_ancilla_zero(self):
        v0, v1 = _ket3("010"), _ket3("101")
        rho = MixedState3(0.8 * np.outer(v0, v0.conj()) + 0.2 * np.outer(v1, v1.conj()))
        out = purify_rank2(rho, 0.0)
        _, p0, p1 = partial_trace_last(out)
        assert p0 == pytest.approx(0.8, abs=1e-12)
        assert p1 == pytest.approx(0.2, abs=1e-12)

    def test_rank_too_high(self):
        rho = np.eye(8, dtype=complex) / 8.0
        with pytest.raises(errors.RankTooHigh):
            purify_rank2(MixedState3(rho), 0.0)

    def test_purification_is_built_on_rank2_basis(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        rho = MixedState3(a @ a.conj().T / np.sum(np.abs(a) ** 2))
        p0, p1, v0, v1 = rank2_basis(rho)
        assert p0 > p1 > 0.0
        assert abs(v0[np.flatnonzero(np.abs(v0) > 1e-12)[0]].imag) < 1e-15
        t = np.stack([math.sqrt(p0) * v0, np.exp(0.4j) * math.sqrt(p1) * v1], axis=1)
        np.testing.assert_allclose(purify_rank2(rho, 0.4).amps, t.reshape(16), atol=1e-14)

    def test_not_density_matrix(self):
        bad = np.eye(8, dtype=complex)
        bad[0, 1] = 0.5  # not Hermitian
        with pytest.raises(errors.NotDensityMatrix):
            MixedState3(bad)


class TestNonFinite:
    @pytest.mark.parametrize("cls,n", [(PureState3, 8), (PureState4, 16)])
    def test_pure_state_rejects_nan_and_inf(self, cls, n):
        for bad in (complex("nan"), complex(0.0, float("inf"))):
            a = np.full(n, 0.25, dtype=complex)
            a[n - 1] = bad
            with pytest.raises(errors.NonFinite, match="non-finite"):
                cls(a)

    def test_density_checked_before_the_eigenvalues(self):
        rho = np.eye(8, dtype=complex) / 8.0
        rho[3, 3] = np.nan              # would pass the Hermitian and trace checks
        with pytest.raises(errors.NonFinite, match="nan"):
            MixedState3(rho)
        rho = np.eye(8, dtype=complex) / 8.0
        rho[1, 2] = rho[2, 1] = np.inf
        with pytest.raises(errors.NonFinite, match="inf"):
            MixedState3(rho)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
    def test_unitary_rejects_nan_and_inf_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.NonFinite, match="non-finite"):
                Qubit2Unitary([[bad, 0.0], [0.0, 1.0]])


_MIXED = np.eye(8, dtype=complex) / 8.0
_PAIRS8 = [[[0.0, 0.0]] * 8] * 8
_STATE3 = PureState3(np.full(8, 8 ** -0.5))

#: (call, error, message fragment): one entry per input check of the module
_BAD_INPUTS = {
    "15_amplitudes": (lambda: PureState4(np.ones(15)), errors.BadStateFormat, "shape"),
    "7x8_density": (lambda: MixedState3(np.zeros((7, 8))), errors.BadStateFormat, "shape"),
    "trace_not_one": (lambda: MixedState3(4.0 * _MIXED), errors.NotDensityMatrix, "trace"),
    "negative_eigenvalue": (lambda: MixedState3(np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0])),
                            errors.NotDensityMatrix, "negative eigenvalue"),
    "3x3_unitary": (lambda: Qubit2Unitary(np.eye(3)), errors.BadStateFormat, "shape"),
    "det_not_one": (lambda: Qubit2Unitary(np.diag([1.0, -1.0]), special=True),
                    errors.NotUnitary, "det"),
    "nan_theta": (lambda: purify_rank2(MixedState3(_MIXED), math.nan), errors.NonFinite, "theta"),
    "inf_theta": (lambda: purify_rank2(MixedState3(_MIXED), math.inf), errors.NonFinite, "theta"),
    "state_json_without_keys": (lambda: qstate.state_from_json({"amps": [[1.0, 0.0]] * 16}),
                                errors.BadStateFormat, "n_qubits"),
    "state_json_five_qubits": (lambda: qstate.state_from_json({"n_qubits": 5, "amps": []}),
                               errors.BadStateFormat, "3 or 4"),
    "state_json_non_pairs": (lambda: qstate.state_from_json({"n_qubits": 4, "amps": [[1.0]] * 16}),
                             errors.BadStateFormat, "pairs"),
    "density_json_without_dim": (lambda: qstate.density_from_json({"rho": _PAIRS8}),
                                 errors.BadStateFormat, "'dim': 8"),
    "density_json_non_pairs": (lambda: qstate.density_from_json({"dim": 8, "rho": [[0.0] * 8] * 8}),
                               errors.BadStateFormat, "pairs"),
    "state_json_boolean_pairs": (
        lambda: qstate.state_from_json({"n_qubits": 4, "amps": [[True, False]] * 16}),
        errors.BadStateFormat, "booleans"),
    "density_json_boolean_pairs": (
        lambda: qstate.density_from_json({"dim": 8, "rho": [[[0.0, False]] * 8] * 8}),
        errors.BadStateFormat, "booleans"),
    "boolean_array": (lambda: PureState4(np.array([True] + [False] * 15)),
                      errors.BadStateFormat, "booleans"),
    "boolean_in_a_list": (lambda: PureState4([True] + [0] * 15), errors.BadStateFormat, "booleans"),
    "boolean_unitary": (lambda: Qubit2Unitary([[True, False], [False, True]]),
                        errors.BadStateFormat, "booleans"),
    "boolean_in_a_nested_density": (lambda: MixedState3([[True] + [0.0] * 7] + [[0.0] * 8] * 7),
                                    errors.BadStateFormat, "booleans"),
    "integer_too_large": (lambda: PureState4([10 ** 400] + [0] * 15), errors.NonFinite,
                          "too large for a float"),
    "state_json_integer_too_large": (
        lambda: qstate.state_from_json({"n_qubits": 4, "amps": [[0, 10 ** 400]] + [[0, 0]] * 15}),
        errors.NonFinite, "too large for a float"),
    # a normalized state of the wrong size, where a bare IndexError or
    # ValueError escaped from the amplitude reads
    "best_bound_on_three_qubits": (lambda: bounds.best_bound(_STATE3, "A1A2A3"),
                                   errors.BadStateFormat, "four-qubit state, got PureState3"),
    "invariant_set_on_three_qubits": (lambda: invariants.invariant_set(_STATE3, "A4"),
                                      errors.BadStateFormat, "four-qubit state"),
    "correlation_summary_on_three_qubits": (
        lambda: invariants.correlation_summary(_STATE3, "A1A2A4"),
        errors.BadStateFormat, "four-qubit state"),
    "compute_fonts4_on_three_qubits": (lambda: fonts.compute_fonts4(_STATE3),
                                       errors.BadStateFormat, "four-qubit state"),
    "branch_vectors_on_three_qubits": (lambda: branch_vectors(_STATE3),
                                       errors.BadStateFormat, "four-qubit state"),
    "partial_trace_on_three_qubits": (lambda: partial_trace_last(_STATE3),
                                      errors.BadStateFormat, "four-qubit state"),
    "permute_three_qubits": (lambda: permute_qubits(_STATE3, (1, 2, 3, 4)),
                             errors.BadStateFormat, "four-qubit state"),
    "three_tangle_of_four_qubits": (lambda: invariants.three_tangle_pure(random_state(1)),
                                    errors.BadStateFormat, "three-qubit state, got PureState4"),
}


@pytest.mark.parametrize("call,error,fragment", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_raises_its_error(call, error, fragment):
    with pytest.raises(error, match=fragment) as info:
        call()
    assert isinstance(info.value, errors.TangleboundError)


def test_bad_traced_label_raises_one_error_from_every_entry():
    state = random_state(3)
    messages = set()
    for call in (fonts.compute_fonts4, branch_vectors, invariants.invariant_set):
        with pytest.raises(errors.BadQubitLabel) as info:
            call(state, "A1")
        messages.add(str(info.value))
    assert messages == {"traced qubit must be A2, A3 or A4, got 'A1'"}


class TestRandomGenerators:
    def test_same_seed_reproduces(self):
        np.testing.assert_array_equal(random_state(99).amps, random_state(99).amps)
        np.testing.assert_array_equal(
            random_special_unitary(99).u, random_special_unitary(99).u
        )

    def test_random_state_normalized(self):
        for seed in range(50):
            assert abs(random_state(seed).norm_squared() - 1.0) < 1e-12

    def test_special_unitary_det_one(self):
        for seed in range(50):
            u = random_special_unitary(seed)
            assert abs(np.linalg.det(u.u) - 1.0) < 1e-12


class TestJson:
    def test_state_round_trip(self):
        s = random_state(17)
        back = qstate.state_from_json(qstate.state_to_json(s))
        np.testing.assert_allclose(back.amps, s.amps, atol=1e-15)

    def test_three_qubit_round_trip(self):
        s = PureState3(np.arange(8) + 1.0j)
        back = qstate.state_from_json(qstate.state_to_json(s))
        np.testing.assert_allclose(back.amps, s.amps, atol=1e-15)

    def test_wrong_length_rejected(self):
        with pytest.raises(errors.BadStateFormat):
            qstate.state_from_json({"n_qubits": 4, "amps": [[1.0, 0.0]] * 8})

    def test_density_round_trip(self):
        rho, _, _ = partial_trace_last(random_state(23))
        back = qstate.density_from_json(qstate.density_to_json(rho))
        np.testing.assert_allclose(back.rho, rho.rho, atol=1e-15)

    @pytest.mark.parametrize("rows", [
        [[[0.0, 0.0]] * 8] * 7,
        [1, 2, 3, 4, 5, 6, 7, 8],
        [[[0.0, 0.0]] * 8] * 7 + [None],
        [[[0.0, 0.0]] * 8] * 7 + ["abcdefgh"],
    ], ids=["seven_rows", "number_rows", "none_row", "string_row"])
    def test_density_shape_rejected(self, rows):
        with pytest.raises(errors.BadStateFormat):
            qstate.density_from_json({"dim": 8, "rho": rows})


def _ket3(bits: str) -> np.ndarray:
    a = np.zeros(8, dtype=complex)
    a[int(bits, 2)] = 1.0
    return a
