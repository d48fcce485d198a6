"""Font determinant tables, checked against an independent index-rule evaluator."""

import math

import numpy as np
import pytest

from tanglebound import errors, fonts
from tanglebound.acceptance import class_draws
from tanglebound.classes import ClassSpec, representative
from tanglebound.fonts import compute_fonts4
from tanglebound.qstate import (
    TRACE_PERMS,
    PureState3,
    PureState4,
    normalize,
    permute_qubits,
    random_state,
)


# Bit-for-bit oracle: each family as a tensor-slice expression on the state
# with the traced qubit already moved last.
def reference_fonts4(state: PureState4) -> np.ndarray:
    t = state.tensor()
    a00, a01, a10, a11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    d2_a3a4 = a00 * a11 - a10 * a01
    d3_a4 = a00 * a11[::-1] - a10 * a01[::-1]
    d3_a3 = (a00 * a11[:, ::-1] - a10 * a01[:, ::-1]).T
    d4 = a00 * a11[::-1, ::-1] - a10 * a01[::-1, ::-1]
    # compute_fonts4 stores every family in [i3, i4] order in one (16,) array
    return np.stack([d2_a3a4, d3_a4, d3_a3.T, d4]).reshape(16)


def families4(flat: np.ndarray) -> dict:
    """compute_fonts4's families by name, each indexed by its labels: every
    family is stored in [i3, i4] order, d3_A3 as the transpose of its label
    order [i4, i3]."""
    d = flat.reshape(4, 2, 2)
    return {"d2_A3A4": d[0], "d3_A4": d[1], "d3_A3": d[2].T, "d4": d[3]}


def oracle_states() -> dict:
    """Labelled four-qubit states: random complex and real amplitudes, class
    I-IX representatives, a product state, GHZ4 and W4."""
    rng = np.random.default_rng(35)
    states = {f"random_{k}": random_state(3500 + k) for k in range(40)}
    states.update({
        f"real_{k}": normalize(PureState4(rng.standard_normal(16) + 0j)) for k in range(20)
    })
    specs = [spec for draw in class_draws(3) for spec in draw]
    specs += [ClassSpec("VII"), ClassSpec("VIII"), ClassSpec("IX")]
    states.update({f"class_{spec.id}_{k}": representative(spec) for k, spec in enumerate(specs)})
    ghz, w, product = (np.zeros(16, dtype=complex) for _ in range(3))
    ghz[0b0000] = ghz[0b1111] = 1.0 / math.sqrt(2.0)
    w[[0b1000, 0b0100, 0b0010, 0b0001]] = 0.5
    product[0b0110] = 1.0
    states.update({"ghz4": PureState4(ghz), "w4": PureState4(w), "product": PureState4(product)})
    return states


ORACLE_STATES = oracle_states()

# Independent oracle: each determinant family written as index-rule data.
# A rule gives the four amplitude index patterns (first*second - third*fourth);
# "i"/"j" are the family's two free bits, "I"/"J" their complements.
FOUR_QUBIT_RULES = {
    "d2_A3A4": (("0", "0", "i", "j"), ("1", "1", "i", "j"), ("1", "0", "i", "j"), ("0", "1", "i", "j")),
    "d3_A4": (("0", "0", "i", "j"), ("1", "1", "I", "j"), ("1", "0", "i", "j"), ("0", "1", "I", "j")),
    "d3_A3": (("0", "0", "j", "i"), ("1", "1", "j", "I"), ("1", "0", "j", "i"), ("0", "1", "j", "I")),
    "d4": (("0", "0", "i", "j"), ("1", "1", "I", "J"), ("1", "0", "i", "j"), ("0", "1", "I", "J")),
}


def brute_force_fonts4(state: PureState4) -> dict:
    t = state.tensor()

    def resolve(symbol: str, i: int, j: int) -> int:
        return {"0": 0, "1": 1, "i": i, "j": j, "I": i ^ 1, "J": j ^ 1}[symbol]

    table = {}
    for family, (p1, p2, p3, p4) in FOUR_QUBIT_RULES.items():
        entries = np.empty((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                idx = [tuple(resolve(sym, i, j) for sym in pattern) for pattern in (p1, p2, p3, p4)]
                entries[i, j] = t[idx[0]] * t[idx[1]] - t[idx[2]] * t[idx[3]]
        table[family] = entries
    return table


# three-qubit families: "i" is the free bit i3, "I" its complement
THREE_QUBIT_RULES = {
    "d2way": (("0", "0", "i"), ("1", "1", "i"), ("1", "0", "i"), ("0", "1", "i")),
    "d3way": (("0", "0", "i"), ("1", "1", "I"), ("1", "0", "i"), ("0", "1", "I")),
}


def brute_force_fonts3(state: PureState3) -> dict:
    t = state.tensor()
    table = {}
    for family, patterns in THREE_QUBIT_RULES.items():
        entries = np.empty(2, dtype=complex)
        for i in range(2):
            bits = {"0": 0, "1": 1, "i": i, "I": i ^ 1}
            idx = [tuple(bits[sym] for sym in pattern) for pattern in patterns]
            entries[i] = t[idx[0]] * t[idx[1]] - t[idx[2]] * t[idx[3]]
        table[family] = entries
    return table


def class_two_state(a, d, c) -> PureState4:
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1111] = (a + d) / 2
    amps[0b0011] = amps[0b1100] = (a - d) / 2
    amps[0b0101] = amps[0b1010] = c
    amps[0b0110] = 1.0
    return normalize(PureState4(amps))


class TestFonts4:
    def test_product_state_all_zero(self):
        a = np.zeros(16, dtype=complex)
        a[0] = 1.0
        np.testing.assert_array_equal(compute_fonts4(PureState4(a)), np.zeros(16))

    def test_ghz4(self):
        a = np.zeros(16, dtype=complex)
        a[0b0000] = a[0b1111] = 1.0 / math.sqrt(2)
        f = compute_fonts4(PureState4(a))
        assert f[12] == pytest.approx(0.5, abs=1e-15)    # d4[0, 0]
        np.testing.assert_array_equal(np.delete(f, 12), np.zeros(15))

    def test_class_two_against_brute_force(self):
        s = class_two_state(2.0, 1.0, 1.0)
        f = families4(compute_fonts4(s))
        oracle = brute_force_fonts4(s)
        for name in FOUR_QUBIT_RULES:
            np.testing.assert_allclose(f[name], oracle[name], atol=1e-15)

    def test_random_states_against_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            s = normalize(PureState4(rng.standard_normal(16) + 1j * rng.standard_normal(16)))
            f = families4(compute_fonts4(s))
            oracle = brute_force_fonts4(s)
            for name in FOUR_QUBIT_RULES:
                np.testing.assert_allclose(f[name], oracle[name], atol=1e-15)

    def test_bilinearity_in_the_state(self):
        rng = np.random.default_rng(32)
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        lam = 0.7 - 1.1j
        f1 = compute_fonts4(PureState4(raw))
        f2 = compute_fonts4(PureState4(lam * raw))
        np.testing.assert_allclose(f2, lam ** 2 * f1, rtol=1e-13)

    def test_factorized_fourth_qubit_reduces_to_fonts3(self):
        rng = np.random.default_rng(33)
        phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi /= np.linalg.norm(phi)
        fonts3 = brute_force_fonts3(PureState3(phi))
        d2way, d3way = fonts3["d2way"], fonts3["d3way"]
        amps = np.zeros(16, dtype=complex)
        amps[0::2] = phi  # fourth qubit in |0>
        f4 = families4(compute_fonts4(PureState4(amps)))
        for i3 in range(2):
            assert abs(f4["d3_A4"][i3, 0] - d3way[i3]) < 1e-14
            assert abs(f4["d2_A3A4"][i3, 0] - d2way[i3]) < 1e-14
            assert abs(f4["d3_A4"][i3, 1]) < 1e-14
            assert abs(f4["d2_A3A4"][i3, 1]) < 1e-14
        np.testing.assert_allclose(f4["d4"][:, 1], 0.0, atol=1e-14)
        np.testing.assert_allclose(f4["d3_A3"], 0.0, atol=1e-14)


class TestGatheredFonts:
    """compute_fonts gathers on fixed index tables; the tensor-slice
    expressions on the permuted state are their bit-for-bit oracle."""

    @pytest.mark.parametrize("traced", ["A4", "A3", "A2"])
    def test_fonts4_equal_the_permuted_slices_bit_for_bit(self, traced):
        for name, state in ORACLE_STATES.items():
            f = compute_fonts4(state, traced)
            assert f.shape == (16,) and f.dtype == complex, name
            ref = reference_fonts4(permute_qubits(state, TRACE_PERMS[traced]))
            assert f.tobytes() == ref.tobytes(), (name, traced)

    def test_fonts4_default_is_the_state_as_given(self):
        state = ORACLE_STATES["random_0"]
        assert compute_fonts4(state).tobytes() == compute_fonts4(state, "A4").tobytes()

    def test_index_tables_are_read_only(self):
        for index in fonts._FONTS4_INDEX.values():
            assert not index.flags.writeable

    @pytest.mark.parametrize("traced", ["A1", "a4", "", None])
    def test_bad_traced_label(self, traced):
        with pytest.raises(errors.BadQubitLabel):
            compute_fonts4(ORACLE_STATES["ghz4"], traced)
