"""Font determinant tables, checked against an independent index-rule evaluator."""

import math

import numpy as np
import pytest

from tanglebound.fonts import compute_fonts3, compute_fonts4
from tanglebound.qstate import PureState3, PureState4, normalize

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


def ket3(bits: str, coeff=1.0) -> np.ndarray:
    a = np.zeros(8, dtype=complex)
    a[int(bits, 2)] = coeff
    return a


def class_two_state(a, d, c) -> PureState4:
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = amps[0b1111] = (a + d) / 2
    amps[0b0011] = amps[0b1100] = (a - d) / 2
    amps[0b0101] = amps[0b1010] = c
    amps[0b0110] = 1.0
    return normalize(PureState4(amps))


class TestFonts3:
    def test_product_state_all_zero(self):
        f = compute_fonts3(PureState3(ket3("000")))
        np.testing.assert_array_equal(f.d2way, np.zeros(2))
        np.testing.assert_array_equal(f.d3way, np.zeros(2))

    def test_ghz3(self):
        f = compute_fonts3(PureState3((ket3("000") + ket3("111")) / math.sqrt(2)))
        assert f.d3way[0] == pytest.approx(0.5, abs=1e-15)
        assert f.d3way[1] == 0
        np.testing.assert_array_equal(f.d2way, np.zeros(2))

    def test_w3(self):
        amps = (ket3("100") + ket3("010") + ket3("001")) / math.sqrt(3)
        f = compute_fonts3(PureState3(amps))
        assert f.d2way[0] == pytest.approx(-1.0 / 3.0, abs=1e-14)
        assert f.d2way[1] == 0
        np.testing.assert_array_equal(f.d3way, np.zeros(2))

    def test_random_states_against_brute_force(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            s = normalize(PureState3(rng.standard_normal(8) + 1j * rng.standard_normal(8)))
            f = compute_fonts3(s)
            oracle = brute_force_fonts3(s)
            for name in THREE_QUBIT_RULES:
                np.testing.assert_allclose(getattr(f, name), oracle[name], atol=1e-15)


class TestFonts4:
    def test_product_state_all_zero(self):
        a = np.zeros(16, dtype=complex)
        a[0] = 1.0
        f = compute_fonts4(PureState4(a))
        for field in (f.d2_A3A4, f.d3_A4, f.d3_A3, f.d4):
            np.testing.assert_array_equal(field, np.zeros((2, 2)))

    def test_ghz4(self):
        a = np.zeros(16, dtype=complex)
        a[0b0000] = a[0b1111] = 1.0 / math.sqrt(2)
        f = compute_fonts4(PureState4(a))
        assert f.d4[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert f.d4[0, 1] == f.d4[1, 0] == f.d4[1, 1] == 0
        for field in (f.d2_A3A4, f.d3_A4, f.d3_A3):
            np.testing.assert_array_equal(field, np.zeros((2, 2)))

    def test_class_two_against_brute_force(self):
        s = class_two_state(2.0, 1.0, 1.0)
        f = compute_fonts4(s)
        oracle = brute_force_fonts4(s)
        for name in FOUR_QUBIT_RULES:
            np.testing.assert_allclose(getattr(f, name), oracle[name], atol=1e-15)

    def test_random_states_against_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            s = normalize(PureState4(rng.standard_normal(16) + 1j * rng.standard_normal(16)))
            f = compute_fonts4(s)
            oracle = brute_force_fonts4(s)
            for name in FOUR_QUBIT_RULES:
                np.testing.assert_allclose(getattr(f, name), oracle[name], atol=1e-15)

    def test_bilinearity_in_the_state(self):
        rng = np.random.default_rng(32)
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        lam = 0.7 - 1.1j
        f1 = compute_fonts4(PureState4(raw))
        f2 = compute_fonts4(PureState4(lam * raw))
        for name in FOUR_QUBIT_RULES:
            np.testing.assert_allclose(
                getattr(f2, name), lam ** 2 * getattr(f1, name), rtol=1e-13
            )

    def test_factorized_fourth_qubit_reduces_to_fonts3(self):
        rng = np.random.default_rng(33)
        phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi /= np.linalg.norm(phi)
        f3 = compute_fonts3(PureState3(phi))
        amps = np.zeros(16, dtype=complex)
        amps[0::2] = phi  # fourth qubit in |0>
        f4 = compute_fonts4(PureState4(amps))
        for i3 in range(2):
            assert abs(f4.d3_A4[i3, 0] - f3.d3way[i3]) < 1e-14
            assert abs(f4.d2_A3A4[i3, 0] - f3.d2way[i3]) < 1e-14
            assert abs(f4.d3_A4[i3, 1]) < 1e-14
            assert abs(f4.d2_A3A4[i3, 1]) < 1e-14
        np.testing.assert_allclose(f4.d4[:, 1], 0.0, atol=1e-14)
        np.testing.assert_allclose(f4.d3_A3, 0.0, atol=1e-14)
