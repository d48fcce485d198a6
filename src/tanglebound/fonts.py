"""Determinants of negativity fonts with A1 as the focus qubit.

Every entry is a 2x2 determinant of selected state coefficients. Superscript
indices that appear shifted by one are taken mod 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qstate import PureState3, PureState4


@dataclass(frozen=True)
class FontSet3:
    """Two- and three-way font determinants of a three-qubit state.

    d2way[i3] = a_{00 i3} a_{11 i3} - a_{10 i3} a_{01 i3}
    d3way[i3] = a_{00 i3} a_{11 i3+1} - a_{10 i3} a_{01 i3+1}
    """

    d2way: np.ndarray = field()
    d3way: np.ndarray = field()


@dataclass(frozen=True)
class FontSet4:
    """The font determinants of a four-qubit state that the invariants read.

    Array layouts follow the subscript/superscript labels:
      d2_A3A4[i3, i4]                 (two-way)
      d3_A4[i3, i4], d3_A3[i4, i3]    (three-way)
      d4[i3, i4]                      (four-way)
    """

    d2_A3A4: np.ndarray = field()
    d3_A4: np.ndarray = field()
    d3_A3: np.ndarray = field()
    d4: np.ndarray = field()


def compute_fonts3(state: PureState3) -> FontSet3:
    """Fill the four determinants of a three-qubit state (normalization not required)."""
    t = state.tensor()
    d2 = np.empty(2, dtype=complex)
    d3 = np.empty(2, dtype=complex)
    for i3 in range(2):
        d2[i3] = t[0, 0, i3] * t[1, 1, i3] - t[1, 0, i3] * t[0, 1, i3]
        d3[i3] = t[0, 0, i3] * t[1, 1, i3 ^ 1] - t[1, 0, i3] * t[0, 1, i3 ^ 1]
    return FontSet3(d2, d3)


def compute_fonts4(state: PureState4) -> FontSet4:
    """Fill the two-, three- and four-way determinant families of a four-qubit state."""
    t = state.tensor()
    d2_a3a4 = np.empty((2, 2), dtype=complex)
    d3_a4 = np.empty((2, 2), dtype=complex)
    d3_a3 = np.empty((2, 2), dtype=complex)
    d4 = np.empty((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            # two-way: both remaining indices fixed
            d2_a3a4[i, j] = t[0, 0, i, j] * t[1, 1, i, j] - t[1, 0, i, j] * t[0, 1, i, j]
            # three-way: superscript index flips, subscript qubit stays
            d3_a4[i, j] = t[0, 0, i, j] * t[1, 1, i ^ 1, j] - t[1, 0, i, j] * t[0, 1, i ^ 1, j]
            d3_a3[i, j] = t[0, 0, j, i] * t[1, 1, j, i ^ 1] - t[1, 0, j, i] * t[0, 1, j, i ^ 1]
            # four-way: both trailing indices flip
            d4[i, j] = t[0, 0, i, j] * t[1, 1, i ^ 1, j ^ 1] - t[1, 0, i, j] * t[0, 1, i ^ 1, j ^ 1]
    return FontSet4(d2_a3a4, d3_a4, d3_a3, d4)
