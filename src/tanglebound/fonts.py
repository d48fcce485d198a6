"""Determinants of negativity fonts with A1 as the focus qubit.

Every entry is a 2x2 determinant of selected state coefficients. Superscript
indices that appear shifted by one are taken mod 2. Each family is one
expression over tensor slices, a00 * a11' - a10 * a01' with a_{i1 i2} =
t[i1, i2]; the prime reverses the shifted superscript axes.
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
    """The two- and three-way determinants of a three-qubit state (normalization not required)."""
    t = state.tensor()
    a00, a01, a10, a11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    d2 = a00 * a11 - a10 * a01
    # three-way: the superscript i3 flips
    d3 = a00 * a11[::-1] - a10 * a01[::-1]
    return FontSet3(d2, d3)


def compute_fonts4(state: PureState4) -> FontSet4:
    """The two-, three- and four-way determinant families of a four-qubit state."""
    t = state.tensor()
    a00, a01, a10, a11 = t[0, 0], t[0, 1], t[1, 0], t[1, 1]
    # two-way: both remaining indices fixed
    d2_a3a4 = a00 * a11 - a10 * a01
    # three-way: the superscript flips, the subscript qubit stays; d3_A3 is
    # indexed [i4, i3]
    d3_a4 = a00 * a11[::-1] - a10 * a01[::-1]
    d3_a3 = (a00 * a11[:, ::-1] - a10 * a01[:, ::-1]).T
    # four-way: both trailing indices flip
    d4 = a00 * a11[::-1, ::-1] - a10 * a01[::-1, ::-1]
    return FontSet4(d2_a3a4, d3_a4, d3_a3, d4)
