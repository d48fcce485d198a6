"""Determinants of negativity fonts with A1 as the focus qubit.

Every entry is a 2x2 determinant of selected state coefficients,
a00 * a11' - a10 * a01' with a_{i1 i2} the amplitudes at A1 = i1, A2 = i2;
superscript indices that appear shifted by one are taken mod 2 (the prime
flips them). Each family is therefore a fixed pattern of flat amplitude
indices, and every font set is one gather on index tables built at import:
row k of a (4, n) table holds the flat indices of the k-th factor of every
entry, and d = g[0] * g[1] - g[2] * g[3] on g = amps[table]. For a traced
qubit other than A4 the table is composed with ``qstate.TRACED_LAST_INDEX``,
so the fonts of the state with that qubit moved last come from the state's
own amplitudes, without building the permuted state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qstate import TRACED_LAST_INDEX, PureState3, PureState4, _for_traced, _read_only


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

    ``flat`` is the gather's one (16,) array: four families of four entries,
    d2_A3A4, d3_A4, d3_A3 and d4, each in [i3, i4] order. The families are
    views of it, with array layouts that follow the subscript/superscript labels:
      d2_A3A4[i3, i4]                 (two-way)
      d3_A4[i3, i4], d3_A3[i4, i3]    (three-way)
      d4[i3, i4]                      (four-way)
    """

    flat: np.ndarray = field()

    @property
    def d2_A3A4(self) -> np.ndarray:
        return self.flat[0:4].reshape(2, 2)

    @property
    def d3_A4(self) -> np.ndarray:
        return self.flat[4:8].reshape(2, 2)

    @property
    def d3_A3(self) -> np.ndarray:
        return self.flat[8:12].reshape(2, 2).T

    @property
    def d4(self) -> np.ndarray:
        return self.flat[12:16].reshape(2, 2)


def _font_index(n_low: int, flips) -> np.ndarray:
    """(4, len(flips) * 2**n_low) flat indices of the factors a00, a11', a10, a01'
    of every entry, family by family: i1 i2 are the two leading bits, an entry's
    index is the n_low trailing bits, and a family's primed factors flip the
    trailing bits set in its mask in ``flips``."""
    low = np.arange(2 ** n_low)
    same = np.tile(low, len(flips))
    primed = np.concatenate([low ^ mask for mask in flips])
    lead = 2 ** n_low    # weight of i2; i1 weighs 2 * lead
    return np.stack([same, 3 * lead + primed, 2 * lead + same, lead + primed])


#: d2way[i3] (nothing flips), d3way[i3] (i3 flips)
_FONTS3_INDEX = _read_only(_font_index(1, (0b0, 0b1)))

#: traced qubit -> the families of the state with that qubit moved last:
#: d2_A3A4 (nothing flips), d3_A4 (i3 flips), d3_A3 in [i3, i4] order (i4
#: flips) and d4 (both flip), composed with the move
_FONTS4_INDEX = {
    traced: _read_only(moved[_font_index(2, (0b00, 0b10, 0b01, 0b11))])
    for traced, moved in TRACED_LAST_INDEX.items()
}


def _determinants(amps: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a00 * a11' - a10 * a01' for every column of a (4, n) index table."""
    g = amps[index]
    return g[0] * g[1] - g[2] * g[3]


def compute_fonts3(state: PureState3) -> FontSet3:
    """The two- and three-way determinants of a three-qubit state (normalization not required)."""
    d = _determinants(state.amps, _FONTS3_INDEX).reshape(2, 2)
    return FontSet3(d[0], d[1])


def compute_fonts4(state: PureState4, traced: str = "A4") -> FontSet4:
    """The two-, three- and four-way determinant families of a four-qubit state
    with qubit ``traced`` (A4, A3 or A2) moved last as in
    ``qstate.TRACE_PERMS``; the default A4 is the state as given. Any other
    label raises BadQubitLabel."""
    return FontSet4(_determinants(state.amps, _for_traced(_FONTS4_INDEX, traced)))
