"""Determinants of negativity fonts with A1 as the focus qubit.

Every entry is a 2x2 determinant of selected state coefficients,
a00 * a11' - a10 * a01' with a_{i1 i2} the amplitudes at A1 = i1, A2 = i2;
superscript indices that appear shifted by one are taken mod 2 (the prime
flips them). Each family is therefore a fixed pattern of flat amplitude
indices, and every font set is one gather on index tables built at import:
row k of a (4, 16) table holds the flat indices of the k-th factor of every
entry, and d = g[0] * g[1] - g[2] * g[3] on g = amps[table]. For a traced
qubit other than A4 the table is composed with ``qstate.TRACED_LAST_INDEX``,
so the fonts of the state with that qubit moved last come from the state's
own amplitudes, without building the permuted state. The gather's array is
what compute_fonts4 returns; its docstring gives the layout. (A three-qubit
state's fonts are written out where they are used, in
``invariants.three_tangle_pure``.)
"""

from __future__ import annotations

import numpy as np

from .qstate import TRACED_LAST_INDEX, PureState4, _for_traced, _read_only


#: the flat indices of the factors a00, a11', a10, a01' (rows) of the 16
#: entries (columns), family by family: i1 i2 are the two leading bits, an
#: entry's index i3 i4 the two trailing ones, and a family's primed factors
#: flip the trailing bits set in its mask, 0b00, 0b10, 0b01 and 0b11 in turn
_SAME = np.tile(np.arange(4), 4)
_PRIMED = _SAME ^ np.repeat([0b00, 0b10, 0b01, 0b11], 4)
#: per traced qubit, composed with its move last
_FONTS4_INDEX = {
    traced: _read_only(moved[np.stack([_SAME, 12 + _PRIMED, 8 + _SAME, 4 + _PRIMED])])
    for traced, moved in TRACED_LAST_INDEX.items()
}


def compute_fonts4(state: PureState4, traced: str = "A4") -> np.ndarray:
    """The (16,) determinants of a four-qubit state with qubit ``traced`` (A4,
    A3 or A2) moved last as in ``qstate.TRACE_PERMS``; the default A4 is the
    state as given. Any other label raises BadQubitLabel.

    Four families of four entries, entry 4 * family + 2 * i3 + i4: d2_A3A4
    (nothing flips), d3_A4 (i3 flips), d3_A3 (i4 flips; labelled [i4, i3], so
    stored as its transpose) and d4 (both flip).
    """
    g = state.amps[_for_traced(_FONTS4_INDEX, traced)]
    return g[0] * g[1] - g[2] * g[3]
