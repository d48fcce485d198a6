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
own amplitudes, without building the permuted state. The gather's array is
what compute_fonts3 and compute_fonts4 return; their docstrings give its layout.
"""

from __future__ import annotations

import numpy as np

from .qstate import TRACED_LAST_INDEX, PureState3, PureState4, _for_traced, _read_only


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


#: the rows of compute_fonts3 and the families of compute_fonts4, the latter
#: per traced qubit, composed with its move last
_FONTS3_INDEX = _read_only(_font_index(1, (0b0, 0b1)))
_FONTS4_INDEX = {
    traced: _read_only(moved[_font_index(2, (0b00, 0b10, 0b01, 0b11))])
    for traced, moved in TRACED_LAST_INDEX.items()
}


def _determinants(amps: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a00 * a11' - a10 * a01' for every column of a (4, n) index table."""
    g = amps[index]
    return g[0] * g[1] - g[2] * g[3]


def compute_fonts3(state: PureState3) -> np.ndarray:
    """The (2, 2) determinants of a three-qubit state (normalization not
    required): row d2way (nothing flips) and row d3way (i3 flips), each [i3]."""
    return _determinants(state.amps, _FONTS3_INDEX).reshape(2, 2)


def compute_fonts4(state: PureState4, traced: str = "A4") -> np.ndarray:
    """The (16,) determinants of a four-qubit state with qubit ``traced`` (A4,
    A3 or A2) moved last as in ``qstate.TRACE_PERMS``; the default A4 is the
    state as given. Any other label raises BadQubitLabel.

    Four families of four entries, entry 4 * family + 2 * i3 + i4: d2_A3A4
    (nothing flips), d3_A4 (i3 flips), d3_A3 (i4 flips; labelled [i4, i3], so
    stored as its transpose) and d4 (both flip).
    """
    return _determinants(state.amps, _for_traced(_FONTS4_INDEX, traced))
