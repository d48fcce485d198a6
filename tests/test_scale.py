"""Every method exactly equivariant under a power-of-two scaling of the set.

Each bound is of degree one in the invariant set, so on the set times 2^k it
must read ldexp(value, k), bit for bit: the case (classify_group) unchanged,
the closed form, the cap as best_bound computes it (cap_of), quartic_A4's
value and witness, unitary_3q's and transform_endpoints' values. The grid's f
is a sum of square roots, so it is exact at even k only. The property is checked
wherever the scaling of the set is exact (every part comes back under
ldexp(., -k)) and the scaled value is a normal float or 0.

The corpus is 480 sets: random_state(7000 + k) for k < 100 and the
class_draws(10) representatives, on A4, A3 and A2. Tier-1 checks 48 of them
(test_every_method_scales_exactly_with_the_set); the whole corpus runs with

    PYTHONPATH=src:tests python tests/test_scale.py
"""

import math
import sys

import numpy as np
import pytest

from tanglebound import errors
from tanglebound.acceptance import class_draws
from tanglebound.bounds import (
    best_bound,
    bound_closed_form,
    bound_grid,
    bound_quartic_A4,
    bound_unitary_3q,
    cap_of,
    classify_group,
)
from tanglebound.classes import SUPPORTED_TRIPLES, representative
from tanglebound.invariants import (
    ThreeQubitInvariantSet,
    invariant_set,
    invariants_to_json,
    summary_from_set,
    traced_qubit_of,
    transform_endpoints,
)
from tanglebound.qstate import PureState4, normalize, random_state

#: the exponents k: [-1000, 1000], odd and even, about the +-519 where the
#: summary's squares leave the float range
EXPONENTS = (-1000, -999, -640, -601, -520, -519, -2, -1, 1, 2, 519, 520, 601, 640, 999, 1000)
#: the branch probabilities of unitary_3q: equal, where best_bound reads it, and not
PROBABILITIES = ((0.5, 0.5), (0.3, 0.7))
#: points x of transform_endpoints, inside and outside the unit disk
POINTS = (0.3 - 0.7j, 2.0 + 1.0j, -1e3j)


def corpus_sets() -> list[ThreeQubitInvariantSet]:
    states = [random_state(7000 + k) for k in range(100)]
    states += [representative(spec) for draw in class_draws(10) for spec in draw]
    return [invariant_set(state, traced) for state in states for traced in ("A4", "A3", "A2")]


def entries(inv: ThreeQubitInvariantSet) -> tuple[complex, ...]:
    return inv.i40, inv.i31, inv.i22, inv.i13, inv.i04


def times(z, k: int):
    """z times 2^k, part by part."""
    if isinstance(z, complex):
        return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
    return math.ldexp(z, k)


def scaled(inv: ThreeQubitInvariantSet, k: int) -> ThreeQubitInvariantSet | None:
    """The set times 2^k, None where a part does not come back exactly."""
    out = [times(z, k) for z in entries(inv)]
    if [times(z, -k) for z in out] != list(entries(inv)):
        return None
    return ThreeQubitInvariantSet(inv.traced, *out)


def bits(value, x) -> tuple:
    """The value and the witness x by their parts' bits (float.hex)."""
    return tuple(p.hex() for z in (value, x) if z is not None
                 for p in (complex(z).real, complex(z).imag))


def normal(z) -> bool:
    """z is not 0 and each of its parts is 0 or a normal float."""
    return z != 0 and all(p == 0.0 or sys.float_info.min <= abs(p) < math.inf
                          for p in (z.real, z.imag))


def values_of(inv: ThreeQubitInvariantSet) -> dict:
    """(value, witness or None) per name: the case, the cap, the closed form,
    quartic_A4's, unitary_3q's and the grid's values and witnesses, and
    transform_endpoints at POINTS."""
    out = {"case": classify_group(inv), "cap": (cap_of(inv).value, None)}
    closed = bound_closed_form(inv)
    if closed is not None:
        out["closed_form"] = (closed.value, None)
    grid = bound_grid(inv)
    out["grid"] = (grid.value, grid.witness_x)
    quartic = bound_quartic_A4(inv)
    out["quartic_A4"] = (quartic.value, quartic.witness_x)
    for p in PROBABILITIES:
        w = bound_unitary_3q(inv, *p)
        out[f"unitary_3q {p}"] = (w.value, w.witness_x)
    for x in POINTS:
        for end, value in zip(("I40", "I04"), transform_endpoints(inv, x)):
            out[f"transform_endpoints {end} {x}"] = (value, None)
    return out


def scale_failures(sets, exponents) -> tuple[list, int]:
    """(failures, checks): every (set index, k, name) where the scaled set's
    value is not the set's times 2^k, bit for bit, or its witness moved,
    where that is a normal float, or a value 0 is not 0; checks counts the
    values compared. The grid is compared at even k only."""
    failures, checks = [], 0
    for i, inv in enumerate(sets):
        base = values_of(inv)
        case = base.pop("case")
        for k in exponents:
            big = scaled(inv, k)
            if big is None:
                continue
            mine = values_of(big)
            if mine.pop("case") != case or mine.keys() != base.keys():
                failures.append((i, k, "case"))
                continue
            for name, (value, x) in base.items():
                expected = times(value, k)
                if k % 2 and name == "grid":
                    continue
                if value == 0:
                    # 0 stays 0; the witness is not compared, as the tie
                    # rule picks it among candidates that read 0 up to
                    # rounding, whose values can leave the normal range
                    got, want = bits(mine[name][0], None), bits(value, None)
                elif normal(expected):
                    got, want = bits(*mine[name]), bits(expected, x)
                else:
                    continue
                checks += 1
                if got != want:
                    failures.append((i, k, name))
    return failures, checks


def test_every_method_scales_exactly_with_the_set():
    # every tenth random set and the first class draw on every traced qubit,
    # which hold every case, at every exponent; the whole corpus is this
    # module's __main__. Before the sets had one scale owner, the cap was
    # inexact from k = -519, class-i sets read another case, and from k = 519
    # summary_from_set raised a bare OverflowError. The case-vi sets cover
    # the closed form's underflowing square (0 / 0 at 2^-600)
    sets = corpus_sets()
    sets = sets[:300:10] + sets[300:318]
    assert {classify_group(inv) for inv in sets} == {"i", "ii", "iii", "iv", "v", "vi", "generic"}
    failures, checks = scale_failures(sets, EXPONENTS)
    assert failures == []
    assert checks > 8000


def test_the_unit_copy_keeps_its_own_largest_modulus():
    # unit() presets the copy's scale from the set's: it must be the largest
    # modulus of the copy's own entries, bit for bit, also beside subnormal
    # parts and on a set whose scale is subnormal (not preset)
    edge = [ThreeQubitInvariantSet("A4", 2e-308 + 1e-309j, 0j, 3e-310j, 0j, 1e-308 + 0j),
            ThreeQubitInvariantSet("A3", complex(1000 * 5e-324, 1001 * 5e-324), 0j, 0j, 0j, 0j),
            ThreeQubitInvariantSet("A2", 0.5 + 1e-320j, 1e-300j, 0j, -1e-310 + 0j, 0j)]
    for inv in corpus_sets()[::7] + edge:
        for k in (0,) + EXPONENTS:
            big = scaled(inv, k)
            if big is not None:
                copy = big.unit()[0]
                assert copy.scale() == max(map(abs, entries(copy))), (inv, k)


def test_an_overflowing_summary_is_out_of_range():
    # N48 of a set of scale 1e160 has no float: the summary, and what reads
    # it, raise OutOfRange; the bounds read the set's unit copy and return
    # 4e160, the value of case ii
    inv = ThreeQubitInvariantSet("A4", 1e160 + 0j, 0j, 0j, 0j, 0j)
    with pytest.raises(errors.OutOfRange, match="scale 1.000e"):
        summary_from_set(inv)
    with pytest.raises(errors.OutOfRange):
        invariants_to_json(inv)
    assert classify_group(inv) == "ii"
    assert cap_of(inv).value == bound_closed_form(inv).value == bound_quartic_A4(inv).value == 4e160
    assert bound_grid(inv).value == pytest.approx(4e160, rel=1e-15)
    # the same from its sums alone: 6 |i22|^2 past the largest float
    with pytest.raises(errors.OutOfRange):
        summary_from_set(ThreeQubitInvariantSet("A4", 0j, 0j, 1e154 + 0j, 0j, 0j))


#: case ii at 1e308 reads 4e308
_CASE_II = ThreeQubitInvariantSet("A4", 1e308 + 0j, 0j, 0j, 0j, 0j)
#: quartic_A4 reads 8.88e291, but unitary_3q at p0 = 0.1 reads the set itself,
#: whose coefficient i40 / p0^2 overflows
_WIDE = ThreeQubitInvariantSet("A4", 1e307 + 0j, 0j, 0j, 0j, 1e307 + 0j)
#: (set, bound) where the value, or a term of it, is past the largest float
_PAST_THE_FLOAT_RANGE = {
    "closed_form": (_CASE_II, bound_closed_form),
    "cap": (_CASE_II, cap_of),
    "quartic_A4": (_CASE_II, bound_quartic_A4),
    "grid": (_CASE_II, bound_grid),
    "unitary_3q_equal": (_CASE_II, lambda inv: bound_unitary_3q(inv, 0.5, 0.5)),
    "unitary_3q_unequal": (_CASE_II, lambda inv: bound_unitary_3q(inv, 0.1, 0.9)),
    "unitary_3q_coefficient": (_WIDE, lambda inv: bound_unitary_3q(inv, 0.1, 0.9)),
}


@pytest.mark.parametrize("inv,bound", _PAST_THE_FLOAT_RANGE.values(),
                         ids=_PAST_THE_FLOAT_RANGE.keys())
def test_a_bound_past_the_largest_float_is_out_of_range(inv, bound):
    # the closed form and the cap, multiplied back from the set's unit copy,
    # and quartic_A4, unitary_3q and the grid, read off the set itself, raise
    # OutOfRange, neither a bare OverflowError nor a value of inf
    with pytest.raises(errors.OutOfRange, match="past the largest float"):
        bound(inv)


@pytest.mark.parametrize("eps", [1e-60, 1e-85, 1e-100, 1e-150])
def test_near_product_states_read_their_quartic_value(eps):
    # |0101> (a[5] = 1) plus eps times default_rng(1) complex Gaussian
    # noise: at eps <= 1e-85 the cap's N48 underflowed and best read 0.0,
    # below the quartic values that their witnesses realize
    g = np.random.default_rng(1)
    a = eps * (g.standard_normal(16) + 1j * g.standard_normal(16))
    a[5] += 1.0
    state = normalize(PureState4(a))
    for triple in SUPPORTED_TRIPLES:
        report = best_bound(state, triple)
        values = {m.method: m.value for m in report.methods}
        assert values["cap"] == cap_of(invariant_set(state, traced_qubit_of(triple))).value
        assert values["cap"] >= values["quartic_A4"] > 0.0, (triple, values)
        assert report.best == pytest.approx(values["quartic_A4"], rel=1e-12), triple


def main() -> None:
    """The property on the whole corpus: print the failures and the counts."""
    sets = corpus_sets()
    failures, checks = scale_failures(sets, EXPONENTS)
    for failure in failures:
        print(*failure)
    print(f"{len(sets)} sets, {len(EXPONENTS)} exponents: {checks} values compared, "
          f"{len(failures)} failures")


if __name__ == "__main__":
    main()
