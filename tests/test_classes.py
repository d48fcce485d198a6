"""Class representatives, tabulated bounds, and literature comparisons."""

import math

import numpy as np
import pytest

from tanglebound import classes, errors
from tanglebound.acceptance import class_draws
from tanglebound.bounds import best_bound
from tanglebound.classes import (
    FIXTURE_TRIPLE,
    SUPPORTED_TRIPLES,
    ClassSpec,
    literature_bound,
    paper_bound,
    representative,
    spec_from_values,
)
from tanglebound.qstate import PureState4, normalize

RNG = np.random.default_rng(919)


def draw(n: int, real: bool = False):
    moduli = RNG.uniform(0.2, 2.0, n)
    if real:
        return [complex(m) for m in moduli]
    return [complex(m * np.exp(1j * p)) for m, p in zip(moduli, RNG.uniform(0, 2 * np.pi, n))]


class TestRepresentative:
    def test_class_nine(self):
        s = representative(ClassSpec("IX"))
        expect = np.zeros(16, dtype=complex)
        expect[0b0000] = expect[0b0111] = 1 / math.sqrt(2)
        np.testing.assert_allclose(s.amps, expect, atol=1e-15)

    def test_class_one_ghz_limit(self):
        s = representative(ClassSpec("I", a=1 + 0j, b=0j, c=0j, d=1 + 0j))
        expect = np.zeros(16, dtype=complex)
        expect[0b0000] = expect[0b1111] = 1 / math.sqrt(2)
        np.testing.assert_allclose(s.amps, expect, atol=1e-15)

    def test_class_five_a_zero(self):
        s = representative(ClassSpec("V", a=0j))
        expect = np.zeros(16, dtype=complex)
        expect[0b0001] = 1j / math.sqrt(3)
        expect[0b0110] = 1 / math.sqrt(3)
        expect[0b1011] = -1j / math.sqrt(3)
        np.testing.assert_allclose(s.amps, expect, atol=1e-15)

    def test_normalized(self):
        for _ in range(5):
            spec = spec_from_values("II", *draw(3))
            assert representative(spec).norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_bad_arity(self):
        with pytest.raises(errors.BadArity):
            ClassSpec("II", a=1 + 0j)  # missing d, c
        with pytest.raises(errors.BadArity):
            ClassSpec("VII", a=1 + 0j)  # takes no parameters
        with pytest.raises(errors.BadArity):
            spec_from_values("III", 1 + 0j)

    def test_zero_state_rejected(self):
        with pytest.raises(errors.ZeroState):
            representative(ClassSpec("I", a=0j, b=0j, c=0j, d=0j))

    def test_equals_the_numpy_accumulation_bit_for_bit(self):
        # the terms were once summed into np.zeros(16, complex); Python complex
        # adds round alike, zero parts of either sign included
        specs = [spec for draw in class_draws() for spec in draw]
        specs += [ClassSpec("VII"), ClassSpec("VIII"), ClassSpec("IX")]
        specs += [
            ClassSpec("I", a=complex(-0.0, -0.0), b=-0.7 + 0j, c=complex(0.7, -0.0), d=1 + 0j),
            ClassSpec("II", a=complex(1.1, -0.0), d=complex(-0.0, 1.1), c=-0j),
            ClassSpec("III", a=complex(-0.0, 0.4), b=complex(0.4, -0.0)),
            ClassSpec("IV", a=complex(-0.0, -0.0), b=complex(-1.2, -0.0)),
            ClassSpec("V", a=complex(-0.0, -0.0)),
            ClassSpec("VI", a=complex(0.8, -0.0)),
        ]
        for spec in specs:
            amps = np.zeros(16, dtype=complex)
            for index, value in classes._terms(spec):
                amps[index] += value
            expected = normalize(PureState4(amps)).amps
            assert representative(spec).amps.tobytes() == expected.tobytes(), spec


class TestPaperBound:
    def test_class_two_reference_point(self):
        spec = ClassSpec("II", a=2 + 0j, d=1 + 0j, c=1 + 0j)
        for triple in SUPPORTED_TRIPLES:
            assert paper_bound(spec, triple) == pytest.approx(3.0 / 16.0, abs=1e-12)

    def test_class_four_formula(self):
        a, b = 1.2 + 0.5j, 0.3 - 0.8j
        spec = ClassSpec("IV", a=a, b=b)
        expect = 2 * abs(a ** 2 - b ** 2) / (2 + 3 * abs(a) ** 2 + abs(b) ** 2) ** 2
        assert paper_bound(spec, "A1A2A4") == pytest.approx(expect, rel=1e-12)

    def test_class_five_reference_point(self):
        spec = ClassSpec("V", a=1 + 0j)
        assert paper_bound(spec, "A1A2A3") == pytest.approx(16.0 / 49.0, rel=1e-12)
        assert paper_bound(spec, "A1A2A4") == pytest.approx(4.0 / (49.0 * 65.0), rel=1e-12)

    def test_not_printed_combinations(self):
        assert paper_bound(ClassSpec("III", a=1 + 0j, b=1 + 0j), FIXTURE_TRIPLE) is None
        assert paper_bound(ClassSpec("IX"), "A1A2A3") is None

    def test_fixture_values(self):
        assert paper_bound(ClassSpec("VII"), FIXTURE_TRIPLE) == 0.0
        assert paper_bound(ClassSpec("IX"), FIXTURE_TRIPLE) == 0.25


class TestLiteratureBound:
    def test_class_three_regu_reference_point(self):
        spec = ClassSpec("III", a=1 + 0j, b=1 + 0j)
        assert literature_bound(spec, "A1A2A4", "regu") == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_class_three_osterloh_reference_point(self):
        spec = ClassSpec("III", a=1 + 0j, b=1 + 0j)
        assert literature_bound(spec, "A1A2A4", "osterloh") == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_class_five_osterloh_reference_point(self):
        spec = ClassSpec("V", a=1 + 0j)
        assert literature_bound(spec, "A1A2A4", "osterloh") == pytest.approx(
            4.0 / (49.0 * 65.0), rel=1e-12
        )

    def test_not_printed_raises(self):
        with pytest.raises(errors.NotPrinted):
            literature_bound(ClassSpec("VI", a=1 + 0j), "A1A2A3", "regu")
        with pytest.raises(errors.NotPrinted):
            literature_bound(ClassSpec("III", a=1 + 0j, b=1 + 0j), "A1A2A3", "regu")


#: (call, error, message fragment): one entry per input check of the module
_BAD_INPUTS = {
    "class_spec_unknown_id": (lambda: ClassSpec("X"), errors.BadArity, "unknown class id"),
    "spec_from_values_unknown_id": (lambda: spec_from_values("X", 1 + 0j),
                                    errors.BadArity, "unknown class id"),
    "unknown_triple": (lambda: paper_bound(ClassSpec("VII"), "A1A2A5"),
                       errors.BadQubitLabel, "unknown triple"),
    "unknown_source": (lambda: literature_bound(ClassSpec("VII"), "A1A2A3", "nature"),
                       errors.NotPrinted, "unknown source"),
}


@pytest.mark.parametrize("call,error,fragment", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_raises_its_error(call, error, fragment):
    with pytest.raises(error, match=fragment) as info:
        call()
    assert isinstance(info.value, errors.TangleboundError)


class TestClassBehaviour:
    def test_class_two_same_bound_on_all_supported_triples(self):
        for _ in range(6):
            state = representative(spec_from_values("II", *draw(3)))
            values = [best_bound(state, t).best for t in SUPPORTED_TRIPLES]
            assert max(values) - min(values) < 1e-8

    def test_class_five_first_equals_third(self):
        for _ in range(6):
            state = representative(spec_from_values("V", *draw(1)))
            v1 = best_bound(state, "A1A2A3").best
            v3 = best_bound(state, "A1A3A4").best
            assert v1 == pytest.approx(v3, abs=1e-8)

    def test_classes_one_and_six_vanish(self):
        for _ in range(6):
            for spec in (spec_from_values("I", *draw(4, real=True)),
                         spec_from_values("VI", *draw(1))):
                state = representative(spec)
                for triple in SUPPORTED_TRIPLES:
                    assert best_bound(state, triple).best < 1e-10

    def test_dominance_over_regu(self):
        combos = {"II": SUPPORTED_TRIPLES, "III": ("A1A2A4",),
                  "IV": SUPPORTED_TRIPLES, "V": ("A1A2A3", "A1A3A4")}
        arity = {"II": 3, "III": 2, "IV": 2, "V": 1}
        for cid, triples in combos.items():
            for _ in range(5):
                spec = spec_from_values(cid, *draw(arity[cid]))
                state = representative(spec)
                for triple in triples:
                    ref = literature_bound(spec, triple, "regu")
                    assert best_bound(state, triple).best <= ref + 1e-8

    def test_class_eight_and_nine(self):
        s8 = representative(ClassSpec("VIII"))
        for triple in SUPPORTED_TRIPLES:
            assert best_bound(s8, triple).best == pytest.approx(0.25, abs=1e-10)
        s9 = representative(ClassSpec("IX"))
        for triple in SUPPORTED_TRIPLES:
            # the first qubit factors out, so every focus-qubit triple vanishes
            assert best_bound(s9, triple).best < 1e-12
