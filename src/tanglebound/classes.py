"""The nine four-qubit SLOCC class representatives and their tabulated bounds.

``paper_bound`` evaluates the closed-form bound this package reproduces for a
(class, triple) pair; ``literature_bound`` evaluates the comparison values
quoted from earlier work. Values for the triple A2A3A4 (which excludes the
focus qubit A1) are stored as fixtures only: they are surfaced but never
computed by the bound pipeline.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import BadArity, BadQubitLabel, NotPrinted, OutOfRange
from .invariants import TRIPLES
from .qstate import PureState4, normalize

SUPPORTED_TRIPLES = tuple(TRIPLES)
FIXTURE_TRIPLE = "A2A3A4"
ALL_TRIPLES = SUPPORTED_TRIPLES + (FIXTURE_TRIPLE,)

CLASS_IDS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")
#: earlier work whose values literature_bound quotes
SOURCES = ("regu", "osterloh")

#: parameters each class accepts, in declaration order
CLASS_PARAMS = {
    "I": ("a", "b", "c", "d"),
    "II": ("a", "d", "c"),
    "III": ("a", "b"),
    "IV": ("a", "b"),
    "V": ("a",),
    "VI": ("a",),
    "VII": (),
    "VIII": (),
    "IX": (),
}


@dataclass(frozen=True)
class ClassSpec:
    """One SLOCC class with its parameters (unused parameters stay None)."""

    id: str
    a: complex | None = None
    b: complex | None = None
    c: complex | None = None
    d: complex | None = None

    def __post_init__(self):
        if self.id not in CLASS_PARAMS:
            raise BadArity(f"unknown class id {self.id!r}")
        wanted = CLASS_PARAMS[self.id]
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if name in wanted and value is None:
                raise BadArity(f"class {self.id} requires parameter {name!r}")
            if name not in wanted and value is not None:
                raise BadArity(f"class {self.id} does not take parameter {name!r}")

    def params(self) -> dict:
        return {name: getattr(self, name) for name in CLASS_PARAMS[self.id]}


def spec_from_values(class_id: str, *values: complex) -> ClassSpec:
    """Build a ClassSpec assigning values in the class's own parameter order."""
    if class_id not in CLASS_PARAMS:
        raise BadArity(f"unknown class id {class_id!r}")
    names = CLASS_PARAMS[class_id]
    if len(values) != len(names):
        raise BadArity(f"class {class_id} takes {len(names)} parameters, got {len(values)}")
    return ClassSpec(class_id, **dict(zip(names, values)))


def representative(spec: ClassSpec) -> PureState4:
    """Normalized representative state of the class."""
    amps = [0j] * 16
    for index, value in _terms(spec):
        amps[index] += value
    return normalize(PureState4(amps))


def _terms(spec: ClassSpec) -> tuple:
    """(flat amplitude index, value) of every term of the unnormalized representative."""
    a, b, c, d = spec.a, spec.b, spec.c, spec.d
    if spec.id == "I":
        return ((0b0000, (a + d) / 2), (0b1111, (a + d) / 2),
                (0b0011, (a - d) / 2), (0b1100, (a - d) / 2),
                (0b0101, (b + c) / 2), (0b1010, (b + c) / 2),
                (0b0110, (b - c) / 2), (0b1001, (b - c) / 2))
    if spec.id == "II":
        return ((0b0000, (a + d) / 2), (0b1111, (a + d) / 2),
                (0b0011, (a - d) / 2), (0b1100, (a - d) / 2),
                (0b0101, c), (0b1010, c),
                (0b0110, 1))
    if spec.id == "III":
        return ((0b0000, a), (0b1111, a),
                (0b0101, b), (0b1010, b),
                (0b0011, 1), (0b0110, 1))
    if spec.id == "IV":
        s = 1j / math.sqrt(2)
        return ((0b0000, a), (0b1111, a),
                (0b1010, (a + b) / 2), (0b0101, (a + b) / 2),
                (0b0110, (a - b) / 2), (0b1001, (a - b) / 2),
                (0b0010, s), (0b0001, s), (0b0111, s), (0b1011, s))
    if spec.id == "V":
        return ((0b0000, a), (0b1111, a), (0b0101, a), (0b1010, a),
                (0b0001, 1j), (0b0110, 1), (0b1011, -1j))
    if spec.id == "VI":
        return ((0b0000, a), (0b1111, a),
                (0b0011, 1), (0b0101, 1), (0b0110, 1))
    if spec.id == "VII":
        return ((0b0000, 1), (0b0101, 1), (0b1000, 1), (0b1110, 1))
    if spec.id == "VIII":
        return ((0b0000, 1), (0b1011, 1), (0b1101, 1), (0b1110, 1))
    # IX
    return ((0b0000, 1), (0b0111, 1))


def _check_triple(triple: str) -> None:
    if triple not in ALL_TRIPLES:
        raise BadQubitLabel(f"unknown triple {triple!r}")


def _in_range(tabulated):
    """tabulated(spec, triple, ...), raising OutOfRange, which names the class
    and its parameters, where a power of a parameter overflows a float."""

    @functools.wraps(tabulated)
    def checked(spec: ClassSpec, triple: str, *args):
        try:
            return tabulated(spec, triple, *args)
        except OverflowError:
            params = ", ".join(f"{k}={v!r}" for k, v in spec.params().items())
            raise OutOfRange(f"class {spec.id} at {params}: the tabulated {triple} "
                             f"value overflows") from None

    return checked


@_in_range
def paper_bound(spec: ClassSpec, triple: str) -> float | None:
    """Tabulated closed-form bound for (class, triple); None where not printed.

    A2A3A4 entries are literature fixtures (the pipeline never computes them).
    """
    _check_triple(triple)
    a, b, c, d = spec.a, spec.b, spec.c, spec.d
    cid = spec.id
    if cid == "I":
        return 0.0
    if cid == "II":
        k = (abs(a) ** 2 + abs(d) ** 2 + 2 * abs(c) ** 2 + 1) ** 2
        t = abs(c * (a ** 2 - d ** 2))
        u = abs((a ** 2 - c ** 2) * (d ** 2 - c ** 2))
        return (4.0 * t / k) * (abs(t - u) / (t + u)) if t + u > 0.0 else 0.0
    if cid == "III":
        if triple in ("A1A2A3", "A1A3A4"):
            return 0.0
        if triple == "A1A2A4":
            k = (abs(a) ** 2 + abs(b) ** 2 + 1) ** 2
            ab = abs(a * b)
            w = abs(a ** 2 - b ** 2) ** 2
            return (4.0 * ab / k) * (abs(4.0 * ab - w) / (4.0 * ab + w)) if ab + w > 0.0 else 0.0
        return None
    if cid == "IV":
        return 2.0 * abs(a ** 2 - b ** 2) / (2 + 3 * abs(a) ** 2 + abs(b) ** 2) ** 2
    if cid == "V":
        k = (3 + 4 * abs(a) ** 2) ** 2
        if triple in ("A1A2A3", "A1A3A4"):
            return 16.0 * abs(a) ** 2 / k
        if triple == "A1A2A4":
            return (4.0 / k) * (1.0 / (1.0 + 64.0 * abs(a) ** 4))
        return None
    if cid == "VI":
        return 0.0
    if cid in ("VII", "VIII"):
        return 0.25 if triple in SUPPORTED_TRIPLES else 0.0
    # IX: only the A2A3A4 value is printed
    return 0.25 if triple == FIXTURE_TRIPLE else None


@_in_range
def literature_bound(spec: ClassSpec, triple: str, source: str) -> float:
    """Comparison value quoted from earlier work (one of SOURCES)."""
    _check_triple(triple)
    if source not in SOURCES:
        raise NotPrinted(f"unknown source {source!r}")
    a, b, c, d = spec.a, spec.b, spec.c, spec.d
    cid = spec.id
    if source == "regu":
        if cid == "II":
            k = (abs(a) ** 2 + abs(d) ** 2 + 2 * abs(c) ** 2 + 1) ** 2
            return 4.0 * abs(c * (a ** 2 - d ** 2)) / k
        if cid == "III" and triple == "A1A2A4":
            return 4.0 * abs(a * b) / (abs(a) ** 2 + abs(b) ** 2 + 1) ** 2
        if cid == "IV":
            return 2.0 * abs(a ** 2 - b ** 2) / (2 + 3 * abs(a) ** 2 + abs(b) ** 2) ** 2
        if cid == "V" and triple in ("A1A2A3", "A1A3A4"):
            return 16.0 * abs(a) ** 2 / (3 + 4 * abs(a) ** 2) ** 2
    else:
        if cid == "III" and triple == "A1A2A4":
            ab = abs(a * b)
            if ab == 0.0:
                return 0.0
            k = abs(a) ** 2 + abs(b) ** 2 + 1
            root = (2.0 * math.sqrt(ab) / k) * (4.0 * ab - abs(a ** 2 - b ** 2) ** 2) / (4.0 * ab)
            return max(0.0, root) ** 2
        if cid == "V" and triple == "A1A2A4":
            k = (3 + 4 * abs(a) ** 2) ** 2
            return (4.0 / k) * (1.0 + 64.0 * abs(a) ** 2) / (1.0 + 64.0 * abs(a) ** 4) ** 2
        if cid == "V" and triple in ("A1A2A3", "A1A3A4"):
            return 16.0 * abs(a) ** 2 / (3 + 4 * abs(a) ** 2) ** 2
    raise NotPrinted(f"no {source} value for class {cid}, triple {triple}")
