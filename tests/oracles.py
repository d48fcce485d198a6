"""Independent oracles for the three-qubit invariants, written from their
textbook definitions and sharing no code with fonts, invariants or quartic."""

from fractions import Fraction

import numpy as np


class ExactComplex:
    """A complex number whose parts are fractions.Fraction: sums, differences,
    products and integer powers are exact. Built from a number, whose float
    parts Fraction takes exactly."""

    def __init__(self, z=0, im=None):
        if im is None:
            z = complex(z)
            z, im = z.real, z.imag
        self.re, self.im = Fraction(z), Fraction(im)

    def __add__(self, other):
        other = _exact(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return self + -1 * _exact(other)

    def __mul__(self, other):
        other = _exact(other)
        return ExactComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = ExactComplex(1)
        for _ in range(n):
            out = out * self
        return out

    def abs2(self) -> Fraction:
        """|z|^2, exactly."""
        return self.re * self.re + self.im * self.im


def _exact(z) -> ExactComplex:
    return z if isinstance(z, ExactComplex) else ExactComplex(z)


def det3(v, number=complex):
    """Cayley's hyperdeterminant of the 2x2x2 array a[i1, i2, i3] = v[4 i1 + 2 i2 + i3],
    written out term by term; a normalized state's three-tangle is 4 |det3|.
    ``number`` is the arithmetic: complex, or ExactComplex for the exact value
    on the amplitudes as given."""
    a000, a001, a010, a011, a100, a101, a110, a111 = (number(z) for z in v)
    return (
        a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
        + a010 ** 2 * a101 ** 2 + a100 ** 2 * a011 ** 2
        - 2 * (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
               + a000 * a100 * a011 * a111 + a001 * a010 * a101 * a110
               + a001 * a100 * a011 * a110 + a010 * a100 * a011 * a101)
        + 4 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111)
    )


def endpoint_quartic(phi0, phi1) -> np.ndarray:
    """Ascending coefficients of the quartic x -> det3(x phi0 + phi1), read off
    its values at the fifth roots of unity by a discrete Fourier transform."""
    xs = np.exp(2j * np.pi * np.arange(5) / 5)
    values = [det3(x * np.asarray(phi0) + np.asarray(phi1)) for x in xs]
    return np.fft.fft(values) / 5


def stars_oracle(phi0, phi1) -> np.ndarray:
    """The roots of endpoint_quartic(phi0, phi1) from numpy.roots, after the
    leading coefficients below 1e-12 of the largest are dropped, as the
    package's root solve drops them (the lost roots sit at infinity)."""
    c = endpoint_quartic(phi0, phi1)
    kept = np.flatnonzero(np.abs(c) >= 1e-12 * np.abs(c).max())
    return np.roots(c[: kept[-1] + 1][::-1])
