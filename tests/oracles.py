"""Independent oracles for the three-qubit invariants, written from their
textbook definitions and sharing no code with fonts, invariants or quartic."""

import numpy as np


def det3(v) -> complex:
    """Cayley's hyperdeterminant of the 2x2x2 array a[i1, i2, i3] = v[4 i1 + 2 i2 + i3],
    written out term by term; a normalized state's three-tangle is 4 |det3|."""
    a000, a001, a010, a011, a100, a101, a110, a111 = (complex(z) for z in v)
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
