"""Roots of complex polynomials of degree <= 4 with a certified residual bound.

Roots come from companion-matrix eigenvalues and are polished with a guarded
Newton step. The contract is the residual bound, not the algorithm: every
returned root w satisfies |p(w)| <= RESIDUAL_TOL * max|c_i| * max(1, |w|)^4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DidNotConverge, ZeroPolynomial

RESIDUAL_TOL = 1e-9
SCALE_TOL = 1e-12


@dataclass(frozen=True)
class PolyDeg4:
    """c0 + c1 w + c2 w^2 + c3 w^3 + c4 w^4 in one complex variable."""

    c0: complex = 0j
    c1: complex = 0j
    c2: complex = 0j
    c3: complex = 0j
    c4: complex = 0j

    def coeffs(self) -> np.ndarray:
        """Coefficients in ascending order."""
        return np.array([self.c0, self.c1, self.c2, self.c3, self.c4], dtype=complex)

    def __call__(self, w) -> complex | np.ndarray:
        c = self.coeffs()
        return c[0] + w * (c[1] + w * (c[2] + w * (c[3] + w * c[4])))


def roots(p: PolyDeg4) -> list[complex]:
    """All roots of p, with multiplicity; length equals the effective degree.

    Leading coefficients below SCALE_TOL * max|c_i| are dropped (the lost roots
    sit at infinity). Raises ZeroPolynomial when every coefficient vanishes and
    DidNotConverge if a root fails the residual contract.
    """
    c = p.coeffs()
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise ZeroPolynomial("all coefficients are zero")
    deg = 4
    while deg > 0 and abs(c[deg]) < SCALE_TOL * scale:
        deg -= 1
    if deg == 0:
        return []
    found = np.roots(c[: deg + 1][::-1])

    # guarded Newton polish on the full polynomial
    dc = c[1:] * np.arange(1, 5)
    out = []
    for w in found:
        r = abs(p(w))
        for _ in range(3):
            d = dc[0] + w * (dc[1] + w * (dc[2] + w * dc[3]))
            if d == 0:
                break
            w2 = w - p(w) / d
            r2 = abs(p(w2))
            if r2 < r:
                w, r = w2, r2
            else:
                break
        if r > RESIDUAL_TOL * scale * max(1.0, abs(w)) ** 4:
            raise DidNotConverge(f"residual {r:.3e} at root {w!r}")
        out.append(complex(w))
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def reconstruct_monic(root_list) -> np.ndarray:
    """Ascending coefficients of prod (w - w_k); oracle for round-trip tests."""
    c = np.array([1.0 + 0j])
    for w in root_list:
        c = np.convolve(c, np.array([-w, 1.0 + 0j]))
    return c
