"""Roots of complex polynomials of degree <= 4 with a certified residual bound.

Roots come from companion-matrix eigenvalues and are polished with a guarded
Newton step. The contract is the residual bound, not the algorithm: every
returned root w satisfies |p(w)| <= RESIDUAL_TOL * max|c_i| * max(1, |w|)^4.
"""

from __future__ import annotations

import numpy as np

from .errors import BadArity, DidNotConverge, ZeroPolynomial

RESIDUAL_TOL = 1e-9
SCALE_TOL = 1e-12


def roots(c) -> list[complex]:
    """All roots of c0 + c1 w + c2 w^2 + c3 w^3 + c4 w^4, with multiplicity, from
    the ascending coefficients c; the length equals the effective degree.

    Leading coefficients below SCALE_TOL * max|c_i| are dropped (the lost roots
    sit at infinity). Raises ZeroPolynomial when every coefficient vanishes and
    DidNotConverge if a root fails the residual contract, BadArity unless there
    are five coefficients.
    """
    c = np.array(c, dtype=complex)
    if c.shape != (5,):
        raise BadArity(f"expected 5 coefficients, got shape {c.shape}")
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        raise ZeroPolynomial("all coefficients are zero")
    deg = 4
    while deg > 0 and abs(c[deg]) < SCALE_TOL * scale:
        deg -= 1
    if deg == 0:
        return []
    found = _companion_roots(c[: deg + 1])

    # guarded Newton polish on the full polynomial, in Python complex: products
    # and sums round as numpy's do, and _divide rounds as numpy's division, so
    # the roots are bit for bit those of a numpy-scalar polish
    c0, c1, c2, c3, c4 = c.tolist()
    d0, d1, d2, d3 = c1 * 1, c2 * 2, c3 * 3, c4 * 4
    out = []
    for w in found.tolist():
        # p(w) is evaluated once per point: its modulus is the residual and
        # the value itself the next step's numerator
        p = c0 + w * (c1 + w * (c2 + w * (c3 + w * c4)))
        r = abs(p)
        for _ in range(3):
            d = d0 + w * (d1 + w * (d2 + w * d3))
            if d == 0:
                break
            w2 = w - _divide(p, d)
            p2 = c0 + w2 * (c1 + w2 * (c2 + w2 * (c3 + w2 * c4)))
            r2 = abs(p2)
            if r2 < r:
                w, p, r = w2, p2, r2
            else:
                break
        if r > RESIDUAL_TOL * scale * max(1.0, abs(w)) ** 4:
            raise DidNotConverge(f"residual {r:.3e} at root {w!r}")
        out.append(w)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


#: n x n companion matrices without their first row: ones on the subdiagonal
_SUBDIAGONALS = tuple(np.diag(np.ones(n - 1, dtype=complex), -1) for n in range(1, 5))
for _template in _SUBDIAGONALS:
    _template.setflags(write=False)


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """Complex roots of the ascending coefficients c with c[-1] != 0, as np.roots
    finds them: exact zeros among the lowest coefficients are roots at 0, and
    the rest are the eigenvalues of the companion matrix of the remaining
    coefficients."""
    low = 0
    while c[low] == 0:
        low += 1
    zeros = np.zeros(low, dtype=complex)
    desc = c[low:][::-1]
    n = len(desc) - 1
    if n == 0:
        return zeros
    a = _SUBDIAGONALS[n - 1].copy()
    a[0, :] = -desc[1:] / desc[0]
    return np.concatenate((np.linalg.eigvals(a), zeros))


def _divide(a: complex, b: complex) -> complex:
    """a / b in the rounding of numpy's complex division (Smith's method scaled by
    a reciprocal), which differs from Python's by an ulp on about 40% of inputs."""
    if abs(b.real) >= abs(b.imag):
        rat = b.imag / b.real
        scl = 1.0 / (b.real + b.imag * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = b.real / b.imag
    scl = 1.0 / (b.imag + b.real * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def reconstruct_monic(root_list) -> np.ndarray:
    """Ascending coefficients of prod (w - w_k); oracle for round-trip tests."""
    c = np.array([1.0 + 0j])
    for w in root_list:
        c = np.convolve(c, np.array([-w, 1.0 + 0j]))
    return c
