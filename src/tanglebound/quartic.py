"""Roots of complex polynomials of degree <= 4 with a certified residual bound.

Starting roots come in closed form, in Python complex arithmetic: Ferrari's
factorization through the resolvent cubic for degree 4, Cardano's formula for
degree 3 and the cancellation-free quadratic formula for degree 2. Each is
polished with a guarded Newton step. The contract is the residual bound, not
the algorithm: every returned root w satisfies
|p(w)| <= RESIDUAL_TOL * max|c_i| * max(1, |w|)^4.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .errors import BadArity, DidNotConverge, NonFinite, ZeroPolynomial

RESIDUAL_TOL = 1e-9
SCALE_TOL = 1e-12

#: the primitive cube roots of unity
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
_OMEGA2 = _OMEGA.conjugate()
_REAL_IMAG = operator.attrgetter("real", "imag")    # the roots' sort key


def roots(c) -> list[complex]:
    """All roots of c0 + c1 w + c2 w^2 + c3 w^3 + c4 w^4, with multiplicity, from
    the ascending coefficients c; the length equals the effective degree.

    Leading coefficients below SCALE_TOL * max|c_i| are dropped (the lost roots
    sit at infinity), and exact zeros among the lowest coefficients are roots
    at 0. The other roots start from the closed forms and get up to three
    Newton steps, each kept only if it lowers |p|. Raises BadArity unless there
    are five coefficients, NonFinite on a NaN or infinite one, ZeroPolynomial
    when every coefficient vanishes and DidNotConverge if a root fails the
    residual contract.
    """
    try:
        c = list(map(complex, c))
    except (TypeError, ValueError):
        raise BadArity(f"expected 5 coefficients, got {c!r}") from None
    if len(c) != 5:
        raise BadArity(f"expected 5 coefficients, got {len(c)}")
    if not all(map(cmath.isfinite, c)):
        raise NonFinite(f"coefficients {c!r}")
    moduli = list(map(abs, c))
    scale = max(moduli)
    if scale == 0.0:
        raise ZeroPolynomial("all coefficients are zero")
    deg, low, tol = 4, 0, SCALE_TOL * scale
    while deg > 0 and moduli[deg] < tol:
        deg -= 1
    while low < deg and moduli[low] == 0.0:
        low += 1
    found = [0j] * low + _closed_form(c[low: deg + 1])

    # guarded Newton polish on the full polynomial
    c0, c1, c2, c3, c4 = c
    d1, d2, d3 = c2 * 2, c3 * 3, c4 * 4
    limit = RESIDUAL_TOL * scale    # the residual bound's least value, at |w| <= 1
    out = []
    for w in found:
        # p(w) is evaluated once per point: its modulus is the residual and
        # the value itself the next step's numerator
        p = c0 + w * (c1 + w * (c2 + w * (c3 + w * c4)))
        r = abs(p)
        for _ in (0, 1, 2):
            d = c1 + w * (d1 + w * (d2 + w * d3))
            if not d:
                break
            w2 = w - p / d
            if w2 == w:
                break    # a step that does not move leaves |p| as it is
            p2 = c0 + w2 * (c1 + w2 * (c2 + w2 * (c3 + w2 * c4)))
            r2 = abs(p2)
            if r2 < r:
                w, p, r = w2, p2, r2
            else:
                break
        if r > limit and r > limit * max(1.0, abs(w)) ** 4:
            raise DidNotConverge(f"residual {r:.3e} at root {w!r}")
        out.append(w)
    out.sort(key=_REAL_IMAG)
    return out


def _closed_form(c: list) -> list[complex]:
    """Roots of the ascending coefficients c, of degree len(c) - 1 <= 4, with
    c[-1] != 0 and, from degree 1 on, c[0] != 0."""
    if len(c) == 5:
        return _quartic(c)
    if len(c) == 4:
        return _cubic(*c)
    if len(c) == 3:
        return _quadratic(*c)
    if len(c) == 2:
        return [-c[0] / c[1]]
    return []


def _quadratic(c0: complex, c1: complex, c2: complex) -> list[complex]:
    """Both roots of c0 + c1 w + c2 w^2, c2 != 0: the larger from c1 and the
    square root of the discriminant taken with like signs, the other from the
    product of the roots c0 / c2, so that neither cancels."""
    s = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    if (c1.conjugate() * s).real < 0.0:
        s = -s
    q = -0.5 * (c1 + s)
    if q == 0:
        return [0j, 0j]
    return [q / c2, c0 / q]


def _cubic(c0: complex, c1: complex, c2: complex, c3: complex) -> list[complex]:
    """The three roots of c0 + c1 w + c2 w^2 + c3 w^3, c3 != 0.

    Cardano's formula on the depressed cubic z^3 + p z + q, w = z - c2 / (3 c3),
    gives each root to a few ulps of the largest modulus. The root y1 of
    largest modulus is kept; the other two, which can be far smaller, are the
    roots of a quadratic from the product relations y2 y3 = -c0 / (c3 y1) and
    y1 (y2 + y3) + y2 y3 = c1 / c3, which do not cancel.
    """
    a, b = c2 / c3, c1 / c3
    shift = a / 3.0
    p = b - a * shift
    q = c0 / c3 - shift * (b - 2.0 * shift * shift)
    # u^3 = -q/2 + s with the sign of s that keeps |u^3| large; v = -p / (3 u)
    h = -0.5 * q
    s = cmath.sqrt(h * h + p * p * p / 27.0)
    if (h.conjugate() * s).real < 0.0:
        s = -s
    u = (h + s) ** (1.0 / 3.0)
    if u == 0:
        return [-shift] * 3
    v = -p / (3.0 * u)
    y1 = max((u + v - shift, _OMEGA * u + _OMEGA2 * v - shift, _OMEGA2 * u + _OMEGA * v - shift),
             key=abs)
    product = -c0 / (c3 * y1)
    return [y1, *_quadratic(product, (product - b) / y1, 1.0)]


def _quartic(c: list) -> list[complex]:
    """The four roots of the ascending coefficients c, c[4] != 0, by Ferrari.

    On the monic x^4 + a x^3 + b x^2 + e x + f, each root y of the resolvent
    cubic y^3 - b y^2 + (a e - 4 f) y + 4 b f - a^2 f - e^2 makes the quartic
    (x^2 + a x / 2 + y / 2)^2 - (s x + t)^2 with s^2 = a^2 / 4 - b + y and
    t^2 = y^2 / 4 - f, the product of x^2 + (a / 2 -+ s) x + y / 2 -+ t. The y
    with the largest |s^2| keeps t = (a y / 2 - e) / (2 s) well conditioned.
    """
    c0, c1, c2, c3, c4 = c
    a, b, e, f = c3 / c4, c2 / c4, c1 / c4, c0 / c4
    s2_minus_y = 0.25 * a * a - b
    y = max(_cubic(4.0 * b * f - a * a * f - e * e, a * e - 4.0 * f, -b, 1.0),
            key=lambda y: abs(s2_minus_y + y))
    s = cmath.sqrt(s2_minus_y + y)
    t = (0.5 * a * y - e) / (2.0 * s) if s != 0 else cmath.sqrt(0.25 * y * y - f)
    # the factors' linear coefficients multiply to b - y, their constants to f
    b_minus, b_plus = _pair(0.5 * a, s, b - y)
    c_minus, c_plus = _pair(0.5 * y, t, f)
    return _quadratic(c_minus, b_minus, 1.0) + _quadratic(c_plus, b_plus, 1.0)


def _pair(h: complex, d: complex, product: complex) -> tuple[complex, complex]:
    """(h - d, h + d), the one of smaller modulus taken as product / the other:
    a difference of nearly equal terms would cancel, the quotient does not."""
    minus, plus = h - d, h + d
    if abs(plus) >= abs(minus):
        return product / plus, plus
    return minus, product / minus


def reconstruct_monic(root_list) -> np.ndarray:
    """Ascending coefficients of prod (w - w_k); oracle for round-trip tests."""
    c = np.array([1.0 + 0j])
    for w in root_list:
        c = np.convolve(c, np.array([-w, 1.0 + 0j]))
    return c
