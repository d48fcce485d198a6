"""Upper bounds on the three-tangle of a three-qubit reduced state.

Three constructions are provided, all driven by one invariant set:

* ``bound_quartic_A4``: rotate the traced qubit; zero one endpoint invariant
  at a root of the endpoint quartic, read off the other, take the min. The
  roots are the quartic's Majorana stars and their antipodes, from the set's
  one solve (``ThreeQubitInvariantSet.stars``), and the value left at each is
  a product over the other stars.
* ``bound_unitary_3q``: same idea on the orthogonal three-qubit branch pair,
  with probability-weighted coefficients, on the same stars rescaled.
* ``bound_grid``: direct minimization of f = 2 (sqrt|I40| + sqrt|I04|), the
  sum over both endpoints, on the Riemann sphere of rotation parameters.

A six-way zero-pattern classifier routes sparse invariant sets to closed
formulas, and the universal cap 4 sqrt(N48 - 2|I48|) tops everything.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DegenerateProbability, NonFinite, OutOfRange
from .invariants import (
    CorrelationSummary,
    ThreeQubitInvariantSet,
    _endpoint_coefficients,
    _kept,
    invariant_set,
    summary_from_set,
    traced_qubit_of,
)
from .qstate import PureState4, branch_vectors
from .quartic import _degree

PROB_FLOOR = 1e-12
EQUAL_PROB_TOL = 1e-9
ZERO_PATTERN_TOL = 1e-10
#: relative width of a tie between candidate values or witnesses: the twins
#: of a root pair (the +x and -x of classes I-III) agree in value to about
#: 1e-14; a value tie's scale term 4 max|c_m| covers rounding of 0 (class I)
_TIE = 1e-12


@dataclass(frozen=True)
class BoundWitness:
    """One bound value with the parameter that realizes it."""

    method: str
    value: float
    witness_x: complex | None = None
    group_case: str | None = None


@dataclass(frozen=True)
class BoundReport:
    """All method values for one triple; best is their minimum."""

    triple: str
    methods: tuple[BoundWitness, ...]
    best: float
    tightness_f: float


# ---------------------------------------------------------------------------
# quartic bound on the traced qubit
# ---------------------------------------------------------------------------

def _star_candidates(c, xs, w_star=1.0, w_antipode=1.0):
    """(4 w v, x) at the stars and their antipodes of P(x) = sum_m c_m x^m =
    c_d prod_j (x - x_j), with finite stars ``xs`` and d = len(xs), sorted by
    value (ties in the order listed), except for the witness.

    With I04(x) = P(x) / (1 + |x|^2)^2, |I40(x)| = |x|^4 |P(-1/conj x)| /
    (1 + |x|^2)^2. A star x_i zeroes I04, its antipode -1/conj(x_i) zeroes
    I40, and the value left at either is the product over the other stars
    v_i = |c_d| |x_i|^(4-d) prod_{j != i} |1 + conj(x_i) x_j| / (1 + |x_i|^2),
    weighted ``w_star`` at the star and ``w_antipode`` at its antipode. A star
    at infinity has the antipode x = 0, valued |P(0)| = |c_0|. The lowest
    coefficients that do not count (quartic._degree) put as many stars at or
    near x = 0; their antipodes are left out, as quartic.roots would drop them
    from I40's numerator, and so is the antipode of any star at exactly 0.

    The head group, the leading candidates within _TIE (v0 + 4 max|c_m|) of
    the least value v0, is led by its canonical member (_precedes) at value
    v0, so the last bit of rounding does not pick between a root pair's twins.
    """
    moduli = list(map(abs, c))
    top = max(moduli)
    low, d = 4 - _degree(moduli[::-1]), len(xs)
    cands = [(4.0 * w_antipode * moduli[0], 0j)] * (4 - d)
    ranked = list(enumerate(sorted(xs, key=abs)))
    for i, x in ranked:
        xc = x.conjugate()
        r = abs(x)
        v = 4.0 * moduli[d] * r ** (4 - d) / (1.0 + r ** 2)
        for j, y in ranked:
            if j != i:
                v *= abs(1.0 + xc * y)
        cands.append((w_star * v, x))
        if i >= low and x:
            cands.append((w_antipode * v, -1.0 / xc))
    cands.sort(key=itemgetter(0))
    v0, head = cands[0][0], 0
    for k in range(1, len(cands)):
        if cands[k][0] - v0 > _TIE * (v0 + 4.0 * top):
            break
        if _precedes(cands[k][1], cands[head][1]):
            head = k
    cands.insert(0, (v0, cands.pop(head)[1]))
    return tuple(cands)


def _precedes(a: complex, b: complex) -> bool:
    """Whether witness a is canonical before b: the smaller |x|, then the
    larger Re x, then the larger Im x, each compared within _TIE max(|a|, |b|)."""
    tol = _TIE * max(abs(a), abs(b))
    for p, q in ((abs(b), abs(a)), (a.real, b.real), (a.imag, b.imag)):
        if abs(p - q) > tol:
            return p > q
    return False


@_kept
def quartic_root_candidates(inv: ThreeQubitInvariantSet) -> tuple[tuple[float, complex], ...]:
    """(value, x) pairs: 4 |complementary endpoint| at every star x of the
    endpoint quartic (zeroing I04) and at every antipode -1/conj(x) (zeroing
    I40), each value a product over the other stars (_star_candidates).

    The pairs are sorted by value. The first is the canonical member of the
    least value's ties (_star_candidates): as a star and its antipode carry
    the same value, it has |x| <= 1 up to _TIE. bound_quartic_A4 reports it
    and bound_grid seeds it. The stars are the set's own (inv.stars()), solved
    once per set. A set with no three- or four-way content yields none.
    """
    if inv.scale() == 0.0:
        return ()
    return _star_candidates(_endpoint_coefficients(inv)[1], inv.stars().xs)


def bound_quartic_A4(inv: ThreeQubitInvariantSet) -> BoundWitness:
    """Zero one endpoint invariant exactly, read off the other: 4 min over roots.

    The roots are the stars of the one endpoint quartic solve and their
    antipodes (multiple roots exist even though a single witness suffices in
    principle); the witness is the first of quartic_root_candidates. A set
    with no three- or four-way content yields zero directly.
    """
    candidates = quartic_root_candidates(inv)
    value, x = candidates[0] if candidates else (0.0, None)
    return BoundWitness("quartic_A4", _scaled_back(value), x)


# ---------------------------------------------------------------------------
# unitary on the three-qubit branch pair
# ---------------------------------------------------------------------------

def bound_unitary_3q(inv: ThreeQubitInvariantSet, p0: float, p1: float) -> BoundWitness:
    """Endpoint-zeroing bound on the branch decomposition with probabilities p0, p1.

    The branch pair's endpoint forms f40(y), f04(y) carry the coefficients
    i40/p0^2, 4 i31/sqrt(p0^3 p1), 6 i22/(p0 p1), 4 i13/sqrt(p0 p1^3),
    i04/p1^2: f40's numerator is the set's I04 numerator reversed and scaled,
    so its stars are t_j = sqrt(p1/p0) / x_j for the set's stars x_j
    (inv.stars()). They zero f40, their antipodes zero f04, and the value is
    min(4 p0^2 |f04(t)|, 4 p1^2 |f40(-1/conj t)|) over all of them. Each star
    at infinity gives t = 0 exactly, and a star at x = 0 gives no t (its t is
    at infinity), so a star that the set's quartic drops near a degree drop
    reaches the pair at t = 0, whose antipode is infinite, where the pair's
    own solve would find a tiny root t with a finite antipode. The
    coefficients are the set's unit copy's (inv.unit()) and the value is
    multiplied back, as in bound_closed_form and cap_of. Requires both
    probabilities finite and at least PROB_FLOOR; coincides with
    bound_quartic_A4 when p0 = p1.
    """
    if not (math.isfinite(p0) and math.isfinite(p1)):
        raise NonFinite(f"branch probabilities ({p0!r}, {p1!r})")
    if p0 < PROB_FLOOR or p1 < PROB_FLOOR:
        raise DegenerateProbability(
            f"branch probabilities ({p0!r}, {p1!r}): reduced state is pure; "
            "use three_tangle_pure on the surviving branch"
        )
    candidates = _unitary_3q_candidates(inv, p0, p1)
    value, t = candidates[0] if candidates else (0.0, None)
    return BoundWitness("unitary_3q", _scaled_back(value, inv.unit()[1]), t)


def _unitary_3q_candidates(inv: ThreeQubitInvariantSet, p0: float, p1: float) -> tuple:
    """bound_unitary_3q's (value, t) pairs, sorted by _star_candidates, with
    values of the set's unit copy: the first is its witness. The stars are
    the set's own. A set with no content yields none."""
    if inv.scale() == 0.0:
        return ()
    xs = inv.stars().xs
    c04 = _endpoint_coefficients(inv.unit()[0])[1]
    c = [a / (math.sqrt(p0) ** (4 - m) * math.sqrt(p1) ** m) for m, a in enumerate(c04[::-1])]
    # the f40 quartic's own degree drop, as quartic.roots would take it
    d = _degree(list(map(abs, c)))
    ratio = math.sqrt(p1 / p0)
    ts = sorted([ratio / x for x in xs if x] + [0j] * (4 - len(xs)), key=abs)[:d]
    # zeroing f40 leaves weight p0^2 on f04, zeroing f04 leaves p1^2 on f40
    return _star_candidates(c, ts, p0 ** 2, p1 ** 2)


# ---------------------------------------------------------------------------
# grid minimization over the Riemann sphere
# ---------------------------------------------------------------------------

#: polar angles and azimuths of the sphere grid: a GRID_POINTS x GRID_POINTS grid
GRID_POINTS = 256
#: sphere rows per block, the rows of a tile: the 128 evaluated rows make
#: eight blocks of 15 and a last one of 8. Taller tiles are fewer to bound,
#: but their larger radius loosens the bound, and _sphere_min evaluates every
#: row of each block that keeps a live tile
SPHERE_BLOCK_ROWS = 15
#: azimuth sectors per block: a tile, the unit of the lower bound that lets
#: _sphere_min skip grid points, is one block's rows x GRID_POINTS / 32 = 8
#: columns, so the 9 blocks make 288 tiles
SPHERE_SECTORS = 32
#: C in the skipping margin C sqrt(u sum|c_m|) (_live_tiles): twice the 64
#: that the rounding of the grid values and of the tile bounds can take
_MARGIN_C = 128.0
#: the unit roundoff u of a float
_U = 2.0 ** -53


@dataclass(frozen=True)
class _SphereGrid:
    """Read-only tables of the sphere grid, shared by every call.

    Only the first ``rows`` = GRID_POINTS/2 polar rows are evaluated
    (bound_grid). A tile is one block's rows and the GRID_POINTS /
    SPHERE_SECTORS columns of one sector q, and tile t = b SPHERE_SECTORS + q
    is block b's q-th sector: 9 x 32 = 288 tiles. Its centre
    c_t = r_c e^{i phi_c} has r_c midway between the block's first and last r
    and phi_c midway between the sector's first and last azimuth; rho_b, the
    largest distance from c_t to a grid point of the tile, is the same for
    every tile of block b. For the quartic P(x) = sum_m a_m x^m,
    ``a @ taylor`` lists the Taylor terms D_0 and D_1 rho_b about every c_t,
    D_k = P^(k)(c_t)/k!, and ``|a| @ tail`` bounds the sum of the higher ones
    on every tile of block b (_live_tiles).
    """

    theta: np.ndarray       # (GRID_POINTS,) cell-centred polar angles
    phi: np.ndarray         # (GRID_POINTS,) azimuths
    powers: np.ndarray      # (rows, 5): r^k with r = tan(theta/2)
    phase: np.ndarray       # (5, GRID_POINTS): e^{ik phi}
    den: np.ndarray         # (rows, 1): (1 + r^2)^2
    blocks: tuple[tuple[int, int], ...]   # [start, stop) rows of each block
    row_block: np.ndarray   # (rows,): the block of each row
    column_sector: np.ndarray   # (GRID_POINTS,): the sector of each column
    taylor: np.ndarray      # (5, 2 tiles): row m, column k tiles + t: binom(m, k) c_t^(m-k) rho_b^k
    tail: np.ndarray        # (5, blocks): row m: sum_{k>=2} binom(m, k) r_c^(m-k) rho_b^k
    shrink: np.ndarray      # (blocks, 1): 2 / (1 + r^2) at the block's last, largest r


@functools.cache
def _sphere_grid() -> _SphereGrid:
    """The grid's tables, built on first use and then shared."""
    theta = np.pi * (np.arange(GRID_POINTS) + 0.5) / GRID_POINTS
    phi = 2.0 * np.pi * np.arange(GRID_POINTS) / GRID_POINTS
    rows = GRID_POINTS // 2
    r = np.tan(theta[:rows] / 2.0)
    stops = list(range(SPHERE_BLOCK_ROWS, rows, SPHERE_BLOCK_ROWS)) + [rows]
    starts = [0] + stops[:-1]
    sizes = np.diff([0] + stops)

    # tiles: the farthest points of a tile from its centre are its first and
    # last columns, half the sector's angular width away from phi_c
    width = GRID_POINTS // SPHERE_SECTORS
    last = np.array(stops) - 1
    r_c = (r[starts] + r[last]) / 2.0
    half_width = np.pi * (width - 1) / GRID_POINTS
    rho = np.maximum.reduceat(np.abs(r * np.exp(1j * half_width) - np.repeat(r_c, sizes)), starts)
    centres = np.outer(r_c, np.exp(1j * (phi[::width] + half_width)))
    k = np.arange(5)
    binom = np.array([[math.comb(m, j) for j in k] for m in k], dtype=float)
    powers = np.maximum(k[:, None] - k, 0)
    taylor = (binom[:, :2] * centres.reshape(-1, 1, 1) ** powers[:, :2]
              * np.repeat(np.power.outer(rho, k[:2]), SPHERE_SECTORS, axis=0)[:, None, :])
    tail = (binom[:, 2:] * r_c[:, None, None] ** powers[:, 2:]
            * np.power.outer(rho, k[2:])[:, None, :]).sum(axis=2)
    # _MARGIN_C is derived for r < 1 and tiles within 1.05 of the origin
    if not (r[-1] < 1.0 and (r_c + rho).max() <= 1.05):
        raise RuntimeError("sphere tiles reach beyond |x| = 1.05; _MARGIN_C does not cover them")
    grid = _SphereGrid(
        theta,
        phi,
        r[:, None] ** k,
        np.exp(1j * np.outer(k, phi)),
        ((1.0 + r ** 2) ** 2)[:, None],
        tuple(zip(starts, stops)),
        np.repeat(np.arange(len(stops)), sizes),
        np.arange(GRID_POINTS) // width,
        taylor.transpose(1, 2, 0).reshape(5, -1),
        tail.T.copy(),
        2.0 / (1.0 + r[last, None] ** 2),
    )
    for table in (grid.theta, grid.phi, grid.powers, grid.phase, grid.den, grid.row_block,
                  grid.column_sector, grid.taylor, grid.tail, grid.shrink):
        table.setflags(write=False)
    return grid


def _live_tiles(coefficients: np.ndarray, grid: _SphereGrid, threshold: float) -> np.ndarray:
    """(blocks, SPHERE_SECTORS) mask of the tiles that may hold a grid value of
    f at or below ``threshold``: those whose lower bound on f is at most
    threshold + C sqrt(u sum_m |c_m|), every tile when it is infinite.
    ``coefficients`` is the (2, 5) array of conj(c40) and c04 (_sphere_min).

    The tile bound. The endpoint numerators are quartics P(x) = sum_m a_m x^m,
    I04's with a = c04 and |I40| = |sum_m conj(c40_m) x^m|'s with
    a = conj(c40), so their Taylor expansions about a tile centre c, with
    D_k = sum_m a_m binom(m, k) c^(m-k), end at degree 4 and are exact:
    |P(x)| >= |D_0| - |D_1| rho - sum_{k>=2} |D_k| rho^k at every x within
    rho of c. D_0 and D_1 rho are exact for every tile: one (2, 5) @ (5, 576)
    complex product. The higher orders are bounded for a whole block at once
    by the triangle inequality: every tile centre of block b has |c| = r_c, so
    sum_{k>=2} |D_k| rho_b^k <= H_b = sum_m |a_m| sum_{k>=2} binom(m, k)
    r_c^(m-k) rho_b^k, one (2, 5) @ (5, 9) real product. So
    LB = |D_0| - |D_1| rho_b - H_b. With r <= r_max on the tile,
    f = 2 (sqrt|P40| + sqrt|P04|) / (1 + r^2) is at least
    2 (sqrt LB40+ + sqrt LB04+) / (1 + r_max^2).

    The margin covers rounding, which sqrt amplifies near an endpoint zero:
    |sqrt(a) - sqrt(b)| <= sqrt|a - b|. With S = sum_m |c_m| (the same for both
    endpoints) and u = 2^-53, the grid's value of |P|/(1 + r^2)^2 at a point
    of the tile is within 64 u S of the exact value at the point its r and phi
    tables stand for: the phase table e^{ik phi} errs by up to about 27 u, the
    r^k table, the five-term complex product and the division by the
    denominator by a few u each, on terms summing to at most S as r < 1. A
    computed LB is within 64 u S of the exact bound over a disk that holds
    that point: D_0, D_1 rho and H_b are sums of products of moduli at most
    |a_m| (|c| + rho)^m, at most 1.05^4 S < 1.22 S in all, each off by a few u
    relative (H_b's terms are nonnegative); the rounding of c, rho and r_c is
    a few u of distance, weighted by |P'| <= 4 S (|c| + rho)^3 in D_0 and by
    as little in H_b, whose r_c stands for |c|. Here |c| + rho <= 1.05 (both
    conditions on the tiles are checked by _sphere_grid). Each of the four
    square roots (two endpoints, grid value and bound) is then off by at most
    8 sqrt(u S), their undoubled sums by 32 sqrt(u S) together, and f by
    64 sqrt(u S); the
    relative rounding of the square roots, sums and scalings is of order
    u sqrt(S), far below sqrt(u S). The margin takes C = _MARGIN_C = 128,
    twice that. A skipped tile therefore holds only grid values above
    ``threshold``. A relative margin such as 1e-9 f would not do: at a root of
    one endpoint on a grid point its grid value sqrt(|P|/(1 + r^2)^2) is
    rounding's sqrt(u S) instead of 0.
    """
    moduli = np.abs(coefficients)
    d = np.abs(coefficients @ grid.taylor).reshape(2, 2, len(grid.blocks), SPHERE_SECTORS)
    low = d[:, 0] - d[:, 1]
    low -= (moduli @ grid.tail)[:, :, None]
    np.maximum(low, 0.0, out=low)
    np.sqrt(low, out=low)
    lower = low[0] + low[1]
    lower *= grid.shrink
    margin = _MARGIN_C * math.sqrt(_U * moduli[1].sum())
    return lower <= threshold + margin


def _sphere_min(c40, c04, grid: _SphereGrid,
                threshold: float = math.inf) -> tuple[int, float]:
    """First minimum, in row-major order, of f(x) = 2 (sqrt|I40(x)| + sqrt|I04(x)|)
    at x = tan(theta_j/2) e^{i phi_l} over the grid's evaluated rows:
    (flat index j GRID_POINTS + l, value), when that minimum is at most
    ``threshold``; otherwise a value above ``threshold`` (infinity when no
    tile is live).

    Two array passes. The first, _live_tiles, rules out the tiles whose lower
    bound, less a margin for rounding, lies above ``threshold``. The second
    evaluates the live region in one matrix product: the rows of every block
    that has a live tile and the columns of every sector that has one, both
    ascending, so its row-major order is the grid's and its index (j, l) is
    the flat index rows[j] GRID_POINTS + columns[l]. Its cross tiles, a live
    block's rows in a sector live only in other blocks, were ruled out and
    hold only values above ``threshold``. So a minimum at or below
    ``threshold`` and its first occurrence lie in a live tile, and nothing
    else evaluated can tie with it. The default infinite ``threshold``
    evaluates the whole half grid, 128 x 256 points.

    With r = tan(theta/2) the endpoint numerators are I04 = sum_k c_k r^k e^{ik phi}
    and I40 = sum_k c'_k r^k e^{-ik phi}; the common denominator (1 + r^2)^2
    depends on theta only. Since |I40| = |sum_k conj(c'_k r^k) e^{ik phi}|,
    the region's conj(c' r^k) rows stacked on its c r^k rows, one broadcast
    product of its r^k rows and the coefficient array the first pass reads
    (r^k conj(c'_k) is conj(c'_k r^k) up to the signs of zero parts, which no
    modulus sees), give both moduli in one product with the region's columns
    of the phase table (ndarray.take, C-contiguous like the table). The sums
    of square roots are compared undoubled and only the chosen one is doubled
    (exactly). The region has at least 8 rows and 8 columns, so every value
    equals the full-grid product's (a 1-row product would take BLAS's
    matrix-vector path, which rounds differently). ``c40``, ``c04`` are the
    set's _endpoint_coefficients.
    """
    coefficients = np.array((c40, c04))
    np.conjugate(coefficients[0], out=coefficients[0])
    live = _live_tiles(coefficients, grid, threshold)
    rows = np.flatnonzero(live.any(axis=1)[grid.row_block])
    if not rows.size:
        return 0, math.inf
    columns = np.flatnonzero(live.any(axis=0)[grid.column_sector])
    stacked = (grid.powers[rows] * coefficients[:, None, :]).reshape(-1, 5)
    moduli = np.abs(stacked @ grid.phase.take(columns, axis=1)).reshape(2, rows.size, -1)
    moduli /= grid.den[rows]
    np.sqrt(moduli, out=moduli)
    sums = moduli[0] + moduli[1]
    k = int(sums.argmin())
    j, l = divmod(k, columns.size)
    return int(rows[j]) * GRID_POINTS + int(columns[l]), 2.0 * sums.item(k)


def bound_grid(inv: ThreeQubitInvariantSet, *, candidates=None) -> BoundWitness:
    """Minimize f(x) = 2 (sqrt|I40(x)| + sqrt|I04(x)|) over the sphere; value = min^2.

    x = tan(theta/2) e^{i phi} covers theta in (0, pi) on a GRID_POINTS x
    GRID_POINTS grid; the pole x -> infinity swaps the endpoint roles and
    evaluates to the same f as x = 0, so both ends are covered explicitly. The
    grid's tables (angles, powers of tan(theta/2), phases, denominators, block
    bounds, tile tables) are built on first use and kept read-only
    (_sphere_grid). The grid is evaluated as a separable product in theta and
    phi in two array passes, a lower bound on every tile and one matrix
    product for both endpoints over the live region (_sphere_min); its values
    and the point it picks are bit-identical to evaluating the whole grid at
    once, one endpoint at a time. Since f(x) = f(-1/conj(x)), grid point
    (j, l) has the value of (GRID_POINTS-1-j, l+GRID_POINTS/2), so only the
    rows j < GRID_POINTS/2 are evaluated. The quartic endpoint roots
    (``candidates``: the set's own unless given; [] searches unseeded) come
    sorted by value, and f = 2 sqrt(value/4) is monotone in it, so the first,
    quartic_A4's witness, is the one seed: the value is min(grid minimum,
    pole, seed)^2, and the witness is tan(theta/2) e^{i phi} at the point
    that attains it.

    The pole and seed values are computed first, and their minimum T is the
    threshold of the sphere search, which skips every tile (a block's rows x
    GRID_POINTS / SPHERE_SECTORS columns) whose lower bound on f clears T by a
    rounding margin (_live_tiles). A skipped tile holds only values above T,
    so it could neither lower the minimum nor tie with it: value, witness and
    tie rule are those of the full search. On random states about 8 of the 288
    tiles stay live (median 5), in 2-3 of the 9 blocks and about 4 of the 32
    sectors, and the evaluated region holds about 13 tiles (median 6).

    No tile is evaluated, and the value is T^2 with the pole's or the seed's
    witness, where a floor of f on the whole sphere reaches T up to rounding:
    F >= T - (_MARGIN_C - 32) sqrt(u S), with u = 2^-53 and S = sum_m |c_m|.
    The floor. Let a be the larger of the end moduli |c04[0]|, |c04[4]| and E
    the sum of the other four. Say a = |c04[4]| (the other end swaps the roles
    of x and conj(x)). On the evaluated rows r = |x| < 1 the I04 numerator
    sum_m c04[m] x^m is c04[4] x^4 plus terms of modulus at most E, and the
    I40 numerator, whose coefficient moduli are c04's reversed, is a term of
    modulus a plus terms of modulus at most E. As sqrt(max(0, A - E)) >=
    sqrt(A) - sqrt(E), sqrt|I04 numerator| >= sqrt(a) r^2 - sqrt(E) and
    sqrt|I40 numerator| >= sqrt(a) - sqrt(E), so
    f = 2 (sqrt|I40| + sqrt|I04|) >= 2 sqrt(a) - 4 sqrt(E) / (1 + r^2), and
    F = max(0, 2 sqrt(a) - 4 sqrt(E)) <= f on the whole sphere, whose other
    half mirrors the evaluated one. The grid values are within 32 sqrt(u S)
    of f (_live_tiles), so the full search could find none more than
    _MARGIN_C sqrt(u S) below T; F's own rounding is of order u sqrt(S). The
    rule fires where T = 0 (F >= 0), and where f is flat, E <= 256 u S: the
    pole is at most 2 sqrt(a) + 2 sqrt(E), so T - F <= 6 sqrt(E)
    <= 96 sqrt(u S). That is class I, whose T is rounding of 0, class III on
    A1A2A3 and A1A3A4, IV, V on A1A2A3 and A1A3A4, VI, VII and VIII.
    """
    if inv.scale() == 0.0:
        return BoundWitness("grid", 0.0)
    # endpoints of the theta range: x = 0 and the pole give the same f value
    pole = 2.0 * (math.sqrt(abs(inv.i04)) + math.sqrt(abs(inv.i40)))
    # exact quartic witnesses are feasible points; the least one is the seed
    if candidates is None:
        candidates = quartic_root_candidates(inv)
    value, x = candidates[0] if candidates else (math.inf, None)
    seed = 2.0 * math.sqrt(value / 4.0)

    grid = _sphere_grid()
    threshold = min(pole, seed)
    c40, c04 = _endpoint_coefficients(inv)
    m = [abs(c) for c in c04]
    end, rest = max(m[0], m[4]), m[1] + m[2] + m[3] + min(m[0], m[4])
    floor = max(0.0, 2.0 * math.sqrt(end) - 4.0 * math.sqrt(rest))
    if floor >= threshold - (_MARGIN_C - 32.0) * math.sqrt(_U * (end + rest)):
        # no grid value can beat T: as if no tile were evaluated
        k, best = 0, math.inf
    else:
        k, best = _sphere_min(c40, c04, grid, threshold)
    j, l = divmod(k, GRID_POINTS)
    best_theta = float(grid.theta[j])
    best_phi = float(grid.phi[l])
    if pole < best:
        best, best_theta, best_phi = pole, 0.0, 0.0
    if seed < best:
        best = seed
        best_theta = 2.0 * math.atan(abs(x))
        best_phi = cmath.phase(x) % (2.0 * math.pi)

    witness = math.tan(best_theta / 2.0) * cmath.exp(1j * best_phi)
    try:
        value = best ** 2
    except OverflowError:    # float ** raises where * gives inf
        value = math.inf
    return BoundWitness("grid", _scaled_back(value), witness)


# ---------------------------------------------------------------------------
# zero-pattern classifier and closed forms
# ---------------------------------------------------------------------------

#: nonzero pattern -> sparse case; case "i" is decided by the three-way correlation
_CASE_OF_PATTERN = {
    frozenset({"40"}): "ii",
    frozenset({"04"}): "iii",
    frozenset({"40", "22"}): "iv",
    frozenset({"04", "22"}): "v",
    frozenset({"04", "13"}): "vi",
}


def classify_group(inv: ThreeQubitInvariantSet) -> str:
    """Assign one of the six sparse groups, or "generic".

    A vanishing three-way correlation (summary_from_set) is case "i". Else an
    invariant counts as zero when its modulus is below ZERO_PATTERN_TOL times
    the largest modulus in the set, and the nonzero pattern picks the case in
    _CASE_OF_PATTERN. Both read the set's unit copy (inv.unit()).
    """
    unit = inv.unit()[0]
    scale = unit.scale()
    if scale == 0.0 or summary_from_set(unit).three_way < ZERO_PATTERN_TOL * 16.0 * scale ** 2:
        return "i"
    tol = ZERO_PATTERN_TOL * scale
    entries = {"40": unit.i40, "31": unit.i31, "22": unit.i22, "13": unit.i13, "04": unit.i04}
    pattern = frozenset(lab for lab, z in entries.items() if abs(z) >= tol)
    return _CASE_OF_PATTERN.get(pattern, "generic")


def bound_closed_form(inv: ThreeQubitInvariantSet) -> BoundWitness | None:
    """Closed-form bound for the set's sparse group (classify_group), None
    for a generic set: read off the set's unit copy and multiplied back.

    (i) 0, (ii) 4|i40|, (iii) 4|i04|,
    (iv) 4|i40| ||6 i22| - |i40|| / (|6 i22| + |i40|),
    (v)  4|i04| ||6 i22| - |i04|| / (|6 i22| + |i04|),
    (vi) 4|i04|^3 / (|4 i13|^2 + |i04|^2), taken as
         4|i04| (|i04| / hypot(|4 i13|, |i04|))^2, whose square cannot underflow.
    """
    case = classify_group(inv)
    if case == "generic":
        return None
    unit, e = inv.unit()
    a40, a22, a13, a04 = abs(unit.i40), abs(6.0 * unit.i22), abs(4.0 * unit.i13), abs(unit.i04)
    if case == "i":
        value = 0.0
    elif case == "ii":
        value = 4.0 * a40
    elif case == "iii":
        value = 4.0 * a04
    elif case == "iv":
        value = 4.0 * a40 * abs(a22 - a40) / (a22 + a40)
    elif case == "v":
        value = 4.0 * a04 * abs(a22 - a04) / (a22 + a04)
    else:  # vi
        value = 4.0 * a04 * (a04 / math.hypot(a13, a04)) ** 2
    return BoundWitness("closed_form", _scaled_back(value, e), None, case)


def _scaled_back(value: float, e: int = 0) -> float:
    """A value read off a unit copy (or, e = 0, the set) times 2^e; OutOfRange unless finite."""
    try:
        if math.isfinite(value):
            return math.ldexp(value, e)
    except OverflowError:
        pass
    raise OutOfRange(f"a bound of {value!r} x 2^{e} is past the largest float")


#: relative tolerance on N48 below which bound_cap reads N48 - 2|I48| as 0:
#: 32 u, above the 18 u that summary_from_set's rounding can take
_CAP_TOL = 32.0 * _U


def bound_cap(summary: CorrelationSummary) -> BoundWitness:
    """Universal cap 4 sqrt(N48 - 2|I48|); every other bound sits below it.

    N48 - 2|I48| >= 0 exactly: 2|I48| <= 6|i22|^2 + 8|i31||i13| + 2|i40||i04|,
    which is at most N48 by 2ab <= a^2 + b^2. summary_from_set computes it within
    18 u N48 (u = 2^-53). Each term of N48 is within 6 u (abs, the square, the
    product by 6), and the four sums of nonnegative terms add 4 u, so N48 is
    within 10 u N48. Each product in I48 is within 4 u of the product of the
    moduli, and the two sums and the modulus add 4 u of
    M = 3|i22|^2 + 4|i31||i13| + |i40||i04|, so 2|I48| is within
    16 u M <= 8 u N48. The subtraction is exact near 0. So a difference at or below
    _CAP_TOL N48 = 32 u N48 is rounding of 0, which the square root would
    print as up to about 4 sqrt(32 u N48), and the cap reads 0 there. Real
    differences sit far above it: at least 0.08 N48 on the class draws and
    0.005 N48 on 9,000 sets of random states.
    """
    return BoundWitness("cap", _cap(summary))


def _cap(summary: CorrelationSummary) -> float:
    residual = summary.n48 - 2.0 * abs(summary.i48)
    return 4.0 * math.sqrt(residual) if residual > _CAP_TOL * summary.n48 else 0.0


def cap_of(inv: ThreeQubitInvariantSet) -> BoundWitness:
    """The cap best_bound reports: bound_cap read off the set's unit copy and
    multiplied back, so exact where bound_cap on the set's summary is not."""
    unit, e = inv.unit()
    return BoundWitness("cap", _scaled_back(_cap(summary_from_set(unit)), e))


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

def best_bound(state: PureState4, triple: str) -> BoundReport:
    """Run every applicable method for one triple and report the minimum.

    Methods: cap (cap_of), classifier + closed form (sparse patterns only),
    the quartic bound, the branch-pair bound, and the grid minimization. The
    branch-pair method enters the comparison only when the traced qubit's
    branch probabilities are equal: that is its regime of validity (it then
    coincides with the quartic bound), whereas at unequal probabilities its
    probability-weighted value can drop below what any decomposition of the
    reduced state realizes. The endpoint quartic is solved once
    (inv.stars()): the quartic bound, the grid's seeds and the branch-pair
    bound all read its stars.
    """
    traced = traced_qubit_of(triple)
    inv = invariant_set(state, traced)
    methods = [cap_of(inv)]
    closed = bound_closed_form(inv)
    if closed is not None:
        methods.append(closed)
    methods.append(bound_quartic_A4(inv))
    p0, p1 = (np.abs(branch_vectors(state, traced)) ** 2).sum(axis=1).tolist()
    if min(p0, p1) >= PROB_FLOOR and abs(p0 - p1) <= EQUAL_PROB_TOL:
        methods.append(bound_unitary_3q(inv, p0, p1))
    methods.append(bound_grid(inv))
    best = min(m.value for m in methods)
    cap = methods[0].value
    tightness = best / cap if cap > 0.0 else 0.0
    return BoundReport(triple, tuple(methods), best, tightness)


def witness_to_json(w: BoundWitness) -> dict:
    """One method's entry: its name, value, witness x as [re, im] or None, and
    its case where it has one."""
    return {
        "method": w.method,
        "value": w.value,
        "x": None if w.witness_x is None else [float(w.witness_x.real), float(w.witness_x.imag)],
        **({"case": w.group_case} if w.group_case is not None else {}),
    }


def report_to_json(report: BoundReport) -> dict:
    return {
        "triple": report.triple,
        "methods": [witness_to_json(m) for m in report.methods],
        "best": report.best,
        "F": report.tightness_f,
    }
