"""Upper bound and decomposition workflow for rank-2 three-qubit mixed states.

The GHZ/W mixture gets the closed-form treatment: the zeroing parameter x0,
the weight threshold where x0 leaves the unit disk, the printed bound formula,
and the explicit optimal decompositions (three phase-rotated vectors plus a
remainder below the threshold, three vectors at |x| = 1 above it).

``decompose_rank2`` handles a general rank-2 state: it scans purification
phases, runs the bound constructions on each, and additionally checks whether
the state is a convex mixture of the (at most four) zero-tangle pure states in
its range -- the roots of the binary quartic form. That root-mixture test is
exact, basis independent, and reproduces the closed-form decompositions of the
GHZ/W family.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bounds import (
    PROB_FLOOR,
    BoundWitness,
    bound_grid,
    bound_quartic_A4,
    bound_unitary_3q,
    branch_form_coefficients,
)
from .errors import BranchMismatch, NotDensityMatrix, OutOfRange
from .invariants import invariant_set_A4, three_tangle_pure
from .qstate import (
    MixedState3,
    PureState3,
    PureState4,
    check_normalized,
    normalize,
    purify_rank2,
    rank2_basis,
)
from .quartic import PolyDeg4, roots

RECONSTRUCT_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-10
WEIGHT_DROP = 1e-12
_CUBE_ROOT_2 = 2.0 ** (1.0 / 3.0)


@dataclass(frozen=True)
class GhzWMixture:
    """GHZ weight p and purification phase theta for p GHZ + (1-p) W."""

    p: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise OutOfRange(f"p must lie in [0, 1], got {self.p!r}")


@dataclass(frozen=True)
class Decomposition:
    """Weighted pure-state realization of a rank-2 mixed state."""

    members: tuple[tuple[float, PureState3], ...]
    reconstructed: MixedState3


def make_decomposition(members) -> Decomposition:
    """Build and validate a decomposition from (weight, state) pairs."""
    members = tuple((float(w), s) for w, s in members if w > WEIGHT_DROP)
    total = sum(w for w, _ in members)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise BranchMismatch(f"weights sum to {total!r}, expected 1")
    for _, s in members:
        check_normalized(s)
    rho = np.zeros((8, 8), dtype=complex)
    for w, s in members:
        rho += w * np.outer(s.amps, s.amps.conj())
    return Decomposition(members, MixedState3(rho))


def ghz_state() -> PureState3:
    a = np.zeros(8, dtype=complex)
    a[0] = a[7] = 1.0 / math.sqrt(2.0)
    return PureState3(a)


def w_state() -> PureState3:
    a = np.zeros(8, dtype=complex)
    a[4] = a[2] = a[1] = 1.0 / math.sqrt(3.0)
    return PureState3(a)


def ghzw_rho(p: float) -> MixedState3:
    """p |GHZ><GHZ| + (1-p) |W><W|."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    g, w = ghz_state().amps, w_state().amps
    return MixedState3(p * np.outer(g, g.conj()) + (1.0 - p) * np.outer(w, w.conj()))


def ghzw_purification(p: float, theta: float) -> PureState4:
    """sqrt(p)|GHZ>|0> + e^{i theta} sqrt(1-p)|W>|1>."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    t = np.zeros((8, 2), dtype=complex)
    t[:, 0] = math.sqrt(p) * ghz_state().amps
    t[:, 1] = cmath.exp(1j * theta) * math.sqrt(1.0 - p) * w_state().amps
    return PureState4(t.reshape(16))


def ghzw_invariants(p: float) -> tuple[float, float]:
    """(i40, i13 at theta = 0) of the purification: (p^2/4, sqrt(p(1-p)^3)/(3 sqrt 6)).

    The full theta dependence of the second entry is e^{3 i theta} times it.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    return p ** 2 / 4.0, math.sqrt(p * (1.0 - p) ** 3) / (3.0 * math.sqrt(6.0))


def ghzw_x0(p: float) -> float:
    """Zeroing parameter x0 = sqrt(3 * 2^{5/3} p / (16 (1-p))); diverges at p = 1."""
    if not 0.0 <= p < 1.0:
        raise OutOfRange(f"p must lie in [0, 1), got {p!r}")
    return math.sqrt(3.0 * 2.0 ** (5.0 / 3.0) * p / (16.0 * (1.0 - p)))


def ghzw_threshold() -> float:
    """Weight where x0 reaches the unit circle: 16 / (16 + 3 * 2^{5/3}) ~ 0.626851."""
    return 16.0 / (16.0 + 3.0 * 2.0 ** (5.0 / 3.0))


def ghzw_bound(p: float) -> float:
    """Tabulated GHZ/W bound: zero up to the threshold, |p^2/4 - 4 sqrt(p(1-p)^3)/(3 sqrt 6)| above."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    if p <= ghzw_threshold():
        return 0.0
    i40, i13 = ghzw_invariants(p)
    return abs(i40 - 4.0 * i13)


def ghzw_member(p: float, x: complex, theta: float) -> PureState3:
    """Branch vector (sqrt(p) GHZ - conj(x) e^{i theta} sqrt(1-p) W), normalized."""
    amp = math.sqrt(p) * ghz_state().amps \
        - np.conj(x) * cmath.exp(1j * theta) * math.sqrt(1.0 - p) * w_state().amps
    return normalize(PureState3(amp))


def ghzw_decomposition(p: float, branch: str) -> Decomposition:
    """Optimal GHZ/W decomposition for the requested threshold branch.

    below: three members at (x0, theta_n = 2 pi n / 3) with weight
    p (1 + (3/8) 2^{2/3}) / 3 each plus the W remainder; every member has zero
    tangle. above: three members at (1, theta_n) with weight 1/3.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    pstar = ghzw_threshold()
    thetas = [2.0 * math.pi * n / 3.0 for n in range(3)]
    if branch == "below":
        if p > pstar + 1e-12:
            raise BranchMismatch(f"p = {p} is above the threshold {pstar:.6f}")
        weight = p * (1.0 + (3.0 / 8.0) * _CUBE_ROOT_2 ** 2)
        if weight > 1.0 + 1e-9:
            raise BranchMismatch(f"mixture weight {weight!r} leaves [0, 1]")
        weight = min(weight, 1.0)
        members = []
        if weight > WEIGHT_DROP:
            x0 = ghzw_x0(p)
            members += [(weight / 3.0, ghzw_member(p, x0, th)) for th in thetas]
        if 1.0 - weight > WEIGHT_DROP:
            members.append((1.0 - weight, w_state()))
        return make_decomposition(members)
    if branch == "above":
        if p <= pstar:
            raise BranchMismatch(f"p = {p} is below the threshold {pstar:.6f}")
        return make_decomposition([(1.0 / 3.0, ghzw_member(p, 1.0, th)) for th in thetas])
    raise BranchMismatch(f"branch must be 'below' or 'above', got {branch!r}")


# ---------------------------------------------------------------------------
# general rank-2 workflow
# ---------------------------------------------------------------------------

def _zero_tangle_mixture(p0, p1, v0, v1, inv) -> Decomposition | None:
    """Mixture of the zero-tangle root states reconstructing rho, if one exists.

    The tangle of u v0 + t u v1 vanishes on the <= 4 projective roots t of the
    binary quartic form; rho has zero tangle exactly when it is a convex
    mixture of those root states. Feasibility is decided by enumerating root
    subsets and solving the 2x2 moment constraints.
    """
    if p1 < PROB_FLOOR:
        return None
    g = branch_form_coefficients(inv, p0, p1)
    if not np.any(g):
        # every range state has zero tangle
        return make_decomposition(
            [(p0, PureState3(v0))] + ([(p1, PureState3(v1))] if p1 > WEIGHT_DROP else [])
        )
    # projective roots of g0 + 4 g1 t + 6 g2 t^2 + 4 g3 t^3 + g4 t^4
    ts = roots(PolyDeg4(g[0], 4.0 * g[1], 6.0 * g[2], 4.0 * g[3], g[4]))
    directions = [(1.0, t) for t in ts]
    if len(ts) < 4:
        directions.append((0.0, 1.0))            # root(s) at infinity: v1 itself
    states = []
    for u, t in directions:
        vec = u * v0 + t * v1
        n = np.linalg.norm(vec)
        if n < 1e-14:
            continue
        states.append(vec / n)
    # deduplicate projectively identical roots
    unique = []
    for vec in states:
        if all(1.0 - abs(np.vdot(vec, o)) > 1e-10 for o in unique):
            unique.append(vec)
    # moments of rho in the (v0, v1) basis: diag(p0, p1)
    target = np.array([p0, p1, 0.0, 0.0])
    cols = []
    for vec in unique:
        a = np.vdot(v0, vec)
        b = np.vdot(v1, vec)
        cols.append([abs(a) ** 2, abs(b) ** 2, (a * b.conjugate()).real, (a * b.conjugate()).imag])
    cols = np.array(cols).T if cols else np.zeros((4, 0))
    for k in range(1, len(unique) + 1):
        for subset in combinations(range(len(unique)), k):
            sub = cols[:, list(subset)]
            w, *_ = np.linalg.lstsq(sub, target, rcond=None)
            if np.any(w < -1e-10):
                continue
            w = np.clip(w, 0.0, None)
            if abs(w.sum() - 1.0) > 1e-8 or np.max(np.abs(sub @ w - target)) > 1e-10:
                continue
            members = [(w[i], PureState3(unique[j])) for i, j in enumerate(subset) if w[i] > WEIGHT_DROP]
            try:
                deco = make_decomposition(members)
            except (BranchMismatch, NotDensityMatrix):
                continue
            return deco
    return None


def _realized_value(deco: Decomposition) -> float:
    """Convex-roof value this decomposition actually certifies."""
    total = sum(
        w * math.sqrt(three_tangle_pure(member)) for w, member in deco.members
    )
    return total ** 2


def _two_member_decomposition(state: PureState4, x: complex | None) -> Decomposition:
    """Branch pair of the x-rotated purification, weights p0(x), p1(x)."""
    t = state.tensor()
    phi0 = t[:, :, :, 0].reshape(8)
    phi1 = t[:, :, :, 1].reshape(8)
    if x is not None and abs(x) > 0.0:
        d = math.sqrt(1.0 + abs(x) ** 2)
        phi0, phi1 = (phi0 - np.conj(x) * phi1) / d, (x * phi0 + phi1) / d
    members = []
    for phi in (phi0, phi1):
        w = float(np.sum(np.abs(phi) ** 2))
        if w > WEIGHT_DROP:
            members.append((w, normalize(PureState3(phi))))
    return make_decomposition(members)


def decompose_rank2(
    rho: MixedState3,
    theta_samples: int = 24,
    grid: int = 128,
) -> tuple[BoundWitness, Decomposition]:
    """Bound the tangle of a rank-2 state and return a realizing decomposition.

    For each purification phase theta the quartic, branch-pair, and grid bounds
    run on the purification's invariant set; the reported value is the minimum,
    also taking the exact root-mixture test into account. The returned
    decomposition comes from the best single rotation witness x (two members),
    or from the root mixture when that certifies zero.
    """
    for name, count in (("theta_samples", theta_samples), ("grid", grid)):
        if count < 1:
            raise OutOfRange(f"{name} must be at least 1, got {count!r}")
    p0, p1, v0, v1 = rank2_basis(rho)
    if p1 < PROB_FLOOR:
        member = PureState3(v0)
        value = three_tangle_pure(member)
        witness = BoundWitness("quartic_A4", value, 0j, (), None)
        return witness, make_decomposition([(1.0, member)])

    zero_mixture = _zero_tangle_mixture(p0, p1, v0, v1, invariant_set_A4(purify_rank2(rho, 0.0)))
    best: BoundWitness | None = None
    best_x: tuple[float, float, complex] | None = None   # (value, theta, x)
    for k in range(theta_samples):
        theta = 2.0 * math.pi * k / theta_samples
        inv = invariant_set_A4(purify_rank2(rho, theta))
        witnesses = [
            bound_quartic_A4(inv),
            bound_unitary_3q(inv, p0, p1),
            bound_grid(inv, grid, grid),
        ]
        for wit in witnesses:
            if best is None or wit.value < best.value - 1e-15:
                best = wit
            if wit.method in ("quartic_A4", "grid") and wit.witness_x is not None:
                cand = (wit.value, theta, wit.witness_x)
                if best_x is None or cand[0] < best_x[0]:
                    best_x = cand

    assert best is not None
    if zero_mixture is not None:
        # report what the mixture actually certifies (tiny but not forced to 0
        # when a root carries floating-point error); an all-zero invariant set
        # leaves no rotation witness, and the mixture is then the answer
        value = _realized_value(zero_mixture)
        if best_x is None or value <= best.value:
            return BoundWitness("root_mixture", value, None, (), None), zero_mixture
    # the phase only rotates the invariants, so a set without a witness is all
    # zero at every phase, and then the zero-tangle mixture exists
    assert best_x is not None
    _, theta_star, x_star = best_x
    decomposition = _two_member_decomposition(purify_rank2(rho, theta_star), x_star)
    return best, decomposition
