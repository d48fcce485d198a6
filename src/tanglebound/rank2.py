"""Upper bound and decomposition workflow for rank-2 three-qubit mixed states.

The GHZ/W mixture gets the closed-form treatment: the zeroing parameter x0,
the weight threshold where x0 leaves the unit disk, the printed bound formula,
and the explicit optimal decompositions (three phase-rotated vectors plus a
remainder below the threshold, three vectors at |x| = 1 above it).

``decompose_rank2`` handles a general rank-2 state from the Majorana stars of
one purification's endpoint quartic (``ThreeQubitInvariantSet.stars``). It
checks whether the state is a convex mixture of the (at most four)
zero-tangle pure states in its range, one per star: the origin must lie in
the convex hull of the stars' points on the sphere, one least-squares solve,
exact, basis independent, and reproducing the closed-form decompositions of
the GHZ/W family. When it succeeds its mixture is the answer; otherwise the
quartic and branch-pair bounds run on the same stars. One purification serves
every phase: the relative phase theta of the second branch is a diagonal
unitary on the traced qubit, which sends I^{4-m,m} to e^{i m theta} I^{4-m,m}
and only reparametrizes the rotation x, so every phase gives the same bounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bounds import PROB_FLOOR, BoundWitness, bound_quartic_A4, bound_unitary_3q
from .errors import BranchMismatch, NonFinite, NotDensityMatrix, OutOfRange
from .invariants import Stars, invariant_set, three_tangle_pure
from .qstate import (
    MixedState3,
    PureState3,
    _purification,
    branch_vectors,
    check_normalized,
    normalize,
    rank2_basis,
)

WEIGHT_SUM_TOL = 1e-10
WEIGHT_DROP = 1e-12
_CUBE_ROOT_2 = 2.0 ** (1.0 / 3.0)


@dataclass(frozen=True)
class Decomposition:
    """Weighted pure-state realization of a rank-2 mixed state."""

    members: tuple[tuple[float, PureState3], ...]
    reconstructed: MixedState3


def make_decomposition(members) -> Decomposition:
    """Build and validate a decomposition from (weight, state) pairs; members
    of weight at most WEIGHT_DROP are left out, NonFinite on a NaN or inf weight."""
    members = [(float(w), s) for w, s in members]
    for w, _ in members:
        if not math.isfinite(w):
            raise NonFinite(f"weight {w!r} is not finite")
    members = tuple((w, s) for w, s in members if w > WEIGHT_DROP)
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


def _check_weight(p: float) -> None:
    """OutOfRange unless the GHZ weight p lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")


def ghzw_rho(p: float) -> MixedState3:
    """p |GHZ><GHZ| + (1-p) |W><W|."""
    _check_weight(p)
    g, w = ghz_state().amps, w_state().amps
    return MixedState3(p * np.outer(g, g.conj()) + (1.0 - p) * np.outer(w, w.conj()))


def ghzw_invariants(p: float) -> tuple[float, float]:
    """(i40, i13 at theta = 0) of the purification: (p^2/4, sqrt(p(1-p)^3)/(3 sqrt 6)).

    The full theta dependence of the second entry is e^{3 i theta} times it.
    """
    _check_weight(p)
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
    _check_weight(p)
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
    _check_weight(p)
    pstar = ghzw_threshold()
    thetas = [2.0 * math.pi * n / 3.0 for n in range(3)]
    if branch == "below":
        if p > pstar + 1e-12:
            raise BranchMismatch(f"p = {p} is above the threshold {pstar:.6f}")
        # p / pstar, so at most 1 + 1.6e-12 here; the clamp takes off the rounding
        weight = min(p * (1.0 + (3.0 / 8.0) * _CUBE_ROOT_2 ** 2), 1.0)
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

#: 1 - n_a.n_b at or below which two stars' points count as one: the unit
#: vectors u in C^2 with u u^dagger = (I + n.sigma) / 2 have
#: 1 - n_a.n_b = 2 (1 - |<u_a|u_b>|^2), about 4 (1 - |<u_a|u_b>|) here
_COINCIDENT = 4e-10
#: least-weight margin within which two breakpoints of a coplanar system tie
_BREAKPOINT_TIE = 1e-9


def _range_states(stars: Stars, phi0, phi1) -> tuple[list[np.ndarray], np.ndarray]:
    """(states, points) of the distinct stars: psi_x = (x phi0 + phi1) /
    sqrt(1 + |x|^2) for a finite star x, phi0 for a star at infinity, and the
    stars' points (Stars.points), a (k, 3) array. A star whose point lies
    within _COINCIDENT of an earlier one's gives the same state and is left
    out."""
    states = [(x * phi0 + phi1) / math.sqrt(1.0 + abs(x) ** 2) for x in stars.xs]
    states += [phi0] * (4 - len(stars.xs))
    keep = []
    for j, n in enumerate(stars.points):
        if all(1.0 - n @ stars.points[k] > _COINCIDENT for k in keep):
            keep.append(j)
    return [states[j] for j in keep], stars.points[keep]


def _zero_tangle_mixture(stars: Stars, phi0, phi1) -> Decomposition | None:
    """Mixture of the zero-tangle range states reconstructing rho, if one exists.

    rho = phi0 phi0^dagger + phi1 phi1^dagger with phi_i = sqrt(p_i) v_i, and
    the range state Phi u (Phi = [phi0, phi1], u in C^2) has zero tangle
    exactly when u is along (x, 1) for a star x of the purification's
    endpoint quartic, or along (1, 0) for a star at infinity: the states
    psi_x of _range_states, at most four. A mixture of them,
    sum_j c_j psi_j psi_j^dagger with c_j >= 0, is rho exactly when
    sum_j c_j u_j u_j^dagger = I for the unit vectors u_j, that is, with
    u u^dagger = (I + n.sigma) / 2 (Stars), when sum_j c_j = 2 and
    sum_j c_j n_j = 0: the origin lies in the convex hull of the stars'
    points. Feasibility is one least-squares solve of these four equations,
    and the mixture's weights are w_j = c_j |psi_j|^2.

    Distinct points on the sphere are affinely independent unless four of
    them lie on one circle (real-amplitude states, class I). That system has
    one null direction, with no zero entry, and each breakpoint on it zeroes
    one c_j. Each breakpoint is scored by the least weight among the members
    it keeps; of those within _BREAKPOINT_TIE of the best score, the one
    whose canonical members (_canonical_members) sort first is taken, so
    that rounding-level moves of the stars do not pick another mixture.

    The members come in a canonical order and phase (_canonical_members), so
    such moves neither reorder nor flip them either.
    """
    states, points = _range_states(stars, phi0, phi1)
    hull = np.vstack((np.ones(len(states)), points.T))
    target = np.array([2.0, 0.0, 0.0, 0.0])
    c, _, rank, _ = np.linalg.lstsq(hull, target, rcond=1e-10)
    norms2 = np.array([np.vdot(psi, psi).real for psi in states])
    if rank < len(states):
        # four points on one circle: c + s null solves the system for every
        # s; step to each point where a c_j reaches zero and keep the best
        null = np.linalg.svd(hull)[2][-1]
        steps = c - (c / null)[:, None] * null
        weights = steps * norms2
        kept = np.where(np.eye(len(states), dtype=bool), np.inf, weights).min(axis=1)
        tied = np.flatnonzero(kept >= kept.max() - _BREAKPOINT_TIE)
        c = steps[min(tied, key=lambda i: [
            _member_key(m) for m in _canonical_members(weights[i], states)])]
    w = c * norms2
    if np.any(w < -1e-10) or np.max(np.abs(hull @ np.clip(c, 0.0, None) - target)) > 1e-10:
        return None
    try:
        return make_decomposition((w, PureState3(psi)) for w, psi in _canonical_members(w, states))
    except (BranchMismatch, NotDensityMatrix):
        return None


#: decimals to which _canonical_members rounds weights and amplitudes before
#: ordering by them: far coarser than the rounding of the stars, so equal
#: weights stay tied and a tie keeps its order under ulp-level moves
_ORDER_DECIMALS = 9


def _canonical_members(weights, states) -> list[tuple[float, np.ndarray]]:
    """(weight, unit vector) for the weights above WEIGHT_DROP, each state
    normalized and its global phase chosen so that its first amplitude of
    largest modulus (within a relative 1e-9) is real and positive, sorted by
    _member_key."""
    members = []
    for w, psi in zip(weights, states):
        if w > WEIGHT_DROP:
            moduli = np.abs(psi)
            lead = psi[int(np.argmax(moduli >= (1.0 - 1e-9) * moduli.max()))]
            members.append((w, psi * (abs(lead) / lead / np.linalg.norm(psi))))
    return sorted(members, key=_member_key)


def _member_key(member):
    """Decreasing weight; equal weights, to _ORDER_DECIMALS decimals, by the
    rounded real and imaginary parts of the amplitudes, in index order."""
    w, vec = member
    return -round(float(w), _ORDER_DECIMALS), np.round(vec.view(float), _ORDER_DECIMALS).tolist()


def _realized_value(deco: Decomposition) -> float:
    """Convex-roof value this decomposition actually certifies."""
    total = sum(
        w * math.sqrt(three_tangle_pure(member)) for w, member in deco.members
    )
    return total ** 2


def _two_member_decomposition(phi0, phi1, x: complex | None) -> Decomposition:
    """The branch pair phi0, phi1 rotated by x, weights p0(x), p1(x)."""
    if x is not None and abs(x) > 0.0:
        d = math.sqrt(1.0 + abs(x) ** 2)
        phi0, phi1 = (phi0 - np.conj(x) * phi1) / d, (x * phi0 + phi1) / d
    members = []
    for phi in (phi0, phi1):
        w = float(np.sum(np.abs(phi) ** 2))
        if w > WEIGHT_DROP:
            members.append((w, normalize(PureState3(phi))))
    return make_decomposition(members)


def decompose_rank2(rho: MixedState3) -> tuple[BoundWitness, Decomposition]:
    """Bound the tangle of a rank-2 state and return a realizing decomposition.

    The theta = 0 purification, its invariant set and its stars are built
    once. When the exact root-mixture test finds a zero-tangle mixture, that
    mixture is returned at the value its members realize (rounding level),
    and the bounds do not run. Otherwise the quartic and branch-pair bounds
    run on the same stars; the reported value is their minimum (the quartic
    bound on a tie within 1e-15), and the returned decomposition is the
    purification's branch pair rotated by the quartic witness x (two members).
    """
    p0, p1, v0, v1 = rank2_basis(rho)
    if p1 < PROB_FLOOR:
        member = PureState3(v0)
        value = three_tangle_pure(member)
        witness = BoundWitness("quartic_A4", value, 0j)
        return witness, make_decomposition([(1.0, member)])

    state = _purification(p0, p1, v0, v1, 0.0)
    inv = invariant_set(state, "A4")
    if inv.scale() == 0.0:
        # every range state has zero tangle
        zero_mixture = make_decomposition([(p0, PureState3(v0)), (p1, PureState3(v1))])
    else:
        zero_mixture = _zero_tangle_mixture(inv.stars(), math.sqrt(p0) * v0, math.sqrt(p1) * v1)
    if zero_mixture is not None:
        # report what the mixture actually certifies (tiny but not forced to 0
        # when a root carries floating-point error)
        return BoundWitness("root_mixture", _realized_value(zero_mixture)), zero_mixture
    quartic = bound_quartic_A4(inv)
    unitary = bound_unitary_3q(inv, p0, p1)
    best = unitary if unitary.value < quartic.value - 1e-15 else quartic
    return best, _two_member_decomposition(*branch_vectors(state), quartic.witness_x)
