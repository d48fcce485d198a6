"""Upper bound and decomposition workflow for rank-2 three-qubit mixed states.

The GHZ/W mixture gets the closed-form treatment: the zeroing parameter x0,
the weight threshold where x0 leaves the unit disk, the printed bound formula,
and the explicit optimal decompositions (three phase-rotated vectors plus a
remainder below the threshold, three vectors at |x| = 1 above it).

``decompose_rank2`` handles a general rank-2 state from the stars of one
purification's endpoint quartic (``bounds.stars``). It checks whether the
state is a convex mixture of the (at most four) zero-tangle pure states in its
range, one per star: one least-squares solve on their Bloch coordinates,
exact, basis independent, and reproducing the closed-form decompositions of
the GHZ/W family. When it succeeds its mixture is the answer; otherwise the
quartic and branch-pair bounds run on the same stars. One purification serves
every phase: the
relative phase theta of the second branch is a diagonal unitary on the traced
qubit, which sends I^{4-m,m} to e^{i m theta} I^{4-m,m} and only
reparametrizes the rotation x, so every phase gives the same bounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    PROB_FLOOR,
    BoundWitness,
    bound_quartic_A4,
    bound_unitary_3q,
    branch_pair_stars,
    quartic_root_candidates,
    stars,
)
from .errors import BranchMismatch, NotDensityMatrix, OutOfRange
from .invariants import invariant_set, three_tangle_pure
from .qstate import (
    MixedState3,
    PureState3,
    PureState4,
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

def _zero_tangle_mixture(p0, p1, v0, v1, xs) -> Decomposition | None:
    """Mixture of the zero-tangle root states reconstructing rho, if one exists.

    The tangle of the range state v0 + t v1 vanishes on the <= 4 projective
    roots t of the branch pair's quartic form, bounds.branch_pair_stars of the
    stars of the purification's endpoint quartic (``xs``, the finite ones,
    from bounds.stars), and the state v1 for each star at x = 0, which has no
    t. rho has zero tangle exactly when it is a convex mixture of those root
    states. A
    range state a v0 + b v1 has the moments (|a|^2, |b|^2, Re a b*, Im a b*),
    affine coordinates of its Bloch vector, and rho has (p0, p1, 0, 0):
    feasibility is one least-squares solve of the moment constraints. Distinct
    points on the Bloch sphere are affinely independent unless four of them
    lie on one circle (real-amplitude states, class I); that system has one
    null direction, which is followed to the breakpoint, where a weight
    reaches zero, with the largest least weight. Needs p1 >= PROB_FLOOR.

    The members come in a canonical order and phase (_canonical_members), so
    rounding-level moves of the stars neither reorder nor flip them.
    """
    ts = sorted(branch_pair_stars(xs, p0, p1), key=lambda t: (t.real, t.imag))
    states = [v0 + t * v1 for t in ts] + [v1] * (4 - len(ts))
    states = [vec / np.linalg.norm(vec) for vec in states]
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
    cols = np.array(cols).T
    w, _, rank, _ = np.linalg.lstsq(cols, target, rcond=1e-10)
    if rank < len(unique):
        # four roots on one circle: w + s null solves the constraints for every
        # s; step to each point where a weight reaches zero, keep the best one
        null = np.linalg.svd(cols)[2][-1]
        steps = w + (-w / null)[:, None] * null
        w = steps[steps.min(axis=1).argmax()]
    if np.any(w < -1e-10):
        return None
    w = np.clip(w, 0.0, None)
    if abs(w.sum() - 1.0) > 1e-8 or np.max(np.abs(cols @ w - target)) > 1e-10:
        return None
    try:
        return make_decomposition(_canonical_members(w, unique))
    except (BranchMismatch, NotDensityMatrix):
        return None


#: decimals to which _canonical_members rounds weights and amplitudes before
#: ordering by them: far coarser than the rounding of the stars, so equal
#: weights stay tied and a tie keeps its order under ulp-level moves
_ORDER_DECIMALS = 9


def _canonical_members(weights, vectors) -> list[tuple[float, PureState3]]:
    """(weight, state) for the weights above WEIGHT_DROP, each state's global
    phase chosen so that its first amplitude of largest modulus (within a
    relative 1e-9) is real and positive, in order of decreasing weight; equal
    weights, to _ORDER_DECIMALS decimals, are ordered by the rounded real and
    imaginary parts of the amplitudes, in index order."""
    members = []
    for w, vec in zip(weights, vectors):
        if w > WEIGHT_DROP:
            moduli = np.abs(vec)
            lead = vec[int(np.argmax(moduli >= (1.0 - 1e-9) * moduli.max()))]
            members.append((w, vec * (abs(lead) / lead)))

    def key(member):
        w, vec = member
        parts = np.round(vec.view(float), _ORDER_DECIMALS).tolist()
        return -round(float(w), _ORDER_DECIMALS), parts

    return [(w, PureState3(vec)) for w, vec in sorted(members, key=key)]


def _realized_value(deco: Decomposition) -> float:
    """Convex-roof value this decomposition actually certifies."""
    total = sum(
        w * math.sqrt(three_tangle_pure(member)) for w, member in deco.members
    )
    return total ** 2


def _two_member_decomposition(state: PureState4, x: complex | None) -> Decomposition:
    """Branch pair of the x-rotated purification, weights p0(x), p1(x)."""
    phi0, phi1 = branch_vectors(state)
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
        witness = BoundWitness("quartic_A4", value, 0j, (), None)
        return witness, make_decomposition([(1.0, member)])

    state = _purification(p0, p1, v0, v1, 0.0)
    inv = invariant_set(state, "A4")
    solved = stars(inv)
    if inv.scale() == 0.0:
        # every range state has zero tangle
        zero_mixture = make_decomposition([(p0, PureState3(v0)), (p1, PureState3(v1))])
    else:
        zero_mixture = _zero_tangle_mixture(p0, p1, v0, v1, solved[1])
    if zero_mixture is not None:
        # report what the mixture actually certifies (tiny but not forced to 0
        # when a root carries floating-point error)
        return BoundWitness("root_mixture", _realized_value(zero_mixture), None, (), None), zero_mixture
    quartic = bound_quartic_A4(inv, candidates=quartic_root_candidates(inv, solved=solved))
    unitary = bound_unitary_3q(inv, p0, p1, solved=solved)
    best = unitary if unitary.value < quartic.value - 1e-15 else quartic
    return best, _two_member_decomposition(state, quartic.witness_x)
