"""Acceptance suite: every release criterion as an executable check.

Each criterion function returns a dict with ``ok``, ``elapsed_s`` and a list of
failure strings; ``run_acceptance`` runs them all, one PASS/FAIL line each. The
CLI ``selftest`` verb and the pytest acceptance module drive it, with fixed seeds.
Each criterion is Tier-1's corpus-scale check of its property.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from . import bounds, classes, invariants, qstate, quartic, rank2
from .errors import NotPrinted

BASE_SEED = 20240817


def _rng(tag: int) -> np.random.Generator:
    return np.random.default_rng(BASE_SEED + tag)


def _draw_params(rng: np.random.Generator, n: int, real: bool = False) -> list[complex]:
    """Complex parameters with moduli in [0.2, 2]; real positive when asked."""
    moduli = rng.uniform(0.2, 2.0, n)
    if real:
        return [complex(m) for m in moduli]
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    return [complex(m * np.exp(1j * ph)) for m, ph in zip(moduli, phases)]


def _random_states(tag: int, count: int) -> list[qstate.PureState4]:
    rng = _rng(tag)
    return [qstate.random_state(rng) for _ in range(count)]


def class_draws(draws: int = 50) -> list[list]:
    """The shared per-class parameter draws used by criteria 1 and 2.

    Class I draws are real: its vanishing three-way correlation rests on the
    phase alignment of the degree-eight invariants, which generic complex
    parameters break.
    """
    rng = _rng(1)
    rounds = []
    for _ in range(draws):
        rounds.append([
            classes.spec_from_values("I", *_draw_params(rng, 4, real=True)),
            classes.spec_from_values("II", *_draw_params(rng, 3)),
            classes.spec_from_values("III", *_draw_params(rng, 2)),
            classes.spec_from_values("IV", *_draw_params(rng, 2)),
            classes.spec_from_values("V", *_draw_params(rng, 1)),
            classes.spec_from_values("VI", *_draw_params(rng, 1)),
        ])
    return rounds


@functools.cache
def _class_reports(draws: int) -> tuple:
    """(spec, triple, best_bound value) on every class draw and supported
    triple, in draw order: the table criteria 1 and 2 both read, built once."""
    return tuple(
        (spec, triple, bounds.best_bound(classes.representative(spec), triple).best)
        for specs in class_draws(draws) for spec in specs for triple in classes.SUPPORTED_TRIPLES
    )


def criterion_1() -> dict:
    """Class closed forms: best_bound reproduces every printed (class, triple)
    value on 50 class draws.

    Classes I and VI (and the other printed zeros) must come out below 1e-10
    absolute; nonzero values match to 1e-8 relative. Runtime must stay under
    60 s.
    """
    t0 = time.time()
    failures = []
    checked = 0
    for spec, triple, best in _class_reports(50):
        printed = classes.paper_bound(spec, triple)
        if printed is None:
            continue
        checked += 1
        if printed == 0.0:
            if abs(best) >= 1e-10:
                failures.append(f"{spec.id} {triple}: expected 0, got {best:.3e}")
        elif abs(best - printed) / printed > 1e-8:
            failures.append(f"{spec.id} {triple}: printed {printed:.12g}, best {best:.12g}")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    return _result(1, "class closed forms", failures, elapsed, checked=checked)


def criterion_2(draws: int = 50) -> dict:
    """Literature dominance on the same draws as criterion 1: best_bound never
    exceeds the quoted comparison values and strictly improves on them
    somewhere in classes II and III."""
    t0 = time.time()
    failures = []
    improved = {"II": False, "III": False}
    for spec, triple, best in _class_reports(draws):
        try:
            ref = classes.literature_bound(spec, triple, "regu")
        except NotPrinted:
            continue
        if best > ref + 1e-8:
            failures.append(f"{spec.id} {triple}: best {best:.12g} exceeds regu {ref:.12g}")
        if spec.id in improved and best < ref - 1e-6:
            improved[spec.id] = True
    for cid, seen in improved.items():
        if not seen:
            failures.append(f"class {cid}: no draw improved on the regu value by > 1e-6")
    return _result(2, "literature dominance", failures, time.time() - t0)


def criterion_3() -> dict:
    """Quartic bound equals the closed form, read as its case, on 200 sets per case iv/v/vi."""
    t0 = time.time()
    rng = _rng(3)
    failures = []
    for case, slots in (("iv", ("i40", "i22")), ("v", ("i04", "i22")), ("vi", ("i04", "i13"))):
        for k in range(200):
            entries = {"i40": 0j, "i31": 0j, "i22": 0j, "i13": 0j, "i04": 0j}
            for slot in slots:
                entries[slot] = complex(rng.standard_normal() + 1j * rng.standard_normal())
            inv = invariants.ThreeQubitInvariantSet("A4", **entries)
            witness = bounds.bound_closed_form(inv)
            if witness is None or witness.group_case != case:
                failures.append(f"case {case} draw {k}: read as {witness and witness.group_case}")
                continue
            closed, quartic_value = witness.value, bounds.bound_quartic_A4(inv).value
            if abs(quartic_value - closed) > 1e-9 * max(closed, 1e-30):
                failures.append(
                    f"case {case} draw {k}: closed {closed:.12g}, quartic {quartic_value:.12g}"
                )
    return _result(3, "closed form vs quartic equivalence", failures, time.time() - t0)


def criterion_4() -> dict:
    """GHZ/W reference values, decomposition invariants, and runtime under 30 s."""
    t0 = time.time()
    failures = []
    thr = rank2.ghzw_threshold()
    if abs(thr - 0.626851) > 1e-5:
        failures.append(f"threshold {thr!r} not within 1e-5 of 0.626851")

    witness, deco = rank2.decompose_rank2(rank2.ghzw_rho(0.5))
    if witness.value >= 1e-6:
        failures.append(f"p=0.5 bound {witness.value:.3e} not < 1e-6")
    if any(invariants.three_tangle_pure(s) >= 1e-9 for _, s in deco.members):
        failures.append("p=0.5 root mixture: a member tangle not < 1e-9")
    err = np.max(np.abs(deco.reconstructed.rho - rank2.ghzw_rho(0.5).rho))
    if err > 1e-8:
        failures.append(f"p=0.5 decomposition reconstruction error {err:.3e}")

    p = 0.8
    target = abs(p ** 2 / 4.0 - 4.0 * math.sqrt(p * (1 - p) ** 3) / (3.0 * math.sqrt(6.0)))
    witness, deco = rank2.decompose_rank2(rank2.ghzw_rho(p))
    if witness.value > target + 1e-6:
        failures.append(f"p=0.8 bound {witness.value:.6f} exceeds {target:.6f} + 1e-6")
    err = np.max(np.abs(deco.reconstructed.rho - rank2.ghzw_rho(p).rho))
    if err > 1e-8:
        failures.append(f"p=0.8 decomposition reconstruction error {err:.3e}")

    for p in (0.3, 0.5, 0.8):
        branch = "below" if p <= thr else "above"
        deco = rank2.ghzw_decomposition(p, branch)
        err = np.max(np.abs(deco.reconstructed.rho - rank2.ghzw_rho(p).rho))
        if err > 1e-8:
            failures.append(f"ghzw_decomposition p={p}: reconstruction error {err:.3e}")
        tangles = [invariants.three_tangle_pure(s) for _, s in deco.members]
        if branch == "below":
            if any(t >= 1e-9 for t in tangles):
                failures.append(f"ghzw_decomposition p={p}: member tangle {max(tangles):.3e}")
        else:
            # every member carries the same tangle, four times the tabulated bound
            # (the tabulated formula tracks the invariant modulus, not 4x it)
            expected = 4.0 * rank2.ghzw_bound(p)
            if any(abs(t - expected) > 1e-9 for t in tangles):
                failures.append(
                    f"ghzw_decomposition p={p}: member tangles {tangles} != {expected:.9f}"
                )
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    return _result(4, "GHZ/W reference", failures, elapsed)


def criterion_5() -> dict:
    """Invariance suites on 500 random states (tolerances relative to the set scale)."""
    t0 = time.time()
    rng = _rng(5)
    failures = []
    states = _random_states(50, 500)
    for idx, state in enumerate(states):
        base = invariants.invariant_set(state, "A4")
        scale = max(base.scale(), 1e-30)

        rotated = state
        for qubit in (1, 2, 3):
            rotated = qstate.apply_local_unitary(rotated, qubit, qstate.random_special_unitary(rng))
        special = invariants.invariant_set(rotated, "A4")
        if np.max(np.abs(special.as_array() - base.as_array())) > 1e-10 * scale:
            failures.append(f"state {idx}: special-unitary invariance broken")

        rotated = state
        for qubit in (1, 2, 3):
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            u = qstate.Qubit2Unitary(phase * qstate.random_special_unitary(rng).u)
            rotated = qstate.apply_local_unitary(rotated, qubit, u)
        general = invariants.invariant_set(rotated, "A4")
        if np.max(np.abs(np.abs(general.as_array()) - np.abs(base.as_array()))) > 1e-10 * scale:
            failures.append(f"state {idx}: modulus invariance broken")

        rotated = state
        for qubit in (1, 2, 3, 4):
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            u = qstate.Qubit2Unitary(phase * qstate.random_special_unitary(rng).u)
            rotated = qstate.apply_local_unitary(rotated, qubit, u)
        n48_base = invariants.summary_from_set(base).n48
        n48_rot = invariants.summary_from_set(invariants.invariant_set(rotated, "A4")).n48
        if abs(n48_rot - n48_base) > 1e-10 * max(n48_base, 1e-30):
            failures.append(f"state {idx}: N48 not invariant under local unitaries")

        sets = [base if t == "A4" else invariants.invariant_set(state, t) for t in qstate.TRACE_PERMS]
        mags = [abs(invariants.summary_from_set(inv).i48) for inv in sets]
        if max(mags) - min(mags) > 1e-9 * max(max(mags), 1e-30):
            failures.append(f"state {idx}: |I48| depends on the traced qubit: {mags}")
    return _result(5, "invariance suites", failures, time.time() - t0)


def branch_pair_value(state: qstate.PureState4, traced: str) -> float:
    """(sum_i p_i sqrt(tau(psi_i)))^2 over the traced qubit's untransformed branches.

    The branches psi~_0, psi~_1 of the traced qubit (moved last as in
    ``invariants.invariant_set``) decompose the reduced state with weights
    p_i = |psi~_i|^2; this is the value that decomposition realizes on the
    (sum w sqrt(tau))^2 roof of ``rank2``, from the members' three-tangles
    alone. Since p_i^2 tau(psi_i) equals 4|I40| and 4|I04|, it equals
    4 (sqrt|I40| + sqrt|I04|)^2.
    """
    return rank2._realized_value(
        rank2._two_member_decomposition(*qstate.branch_vectors(state, traced), None))


def criterion_6(count: int = 500) -> dict:
    """Dominance chain grid <= quartic <= cap, and the quartic bound never above
    the value the traced qubit's untransformed branch pair realizes.

    The branch pair is one decomposition of the reduced state, so its realized
    value ``branch_pair_value`` = 4 (sqrt|i40| + sqrt|i04|)^2 is what the
    quartic rotation has to improve on. The linear sum 4|i40| + 4|i04| is the
    value of no decomposition: it sits 8 sqrt(|i40| |i04|) below the branch
    pair and agrees with it, and with the tabulated regu values, only where one
    endpoint vanishes, as on the class representatives.
    """
    t0 = time.time()
    failures = []
    chain_bad = 0
    upthree_bad = 0
    states = _random_states(50, count)
    for idx, state in enumerate(states):
        for traced in invariants.TRIPLES.values():
            inv = invariants.invariant_set(state, traced)
            cap = bounds.cap_of(inv).value
            q = bounds.bound_quartic_A4(inv).value
            g = bounds.bound_grid(inv).value
            if not (g <= q + 1e-8 and q <= cap + 1e-8):
                chain_bad += 1
                if chain_bad <= 5:
                    failures.append(
                        f"state {idx} traced {traced}: chain broken "
                        f"grid={g:.9g} quartic={q:.9g} cap={cap:.9g}"
                    )
            rhs = branch_pair_value(state, traced)
            if rhs < q - 1e-8:
                upthree_bad += 1
                if upthree_bad <= 5:
                    failures.append(
                        f"state {idx} traced {traced}: quartic bound {q:.9g} "
                        f"> branch-pair value {rhs:.9g}"
                    )
    if chain_bad > 5 or upthree_bad > 5:
        failures.append(f"chain violations: {chain_bad}, branch-pair violations: {upthree_bad}")
    return _result(6, "dominance chain and branch-pair value", failures, time.time() - t0,
                   chain_violations=chain_bad, endpoint_sum_violations=upthree_bad)


def criterion_7() -> dict:
    """Quartic solver on 1000 random polynomials: residual contract on every
    root; monic reconstruction where the roots are well separated (skipped
    when the discriminant is tiny)."""
    t0 = time.time()
    rng = _rng(7)
    failures = []
    for k in range(1000):
        degree = int(rng.integers(1, 5))
        c = np.zeros(5, dtype=complex)
        c[: degree + 1] = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        if k % 10 == 0 and degree == 4:
            c[4] *= 1e-14  # exercise degree degradation
        try:
            found = quartic.roots(c)
        except quartic.DidNotConverge as exc:  # pragma: no cover - contract breach
            failures.append(f"poly {k}: {exc}")
            continue
        scale = float(np.max(np.abs(c)))
        for w in found:
            if abs(np.polynomial.polynomial.polyval(w, c)) > 1e-9 * scale * max(1.0, abs(w)) ** 4:
                failures.append(f"poly {k}: residual contract broken at {w!r}")
        eff = 4
        while eff > 0 and abs(c[eff]) < 1e-12 * scale:
            eff -= 1
        if len(found) != eff:
            failures.append(f"poly {k}: {len(found)} roots for effective degree {eff}")
            continue
        if eff >= 2:
            lead = c[eff]
            disc = lead ** (2 * eff - 2) * np.prod(
                [(a - b) ** 2 for i, a in enumerate(found) for b in found[i + 1:]]
            )
            if abs(disc) < 1e-12:
                continue
            monic = quartic.reconstruct_monic(found)
            ref = c[: eff + 1] / lead
            if np.max(np.abs(monic - ref)) > 1e-8 * max(1.0, float(np.max(np.abs(ref)))):
                failures.append(f"poly {k}: monic reconstruction off")
    return _result(7, "quartic solver contracts", failures, time.time() - t0)


def criterion_8() -> dict:
    """Endpoint transformation agrees with rotating qubit A4 and recomputing, on 200 states."""
    t0 = time.time()
    rng = _rng(8)
    failures = []
    states = _random_states(80, 200)
    for idx, state in enumerate(states):
        x = complex(rng.standard_normal() + 1j * rng.standard_normal())
        inv = invariants.invariant_set(state, "A4")
        i40x, i04x = invariants.transform_endpoints(inv, x)
        rotated = qstate.apply_local_unitary(state, 4, qstate.u_of_x(x))
        direct = invariants.invariant_set(rotated, "A4")
        if abs(i40x - direct.i40) > 1e-10 or abs(i04x - direct.i04) > 1e-10:
            failures.append(
                f"state {idx}, x={x:.4f}: endpoint mismatch "
                f"({abs(i40x - direct.i40):.3e}, {abs(i04x - direct.i04):.3e})"
            )
    return _result(8, "endpoint transform end-to-end", failures, time.time() - t0)


def _result(number: int, name: str, failures: list, elapsed: float, **details) -> dict:
    return {
        "criterion": number,
        "name": name,
        "ok": not failures,
        "elapsed_s": round(elapsed, 3),
        "failures": failures,
        **details,
    }


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_acceptance(echo=print) -> list[dict]:
    """Run every criterion, emitting one PASS/FAIL line per criterion."""
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        status = "PASS" if res["ok"] else "FAIL"
        echo(f"criterion {res['criterion']}: {status} ({res['elapsed_s']}s) {res['name']}")
        for line in res["failures"][:8]:
            echo(f"  - {line}")
    return results
