"""Acceptance gate: every release criterion at its stated tolerance.

The criteria live in tanglebound.acceptance so the CLI selftest runs exactly
the same checks. They are executed once per test session here; each test
asserts one criterion (criterion 6 is split into its two clauses), and a few
check the harness that times and registers them, on stubs.

Expected outcome: everything passes. The second clause of criterion 6 holds
the quartic bound to the value that the traced qubit's untransformed branch
pair realizes, 4 (sqrt|i40| + sqrt|i04|)^2 on the (sum w sqrt(tau))^2 roof,
computed from the branches' own three-tangles.
"""

import collections
import hashlib
import types

import pytest

from tanglebound import acceptance, bounds, qstate


@pytest.fixture(scope="session")
def acceptance_run():
    """One run_acceptance(), the selftest's run, from an empty class-report
    table, counting the permuted states and the best_bound reports it builds."""
    calls = collections.Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    acceptance._class_reports.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qstate, "permute_qubits", counted(qstate, "permute_qubits"))
        mp.setattr(bounds, "best_bound", counted(bounds, "best_bound"))
        results = acceptance.run_acceptance()
    return results, calls


@pytest.fixture(scope="session")
def results(acceptance_run):
    return {res["criterion"]: res for res in acceptance_run[0]}


@pytest.mark.parametrize("elapsed,own,failures", [
    (29.5, [], []),
    (30.0, [], ["runtime 30.0s exceeds 30s"]),
    (31.5, ["bad value"], ["bad value", "runtime 31.5s exceeds 30s"]),
])
def test_the_harness_times_a_criterion_against_its_limit(monkeypatch, elapsed, own, failures):
    """On a faked clock: a run at or past its limit fails, its runtime after
    the check's own failures; monkeypatch undoes the stub's registration."""
    clock = iter([100.0, 100.0 + elapsed])
    monkeypatch.setattr(acceptance, "time", types.SimpleNamespace(time=lambda: next(clock)))
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", ())

    @acceptance.criterion(9, "stub", limit_s=30)
    def stub(found, extra="field"):
        found.extend(own)
        return {"extra": extra}

    assert acceptance.ALL_CRITERIA == (stub,)
    assert stub(extra="kept") == {
        "criterion": 9, "name": "stub", "ok": not failures, "elapsed_s": elapsed,
        "failures": failures, "extra": "kept",
    }


def test_all_criteria_run_once_each_in_order(acceptance_run):
    # after the stubs above: their registrations are gone
    names = [fn.__name__ for fn in acceptance.ALL_CRITERIA]
    assert names == [f"criterion_{k}" for k in range(1, 9)]
    assert [res["criterion"] for res in acceptance_run[0]] == list(range(1, 9))


def test_one_run_builds_no_permuted_state(acceptance_run):
    """Criterion 6 reads the traced qubit's branch pair by one gather
    (qstate.branch_vectors), not from a permuted copy of the state."""
    assert acceptance_run[1]["permute_qubits"] == 0


def test_one_run_builds_each_class_report_once(acceptance_run):
    """Criteria 1 and 2 read one table of the 900 class-draw reports."""
    assert acceptance_run[1]["best_bound"] == 900


def test_criterion_2_alone_builds_its_own_table():
    acceptance._class_reports.cache_clear()
    res = acceptance.criterion_2(draws=2)
    assert res["ok"], "\n".join(res["failures"])
    assert acceptance._class_reports.cache_info().currsize == 1


def _assert_ok(res):
    assert res["ok"], "\n".join(res["failures"][:10])


def test_criterion_1_class_closed_forms(results):
    """best_bound reproduces every printed (class, triple) value; runtime < 60 s."""
    res = results[1]
    assert res["checked"] == 900
    _assert_ok(res)


def test_criterion_2_literature_dominance(results):
    """best_bound <= the quoted comparison values, strictly better somewhere in II/III."""
    _assert_ok(results[2])


def test_criterion_3_closed_form_vs_quartic(results):
    """Synthetic sparse sets: quartic bound equals the closed form to 1e-9 relative."""
    _assert_ok(results[3])


def test_criterion_4_ghzw_reference(results):
    """Threshold, scan bounds at p = 0.5 / 0.8, decomposition invariants; < 30 s."""
    _assert_ok(results[4])


def test_criterion_5_invariance_suites(results):
    """Unitary invariance of the set, N48, and traced-qubit independence of |I48|."""
    _assert_ok(results[5])


def test_criterion_6_dominance_chain(results):
    """grid <= quartic <= cap on 500 random states and all supported triples."""
    assert results[6]["chain_violations"] == 0, "\n".join(results[6]["failures"][:10])


def test_criterion_6_endpoint_sum_inequality(results):
    """Quartic bound <= the branch-pair value on the same 500 random states.

    The untransformed branches psi~_0, psi~_1 of the traced qubit decompose the
    reduced state with weights p_i and p_i^2 tau(psi_i) = 4|i40|, 4|i04|, so
    they realize (sum p_i sqrt(tau(psi_i)))^2 = 4 (sqrt|i40| + sqrt|i04|)^2.
    A quartic bound above that would be beaten by the unrotated decomposition.
    Where regu values are tabulated they equal it, so this carries criterion
    2's dominance claim to generic states. The linear sum 4|i40| + 4|i04| sits
    8 sqrt(|i40| |i04|) below it, is realized by no decomposition, and
    undercuts the quartic bound on 33 of these 1500 pairs by up to 0.065; it
    equals the branch-pair value only where one endpoint vanishes, as on the
    class representatives with a regu value.
    """
    res = results[6]
    assert res["endpoint_sum_violations"] == 0, (
        f"{res['endpoint_sum_violations']} violations on 1500 samples; first few:\n"
        + "\n".join(f for f in res["failures"] if "branch-pair" in f)[:2000]
    )


def test_criterion_6_branch_pair_clause_catches_a_loose_bound(monkeypatch):
    """A quartic bound that takes the largest root candidate instead of the
    smallest breaks the branch-pair clause on the first ten states."""

    def largest_candidate(inv):
        if inv.scale() == 0.0:
            return bounds.BoundWitness("quartic_A4", 0.0)
        value, x = max(bounds.quartic_root_candidates(inv), key=lambda c: c[0])
        return bounds.BoundWitness("quartic_A4", value, x)

    monkeypatch.setattr(bounds, "bound_quartic_A4", largest_candidate)
    res = acceptance.criterion_6(count=10)
    assert res["endpoint_sum_violations"] > 0
    assert not res["ok"]


def test_criterion_7_quartic_solver(results):
    """Residual contract on 1000 random polynomials; monic reconstruction."""
    _assert_ok(results[7])


def test_criterion_8_endpoint_transform(results):
    """Endpoint transform matches rotate-then-recompute on 200 random pairs."""
    _assert_ok(results[8])


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def test_random_state_draws_are_pinned():
    """Criteria 5 and 6 draw their 500 states through qstate.random_state; the
    amplitudes are pinned so that the acceptance draws cannot move."""
    digest = _sha256(s.amps for s in acceptance._random_states(50, 500))
    assert digest == "ffac0d3580ea7d7bea5e1fbdcaca50a6bdd01091be59b478d40a6133c291e0cb"


def test_random_special_unitary_draws_are_pinned():
    """Criterion 5 draws its SU(2) rotations from one generator through
    qstate.random_special_unitary; 3000 draws from it are pinned."""
    rng = acceptance._rng(5)
    digest = _sha256(acceptance.qstate.random_special_unitary(rng).u for _ in range(3000))
    assert digest == "703c5c6453ee7252589d131eeae2cfcd7784ee64d0c4d5c2e71e9ae6d693b09c"
