"""Tests of the benchmark itself: seeding, metric names, checks and tracing.

Run from the repository root with ``python -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from tanglebound import rank2
from tanglebound.bounds import BoundWitness

ROOT = run.ROOT


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _make(name, seed):
    return workloads.make(name, seed, run.OUT)


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    os.makedirs(run.OUT, exist_ok=True)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    assert _make(name, 7).digest() == _make(name, 7).digest()
    assert _make(name, 7).digest() != _make(name, 8).digest()


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace,table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, table):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "invariant_scan",
           "--seed", "3", "--seconds", "0.4", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _benchmark_json()[table]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_run_without_the_package_fails_and_prints_no_result():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "generic_bound",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


class _Corrupt:
    """A workload whose program output is altered before it is checked."""

    def __init__(self, work, corrupt):
        self.work, self.corrupt = work, corrupt
        self.inputs = work.inputs
        self.items = work.items

    def run(self, inp):
        return self.corrupt(self.work.run(inp))

    def check(self, inp, out):
        return self.work.check(inp, out)


def _raise_best(report):
    return dataclasses.replace(report, best=report.best + 1e-3)


def _raise_quartic(out):
    summary, quartic, cap = out[0]
    return [(summary, dataclasses.replace(quartic, value=cap.value + 1.0), cap)] + out[1:]


def _raise_cells(out):
    code, raw = out
    doc = json.loads(raw)
    doc["cells"][0]["best"] += 1e-3
    return code, json.dumps(doc).encode()


@pytest.mark.parametrize("name,corrupt", [
    ("generic_bound", _raise_best),
    ("invariant_scan", _raise_quartic),
    ("class_sweep", _raise_cells),
])
def test_an_injected_wrong_output_counts_as_a_failure(name, corrupt):
    work = _make(name, 5)
    clean = run.timed_loop(_Corrupt(work, lambda out: out), 1e-9)
    assert clean.attempted >= 1 and clean.failed == 0
    bad = run.timed_loop(_Corrupt(work, corrupt), 1e-9)
    assert bad.failed == 1 and bad.attempted == clean.attempted


def test_an_unrealized_rank2_value_counts_as_a_failure():
    work = _make("rank2_decompose", 5)
    label, p, rho = next(inp for inp in work.inputs if inp[1] is not None and inp[1] <= workloads.P0)
    deco = rank2.ghzw_decomposition(p, "below")
    honest = BoundWitness("root_mixture", workloads.realized_value(deco))
    assert work.check((label, p, rho), (honest, deco)) == []
    wrong = BoundWitness("root_mixture", honest.value + 1e-3)
    assert len(work.check((label, p, rho), (wrong, deco))) == 1


def _drop_method(report):
    return dataclasses.replace(report, methods=report.methods[1:])


def test_a_raising_check_counts_as_a_failure():
    work = _make("generic_bound", 5)
    res = run.timed_loop(_Corrupt(work, _drop_method), 1e-9)
    assert res.failed == res.attempted == 1
    assert "check raised KeyError" in res.problems[0]


def test_class_sweep_holds_cells_without_a_comparison_to_paper_bound():
    work = _make("class_sweep", 5)
    inp = next(inp for inp in work.inputs if "A1A2A3" in inp[0] and "III" in inp[0])
    code, raw = work.run(inp)
    doc = json.loads(raw)
    assert [cell["compare"] for cell in doc["cells"]] == [None, None]
    assert work.check(inp, (code, raw)) == []
    doc["cells"][1]["best"] = 1e-3
    assert len(work.check(inp, (code, json.dumps(doc).encode()))) == 1


def test_a_raising_item_counts_as_a_failure():
    work = _make("generic_bound", 5)

    def boom(out):
        raise ArithmeticError("injected")

    res = run.timed_loop(_Corrupt(work, boom), 1e-9)
    assert res.failed == res.attempted == 1


def _traced(name, calls=1):
    """Trace the workload's first calls; their outputs must pass the checks."""
    import tanglebound

    work = _make(name, 4)
    recorder = spans.Recorder(tanglebound)
    recorder.install()
    try:
        for k, inp in enumerate(work.inputs[:calls]):
            assert work.check(inp, recorder.run_item(k, work.run, inp)) == []
    finally:
        recorder.uninstall()
        work.close()
    return recorder


def test_invariant_scan_traces_no_grid_call():
    b = _traced("invariant_scan").breakdown()
    assert b["items"] == 1
    assert b["fn_calls"]["bounds.bound_grid"] == 0
    assert b["fn_calls"]["bounds.bound_quartic_A4"] == 3
    assert b["fn_calls"]["fonts.compute_fonts4"] > 0


def test_generic_bound_traces_the_grid_and_observes_the_report():
    recorder = _traced("generic_bound")
    b = recorder.breakdown()
    assert b["fn_calls"]["bounds.bound_grid"] == 1
    assert len(recorder.reports) == 1
    # install leaves no wrapper behind
    from tanglebound import bounds
    assert not hasattr(bounds.bound_grid, "__wrapped__")


def test_self_time_subtracts_child_spans():
    clock = iter([0, 10, 20, 30, 40, 100])
    rec = spans.Recorder(None, clock=lambda: next(clock))
    a = rec.open(rec.intern("outer", "bounds", "bench"))
    b = rec.open(rec.intern("mid", "invariants", "bounds"))
    c = rec.open(rec.intern("inner", "fonts", "invariants"))
    rec.close(c)
    rec.close(b)
    rec.close(a)
    out = rec.breakdown()
    assert out["layer_self_ns"] == {"bounds": 70, "invariants": 20, "fonts": 10}
    assert out["fn_total_ns"]["bounds.outer"] == 100
    assert out["fn_calls"]["bounds.absent"] == 0


class _Spin:
    """A pure-Python workload of three inputs with nothing to check."""

    inputs = [200, 400, 800]
    bytes_out = 0

    def items(self, inp):
        return 1

    def run(self, inp):
        return sum(range(inp))

    def check(self, inp, out):
        return []


def test_a_traced_loop_alternates_traced_and_untraced_calls(monkeypatch):
    monkeypatch.setattr(run, "WINDOW_S", 0.002)
    recorder = spans.Recorder(None)
    res = run.timed_loop(_Spin(), 0.02, recorder)
    assert res.items[0] > 0 and res.items[1] > 0
    assert recorder.breakdown()["items"] == res.items[1]
    assert not recorder.installed
    assert res.throughput(traced=True) > 0 and res.throughput(traced=False) > 0


def test_call_times_are_scaled_by_the_host_speed_around_them():
    res = run.LoopResult()
    ref = run.PROBE_REF_S
    # (seconds, items, host): the second call ran while the host was 2x slower
    for seconds, n, host in [(3.0, 1, ref), (4.0, 2, 2 * ref)]:
        res.add(False, seconds, n, host)
    assert res.item_times() == [3.0, 1.0, 1.0]
    assert res.items == [3, 0]
    assert res.throughput() == 3 / 5.0
    assert res.raw_throughput() == 3 / 7.0


def test_unitary_3q_fires_in_the_class_sweep():
    recorder = _traced("class_sweep", calls=len(workloads.SWEEPS))
    assert any(m.method == "unitary_3q" for r in recorder.reports for m in r.methods)
