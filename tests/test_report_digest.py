"""tools/report_digest.py: the corpus digests and the comparisons."""

import dataclasses
import hashlib
import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest

from tanglebound import rank2

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"

#: a corpus of (20 + 9 x 2 + 10) x 3 = 144 reports keeps the two runs short
SIZES = {"random_states": 20, "draws_per_class": 2}
#: the rank-2 corpus: 99 GHZ/W mixtures, 30 random, 60 real-amplitude and
#: 5 x 4 class I states
DECOMPOSITIONS = 209
#: --compare's last line, with the grid's and quartic_A4's flip counts
FLIPS = "witnesses flipped to the twin or the antipode: grid {}, quartic_A4 {}, unitary_3q 0"


@pytest.fixture(scope="module")
def report_digest():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(report_digest, capsys, *argv) -> list[str]:
    report_digest.main(list(argv), **SIZES)
    return capsys.readouterr().out.splitlines()


def table_rows(lines: list[str]) -> dict:
    """The rows of one --compare table, keyed by (group, field): the group and
    field columns are 8 and 22 wide, and a field may hold a space."""
    return {(line[:8].strip(), line[9:31].strip()): line[31:].split() for line in lines}


def tables(out: list[str]) -> tuple[dict, dict]:
    """The rows of --compare's report and decomposition tables."""
    split = next(k for k, line in enumerate(out) if "decompositions changed" in line)
    return table_rows(out[5:split]), table_rows(out[split + 2:-1])


def move_in_dump(dump, key, change):
    """Apply change() to the first dumped line holding ``key``."""
    lines = dump.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if f'"{key}"' in line)
    moved = json.loads(lines[k])
    change(moved[key])
    lines[k] = json.dumps(moved)
    dump.write_text("\n".join(lines) + "\n")


def test_compare_against_its_own_dump_changes_nothing(report_digest, capsys, tmp_path):
    dump = tmp_path / "reports.jsonl"
    first = run(report_digest, capsys, "--dump", str(dump))
    assert re.fullmatch(r"144 reports sha256 [0-9a-f]{64}", first[0]), first
    assert re.fullmatch(rf"{DECOMPOSITIONS} decompositions sha256 [0-9a-f]{{64}}", first[2]), first
    assert len(dump.read_text().splitlines()) == 144 + DECOMPOSITIONS
    second = run(report_digest, capsys, "--compare", str(dump))
    assert second[:3] == first[:3]
    assert second[3] == "0 of 144 reports changed, 0 in method list"
    assert second[5] == f"0 of {DECOMPOSITIONS} decompositions changed, 0 in method, 0 in member count"
    # both tables have their header and no rows, and no witness flipped
    assert len(second) == 8
    assert second[4].split()[:2] == second[6].split()[:2] == ["group", "field"]
    assert second[7] == FLIPS.format(0, 0)


def test_compare_reports_a_moved_value(report_digest, capsys, tmp_path):
    dump = tmp_path / "reports.jsonl"
    run(report_digest, capsys, "--dump", str(dump))

    def change(report):
        report["best"] *= 1.0 + 1e-9

    move_in_dump(dump, "report", change)
    out = run(report_digest, capsys, "--compare", str(dump))
    assert out[3] == "1 of 144 reports changed, 0 in method list"
    rows, decomposition_rows = tables(out)
    assert decomposition_rows == {}
    assert set(rows) == {("all", "best"), ("random", "best")}
    count, _, rel = rows[("random", "best")]
    assert count == "1" and float(rel) == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("flip,moved", [
    (lambda x: -x, True),
    (lambda x: -1.0 / x.conjugate(), True),
    (lambda x: x * (1.0 + 1e-12), False),
], ids=["twin", "antipode", "rounding"])
def test_compare_counts_witnesses_flipped_to_the_twin_or_the_antipode(
        report_digest, capsys, tmp_path, flip, moved):
    # the first dumped report's quartic_A4 witness moved as ``flip`` says: to
    # its twin -x or its antipode -1/conj(x) counts, a rounding move does not
    dump = tmp_path / "reports.jsonl"
    run(report_digest, capsys, "--dump", str(dump))

    def change(report):
        method = next(m for m in report["methods"] if m["method"] == "quartic_A4")
        x = flip(complex(*method["x"]))
        method["x"] = [x.real, x.imag]

    move_in_dump(dump, "report", change)
    out = run(report_digest, capsys, "--compare", str(dump))
    assert out[3] == "1 of 144 reports changed, 0 in method list"
    assert out[-1] == FLIPS.format(0, int(moved))


def test_near_product_group_closes_the_corpus(report_digest):
    # |0101> plus noise of 1e-60 to 1e-150: the one dominant amplitude a[5]
    states = report_digest.corpus(0, 0)
    assert [group for group, _ in states] == ["product"] * 10
    for k, (_, state) in enumerate(states):
        noise = abs(state.amps[np.arange(16) != 5])
        assert 10.0 ** (-62 - 10 * k) < noise.max() < 10.0 ** (-58 - 10 * k), k


def test_sweep_digest_line(report_digest, capsys):
    out = run(report_digest, capsys)
    assert out[1] == f"107 sweep cells sha256 {report_digest.sweep_digest()[1]}"
    # the five (class, triple) sweeps of the class_sweep workload, every cell counted
    assert [(cid, triple) for cid, _, triple in report_digest.SWEEPS] == [
        ("II", None), ("III", None), ("III", "A1A2A3"), ("IV", None), ("V", None)
    ]


def test_sweep_digest_moves_with_a_cell(report_digest, monkeypatch):
    from tanglebound import bounds

    sweeps = report_digest.SWEEPS[-1:]
    cells, digest = report_digest.sweep_digest(sweeps)
    assert cells == 10
    assert report_digest.sweep_digest(sweeps) == (cells, digest)
    true_best_bound = bounds.best_bound

    def moved(state, triple):
        report = true_best_bound(state, triple)
        return dataclasses.replace(report, best=report.best * (1.0 + 1e-15))

    monkeypatch.setattr(bounds, "best_bound", moved)
    assert report_digest.sweep_digest(sweeps)[1] != digest


def test_sweep_failure_stops_the_tool(report_digest):
    with pytest.raises(SystemExit, match="exited with 1"):
        report_digest.sweep_digest([("V", "a=1:inf:2", None)])


def test_decomposition_digest_line(report_digest, capsys):
    out = run(report_digest, capsys)
    groups = [group for group, _ in report_digest.rank2_corpus()]
    assert [groups.count(g) for g in ("ghzw", "random", "real", "classI")] == [99, 30, 60, 20]
    digest = hashlib.sha256()
    for _, rho in report_digest.rank2_corpus():
        witness, deco = rank2.decompose_rank2(rho)
        record = report_digest.decomposition_to_json(witness, deco)
        assert record["method"] == witness.method and record["value"] == witness.value
        assert [w for w, _, _ in record["members"]] == [w for w, _ in deco.members]
        digest.update(json.dumps(record).encode())
    assert out[2] == f"{DECOMPOSITIONS} decompositions sha256 {digest.hexdigest()}"


def test_compare_reports_moved_decompositions(report_digest, capsys, tmp_path):
    # a weight moved by 1e-9 relative in the first (GHZ/W) decomposition is a
    # row of the table; a decomposition of another method is counted apart
    dump = tmp_path / "reports.jsonl"
    run(report_digest, capsys, "--dump", str(dump))

    def change(decomposition):
        decomposition["members"][0][0] *= 1.0 + 1e-9

    move_in_dump(dump, "decomposition", change)
    out = run(report_digest, capsys, "--compare", str(dump))
    assert out[5] == f"1 of {DECOMPOSITIONS} decompositions changed, 0 in method, 0 in member count"
    rows, decomposition_rows = tables(out)
    assert rows == {}
    assert set(decomposition_rows) == {("all", "weight"), ("ghzw", "weight")}
    count, _, rel = decomposition_rows[("ghzw", "weight")]
    assert count == "1" and float(rel) == pytest.approx(1e-9, rel=1e-3)

    def flip(decomposition):
        decomposition["method"] = "quartic_A4"

    move_in_dump(dump, "decomposition", flip)
    out = run(report_digest, capsys, "--compare", str(dump))
    assert out[5] == f"1 of {DECOMPOSITIONS} decompositions changed, 1 in method, 0 in member count"
    assert tables(out) == ({}, {})


def test_compare_matches_methods_by_name_when_a_method_list_changed(
        report_digest, capsys, tmp_path):
    # two hand-made reports: the first drops its grid method and moves its
    # quartic value, the second gains a unitary_3q method; both lists are
    # counted apart and the methods both list are compared by name
    def report(methods, best):
        return {"triple": "A1A2A3", "best": best, "F": best,
                "methods": [{"method": m, "value": v, "x": x} for m, v, x in methods]}

    old = [("random", report([("cap", 1.0, None), ("quartic_A4", 0.5, [0.5, 0.0]),
                              ("grid", 0.5, [0.5, 0.0])], 0.5)),
           ("II", report([("cap", 1.0, None), ("quartic_A4", 0.25, [0.0, 1.0])], 0.25))]
    new = [("random", report([("cap", 1.0, None), ("quartic_A4", 0.5 * (1.0 + 1e-9), [0.5, 0.0])],
                             0.5)),
           ("II", report([("cap", 1.0, None), ("unitary_3q", 0.25, [0.0, 1.0]),
                          ("quartic_A4", 0.25, [0.0, -1.0])], 0.25))]
    dump = tmp_path / "reports.jsonl"
    dump.write_text("".join(json.dumps({"group": g, "report": r}) + "\n" for g, r in old))
    report_digest.compare(str(dump), new, [])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2 of 2 reports changed, 2 in method list (II 1, random 1)"
    table = table_rows(out[2:-3])
    assert set(table) == {("all", "quartic_A4 value"), ("random", "quartic_A4 value"),
                          ("all", "quartic_A4 x"), ("II", "quartic_A4 x")}
    count, _, rel = table[("random", "quartic_A4 value")]
    assert count == "1" and float(rel) == pytest.approx(1e-9, rel=1e-3)
    assert out[-3] == "0 of 0 decompositions changed, 0 in method, 0 in member count"
    assert out[-1] == ("witnesses flipped to the twin or the antipode: "
                       "quartic_A4 1, unitary_3q 0")
