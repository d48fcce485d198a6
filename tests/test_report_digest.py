"""tools/report_digest.py: the corpus digest and the report comparison."""

import dataclasses
import importlib.util
import json
import pathlib
import re

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"

#: a corpus of (20 + 9 x 2) x 3 = 114 reports keeps the two runs short
SIZES = {"random_states": 20, "draws_per_class": 2}


@pytest.fixture(scope="module")
def report_digest():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(report_digest, capsys, *argv) -> list[str]:
    report_digest.main(list(argv), **SIZES)
    return capsys.readouterr().out.splitlines()


def test_compare_against_its_own_dump_changes_nothing(report_digest, capsys, tmp_path):
    dump = tmp_path / "reports.jsonl"
    first = run(report_digest, capsys, "--dump", str(dump))
    assert re.fullmatch(r"114 reports sha256 [0-9a-f]{64}", first[0]), first
    assert len(dump.read_text().splitlines()) == 114
    second = run(report_digest, capsys, "--compare", str(dump))
    assert second[:2] == first[:2]
    assert second[2] == "0 of 114 reports changed"
    # the table has its header and no rows
    assert len(second) == 4 and second[3].split()[:2] == ["group", "field"]


def test_compare_reports_a_moved_value(report_digest, capsys, tmp_path):
    dump = tmp_path / "reports.jsonl"
    run(report_digest, capsys, "--dump", str(dump))
    lines = dump.read_text().splitlines()
    moved = json.loads(lines[0])
    moved["report"]["best"] *= 1.0 + 1e-9
    lines[0] = json.dumps(moved)
    dump.write_text("\n".join(lines) + "\n")
    out = run(report_digest, capsys, "--compare", str(dump))
    assert out[2] == "1 of 114 reports changed"
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in out[4:]}
    assert set(rows) == {("all", "best"), ("random", "best")}
    count, _, rel = rows[("random", "best")]
    assert count == "1" and float(rel) == pytest.approx(1e-9, rel=1e-3)


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
