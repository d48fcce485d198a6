"""Command-line interface: parsing, verbs, exit codes, determinism."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tanglebound
from tanglebound import acceptance, errors, invariants, qstate, quartic
from tanglebound.cli import _parse_grid_spec, build_parser, main, parse_complex
from tanglebound.rank2 import ghzw_rho


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state_json(tmp_path, amps, n_qubits=4, name="state.json"):
    path = tmp_path / name
    obj = {"n_qubits": n_qubits, "amps": [[z.real, z.imag] for z in np.asarray(amps, complex)]}
    path.write_text(json.dumps(obj))
    return str(path)


def write_pairs_json(tmp_path, name, pairs):
    """A four-qubit state file whose amplitudes are ``pairs`` as given."""
    path = tmp_path / name
    path.write_text(json.dumps({"n_qubits": 4, "amps": pairs}))
    return str(path)


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("2", 2 + 0j),
        ("2+0i", 2 + 0j),
        ("0.5-1.2i", 0.5 - 1.2j),
        ("-1.5i", -1.5j),
        ("i", 1j),
        ("-i", -1j),
        ("1e-3+2e+4i", 1e-3 + 2e4j),
        (" 3.5 ", 3.5 + 0j),
        ("inf", complex(math.inf, 0.0)),
        ("2+i", 2 + 1j),
    ])
    def test_good(self, text, value):
        assert parse_complex(text) == pytest.approx(value)

    @pytest.mark.parametrize("text,sign", [("-i", 1.0), ("-1.5i", 1.0), ("-0", -1.0)])
    def test_sign_of_a_zero_part(self, text, sign):
        # a missing real part is +0, as complex(0.0, im) gives it
        assert math.copysign(1.0, parse_complex(text).real) == sign

    @pytest.mark.parametrize("text", ["", "abc", "1+2j", "2+3J", "(2+3i)", "(2)", "2++3i"])
    def test_bad(self, text):
        with pytest.raises(errors.BadComplexLiteral) as info:
            parse_complex(text)
        assert isinstance(info.value, errors.TangleboundError) and isinstance(info.value, ValueError)


class TestInvariantsVerb:
    def test_report_fields(self, tmp_path, capsys):
        s = qstate.random_state(5)
        path = write_state_json(tmp_path, s.amps)
        code, out, _ = run_cli(capsys, "invariants", "--state", path, "--traced", "A4")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"traced", "I", "N48", "absI48", "tau48", "three_way"}
        inv = invariants.invariant_set(s, "A4")
        assert report["I"]["40"] == pytest.approx([inv.i40.real, inv.i40.imag], abs=1e-12)

    def test_wrong_length_is_input_error(self, tmp_path, capsys):
        path = write_state_json(tmp_path, np.ones(8), n_qubits=4)
        code, _, err = run_cli(capsys, "invariants", "--state", path, "--traced", "A4")
        assert code == 1
        assert "error" in err


class TestNonFiniteState:
    @pytest.mark.parametrize("bad,shown", [(float("nan"), "nan"), (float("inf"), "inf")])
    def test_state_file_is_input_error(self, tmp_path, capsys, bad, shown):
        amps = qstate.random_state(5).amps.copy()
        amps[3] = complex(0.1, bad)
        path = write_state_json(tmp_path, amps)
        code, out, err = run_cli(capsys, "bound", "--state", path, "--triple", "A1A2A3")
        assert code == 1
        assert out == ""
        assert "non-finite" in err and shown in err


class TestBoundVerb:
    def test_report(self, tmp_path, capsys):
        s = qstate.random_state(6)
        path = write_state_json(tmp_path, s.amps)
        code, out, _ = run_cli(capsys, "bound", "--state", path, "--triple", "A1A2A4")
        assert code == 0
        report = json.loads(out)
        assert report["triple"] == "A1A2A4"
        values = [m["value"] for m in report["methods"]]
        assert report["best"] == pytest.approx(min(values))
        assert 0.0 <= report["F"] <= 1.0 + 1e-9

    def test_unsupported_triple_rejected(self, tmp_path, capsys):
        s = qstate.random_state(6)
        path = write_state_json(tmp_path, s.amps)
        code, _, _ = run_cli(capsys, "bound", "--state", path, "--triple", "A2A3A4")
        assert code == 1

    def test_overflowing_norm_is_input_error(self, tmp_path, capsys):
        path = write_state_json(tmp_path, np.full(16, 1e200 - 1e200j))
        code, out, err = run_cli(capsys, "bound", "--state", path, "--triple", "A1A2A4")
        assert code == 1
        assert out == ""
        assert "norm^2" in err and "overflows" in err

    def test_root_solve_failure_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # closed-form starts that three Newton steps cannot repair break the
        # residual contract of the set's one root solve
        monkeypatch.setattr(quartic, "_closed_form", lambda c: [1e3 + 1e3j] * (len(c) - 1))
        path = write_state_json(tmp_path, qstate.random_state(6).amps)
        code, out, err = run_cli(capsys, "bound", "--state", path, "--triple", "A1A2A4")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure:") and "residual" in err

    def test_case_vi_set_of_order_1e_240_is_reported(self, tmp_path, capsys):
        # the A4 set's closed form divided by an underflowed square: exit 2;
        # then the cap's N48 underflowed and best read 0.0, below every
        # value a witness realizes
        a = np.zeros(16, dtype=complex)
        a[11] = 1.0
        a[0] = a[1] = a[13] = 1e-80
        a[7] = 1e-80j
        path = write_state_json(tmp_path, a)
        code, out, err = run_cli(capsys, "bound", "--state", path, "--triple", "A1A2A3")
        assert code == 0 and err == ""
        report = json.loads(out)
        values = {m["method"]: m["value"] for m in report["methods"]}
        assert report["best"] == values["quartic_A4"] == pytest.approx(8e-240, rel=1e-15)
        assert values["closed_form"] == pytest.approx(8e-240, rel=1e-15)

    @pytest.mark.parametrize("flag", ["--n-theta", "--n-phi", "--refine-iters", "--zero-tol"])
    def test_tuning_flag_rejected(self, tmp_path, capsys, flag):
        path = write_state_json(tmp_path, qstate.random_state(6).amps)
        code, out, err = run_cli(capsys, "bound", "--state", path, "--triple", "A1A2A3", flag, "1")
        assert code == 1
        assert out == ""
        assert flag in err and "Traceback" not in err


class TestClassesVerb:
    def test_class_five_reference_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "classes", "--id", "V", "--a", "1", "--triple", "A1A2A3"
        )
        assert code == 0
        cell = json.loads(out)
        assert cell["best_bound"] == pytest.approx(16.0 / 49.0, abs=1e-9)
        assert cell["paper_bound"] == pytest.approx(16.0 / 49.0, abs=1e-12)
        assert cell["delta_vs_paper"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("a,triple", [("1e140", "A1A2A3"), ("1e80", "A1A2A4")])
    def test_overflowing_tabulated_value_is_input_error(self, capsys, a, triple):
        # the paper's value overflows at 1e140 on A1A2A3 and at 1e80 on A1A2A4
        code, out, err = run_cli(capsys, "classes", "--id", "V", "--a", a, "--triple", triple)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: class V at a={complex(a)!r}") and "overflows" in err

    def test_fixture_triple_not_computed(self, capsys):
        code, out, _ = run_cli(
            capsys, "classes", "--id", "IX", "--triple", "A2A3A4"
        )
        assert code == 0
        cell = json.loads(out)
        assert cell["source"] == "fixture"
        assert cell["paper_bound"] == 0.25
        assert "best_bound" not in cell

    def test_missing_parameter_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "classes", "--id", "V", "--triple", "A1A2A3")
        assert code == 1
        assert "requires" in err

    def test_extra_parameter_is_input_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "classes", "--id", "V", "--a", "1", "--b", "2", "--triple", "A1A2A3"
        )
        assert code == 1


class TestGhzwVerb:
    def test_point_eight(self, capsys):
        code, out, _ = run_cli(capsys, "ghzw", "--p", "0.8")
        assert code == 0
        report = json.loads(out)
        assert report["threshold"] == pytest.approx(0.626851, abs=1e-5)
        assert report["x0"] == pytest.approx(1.5431, abs=1e-4)
        assert report["bound"] == pytest.approx(0.11645, abs=1e-5)
        weights = [m["weight"] for m in report["decomposition"]["members"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_bad_p_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "ghzw", "--p", "1.5")
        assert code == 1


class TestDecomposeVerb:
    def test_rank2_file(self, tmp_path, capsys):
        rho = ghzw_rho(0.5)
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(qstate.density_to_json(rho)))
        code, out, _ = run_cli(capsys, "decompose", "--rho", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["bound"]["value"] < 1e-6
        rebuilt = np.zeros((8, 8), dtype=complex)
        for member in report["decomposition"]["members"]:
            assert member["tangle"] < 1e-9
            state = qstate.state_from_json(member["state"])  # wire-format round trip
            rebuilt += member["weight"] * np.outer(state.amps, state.amps.conj())
        np.testing.assert_allclose(rebuilt, ghzw_rho(0.5).rho, atol=1e-8)

    def test_non_finite_entry_is_input_error(self, tmp_path, capsys):
        obj = qstate.density_to_json(ghzw_rho(0.5))
        obj["rho"][2][5] = [float("nan"), 0.0]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "decompose", "--rho", str(path))
        assert code == 1
        assert out == ""
        assert "non-finite" in err and "nan" in err

    def test_all_zero_invariant_set_gives_the_root_mixture(self, tmp_path, capsys):
        rho = np.diag([0.6, 0.4, 0, 0, 0, 0, 0, 0]).astype(complex)
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(qstate.density_to_json(qstate.MixedState3(rho))))
        code, out, err = run_cli(capsys, "decompose", "--rho", str(path))
        assert code == 0, err
        report = json.loads(out)
        assert report["bound"] == {"method": "root_mixture", "value": 0.0, "x": None}
        rebuilt = np.zeros((8, 8), dtype=complex)
        for member in report["decomposition"]["members"]:
            state = qstate.state_from_json(member["state"])
            rebuilt += member["weight"] * np.outer(state.amps, state.amps.conj())
        np.testing.assert_allclose(rebuilt, rho, atol=1e-8)

    def test_full_rank_rejected(self, tmp_path, capsys):
        rho = np.eye(8) / 8.0
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({
            "dim": 8,
            "rho": [[[rho[i, j], 0.0] for j in range(8)] for i in range(8)],
        }))
        code, _, _ = run_cli(capsys, "decompose", "--rho", str(path))
        assert code == 1

    def test_rows_that_are_not_lists_are_input_errors(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"dim": 8, "rho": [1, 2, 3, 4, 5, 6, 7, 8]}))
        code, out, err = run_cli(capsys, "decompose", "--rho", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_directory_as_input_is_input_error(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "decompose", "--rho", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_directory_as_output_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(qstate.density_to_json(ghzw_rho(0.5))))
        code, out, err = run_cli(capsys, "decompose", "--rho", str(path), "--output", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


class TestSweepVerb:
    def test_class_three_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--class", "III",
            "--param-grid", "a=0.5:1.5:3,b=0.5:1.5:3", "--compare", "regu",
        )
        assert code == 0
        report = json.loads(out)
        assert report["triple"] == "A1A2A4"
        assert len(report["cells"]) == 9
        assert [c["index"] for c in report["cells"]] == list(range(9))
        for cell in report["cells"]:
            assert cell["best"] <= cell["compare"] + 1e-8

    def test_bad_grid_spec(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--class", "III", "--param-grid", "a=1:2", "--compare", "regu"
        )
        assert code == 1

    def test_duplicated_grid_name_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--class", "V", "--param-grid", "a=0.3:1.7:2,a=1:1.1:1"
        )
        assert code == 1
        assert out == ""
        assert "'a' twice" in err

    @pytest.mark.parametrize("spec", [
        "a=1:inf:2", "a=nan:1:2", "a=-inf:1:2", "a=1:2:1e9", "a=1:2:2.5", "a=x:1:2",
        "a=-1e308:1e308:3",
    ])
    def test_non_finite_or_non_integer_grid_is_input_error(self, capsys, spec):
        # an infinite bound, or a span stop - start that overflows, would give
        # the axis nan entries and the cells nan amplitudes
        code, out, err = run_cli(capsys, "sweep", "--class", "V", "--param-grid", spec)
        assert code == 1
        assert out == ""
        assert repr(spec) in err

    def test_overflowing_tabulated_value_is_input_error(self, capsys):
        # best_bound bounds each representative; the comparison value overflowed
        code, out, err = run_cli(capsys, "sweep", "--class", "V", "--param-grid", "a=1e140:1e150:3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: class V at a=(1e+140+0j)") and "overflows" in err

    def test_overflowing_norm_is_input_error(self, capsys):
        # finite amplitudes of about 1e200 whose norm^2 overflows
        code, out, err = run_cli(
            capsys, "sweep", "--class", "V", "--param-grid", "a=1e200:1e200:1"
        )
        assert code == 1
        assert out == ""
        assert "norm^2" in err and "overflows" in err


#: (argv, with {state3} for a three-qubit state file, {booleans} for a state
#: file of [true, false] pairs and {huge} for one whose first real part is
#: 10**400; a fragment of the error line): one entry per input check of the verbs
_BAD_INPUTS = {
    "bound_on_three_qubits": (["bound", "--state", "{state3}", "--triple", "A1A2A3"],
                              "four-qubit state"),
    "bound_on_boolean_amplitudes": (["bound", "--state", "{booleans}", "--triple", "A1A2A3"],
                                    "not booleans"),
    "invariants_on_an_integer_too_large": (["invariants", "--state", "{huge}", "--traced", "A4"],
                                           "too large for a float"),
    "grid_count_zero": (["sweep", "--class", "V", "--param-grid", "a=1:2:0"], "grid count"),
    "sweep_wrong_parameters": (["sweep", "--class", "V", "--param-grid", "b=1:2:2"],
                               "sweeps over parameters"),
    "osterloh_class_two_without_triple": (
        ["sweep", "--class", "II", "--param-grid", "a=1:2:2,d=1:2:2,c=1:2:2",
         "--compare", "osterloh"], "no default triple"),
    # osterloh prints no class II value, but the cell's printed values overflow
    "osterloh_class_two_past_the_float_range": (
        ["sweep", "--class", "II", "--param-grid", "a=1:1:1,d=1:1:1,c=1e100:1e100:1",
         "--compare", "osterloh", "--triple", "A1A2A3"], "value overflows"),
}


@pytest.mark.parametrize("argv,fragment", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_is_input_error(tmp_path, capsys, argv, fragment):
    files = {
        "state3": write_state_json(tmp_path, np.full(8, 8 ** -0.5), n_qubits=3),
        "booleans": write_pairs_json(tmp_path, "booleans.json", [[True, False]] * 16),
        "huge": write_pairs_json(tmp_path, "huge.json", [[10 ** 400, 0]] + [[0, 0]] * 15),
    }
    code, out, err = run_cli(capsys, *[a.format(**files) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and fragment in err


class TestSweepAxesAndCells:
    """The sweep verb's axes and cells are Python lists; np.linspace and the
    flat order of np.meshgrid(..., indexing="ij") are their bit-for-bit oracle."""

    @staticmethod
    def assert_axis_is_linspace(start, stop, count):
        axis = _parse_grid_spec(f"a={start!r}:{stop!r}:{count}")["a"]
        assert all(type(v) is float for v in axis)
        expected = np.linspace(start, stop, count).tolist()
        assert [v.hex() for v in axis] == [v.hex() for v in expected], (start, stop, count)

    def test_random_axes_equal_linspace(self):
        rng = np.random.default_rng(26)
        for _ in range(3000):
            start, stop = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-300, 300, 2)
            self.assert_axis_is_linspace(float(start), float(stop), int(rng.integers(1, 40)))

    @pytest.mark.parametrize("start,stop,count", [
        (0.7, 1.9, 1), (-0.0, 1.0, 1), (-0.0, -0.0, 1), (1.0, -0.0, 1),    # a count of 1
        (1.9, 0.2, 7), (2.0, -3.0, 2), (1e300, -1e300, 5),                # start > stop
        (1.3, 1.3, 5), (-0.0, -0.0, 3), (0.0, 0.0, 2),                    # start == stop
        (0.0, -0.0, 2), (-0.0, 0.0, 4), (1.0, -0.0, 3), (-1.0, 0.0, 3),   # signed zeros
        # subnormal spans, where the step is 0: numpy divides k by count - 1
        # before multiplying, so the third entry of the first reads 5e-324, not 0
        (0.0, 5e-324, 4), (5e-324, 1e-323, 4), (-1e-323, 1e-323, 9),
        (1e-310, 1.00000000001e-310, 1000),
    ])
    def test_edge_axes_equal_linspace(self, start, stop, count):
        self.assert_axis_is_linspace(start, stop, count)

    def test_cells_follow_the_meshgrid_flat_order(self, capsys):
        # class II sweeps (a, d, c) in that order, whatever order the spec names them in
        code, out, _ = run_cli(
            capsys, "sweep", "--class", "II",
            "--param-grid", "c=1.9:0.4:4,a=0.3:1.7:3,d=0.5:1.1:2",
        )
        assert code == 0
        cells = json.loads(out)["cells"]
        meshes = np.meshgrid(
            np.linspace(0.3, 1.7, 3), np.linspace(0.5, 1.1, 2), np.linspace(1.9, 0.4, 4),
            indexing="ij",
        )
        expected = [[float(m.flat[k]).hex() for m in meshes] for k in range(meshes[0].size)]
        assert [c["index"] for c in cells] == list(range(24))
        assert [[c["params"][n].hex() for n in ("a", "d", "c")] for c in cells] == expected


class TestSelftestVerb:
    def test_subset_runs_and_reports(self, capsys, monkeypatch):
        monkeypatch.setattr(
            acceptance, "ALL_CRITERIA", (acceptance.criterion_3, acceptance.criterion_8)
        )
        code, out, err = run_cli(capsys, "selftest")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert [r["criterion"] for r in report["criteria"]] == [3, 8]
        assert "criterion 3: PASS" in err

    def test_determinism(self, capsys, monkeypatch):
        monkeypatch.setattr(
            acceptance, "ALL_CRITERIA", (acceptance.criterion_3, acceptance.criterion_8)
        )
        _, first, _ = run_cli(capsys, "selftest")
        _, second, _ = run_cli(capsys, "selftest")
        assert first == second

    def test_corrupted_invariant_coefficient_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", (acceptance.criterion_8,))
        true_fn = invariants.invariant_set

        def corrupted(state, traced):
            inv = true_fn(state, traced)
            return invariants.ThreeQubitInvariantSet(
                inv.traced, inv.i40, inv.i31, inv.i22 * (1 + 1e-3), inv.i13, inv.i04
            )

        monkeypatch.setattr(invariants, "invariant_set", corrupted)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 2
        assert json.loads(out)["ok"] is False


class TestMisc:
    def test_unknown_verb_exits_nonzero(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_option_exits_nonzero(self, capsys):
        assert main(["ghzw", "--p", "0.5", "--frob", "1"]) == 1

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "--output", str(out_path), "ghzw", "--p", "0.3")
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["bound"] == 0.0

    def test_readme_commands_parse(self):
        # every tanglebound line of README's sh blocks is a command the parser
        # accepts, so a documented flag cannot outlive the option it names
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        lines = [
            line for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
            for line in block.splitlines() if line.startswith("tanglebound ")
        ]
        assert lines
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    def test_output_before_and_after_the_verb(self, tmp_path, capsys):
        args = ["sweep", "--class", "V", "--param-grid", "a=0.4:1.2:3", "--compare", "regu"]
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert main(["--output", str(before)] + args) == 0
        assert main(args + ["--output", str(after)]) == 0
        assert capsys.readouterr().out == ""
        assert before.read_bytes() == after.read_bytes()
        assert json.loads(before.read_text())["class"] == "V"

    def test_successive_calls_match_separate_runs(self, tmp_path, capsys):
        # main builds its parser once per process; reusing it must not carry
        # anything from one call into the next, a rejected call included
        state = write_state_json(tmp_path, qstate.random_state(5).amps)

        def calls(out_dir):
            out_dir.mkdir()
            return [
                ["bound", "--state", state, "--triple", "A1A2A4"],
                ["--output", str(out_dir / "classes.json"),
                 "classes", "--id", "V", "--a", "0.9-0.6i", "--triple", "A1A3A4"],
                ["ghzw", "--p", "0.5", "--frob", "1"],
                ["sweep", "--class", "V", "--param-grid", "a=0.4:1.2:3",
                 "--output", str(out_dir / "sweep.json")],
                ["invariants", "--state", state, "--traced", "A3"],
            ]

        in_process = []
        for argv in calls(tmp_path / "one"):
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        env = dict(os.environ, PYTHONPATH=str(Path(tanglebound.__file__).parents[1]))
        separate = []
        for argv in calls(tmp_path / "each"):
            run = subprocess.run([sys.executable, "-m", "tanglebound.cli", *argv],
                                 capture_output=True, text=True, env=env)
            separate.append((run.returncode, run.stdout))
        assert in_process == separate
        assert [code for code, _ in in_process] == [0, 0, 1, 0, 0]
        assert in_process[2][1] == ""
        for name in ("classes.json", "sweep.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "each" / name).read_bytes()
