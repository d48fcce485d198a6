"""sha256 of the best_bound reports over a fixed corpus, to check that a change
leaves every report bit for bit as it was, and the sizes of the moves where it
does not.

The corpus: random_state(1000 + k) for k < 200, 20 draws of every class
I-IX (classes.representative) from default_rng(9), each parameter a modulus
in [0.2, 2] times a phase in [0, 2 pi) (class I real, as its vanishing
three-way correlation needs), and 10 near-product states, |0101> (a[5] = 1)
plus eps times complex Gaussian noise from default_rng(11), eps from 1e-60
to 1e-150 in steps of ten decades, whose bounds span about 1e-120 to
1e-300; every state on all three supported triples: (200 + 9 x 20 + 10) x 3
= 1,170 reports. Each report is serialized as
json.dumps(report_to_json(report)); the digest is taken over their
concatenation, in corpus order.

A second line gives the sha256 of the ``sweep`` verb's JSON over the five
(class, triple) sweeps of the benchmark's class_sweep workload (classes II-V
on the verb's default triples and class III on A1A2A3), on the fixed grids of
SWEEPS: each is one in-process ``cli.main`` call whose stdout is captured,
and the digest is taken over their concatenation, in SWEEPS order.

A third line gives the sha256 of ``decompose_rank2``'s outputs over a fixed
rank-2 corpus (rank2_corpus): the GHZ/W mixtures at p = k/100, 0 < k < 100,
the A4-traced states of random_state(700 + k) for k < 30, of 60 real-amplitude
states and of 5 class I draws on all four qubit orders, the last two from
default_rng(5) (real amplitudes and class I put the stars on one circle). Each
output is serialized as json.dumps(decomposition_to_json(...)): the method,
the value and every member's weight and amplitudes.

A fourth line gives the sha256 of the ``classes`` verb's JSON over the nine
classes on all four triples (class_cells): 5 draws of each class that takes
parameters, from default_rng(13), moduli in [0.2, 2] times phases in
[0, 2 pi) (class I real), and VII, VIII and IX once, (6 x 5 + 3) x 4 = 132
cells. Each cell is one in-process ``cli.main`` call whose stdout is
captured, and the digest is taken over their concatenation, in order.

Run from the repository root, against this checkout's src/:

    python tools/report_digest.py                   # the digests
    python tools/report_digest.py --dump PATH       # and the reports, to PATH
    python tools/report_digest.py --compare PATH    # and the moves against PATH

``--dump`` writes one JSON line per report, {"group": ..., "report": ...},
where the group is "random", the class id or "product", then one per
decomposition, {"group": ..., "decomposition": ...}, where the group is
"ghzw", "random", "real" or "classI". ``--compare`` reads such a file, made in another
checkout, and prints how many reports changed, how many of them changed
their method list (per group), and, per group and over all, the largest
absolute and relative move of ``best``, of ``F``, of each method's value and
of each method's witness x, the methods matched by name; then how many
decompositions changed, how many of them changed method or member count,
and the same table for the value, the weights and the amplitudes of the
others. A relative move is taken where the old value is nonzero (a witness:
|dx| / |x|; amplitudes have none). A last line counts, per method, the
witnesses that moved to their twin -x (|x_new + x_old| <= 1e-9 |x_old|) or
to their antipode -1/conj(x) (|x_new conj(x_old) + 1| <= 1e-9 |x_old|): in
the table such a flip reads as a relative move of about 2, among rounding
moves.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from tanglebound import cli, rank2  # noqa: E402
from tanglebound.bounds import best_bound, report_to_json  # noqa: E402
from tanglebound.classes import (  # noqa: E402
    ALL_TRIPLES,
    CLASS_IDS,
    CLASS_PARAMS,
    SUPPORTED_TRIPLES,
    representative,
    spec_from_values,
)
from tanglebound.qstate import (  # noqa: E402
    PureState4,
    normalize,
    partial_trace_last,
    permute_qubits,
    random_state,
)

RANDOM_STATES = 200
DRAWS_PER_CLASS = 20
NEAR_PRODUCT_STATES = 10
CLASS_CELL_DRAWS = 5

#: (class, --param-grid, --triple or None for the verb's default), every
#: sweep against "regu"; equal ranges put cells on the a = b diagonals
SWEEPS = (
    ("II", "a=0.2:2:3,d=0.2:2:3,c=0.5:1.5:3", None),
    ("III", "a=0.2:2:5,b=0.2:2:5", None),
    ("III", "a=0.2:2:5,b=0.4:1.8:4", "A1A2A3"),
    ("IV", "a=0.2:2:5,b=0.2:2:5", None),
    ("V", "a=0.2:2:10", None),
)


def draw_values(rng, class_id: str) -> list[complex]:
    """One draw of the class's parameters: moduli in [0.2, 2] times phases in
    [0, 2 pi), class I real."""
    n = len(CLASS_PARAMS[class_id])
    moduli = rng.uniform(0.2, 2.0, n)
    phases = np.zeros(n) if class_id == "I" else rng.uniform(0.0, 2.0 * np.pi, n)
    return [complex(m * np.exp(1j * p)) for m, p in zip(moduli, phases)]


def corpus():
    """(group, state) for the corpus states, in order: the random states, the
    class draws and the near-product states."""
    states = [("random", random_state(1000 + k)) for k in range(RANDOM_STATES)]
    rng = np.random.default_rng(9)
    for class_id in CLASS_IDS:
        for _ in range(DRAWS_PER_CLASS):
            spec = spec_from_values(class_id, *draw_values(rng, class_id))
            states.append((class_id, representative(spec)))
    rng = np.random.default_rng(11)
    for k in range(NEAR_PRODUCT_STATES):
        a = 10.0 ** (-60 - 10 * k) * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        a[5] += 1.0
        states.append(("product", normalize(PureState4(a))))
    return states


def rank2_corpus():
    """(group, rho) for the rank-2 corpus states, in order."""
    rhos = [("ghzw", rank2.ghzw_rho(k / 100.0)) for k in range(1, 100)]
    rhos += [("random", partial_trace_last(random_state(700 + k))[0]) for k in range(30)]
    rng = np.random.default_rng(5)
    for _ in range(60):
        state = normalize(PureState4(rng.standard_normal(16).astype(complex)))
        rhos.append(("real", partial_trace_last(state)[0]))
    for _ in range(5):
        state = representative(spec_from_values("I", *(complex(v) for v in rng.uniform(0.2, 2.0, 4))))
        for perm in ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)):
            rhos.append(("classI", partial_trace_last(permute_qubits(state, perm))[0]))
    return rhos


def decomposition_to_json(witness, deco) -> dict:
    """The method, the value and each member's weight and amplitudes."""
    return {
        "method": witness.method,
        "value": witness.value,
        "members": [[w, s.amps.real.tolist(), s.amps.imag.tolist()] for w, s in deco.members],
    }


def stdout_digest(argvs) -> tuple[list[str], str]:
    """(stdout of each argv's in-process ``cli.main`` call, sha256 of their
    concatenation, in order); SystemExit where a call exits nonzero."""
    digest = hashlib.sha256()
    outs = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        outs.append(out.getvalue())
        digest.update(outs[-1].encode())
    return outs, digest.hexdigest()


def sweep_digest(sweeps=SWEEPS) -> tuple[int, str]:
    """(cell count, sha256) of the sweep verb's stdout over ``sweeps``."""
    argvs = [["sweep", "--class", class_id, "--param-grid", grid, "--compare", "regu"]
             + (["--triple", triple] if triple is not None else [])
             for class_id, grid, triple in sweeps]
    outs, digest = stdout_digest(argvs)
    return sum(len(json.loads(out)["cells"]) for out in outs), digest


def class_cells() -> list[list[str]]:
    """The classes verb's command lines: every class on every triple, with
    CLASS_CELL_DRAWS draws (draw_values, default_rng(13)) of each class that
    takes parameters, each parameter written so that it reads back exactly."""
    rng = np.random.default_rng(13)
    argvs = []
    for class_id in CLASS_IDS:
        names = CLASS_PARAMS[class_id]
        for _ in range(CLASS_CELL_DRAWS if names else 1):
            params = [f"--{name}={v.real:.17g}{v.imag:+.17g}i"
                      for name, v in zip(names, draw_values(rng, class_id))]
            argvs += [["classes", "--id", class_id, *params, "--triple", triple]
                      for triple in ALL_TRIPLES]
    return argvs


def matched(old: dict, new: dict):
    """(old entry, new entry) of every method that both reports list, matched
    by name, in the old report's order."""
    theirs = {m["method"]: m for m in new["methods"]}
    return [(a, theirs[a["method"]]) for a in old["methods"] if a["method"] in theirs]


def moves(old: dict, new: dict):
    """(field, absolute move, relative move or None) for every number of two
    reports on the same state and triple; the fields are "best", "F", and
    "<method> value" and "<method> x" of the methods both list (matched)."""
    pairs = [("best", old["best"], new["best"]), ("F", old["F"], new["F"])]
    for a, b in matched(old, new):
        pairs.append((f"{a['method']} value", a["value"], b["value"]))
        if a["x"] is not None and b["x"] is not None:
            pairs.append((f"{a['method']} x", complex(*a["x"]), complex(*b["x"])))
    for field, a, b in pairs:
        move = abs(b - a)
        yield field, move, move / abs(a) if a != 0 else None


def flips(old: dict, new: dict):
    """The methods of two reports on the same state and triple whose witness
    moved to its twin -x or to its antipode -1/conj(x), within 1e-9 |x|."""
    for a, b in matched(old, new):
        if a["x"] is not None and b["x"] is not None and a["x"] != b["x"]:
            x, y = complex(*a["x"]), complex(*b["x"])
            if min(abs(y + x), abs(y * x.conjugate() + 1.0)) <= 1e-9 * abs(x):
                yield a["method"]


def decomposition_moves(old: dict, new: dict):
    """(field, absolute move, relative move or None) for every number of two
    decompositions of the same state with the same method and member count;
    the fields are "value", "weight" and "amplitude"."""
    yield "value", abs(new["value"] - old["value"]), (
        abs(new["value"] - old["value"]) / abs(old["value"]) if old["value"] else None)
    for (w, re, im), (w2, re2, im2) in zip(old["members"], new["members"]):
        yield "weight", abs(w2 - w), abs(w2 - w) / w
        amps = np.array(re) + 1j * np.array(im) - np.array(re2) - 1j * np.array(im2)
        yield "amplitude", float(np.abs(amps).max()), None


def print_moves(pairs, moves_of) -> None:
    """The table of largest moves, per group and over all, of the (group, old,
    new) ``pairs``, each pair's moves listed by moves_of(old, new)."""
    # (group, field) -> [changed count, largest absolute, largest relative]
    worst: dict = {}
    for group, old, new in pairs:
        for field, move, rel in moves_of(old, new):
            for key in ((group, field), ("all", field)):
                entry = worst.setdefault(key, [0, 0.0, 0.0])
                entry[0] += move != 0
                entry[1] = max(entry[1], move)
                entry[2] = max(entry[2], rel or 0.0)
    print(f"{'group':8s} {'field':22s} {'moved':>6s} {'max abs':>10s} {'max rel':>10s}")
    for (group, field), (count, move, rel) in sorted(worst.items()):
        if count:
            print(f"{group:8s} {field:22s} {count:6d} {move:10.3g} {rel:10.3g}")


def compare(dump_path: str, reports: list, decompositions: list) -> None:
    """Print the moves of ``reports`` and ``decompositions``, (group, JSON)
    pairs, against those dumped at dump_path."""
    with open(dump_path) as fh:
        old = [json.loads(line) for line in fh]
    old_reports = [(o["group"], o["report"]) for o in old if "report" in o]
    old_decompositions = [(o["group"], o["decomposition"]) for o in old if "decomposition" in o]
    for mine, theirs in ((reports, old_reports), (decompositions, old_decompositions)):
        if [g for g, _ in mine] != [g for g, _ in theirs]:
            raise SystemExit(f"{dump_path} does not hold this corpus")
    changed = sum(o != r for (_, o), (_, r) in zip(old_reports, reports))
    listed: dict = {}
    for (group, o), (_, r) in zip(old_reports, reports):
        if [m["method"] for m in o["methods"]] != [m["method"] for m in r["methods"]]:
            listed[group] = listed.get(group, 0) + 1
    groups = " (" + ", ".join(f"{g} {n}" for g, n in sorted(listed.items())) + ")" if listed else ""
    print(f"{changed} of {len(reports)} reports changed, "
          f"{sum(listed.values())} in method list{groups}")
    print_moves([(g, o, r) for (g, o), (_, r) in zip(old_reports, reports)], moves)
    pairs = [(g, o, d) for (g, o), (_, d) in zip(old_decompositions, decompositions)]
    changed = sum(o != d for _, o, d in pairs)
    method = sum(o["method"] != d["method"] for _, o, d in pairs)
    count = sum(o["method"] == d["method"] and len(o["members"]) != len(d["members"])
                for _, o, d in pairs)
    print(f"{changed} of {len(pairs)} decompositions changed, {method} in method, "
          f"{count} in member count")
    print_moves([(g, o, d) for g, o, d in pairs
                 if o["method"] == d["method"] and len(o["members"]) == len(d["members"])],
                decomposition_moves)
    counts = {m["method"]: 0 for _, r in reports for m in r["methods"] if m["x"] is not None}
    for (_, o), (_, r) in zip(old_reports, reports):
        for method in flips(o, r):
            counts[method] += 1
    print("witnesses flipped to the twin or the antipode: "
          + ", ".join(f"{method} {n}" for method, n in sorted(counts.items())))


def main(argv=None) -> None:
    """Run the command line ``argv`` (default sys.argv) over the corpus."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="PATH", help="write the reports to PATH")
    parser.add_argument("--compare", metavar="PATH",
                        help="compare the reports with a --dump file from another checkout")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    reports = []
    for group, state in corpus():
        for triple in SUPPORTED_TRIPLES:
            report = report_to_json(best_bound(state, triple))
            digest.update(json.dumps(report).encode())
            reports.append((group, report))
    print(f"{len(reports)} reports sha256 {digest.hexdigest()}")
    cells, sweeps = sweep_digest()
    print(f"{cells} sweep cells sha256 {sweeps}")
    digest = hashlib.sha256()
    decompositions = []
    for group, rho in rank2_corpus():
        decomposition = decomposition_to_json(*rank2.decompose_rank2(rho))
        digest.update(json.dumps(decomposition).encode())
        decompositions.append((group, decomposition))
    print(f"{len(decompositions)} decompositions sha256 {digest.hexdigest()}")
    cells = class_cells()
    print(f"{len(cells)} class cells sha256 {stdout_digest(cells)[1]}")
    if args.dump:
        with open(args.dump, "w") as fh:
            for group, report in reports:
                fh.write(json.dumps({"group": group, "report": report}) + "\n")
            for group, decomposition in decompositions:
                fh.write(json.dumps({"group": group, "decomposition": decomposition}) + "\n")
    if args.compare:
        compare(args.compare, reports, decompositions)


if __name__ == "__main__":
    main()
