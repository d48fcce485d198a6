"""sha256 of the best_bound reports over a fixed corpus, to check that a change
leaves every report bit for bit as it was, and the sizes of the moves where it
does not.

The corpus: random_state(1000 + k) for k < 200, and 20 draws of every class
I-IX (classes.representative) from default_rng(9), each parameter a modulus
in [0.2, 2] times a phase in [0, 2 pi) (class I real, as its vanishing
three-way correlation needs), every state on all three supported triples:
(200 + 9 x 20) x 3 = 1,140 reports. Each report is serialized as
json.dumps(report_to_json(report)); the digest is taken over their
concatenation, in corpus order.

A second line gives the sha256 of the ``sweep`` verb's JSON over the five
(class, triple) sweeps of the benchmark's class_sweep workload (classes II-V
on the verb's default triples and class III on A1A2A3), on the fixed grids of
SWEEPS: each is one in-process ``cli.main`` call whose stdout is captured,
and the digest is taken over their concatenation, in SWEEPS order.

Run from the repository root, against this checkout's src/:

    python tools/report_digest.py                   # the digests
    python tools/report_digest.py --dump PATH       # and the reports, to PATH
    python tools/report_digest.py --compare PATH    # and the moves against PATH

``--dump`` writes one JSON line per report, {"group": ..., "report": ...},
where the group is "random" or the class id. ``--compare`` reads such a file,
made in another checkout, and prints how many reports changed and, per group
and over all, the largest absolute and relative move of ``best``, of ``F``, of
each method's value and of each method's witness x. A relative move is taken
where the old value is nonzero (a witness: |dx| / |x|).
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

from tanglebound import cli  # noqa: E402
from tanglebound.bounds import best_bound, report_to_json  # noqa: E402
from tanglebound.classes import (  # noqa: E402
    CLASS_IDS,
    CLASS_PARAMS,
    SUPPORTED_TRIPLES,
    representative,
    spec_from_values,
)
from tanglebound.qstate import random_state  # noqa: E402

RANDOM_STATES = 200
DRAWS_PER_CLASS = 20

#: (class, --param-grid, --triple or None for the verb's default), every
#: sweep against "regu"; equal ranges put cells on the a = b diagonals
SWEEPS = (
    ("II", "a=0.2:2:3,d=0.2:2:3,c=0.5:1.5:3", None),
    ("III", "a=0.2:2:5,b=0.2:2:5", None),
    ("III", "a=0.2:2:5,b=0.4:1.8:4", "A1A2A3"),
    ("IV", "a=0.2:2:5,b=0.2:2:5", None),
    ("V", "a=0.2:2:10", None),
)


def corpus(random_states: int = RANDOM_STATES, draws_per_class: int = DRAWS_PER_CLASS):
    """(group, state) for the corpus states, in order: the first
    ``random_states`` random states and ``draws_per_class`` draws per class."""
    states = [("random", random_state(1000 + k)) for k in range(random_states)]
    rng = np.random.default_rng(9)
    for class_id in CLASS_IDS:
        n = len(CLASS_PARAMS[class_id])
        for _ in range(draws_per_class):
            moduli = rng.uniform(0.2, 2.0, n)
            phases = np.zeros(n) if class_id == "I" else rng.uniform(0.0, 2.0 * np.pi, n)
            values = [complex(m * np.exp(1j * p)) for m, p in zip(moduli, phases)]
            states.append((class_id, representative(spec_from_values(class_id, *values))))
    return states


def sweep_digest(sweeps=SWEEPS) -> tuple[int, str]:
    """(cell count, sha256) of the sweep verb's stdout over ``sweeps``."""
    digest = hashlib.sha256()
    cells = 0
    for class_id, grid, triple in sweeps:
        argv = ["sweep", "--class", class_id, "--param-grid", grid, "--compare", "regu"]
        if triple is not None:
            argv += ["--triple", triple]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        digest.update(out.getvalue().encode())
        cells += len(json.loads(out.getvalue())["cells"])
    return cells, digest.hexdigest()


def moves(old: dict, new: dict):
    """(field, absolute move, relative move or None) for every number of two
    reports on the same state and triple; the fields are "best", "F",
    "<method> value" and "<method> x"."""
    if [m["method"] for m in old["methods"]] != [m["method"] for m in new["methods"]]:
        raise ValueError(f"method lists differ: {old} / {new}")
    pairs = [("best", old["best"], new["best"]), ("F", old["F"], new["F"])]
    for a, b in zip(old["methods"], new["methods"]):
        pairs.append((f"{a['method']} value", a["value"], b["value"]))
        if a["x"] is not None:
            pairs.append((f"{a['method']} x", complex(*a["x"]), complex(*b["x"])))
    for field, a, b in pairs:
        move = abs(b - a)
        yield field, move, move / abs(a) if a != 0 else None


def compare(dump_path: str, reports: list) -> None:
    """Print the moves of ``reports`` against the reports dumped at dump_path."""
    with open(dump_path) as fh:
        old = [json.loads(line) for line in fh]
    if [r["group"] for r in old] != [g for g, _ in reports]:
        raise SystemExit(f"{dump_path} does not hold this corpus")
    changed = sum(o["report"] != r for o, (_, r) in zip(old, reports))
    print(f"{changed} of {len(reports)} reports changed")
    # (group, field) -> [changed count, largest absolute, largest relative]
    worst: dict = {}
    for o, (group, r) in zip(old, reports):
        for field, move, rel in moves(o["report"], r):
            for key in ((group, field), ("all", field)):
                entry = worst.setdefault(key, [0, 0.0, 0.0])
                entry[0] += move != 0
                entry[1] = max(entry[1], move)
                entry[2] = max(entry[2], rel or 0.0)
    print(f"{'group':8s} {'field':22s} {'moved':>6s} {'max abs':>10s} {'max rel':>10s}")
    for (group, field), (count, move, rel) in sorted(worst.items()):
        if count:
            print(f"{group:8s} {field:22s} {count:6d} {move:10.3g} {rel:10.3g}")


def main(argv=None, **sizes) -> None:
    """Run the command line ``argv`` (default sys.argv) over corpus(**sizes)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="PATH", help="write the reports to PATH")
    parser.add_argument("--compare", metavar="PATH",
                        help="compare the reports with a --dump file from another checkout")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    reports = []
    for group, state in corpus(**sizes):
        for triple in SUPPORTED_TRIPLES:
            report = report_to_json(best_bound(state, triple))
            digest.update(json.dumps(report).encode())
            reports.append((group, report))
    print(f"{len(reports)} reports sha256 {digest.hexdigest()}")
    cells, sweeps = sweep_digest()
    print(f"{cells} sweep cells sha256 {sweeps}")
    if args.dump:
        with open(args.dump, "w") as fh:
            for group, report in reports:
                fh.write(json.dumps({"group": group, "report": report}) + "\n")
    if args.compare:
        compare(args.compare, reports)


if __name__ == "__main__":
    main()
