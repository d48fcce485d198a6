"""Command-line front end: JSON state I/O, invariant dumps, bound reports,
class tables, GHZ/W reference curves, comparison sweeps, and the selftest.

All numeric output is JSON on stdout; diagnostics go to stderr. Exit codes:
0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from . import acceptance, bounds, classes, invariants, qstate, rank2
from .errors import BadComplexLiteral, DidNotConverge, NotPrinted, TangleboundError


def parse_complex(text: str) -> complex:
    """Parse "re+imi" strings such as 2, 2+0i, 0.5-1.2i, -1.5i, i, inf.

    Spaces are dropped and a trailing i is read as j by complex(). Text with
    complex()'s own j or parentheses is refused, as is all that it refuses.
    """
    s = text.strip().replace(" ", "")
    if not any(c in s for c in "jJ()"):
        try:
            return complex(s[:-1] + "j" if s.endswith("i") else s)
        except ValueError:
            pass
    raise BadComplexLiteral(f"not a complex literal such as 0.5-1.2i: {text!r}")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj, output: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_state4(args) -> qstate.PureState4:
    state = qstate.state_from_json(_load_json(args.state))
    if not isinstance(state, qstate.PureState4):
        raise TangleboundError(f"{args.verb} needs a four-qubit state")
    return qstate.normalize(state)


def _cmd_invariants(args) -> int:
    inv = invariants.invariant_set(_load_state4(args), args.traced)
    _emit(invariants.invariants_to_json(inv), args.output)
    return 0


def _cmd_bound(args) -> int:
    _emit(bounds.report_to_json(bounds.best_bound(_load_state4(args), args.triple)), args.output)
    return 0


def _class_cell(spec: classes.ClassSpec, triple: str) -> dict:
    cell: dict = {
        "class": spec.id,
        "triple": triple,
        "params": {k: [v.real, v.imag] for k, v in spec.params().items()},
    }
    printed = classes.paper_bound(spec, triple)
    cell["paper_bound"] = printed
    literature = {}
    for source in classes.SOURCES:
        try:
            literature[source] = classes.literature_bound(spec, triple, source)
        except NotPrinted:
            pass
    cell["literature"] = literature
    if triple == classes.FIXTURE_TRIPLE:
        cell["source"] = "fixture"   # triple excludes the focus qubit: never computed
        return cell
    report = bounds.best_bound(classes.representative(spec), triple)
    cell["best_bound"] = report.best
    cell["F"] = report.tightness_f
    cell["methods"] = bounds.report_to_json(report)["methods"]
    if printed is not None:
        cell["delta_vs_paper"] = report.best - printed
    for source, value in literature.items():
        cell[f"delta_vs_{source}"] = report.best - value
    return cell


def _cmd_classes(args) -> int:
    # ClassSpec rejects a missing or superfluous parameter (BadArity)
    given = {name: parse_complex(getattr(args, name)) for name in ("a", "b", "c", "d")
             if getattr(args, name) is not None}
    spec = classes.ClassSpec(args.id, **given)
    _emit(_class_cell(spec, args.triple), args.output)
    return 0


def _cmd_ghzw(args) -> int:
    p = args.p
    thr = rank2.ghzw_threshold()
    witness, deco = rank2.decompose_rank2(rank2.ghzw_rho(p))
    out = {
        "p": p,
        "threshold": thr,
        "x0": rank2.ghzw_x0(p) if p < 1.0 else None,
        "bound": rank2.ghzw_bound(p),
        "scan_bound": {"method": witness.method, "value": witness.value},
        "decomposition": _deco_json(deco),
    }
    _emit(out, args.output)
    return 0


def _cmd_decompose(args) -> int:
    rho = qstate.density_from_json(_load_json(args.rho))
    witness, deco = rank2.decompose_rank2(rho)
    out = {"bound": bounds.witness_to_json(witness), "decomposition": _deco_json(deco)}
    _emit(out, args.output)
    return 0


def _deco_json(deco: rank2.Decomposition) -> dict:
    # member states use the standard wire format so they round-trip through
    # the state readers
    return {
        "members": [
            {
                "weight": w,
                "tangle": invariants.three_tangle_pure(s),
                "state": qstate.state_to_json(s),
            }
            for w, s in deco.members
        ]
    }


def _grid_axis(start: float, stop: float, count: int) -> list[float]:
    """np.linspace(start, stop, count).tolist(), bit for bit, on Python floats.

    Entry k is k * step + start with step = (stop - start) / (count - 1), and
    the last entry is stop. Where the step underflows to zero numpy divides
    first, k / (count - 1) * (stop - start) + start; a count of 1 gives
    0.0 * (stop - start) + start, which turns a start of -0.0 into +0.0.
    """
    delta = stop - start
    if count == 1:
        return [0.0 * delta + start]
    div = count - 1
    step = delta / div
    if step == 0:
        axis = [k / div * delta + start for k in range(count)]
    else:
        axis = [k * step + start for k in range(count)]
    axis[-1] = stop
    return axis


def _parse_grid_spec(text: str) -> dict[str, list[float]]:
    """a=0.2:2:10,b=0.2:2:10 -> name -> real grid values."""
    grids = {}
    for part in text.split(","):
        name, _, rng = part.partition("=")
        name = name.strip()
        pieces = rng.split(":")
        if name not in ("a", "b", "c", "d") or len(pieces) != 3:
            raise TangleboundError(f"bad grid spec {part!r}: want name=start:stop:count")
        if name in grids:
            raise TangleboundError(f"grid spec {text!r} names parameter {name!r} twice")
        try:
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise TangleboundError(
                f"bad grid spec {part!r}: want real start and stop and an integer count"
            ) from None
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise TangleboundError(f"bad grid spec {part!r}: start and stop must be finite")
        if not math.isfinite(stop - start):
            raise TangleboundError(f"bad grid spec {part!r}: stop - start overflows")
        if count < 1:
            raise TangleboundError(f"bad grid count in {part!r}")
        grids[name] = _grid_axis(start, stop, count)
    return grids


_DEFAULT_SWEEP_TRIPLE = {
    ("II", "regu"): "A1A2A3",
    ("III", "regu"): "A1A2A4",
    ("III", "osterloh"): "A1A2A4",
    ("IV", "regu"): "A1A2A3",
    ("V", "regu"): "A1A2A3",
    ("V", "osterloh"): "A1A2A4",
}


def _cmd_sweep(args) -> int:
    cid = args.class_id
    grids = _parse_grid_spec(args.param_grid)
    wanted = classes.CLASS_PARAMS[cid]
    if set(grids) != set(wanted):
        raise TangleboundError(
            f"class {cid} sweeps over parameters {wanted}, got {sorted(grids)}"
        )
    triple = args.triple or _DEFAULT_SWEEP_TRIPLE.get((cid, args.compare))
    if triple is None:
        raise TangleboundError(f"no default triple for class {cid} vs {args.compare}")
    cells = []
    # row-major, the last parameter fastest: the flat order of
    # np.meshgrid(..., indexing="ij")
    for flat_index, point in enumerate(itertools.product(*[grids[n] for n in wanted])):
        spec = classes.spec_from_values(cid, *[complex(v) for v in point])
        best = bounds.best_bound(classes.representative(spec), triple).best
        cell = {
            "index": flat_index,
            "params": dict(zip(wanted, point)),
            "best": best,
        }
        try:
            ref = classes.literature_bound(spec, triple, args.compare)
            cell["compare"] = ref
            cell["delta"] = best - ref
        except NotPrinted:
            cell["compare"] = None
        cells.append(cell)
    _emit({"class": cid, "triple": triple, "compare": args.compare, "cells": cells},
          args.output)
    return 0


def _cmd_selftest(args) -> int:
    results = acceptance.run_acceptance(echo=lambda line: print(line, file=sys.stderr))
    # wall-clock timings stay on stderr so the JSON payload is byte-deterministic
    summary = {
        "ok": all(r["ok"] for r in results),
        "criteria": [{k: v for k, v in r.items() if k != "elapsed_s"} for r in results],
    }
    _emit(summary, args.output)
    return 0 if summary["ok"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tanglebound",
        description="Three-tangle bounds for reduced states of four-qubit pure states",
    )
    output_help = "write JSON to this path instead of stdout"
    parser.add_argument("--output", help=output_help)
    # the same flag after the verb; SUPPRESS keeps a pre-verb value when absent
    after_verb = argparse.ArgumentParser(add_help=False)
    after_verb.add_argument("--output", default=argparse.SUPPRESS, help=output_help)
    sub = parser.add_subparsers(dest="verb", required=True)
    add_verb = functools.partial(sub.add_parser, parents=[after_verb])

    p = add_verb("invariants", help="invariant set and correlation report")
    p.add_argument("--state", required=True, help="state JSON path")
    p.add_argument("--traced", required=True, choices=sorted(qstate.TRACE_PERMS))
    p.set_defaults(fn=_cmd_invariants)

    p = add_verb("bound", help="bound report for one qubit triple")
    p.add_argument("--state", required=True)
    p.add_argument("--triple", required=True, choices=list(invariants.TRIPLES))
    p.set_defaults(fn=_cmd_bound)

    p = add_verb("classes", help="class representative bounds and comparisons")
    p.add_argument("--id", required=True, choices=list(classes.CLASS_IDS))
    for name in ("a", "b", "c", "d"):
        p.add_argument(f"--{name}", help=f"complex parameter {name}, e.g. 2+0i")
    p.add_argument("--triple", required=True, choices=list(classes.ALL_TRIPLES))
    p.set_defaults(fn=_cmd_classes)

    p = add_verb("ghzw", help="GHZ/W mixture reference values")
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(fn=_cmd_ghzw)

    p = add_verb("decompose", help="bound and decomposition for a rank-2 state")
    p.add_argument("--rho", required=True, help="density JSON path")
    p.set_defaults(fn=_cmd_decompose)

    p = add_verb("sweep", help="parameter sweep against a literature bound")
    p.add_argument("--class", dest="class_id", required=True,
                   choices=["II", "III", "IV", "V"])
    p.add_argument("--param-grid", required=True,
                   help="e.g. a=0.2:2:10,b=0.2:2:10 (real grids)")
    p.add_argument("--compare", default="regu", choices=list(classes.SOURCES))
    p.add_argument("--triple", choices=list(classes.SUPPORTED_TRIPLES))
    p.set_defaults(fn=_cmd_sweep)

    p = add_verb("selftest", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_selftest)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: building the tree costs far more than a parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DidNotConverge, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (TangleboundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
