"""The benchmark's workloads: seeded inputs, the timed call, and output checks.

Every workload turns ``--seed`` into a fixed pool of inputs (amplitudes,
density matrices or CLI arguments) that the timed loop cycles through. The
package receives only those inputs. Calls go through module attributes
(``bounds.best_bound``, ``cli.main``) so the traced run can wrap them.

A workload exposes:

* ``inputs``: the pool, built in the constructor from the seed;
* ``digest()``: a hash of the pool, equal for equal seeds;
* ``run(inp)``: the timed call, returning what ``check`` needs;
* ``check(inp, out)``: one problem string per failed item;
* ``items(inp)``: how many items one call completes;
* ``bytes_out``: bytes the program wrote, and ``close()`` to remove them.

Pool sizes are module constants below, the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from tanglebound import bounds, classes, cli, invariants, qstate, rank2

TRACED = invariants.TRIPLES        # supported triple -> its traced qubit
TRIPLES = tuple(TRACED)

# GHZ/W thresholds of Lohmayer, Osterloh, Siewert and Uhlmann, PRL 97, 260502:
# zero tangle up to P0, the nonlinear branch up to P1.
P0 = 16.0 / (16.0 + 3.0 * 2.0 ** (5.0 / 3.0))
P1 = 0.5 + 3.0 * math.sqrt(465.0) / 310.0

# Pool sizes. Each pool is large enough that a run covers many different
# inputs and small enough that a 1-s traced slice cycles through a good part
# of it, so traced and untraced slices see the same mix.
GENERIC_STATES = 24       # x 3 triples = 72 reports, ~13 ms each
SCAN_STATES = 256         # ~1 ms each
SWEEP_ROUNDS = 10         # x len(SWEEPS) sweeps of two cells each
RANK2_RANDOM = 8          # random rank-2 states
RANK2_PER_REGION = 3      # GHZ/W mixtures per region: below P0, between, above P1


def _gaussian_states(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out.append(a / np.linalg.norm(a))
    return out


def _one_item(problems: list[str]) -> list[str]:
    """All problems of one item as a single entry, so entries count failed items."""
    return ["; ".join(problems)] if problems else []


def _hash(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Workload:
    """Defaults shared by the workloads: one item per call, no output bytes."""

    name = ""
    bytes_out = 0     # bytes the program wrote, summed over calls

    def items(self, inp) -> int:
        return 1

    def close(self) -> None:
        """Remove what the workload wrote."""


class GenericBound(Workload):
    """best_bound on seeded Gaussian states, every supported triple.

    One item is one (state, triple) report: the default path on dense
    invariant sets, where the grid does nearly all the work.
    """

    name = "generic_bound"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.amps = _gaussian_states(rng, GENERIC_STATES)
        self.inputs = [
            (k, qstate.PureState4(a), t) for k, a in enumerate(self.amps) for t in TRIPLES
        ]

    def digest(self) -> str:
        return _hash(self.amps)

    def run(self, inp):
        _, state, triple = inp
        return bounds.best_bound(state, triple)

    def check(self, inp, report) -> list[str]:
        k, state, triple = inp
        tag = f"state {k} {triple}"
        values = {m.method: m for m in report.methods}
        problems = []
        if report.best != min(m.value for m in report.methods):
            problems.append(f"{tag}: best {report.best!r} is not the minimum of the methods")
        quartic, cap, grid = values["quartic_A4"], values["cap"], values["grid"]
        if grid.value > quartic.value + 1e-8:
            problems.append(f"{tag}: grid {grid.value!r} > quartic_A4 {quartic.value!r}")
        if quartic.value > cap.value + 1e-8:
            problems.append(f"{tag}: quartic_A4 {quartic.value!r} > cap {cap.value!r}")
        problems += _witness_problems(tag, invariants.invariant_set(state, TRACED[triple]), quartic)
        return _one_item(problems)


def _witness_problems(tag: str, inv, quartic) -> list[str]:
    """The quartic witness zeroes one endpoint and the other gives the value.

    The zeroed endpoint may keep what the root residual contract of
    ``quartic.roots`` allows: 1e-9 times the largest coefficient (at most
    6 * inv.scale()), so 1e-8 * inv.scale() is the tolerance.
    """
    if quartic.witness_x is None:
        return [] if quartic.value == 0.0 else [f"{tag}: quartic value without a witness"]
    i40x, i04x = invariants.transform_endpoints(inv, quartic.witness_x)
    zeroed, other = sorted((abs(i40x), abs(i04x)))
    problems = []
    if zeroed > 1e-8 * inv.scale():
        problems.append(f"{tag}: witness leaves both endpoints nonzero ({zeroed:.3e})")
    if abs(4.0 * other - quartic.value) > 1e-9 * max(1.0, quartic.value):
        problems.append(f"{tag}: witness realizes {4.0 * other!r}, reported {quartic.value!r}")
    return problems


class InvariantScan(Workload):
    """Invariant sets, correlation summaries, quartic bounds and caps per traced qubit.

    One item is one state through all three traced qubits: the grid-free path
    through qstate, fonts, invariants and quartic.
    """

    name = "invariant_scan"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.amps = _gaussian_states(rng, SCAN_STATES)
        self.inputs = [(k, qstate.PureState4(a)) for k, a in enumerate(self.amps)]

    def digest(self) -> str:
        return _hash(self.amps)

    def run(self, inp):
        _, state = inp
        out = []
        for triple in TRIPLES:
            inv = invariants.invariant_set(state, TRACED[triple])
            summary = invariants.correlation_summary(state, triple)
            out.append((summary, bounds.bound_quartic_A4(inv), bounds.bound_cap(summary)))
        return out

    def check(self, inp, out) -> list[str]:
        k, _ = inp
        problems = []
        i48 = [abs(summary.i48) for summary, _, _ in out]
        if max(i48) - min(i48) > 1e-9 * max(i48):
            problems.append(f"state {k}: |I48| differs across traced qubits: {i48}")
        for triple, (_, quartic, cap) in zip(TRIPLES, out):
            if quartic.value > cap.value + 1e-8:
                problems.append(f"state {k} {triple}: quartic {quartic.value!r} > cap {cap.value!r}")
        return _one_item(problems)


#: (class, grid point count per parameter, triple): two cells per sweep, so a
#: call is short against the window of host-speed probes that scales its time
#: (see ``run.timed_loop``). Every sweep compares against "regu", the upper
#: bounds the paper claims to dominate. The "osterloh" values are not upper
#: bounds this pipeline can stay under: for class III on A1A2A4,
#: paper_bound / osterloh = (4|ab|)^2 / ((4|ab|)^2 - w^2) with w = |a^2 - b^2|^2,
#: which exceeds 1 whenever w > 0. Class III on A1A2A3 has no "regu" value and
#: a printed bound of 0; its traced qubit's branches have equal probability,
#: so it is the sweep where best_bound adds the unitary_3q method. The other
#: sweeps use the verb's default triple (None).
SWEEPS = (
    ("II", (2, 1, 1), None),
    ("III", (1, 2), None),
    ("III", (2, 1), "A1A2A3"),
    ("IV", (2, 1), None),
    ("V", (2,), None),
)


class ClassSweep(Workload):
    """The ``sweep`` verb through ``cli.main`` on seed-drawn real grids in [0.2, 2].

    One call is one sweep of two cells; one item is one cell. The sparse
    invariant sets of the class representatives take the closed-form path, and
    this is the only workload that runs the classes and cli layers.
    """

    name = "class_sweep"

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 3])
        self.output = os.path.join(out_dir, f"sweep-{os.getpid()}.json")
        self.inputs = []
        for _ in range(SWEEP_ROUNDS):
            for cid, counts, triple in SWEEPS:
                parts = []
                for name, count in zip(classes.CLASS_PARAMS[cid], counts):
                    lo, hi = sorted(float(v) for v in rng.uniform(0.2, 2.0, 2))
                    parts.append(f"{name}={lo!r}:{hi!r}:{count}")
                argv = ["--output", self.output, "sweep", "--class", cid,
                        "--param-grid", ",".join(parts), "--compare", "regu"]
                if triple is not None:
                    argv += ["--triple", triple]
                self.inputs.append((argv, math.prod(counts)))

    def digest(self) -> str:
        return hashlib.sha256(json.dumps([argv[2:] for argv, _ in self.inputs]).encode()).hexdigest()

    def items(self, inp) -> int:
        return inp[1]

    def run(self, inp):
        argv, _ = inp
        code = cli.main(argv)
        with open(self.output, "rb") as fh:
            raw = fh.read()
        self.bytes_out += len(raw)
        return code, raw

    def close(self) -> None:
        if os.path.exists(self.output):
            os.remove(self.output)

    def check(self, inp, out) -> list[str]:
        argv, cells_wanted = inp
        code, raw = out
        tag = " ".join(argv[2:])
        if code != 0:
            return [f"{tag}: exit code {code}"] * cells_wanted
        doc = json.loads(raw)
        cells = doc["cells"]
        problems = []
        if sorted(c["index"] for c in cells) != list(range(cells_wanted)):
            return [f"{tag}: {len(cells)} cells, expected {cells_wanted}"] * cells_wanted
        cid, triple = doc["class"], doc["triple"]
        for cell in cells:
            cell_problems = []
            spec = classes.spec_from_values(
                cid, *[complex(cell["params"][n]) for n in classes.CLASS_PARAMS[cid]]
            )
            best, printed = cell["best"], classes.paper_bound(spec, triple)
            where = f"{tag} cell {cell['index']}"
            if printed == 0.0:
                ok = abs(best) < 1e-10
            else:
                ok = abs(best - printed) <= 1e-8 * abs(printed)
            if not ok:
                cell_problems.append(f"{where}: best {best!r}, paper_bound {printed!r}")
            # cells without a literature value are held to paper_bound only
            if cell["compare"] is not None and best > cell["compare"] + 1e-8:
                cell_problems.append(f"{where}: best {best!r} above comparison {cell['compare']!r}")
            problems += _one_item(cell_problems)
        return problems


def _ghzw_rho(p: float) -> np.ndarray:
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1.0 / math.sqrt(2.0)
    w = np.zeros(8, dtype=complex)
    w[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
    return p * np.outer(ghz, ghz.conj()) + (1.0 - p) * np.outer(w, w.conj())


def _random_rank2(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    v, _ = np.linalg.qr(z)
    p = rng.uniform(0.1, 0.9)
    rho = p * np.outer(v[:, 0], v[:, 0].conj()) + (1.0 - p) * np.outer(v[:, 1], v[:, 1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


class Rank2Decompose(Workload):
    """decompose_rank2 at default settings on seeded rank-2 density matrices.

    The pool holds random rank-2 states and GHZ/W mixtures below P0, between
    P0 and P1, and above P1. One item is one density matrix. The check that
    the reported value is the one the returned decomposition realizes fails
    on most items: the scan can report a ``unitary_3q`` value that its
    two-member decomposition does not reach.
    """

    name = "rank2_decompose"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        pool = [(f"random {k}", None, _random_rank2(rng)) for k in range(RANK2_RANDOM)]
        for region, (lo, hi) in (("below", (0.05, P0 - 0.01)),
                                 ("between", (P0 + 0.01, P1 - 0.01)),
                                 ("above", (P1 + 0.01, 0.95))):
            pool += [(f"GHZ/W {region} p={p:.6f}", p, _ghzw_rho(p))
                     for p in rng.uniform(lo, hi, RANK2_PER_REGION)]
        self.rhos = [rho for _, _, rho in pool]
        self.inputs = [(label, p, qstate.MixedState3(rho)) for label, p, rho in pool]

    def digest(self) -> str:
        return _hash(self.rhos)

    def run(self, inp):
        return rank2.decompose_rank2(inp[2])

    def check(self, inp, out) -> list[str]:
        label, p, rho = inp
        witness, deco = out
        problems = []
        err = float(np.max(np.abs(deco.reconstructed.rho - rho.rho)))
        if err > 1e-8:
            problems.append(f"{label}: reconstruction error {err:.3e}")
        if p is not None and p <= P0 and witness.value >= 1e-6:
            problems.append(f"{label}: value {witness.value:.3e} not below 1e-6")
        realized = realized_value(deco)
        if abs(witness.value - realized) > 1e-9:
            problems.append(
                f"{label}: {witness.method} reports {witness.value:.9f}, "
                f"decomposition realizes {realized:.9f}"
            )
        return _one_item(problems)


def realized_value(deco) -> float:
    """(sum_k w_k sqrt(tau_k))^2 over the decomposition members."""
    total = sum(w * math.sqrt(invariants.three_tangle_pure(s)) for w, s in deco.members)
    return total ** 2


def make(name: str, seed: int, out_dir: str):
    if name == "class_sweep":
        return ClassSweep(seed, out_dir)
    cls = {w.name: w for w in (GenericBound, InvariantScan, Rank2Decompose)}[name]
    return cls(seed)

