"""Seeded benchmark of the tanglebound pipeline, end to end and per layer.

    python3 perfbench/run.py --workload generic_bound --seed 1 --seconds 35 --trace 0

Run from the repository root. Each workload is a closed loop: one client in
one process, no thread pool, ``TANGLEBOUND_THREADS`` unset and BLAS pinned to
one thread. The package is imported from ``src/`` of this checkout and nothing
else; without it the run exits with a nonzero code and prints no result.

``--trace 0`` reports the end-to-end metrics, with every call's time scaled
by a host-speed probe (see ``timed_loop`` and ``end_to_end``). Set-up time is
the median of seven fresh processes that each import, build the inputs and run one warm-up item,
three before the timed loop and four after it.
``--trace 1`` traces every other second of the loop, with every public package
function wrapped (see ``spans.py``), and reports the per-layer metrics and
``trace_overhead``: traced over untraced throughput.

Every item's output is checked. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries run metadata and the values that have no metric of their own (error
rate, the tail latency with its percentile and sample count, the bases of the
ratios). The
same, with the per-function breakdown and the first failures, goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_RUNS = (3, 4)       # set-up processes before and after the timed loop
WINDOW_S = 1.0            # a traced run alternates traced and untraced slices this long
TAIL_BEYOND = 10          # samples the tail percentile must leave above it
PROBE_EVERY_S = 0.05      # the timed loop runs the host-speed probe this often
PROBE_WINDOW = 10         # latest probes whose median is the host speed at a call
PROBE_REF_S = 2.5e-4      # times are scaled to a host on which the probe takes this long
# BENCHMARK.json lists the workloads whose every output passes its checks;
# rank2_decompose runs only when asked for (see workloads.Rank2Decompose).
WORKLOADS = ("generic_bound", "invariant_scan", "class_sweep", "rank2_decompose")

# The tail latency is reported on the info line, not as a metric: over ten
# runs per workload on a shared 2-vCPU VM it spread 0.07-0.24 (IQR over
# median), too close to the largest regression bound a metric may have, 0.25.
END_TO_END = {
    "throughput": "items/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYERS = ("qstate", "fonts", "invariants", "quartic", "bounds", "classes", "rank2", "cli")
# Only rank2_decompose calls the rank2 layer, and it is not a listed workload,
# so its metrics go to the info line (``per_layer`` computes them all).
LISTED_LAYERS = tuple(layer for layer in LAYERS if layer != "rank2")
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LISTED_LAYERS
       for kind, unit in (("calls", "calls/item"), ("self_ms", "ms/item"), ("self_share", "fraction"))},
    "bounds.bound_grid.self_ms": "ms/item",
    "bounds.bound_grid.total_share": "fraction",
    "bounds.bound_quartic_A4.self_ms": "ms/item",
    "bounds.bound_unitary_3q.calls": "calls/item",
    "bounds.bound_closed_form.calls": "calls/item",
    "bounds.grid_win_share": "fraction",
    "bounds.unitary_3q_share": "fraction",
    "quartic.roots_per_call": "roots/call",
    "quartic.did_not_converge": "fraction",
    "cli.output_bytes": "bytes/item",
    "trace_overhead": "ratio",
}


def pin_environment() -> str | None:
    """One BLAS thread, no package thread pool; returns the caller's TANGLEBOUND_THREADS."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop("TANGLEBOUND_THREADS", None)


def import_package():
    """Import tanglebound from this checkout's src/, and from nowhere else."""
    wanted = os.path.join(SRC, "tanglebound")
    if not os.path.isfile(os.path.join(wanted, "__init__.py")):
        sys.exit(f"perfbench: no package at {os.path.relpath(wanted, ROOT)}; run from a full checkout")
    sys.path.insert(0, SRC)
    import tanglebound

    if os.path.dirname(os.path.abspath(tanglebound.__file__)) != wanted:
        sys.exit(f"perfbench: imported tanglebound from {tanglebound.__file__}, not {wanted}")
    return tanglebound


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def make_probe():
    """A function that returns the seconds a fixed kernel of small numpy calls takes.

    The kernel, about 0.25 ms, mixes interpreter work and small array
    operations, as the package does. Its operands are fixed and apart from
    anything the package computes, and it allocates no objects the cyclic
    garbage collector tracks, so the package's heap cannot change its cost.
    The probe runs the kernel three times and returns the fastest, so caches
    that the package's last call left cold do not count either: its time
    follows the host's speed.
    """
    import numpy as np   # here, so that pin_environment runs first

    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    v = rng.standard_normal(16) + 0j

    def kernel() -> float:
        t0 = time.perf_counter()
        x = 0.0
        for _ in range(60):
            w = m @ v
            x += float(np.abs(w[:4] * w[4:8]).sum())
        np.linalg.eigvals(m[:4, :4])
        return time.perf_counter() - t0

    return lambda: min(kernel(), kernel(), kernel())


class LoopResult:
    """Timed calls of one loop, kept apart for traced and untraced calls."""

    def __init__(self):
        # per kind (untraced, traced): (seconds, items, host) per call, where
        # host is the median of the latest probes before the call
        self.calls: tuple[list, list] = ([], [])
        self.items = [0, 0]               # items timed, untraced and traced
        self.probes: list[float] = []     # every probe of the run, seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, traced: bool, seconds: float, n: int, host: float) -> None:
        self.calls[traced].append((seconds, n, host))
        self.items[traced] += n

    def item_times(self, traced: bool = False) -> list[float]:
        """Every timed item's seconds, scaled to a host on which the probe takes PROBE_REF_S."""
        return [
            dt / n * PROBE_REF_S / host
            for dt, n, host in self.calls[traced] for _ in range(n)
        ]

    def throughput(self, traced: bool = False) -> float:
        """Items over their summed scaled times."""
        times = self.item_times(traced)
        return _share(len(times), sum(times))

    def raw_throughput(self, traced: bool = False) -> float:
        """Items over their summed wall time, unscaled."""
        return _share(self.items[traced], sum(dt for dt, _, _ in self.calls[traced]))


def timed_loop(work, seconds: float, recorder=None) -> LoopResult:
    """Closed loop cycling through the input pool for ``seconds``, at least one call.

    Only the program's call is timed; checking its output is not. A call that
    completes n items (a sweep of n cells) gives each item 1/n of its time.
    Every PROBE_EVERY_S, between calls, the loop times ``probe``. A call's
    host speed is the median of the latest PROBE_WINDOW probes, so a call
    made while other tenants slow the host is scaled back by that factor.
    With a recorder, calls in even WINDOW_S slices of the loop are traced and
    calls in odd ones are not, so both kinds see the same host conditions; a
    traced run goes on until both kinds have been tried.
    """
    res = LoopResult()
    probe = make_probe()
    probes = collections.deque(maxlen=PROBE_WINDOW)
    tried = [False, recorder is None]
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start
    k = 0
    while k == 0 or time.perf_counter() < deadline or not all(tried):
        if time.perf_counter() >= next_probe:
            probes.append(probe())
            res.probes.append(probes[-1])
            next_probe = time.perf_counter() + PROBE_EVERY_S
        inp = work.inputs[k % len(work.inputs)]
        n = work.items(inp)
        traced = recorder is not None and int((time.perf_counter() - start) / WINDOW_S) % 2 == 0
        tried[traced] = True
        if recorder is not None:
            recorder.install() if traced else recorder.uninstall()
        t0 = time.perf_counter()
        try:
            out = recorder.run_item(k, work.run, inp) if traced else work.run(inp)
        except Exception as exc:   # a raising item is a failed item, not a crashed run
            problems = [f"item {k}: {type(exc).__name__}: {exc}"] * n
        else:
            res.add(traced, time.perf_counter() - t0, n, statistics.median(probes))
            try:
                problems = work.check(inp, out)
            except Exception as exc:   # output the check cannot read is a wrong output
                problems = [f"item {k}: check raised {type(exc).__name__}: {exc}"] * n
        res.attempted += n
        res.failed += min(len(problems), n)
        res.problems += problems
        k += 1
    if recorder is not None:
        recorder.uninstall()
    return res


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(latencies)
    n = len(s)
    k = max(0, n - TAIL_BEYOND - 1)
    return s[k], 100.0 * (k + 1) / n


def measure_setup(args, count: int) -> list[float]:
    """Wall times of ``count`` fresh processes that each import, build inputs and run one warm-up item."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(res: LoopResult, setup_times: list[float]) -> tuple[dict, dict]:
    """The untraced run's metrics, from every call, each scaled by the host's speed.

    A shared host can change speed by up to 2x over seconds as other tenants
    load it (seen on a 2-vCPU cloud VM), so raw run-wide means and medians
    mostly measure how long a run spent in slow spells. ``timed_loop``
    scales each call by the probe's time around it, to a host on which the
    probe takes PROBE_REF_S, so the figures are the program's time relative
    to a fixed kernel's. Every call stays in the figures, so work the program
    does on some calls only, such as garbage collection, counts in full, and
    so does a cost that grows over the run. A slowdown that the probe and the
    program feel to different degrees is not scaled away in full: on
    ``generic_bound`` on a shared 2-vCPU cloud VM, the program slowed by
    about the 0.8th power of the probe's slowdown. The unscaled run
    throughput is on the info line.
    """
    times = res.item_times() or [0.0]     # [0.0]: no call completed
    value, pct = tail(times)
    metrics = {
        "throughput": res.throughput(),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "latency_tail_ms": 1e3 * value,
        "latency_tail_percentile": pct,
        "latency_samples": len(times),
        "latency_samples_beyond_tail": min(TAIL_BEYOND, len(times) - 1),
        "run_throughput": res.raw_throughput(),
        "probe_ms": {q: 1e3 * v for q, v in zip(("min", "median"), _min_median(res.probes))},
        "setup_samples_s": setup_times,
    }
    return metrics, info


def per_layer(recorder, res: LoopResult, bytes_out: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced calls, and the tracing overhead."""
    from workloads import realized_value

    b = recorder.breakdown()
    items = max(res.items[1], 1)
    item_ns = b["item_ns"] or 1.0
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = b["layer_calls"][layer] / items
        metrics[f"{layer}.self_ms"] = b["layer_self_ns"][layer] / items / 1e6
        metrics[f"{layer}.self_share"] = b["layer_self_ns"][layer] / item_ns
    metrics["bounds.bound_grid.self_ms"] = b["fn_self_ns"]["bounds.bound_grid"] / items / 1e6
    metrics["bounds.bound_grid.total_share"] = b["fn_total_ns"]["bounds.bound_grid"] / item_ns
    metrics["bounds.bound_quartic_A4.self_ms"] = b["fn_self_ns"]["bounds.bound_quartic_A4"] / items / 1e6
    metrics["bounds.bound_unitary_3q.calls"] = b["fn_calls"]["bounds.bound_unitary_3q"] / items
    metrics["bounds.bound_closed_form.calls"] = b["fn_calls"]["bounds.bound_closed_form"] / items

    reports = recorder.reports
    grid_wins = sum(
        1 for r in reports
        if _method(r, "grid").value < _method(r, "quartic_A4").value - 1e-9
    )
    unitary = sum(1 for r in reports if any(m.method == "unitary_3q" for m in r.methods))
    metrics["bounds.grid_win_share"] = _share(grid_wins, len(reports))
    metrics["bounds.unitary_3q_share"] = _share(unitary, len(reports))

    roots_calls = b["fn_calls"]["quartic.roots"]
    dnc = recorder.errors.get("quartic.roots.DidNotConverge", 0)
    metrics["quartic.roots_per_call"] = _share(sum(recorder.root_counts), len(recorder.root_counts))
    metrics["quartic.did_not_converge"] = _share(dnc, roots_calls)

    decos = recorder.decompositions
    root_mixture = sum(1 for _, w, _ in decos if w.method == "root_mixture")
    unrealized = sum(1 for _, w, d in decos if abs(w.value - realized_value(d)) > 1e-9)
    sets = b["site_calls"]["rank2>invariant_set_A4"] + b["site_calls"]["rank2>invariant_set"]
    metrics["rank2.invariant_sets_per_item"] = sets / items
    metrics["rank2.root_mixture_share"] = _share(root_mixture, len(decos))
    metrics["rank2.value_unrealized"] = _share(unrealized, len(decos))
    metrics["cli.output_bytes"] = bytes_out / res.attempted
    metrics["trace_overhead"] = _share(res.throughput(traced=True), res.throughput(traced=False))

    info = {
        "rank2": {name: metrics.pop(name) for name in list(metrics) if name.startswith("rank2.")},
        "traced_items": items,
        "spans": len(recorder.start),
        "bases": {
            "grid_win_share": f"{grid_wins}/{len(reports)} reports",
            "unitary_3q_share": f"{unitary}/{len(reports)} reports",
            "did_not_converge": f"{dnc}/{roots_calls} roots calls",
            "root_mixture_share": f"{root_mixture}/{len(decos)} decompositions",
            "value_unrealized": f"{unrealized}/{len(decos)} decompositions",
        },
        "errors": recorder.errors,
        "functions": {
            key: {
                "calls_per_item": b["fn_calls"][key] / items,
                "self_ms_per_item": b["fn_self_ns"][key] / items / 1e6,
                "total_share": b["fn_total_ns"][key] / item_ns,
            }
            for key in sorted(b["fn_calls"], key=lambda k: -b["fn_self_ns"][k])
        },
    }
    return metrics, info


def _min_median(values: list[float]) -> tuple[float, float]:
    return (min(values), statistics.median(values)) if values else (math.nan, math.nan)


def _method(report, name):
    return next(m for m in report.methods if m.method == name)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    """HEAD of this checkout read from .git, or None where there is no .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tanglebound")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metadata(args, caller_threads: str | None, digest: str) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": digest,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "TANGLEBOUND_THREADS": {"caller": caller_threads, "run": os.environ.get("TANGLEBOUND_THREADS")},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    caller_threads = pin_environment()
    tanglebound = import_package()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work = workloads.make(args.workload, args.seed, OUT)
    try:
        warm = work.inputs[0]
        work.check(warm, work.run(warm))
        if args.setup_only:
            return 0
        info = {"meta": metadata(args, caller_threads, work.digest())}
        if args.trace:
            from spans import Recorder

            recorder = Recorder(tanglebound)
            bytes_before = work.bytes_out
            res = timed_loop(work, args.seconds, recorder)
            metrics, extra = per_layer(recorder, res, work.bytes_out - bytes_before)
            spans_path = os.path.join(OUT, f"spans-{args.workload}.npz")
            recorder.save(spans_path)
            extra["spans_file"] = os.path.relpath(spans_path, ROOT)
            units = PER_LAYER
        else:
            # set-up runs on both sides of the loop sample the host's speed at both ends
            setup_times = measure_setup(args, SETUP_RUNS[0])
            res = timed_loop(work, args.seconds)
            setup_times += measure_setup(args, SETUP_RUNS[1])
            metrics, extra = end_to_end(res, setup_times)
            units = END_TO_END
    finally:
        work.close()
    info.update(extra)
    info["error_rate"] = res.failed / res.attempted
    info["first_failures"] = res.problems[:20]

    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    for line in res.problems[:5]:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {k: v for k, v in info.items() if k not in ("functions", "first_failures")}
    print(json.dumps({"info": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
