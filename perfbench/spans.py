"""In-memory span recorder for the traced run, and the per-layer breakdown.

The package imports names directly (``from .quartic import roots``), so a call
from ``bounds`` to ``roots`` goes through ``bounds.roots``, not
``quartic.roots``. ``Recorder`` therefore wraps every public package function
in the namespace of each module that holds it, including the module that
defines it, so intra-module calls are caught too. A span's layer is the module
that defines the function; its site is the namespace the call went through.
Classes are left alone (wrapping them would break ``isinstance``), so dataclass
construction counts as self time of the calling span.

Spans are kept in flat typed arrays and written out once, by ``save``. A
layer's self time is its spans' duration minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

ITEM = ("item", "bench", "bench")   # (name, layer, site) of the span around each item

#: functions whose returned values feed the outcome ratios
OBSERVED = ("best_bound", "decompose_rank2", "roots")


class Recorder:
    """Spans of traced items: parent, item, key, start, end, one array each.

    ``key`` indexes ``keys``, the (function name, layer, site) triples.
    """

    def __init__(self, package, clock=time.perf_counter_ns):
        self._clock = clock
        self.parent = array("q")
        self.item = array("q")
        self.key = array("i")
        self.start = array("q")
        self.end = array("q")
        self.keys: list[tuple[str, str, str]] = []
        self._index: dict[tuple[str, str, str], int] = {}
        self._stack: list[int] = []
        self._item = -1
        self._patches = self._wrap_package(package) if package is not None else []
        self.installed = False
        self.reports = []            # BoundReport values returned by best_bound
        self.decompositions = []     # (rho, witness, decomposition) from decompose_rank2
        self.root_counts = []        # number of roots returned per roots() call
        self.errors: dict[str, int] = {}   # "layer.function.ExceptionName" -> count

    # -- recording ---------------------------------------------------------

    def intern(self, name: str, layer: str, site: str) -> int:
        triple = (name, layer, site)
        k = self._index.get(triple)
        if k is None:
            k = self._index[triple] = len(self.keys)
            self.keys.append(triple)
        return k

    def open(self, key: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.key.append(key)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(self._clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self._clock()
        self._stack.pop()

    def run_item(self, item_id: int, fn, *args):
        """Run one benchmark item inside a root span; calls outside items are not recorded."""
        self._item = item_id
        sid = self.open(self.intern(*ITEM))
        try:
            return fn(*args)
        finally:
            self.close(sid)
            self._item = -1

    def _wrap(self, fn, layer: str, site: str):
        key = self.intern(fn.__name__, layer, site)
        observe = fn.__name__ in OBSERVED
        error_prefix = f"{layer}.{fn.__name__}."

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._item < 0:
                return fn(*args, **kwargs)
            sid = self.open(key)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                name = error_prefix + type(exc).__name__
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                self.close(sid)
            if observe:
                self._observe(fn.__name__, args, out)
            return out

        return wrapper

    def _observe(self, name: str, args, out) -> None:
        if name == "best_bound":
            self.reports.append(out)
        elif name == "decompose_rank2":
            self.decompositions.append((args[0], *out))
        else:
            self.root_counts.append(len(out))

    def _wrap_package(self, package) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every public package function."""
        prefix = package.__name__ + "."
        modules = [package] + [
            m for m in vars(package).values()
            if inspect.ismodule(m) and m.__name__.startswith(prefix)
        ]
        patches = []
        for module in modules:
            site = module.__name__.rpartition(".")[2] if module is not package else "package"
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or not value.__module__.startswith(prefix)
                ):
                    continue
                layer = value.__module__.rpartition(".")[2]
                patches.append((module, attr, value, self._wrap(value, layer, site)))
        return patches

    def install(self) -> None:
        if not self.installed:
            for module, attr, _, wrapper in self._patches:
                setattr(module, attr, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self.installed = False

    # -- analysis ----------------------------------------------------------

    def breakdown(self) -> dict:
        """Calls and times summed over all spans.

        ``items`` and ``item_ns`` count the root spans and their total time.
        ``layer_calls``/``layer_self_ns`` are keyed by layer;
        ``fn_calls``/``fn_self_ns``/``fn_total_ns`` by "layer.function";
        ``site_calls`` by "site>function". Missing keys read as 0.
        """
        parent = np.frombuffer(self.parent, dtype=np.int64)
        key = np.frombuffer(self.key, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        nkeys = len(self.keys)
        calls = np.bincount(key, minlength=nkeys)
        key_self = np.bincount(key, weights=dur - child, minlength=nkeys)
        key_total = np.bincount(key, weights=dur, minlength=nkeys)
        tables = ("layer_calls", "layer_self_ns", "fn_calls", "fn_self_ns", "fn_total_ns", "site_calls")
        out = {name: _Zero() for name in tables}
        root = self._index.get(ITEM)
        out["items"] = int(calls[root]) if root is not None else 0
        out["item_ns"] = float(key_total[root]) if root is not None else 0.0
        for k, (name, layer, site) in enumerate(self.keys):
            fn = f"{layer}.{name}"
            out["layer_calls"][layer] += int(calls[k])
            out["layer_self_ns"][layer] += float(key_self[k])
            out["fn_calls"][fn] += int(calls[k])
            out["fn_self_ns"][fn] += float(key_self[k])
            out["fn_total_ns"][fn] += float(key_total[k])
            out["site_calls"][f"{site}>{name}"] += int(calls[k])
        return out

    def save(self, path) -> None:
        """Write every span, and the key table, as one compressed .npz file."""
        np.savez_compressed(
            path,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            item=np.frombuffer(self.item, dtype=np.int64),
            key=np.frombuffer(self.key, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            keys=np.array(["\t".join(k) for k in self.keys]),
        )


class _Zero(dict):
    """A dict whose missing keys read as 0, without being added."""

    def __missing__(self, key):
        return 0
