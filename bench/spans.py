"""In-memory span tracer for the per-layer benchmark run.

Wrappers are installed around the public functions of each kgard module,
under the name the calling module looks them up by, so the package
itself is not modified.  A span is recorded only inside a benchmark
item (one timed entry-point call), and all spans of one item share the
item's id.  Spans are kept in a list and summarised when the run ends.

The entry points run single-threaded (``threads=1``), so the children of
a span never overlap and self time is duration minus child durations.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (owner, attribute, span name); an owner is a module or "module:Class".
# A boundary is listed once per calling module that imports the name.
BOUNDARIES = (
    ("kgard", "read_pgm", "pgm.read_pgm"),
    ("kgard", "write_pgm", "pgm.write_pgm"),
    ("kgard", "denoise_image", "denoise.image"),
    ("kgard", "run_monte_carlo", "experiments"),
    ("kgard", "sweep_outlier_magnitude", "experiments"),
    ("kgard.core", "gram_matrix", "kernel.gram_matrix"),
    ("kgard.denoise", "gram_matrix", "kernel.gram_matrix"),
    ("kgard.experiments", "gram_matrix", "kernel.gram_matrix"),
    ("kgard.core", "cross_gram", "kernel.cross_gram"),
    ("kgard.experiments", "cross_gram", "kernel.cross_gram"),
    ("kgard.noise", "cross_gram", "kernel.cross_gram"),
    ("kgard.core:KgardSolver", "__init__", "core.setup"),
    ("kgard.core:KgardSolver", "fit", "core.fit"),
    ("kgard.denoise", "auto_lambda_map", "denoise.auto_lambda_map"),
    ("kgard.denoise", "auto_epsilon", "denoise.auto_epsilon"),
    ("kgard.experiments", "make_sinc_dataset", "noise.datasets"),
    ("kgard.experiments", "make_lattice_dataset", "noise.datasets"),
    ("kgard.experiments", "make_support_dataset", "noise.datasets"),
    ("kgard.experiments", "corrupt", "noise.corrupt"),
    ("kgard.experiments", "theorem_check", "theory.theorem_check"),
)

ROOT = "bench.item"


def _nbytes(out) -> int:
    return int(getattr(out, "nbytes", 0))


# counters read from a span's arguments and result, summed per item
_COUNTERS = {
    "core.fit": lambda args, out: {
        "selections": int(getattr(out, "iterations", 0)),
        "truncated": int(bool(getattr(out, "truncated", False))),
    },
    "kernel.gram_matrix": lambda args, out: {"bytes": _nbytes(out)},
    "kernel.cross_gram": lambda args, out: {"bytes": _nbytes(out)},
    "pgm.read_pgm": lambda args, out: {"bytes": len(args[0])},
    "pgm.write_pgm": lambda args, out: {"bytes": len(out)},
    "denoise.image": lambda args, out: {"rois": len(out.diagnostics)},
    "experiments": lambda args, out: {
        "trials": len(out[1]) if isinstance(out, tuple) else sum(p.trials for p in out)
    },
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Records spans at the kgard layer boundaries while installed."""

    def __init__(self):
        # each span: [name, parent index, item id, start, end, cpu, counters]
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._item = -1
        self._patched: list = []

    def install(self) -> None:
        """Patch every boundary; one that no longer exists is listed in
        ``missing`` and reports zero calls."""
        for owner, attr, name in BOUNDARIES:
            obj = _resolve(owner)
            fn = getattr(obj, attr, None) if obj is not None else None
            if fn is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            self._patched.append((obj, attr, fn))
            setattr(obj, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self._patched):
            setattr(obj, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        counters = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:  # outside a benchmark item: not recorded
                return fn(*args, **kwargs)
            rec = [name, stack[-1], self._item, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            c0 = time.process_time()
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                rec[5] = time.process_time() - c0
                stack.pop()
            if counters is not None:
                rec[6] = counters(args, out)
            return out

        return traced

    def item(self, call):
        """Run ``call()`` as one benchmark item under a root span."""
        self._item += 1
        rec = [ROOT, -1, self._item, 0.0, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        c0 = time.process_time()
        rec[3] = time.perf_counter()
        try:
            return call()
        finally:
            rec[4] = time.perf_counter()
            rec[5] = time.process_time() - c0
            self._stack.pop()

    def summarise(self) -> list[dict]:
        """Per item: for each span name, calls, self seconds, self CPU
        seconds and summed counters; plus the accounting of the item's
        entry-point spans."""
        child_s = [0.0] * len(self.spans)
        child_cpu = [0.0] * len(self.spans)
        for name, parent, _, start, end, cpu, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
                child_cpu[parent] += cpu
        items: dict[int, dict] = {}
        for i, (name, parent, item, start, end, cpu, counters) in enumerate(self.spans):
            layers = items.setdefault(item, {"_accounting": {"duration_s": 0.0, "self_s": 0.0}})
            row = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "cpu_s": 0.0})
            self_s = end - start - child_s[i]
            row["calls"] += 1
            row["self_s"] += self_s
            row["cpu_s"] += cpu - child_cpu[i]
            for key, val in (counters or {}).items():
                row[key] = row.get(key, 0) + val
            if parent >= 0:
                # entry points are the root's children; a negative self time
                # (overlapping or escaping children) is clamped, so it shows
                # up as unaccounted entry-point time
                acct = layers["_accounting"]
                acct["self_s"] += max(self_s, 0.0)
                if self.spans[parent][0] == ROOT:
                    acct["duration_s"] += end - start
        for layers in items.values():
            del layers[ROOT]  # the benchmark's own glue between entry points
        return [items[k] for k in sorted(items)]


def _get(item: dict, span: str, key: str):
    return item.get(span, {}).get(key, 0)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# per-layer metrics: (name, unit, value of one item); the reported value
# is the median over the items of a run
LAYER_METRICS = []
for _span in (
    "kernel.gram_matrix",
    "kernel.cross_gram",
    "core.setup",
    "core.fit",
    "denoise.auto_epsilon",
    "noise.datasets",
    "noise.corrupt",
    "theory.theorem_check",
):
    LAYER_METRICS.append((f"{_span}.calls", "count", lambda it, s=_span: _get(it, s, "calls")))
    LAYER_METRICS.append((f"{_span}.self_s", "s", lambda it, s=_span: _get(it, s, "self_s")))
for _span in ("core.setup", "core.fit"):
    LAYER_METRICS.append((f"{_span}.cpu_s", "s", lambda it, s=_span: _get(it, s, "cpu_s")))
for _span in (
    "denoise.auto_lambda_map",
    "denoise.image",
    "experiments",
    "pgm.read_pgm",
    "pgm.write_pgm",
):
    LAYER_METRICS.append((f"{_span}.self_s", "s", lambda it, s=_span: _get(it, s, "self_s")))
LAYER_METRICS += [
    (
        "kernel.bytes_computed",
        "B",
        lambda it: _get(it, "kernel.gram_matrix", "bytes") + _get(it, "kernel.cross_gram", "bytes"),
    ),
    ("core.selections", "count", lambda it: _get(it, "core.fit", "selections")),
    (
        "core.self_s_per_selection",
        "s",
        lambda it: _ratio(_get(it, "core.fit", "self_s"), _get(it, "core.fit", "selections")),
    ),
    (
        "core.truncated_frac",
        "ratio",
        lambda it: _ratio(_get(it, "core.fit", "truncated"), _get(it, "core.fit", "calls")),
    ),
    ("denoise.rois", "count", lambda it: _get(it, "denoise.image", "rois")),
    ("experiments.trials", "count", lambda it: _get(it, "experiments", "trials")),
    (
        "pgm.bytes",
        "B",
        lambda it: _get(it, "pgm.read_pgm", "bytes") + _get(it, "pgm.write_pgm", "bytes"),
    ),
]


def layer_metrics(items: list[dict]) -> dict:
    """Median over items of every per-layer metric, as name -> (value, unit)."""
    return {
        name: (float(statistics.median(fn(it) for it in items)), unit)
        for name, unit, fn in LAYER_METRICS
    }


def unaccounted_frac(items: list[dict]) -> float:
    """Share of entry-point time that the clamped self times of the
    entry points and their descendants do not cover."""
    dur = sum(it["_accounting"]["duration_s"] for it in items)
    acc = sum(it["_accounting"]["self_s"] for it in items)
    return abs(dur - acc) / dur if dur else 0.0
