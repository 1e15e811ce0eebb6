"""Fast self-test of the benchmark itself.

From the repository root:

    python3 bench/selftest.py

Runs every workload at reduced size and checks that every metric is
emitted, with a unit, for the workloads it applies to; that the last
output line follows the result format; that the deterministic quality
metrics repeat exactly at one seed; that a boundary the program no
longer has reports zero calls; and that a checkout without the sources
fails without printing a result.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7

WORKLOADS = ("denoise-64", "sinc1d", "lattice2d", "sweep")
END_TO_END = {
    "call_s_p50", "calls", "items_per_s", "cpu_s_p50", "setup_s", "peak_rss_mb", "fail_frac",
}
QUALITY = {
    "denoise-64": {"psnr_db", "impulse_recall", "impulse_precision"},
    "sinc1d": {"mse", "support_correct", "support_wrong"},
    "lattice2d": {"mse", "support_correct", "support_wrong"},
    "sweep": {"support_correct", "support_wrong", "cert_hold_rate"},
}
PER_LAYER = {
    "kernel.gram_matrix.calls", "kernel.gram_matrix.self_s",
    "kernel.cross_gram.calls", "kernel.cross_gram.self_s", "kernel.bytes_computed",
    "core.setup.calls", "core.setup.self_s", "core.setup.cpu_s",
    "core.fit.calls", "core.fit.self_s", "core.fit.cpu_s",
    "core.selections", "core.self_s_per_selection", "core.truncated_frac",
    "denoise.auto_epsilon.calls", "denoise.auto_epsilon.self_s",
    "denoise.auto_lambda_map.self_s", "denoise.image.self_s", "denoise.rois",
    "noise.datasets.calls", "noise.datasets.self_s",
    "noise.corrupt.calls", "noise.corrupt.self_s",
    "theory.theorem_check.calls", "theory.theorem_check.self_s",
    "experiments.self_s", "experiments.trials",
    "pgm.read_pgm.self_s", "pgm.write_pgm.self_s", "pgm.bytes",
    "trace.overhead_frac", "trace.unaccounted_frac",
}
# boundaries each workload must reach (calls > 0); every other
# boundary in this table must report zero calls
REACHED = {
    "denoise-64": {"kernel.gram_matrix", "core.setup", "core.fit", "denoise.auto_epsilon"},
    "sinc1d": {"kernel.gram_matrix", "kernel.cross_gram", "core.setup", "core.fit",
               "noise.datasets", "noise.corrupt"},
    "lattice2d": {"kernel.gram_matrix", "kernel.cross_gram", "core.setup", "core.fit",
                  "noise.datasets", "noise.corrupt"},
    "sweep": {"kernel.gram_matrix", "kernel.cross_gram", "core.setup", "core.fit",
              "noise.datasets", "noise.corrupt", "theory.theorem_check"},
}
BOUNDARY_CALLS = {
    "kernel.gram_matrix", "kernel.cross_gram", "core.setup", "core.fit",
    "denoise.auto_epsilon", "noise.datasets", "noise.corrupt", "theory.theorem_check",
}

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def run(root: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_of(workload: str, trace: int) -> tuple[dict, dict]:
    code, out = run(ROOT, workload, trace)
    check(code == 0, f"{workload} trace {trace}: exit code {code}")
    last = json.loads(out.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}-tiny.json").read_text()
    )
    return last, record


def check_result_line(where: str, last: dict, names: list[str]) -> None:
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    check(last["correct"] is True, f"{where}: outputs incorrect")
    check(last["attempted"] >= 1 and last["failed"] == 0, f"{where}: attempted/failed")
    check(list(last["metrics"]) == names, f"{where}: metric names differ from BENCHMARK.json")
    for name, m in last["metrics"].items():
        check(set(m) == {"value", "unit"} and m["unit"], f"{where}: {name} lacks a unit")


def check_missing_boundary() -> None:
    """A boundary the program no longer has is skipped, reports zero
    calls and does not stop the run."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import spans

    saved = spans.BOUNDARIES
    spans.BOUNDARIES = saved + (("kgard.denoise", "no_such_function", "denoise.gone"),)
    tracer = spans.Tracer()
    try:
        tracer.install()
        import workloads

        tracer.item(workloads.WORKLOADS["denoise-64"][1](SEED).call)
    finally:
        tracer.uninstall()
        spans.BOUNDARIES = saved
    check(tracer.missing == ["kgard.denoise.no_such_function"], "missing boundary not listed")
    items = tracer.summarise()
    check(spans._get(items[0], "denoise.gone", "calls") == 0, "missing boundary has calls")
    check(spans.unaccounted_frac(items) < 1e-9, "traced time not accounted for")


def check_without_sources() -> None:
    """With only BENCHMARK.json and bench/, the benchmark must fail
    without printing a result."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = run(bare, "sinc1d", 0)
    check(code != 0, "run without sources exited 0")
    check('"metrics"' not in out, "run without sources printed a result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    check(PER_LAYER <= set(layer_names), "BENCHMARK.json lacks per-layer metrics")

    for wl in WORKLOADS:
        print(f"self-test: {wl}", flush=True)
        first, record = result_of(wl, 0)
        check_result_line(f"{wl} trace 0", first, e2e_names)
        emitted = record["metrics"]
        for name in END_TO_END | QUALITY[wl]:
            check(name in emitted and emitted[name]["unit"], f"{wl}: {name} not emitted")
        for other in set().union(*QUALITY.values()) - QUALITY[wl]:
            check(other not in emitted, f"{wl}: {other} does not apply")
        machine = record["machine"]
        check(machine["cpu_count"] >= 1 and machine["affinity"], f"{wl}: machine record")
        blas = record["children"][-1]["blas"]
        check(blas["blas_name"] and blas["numpy"] and blas["scipy"], f"{wl}: BLAS record")

        _, again = result_of(wl, 0)
        for name in QUALITY[wl]:
            a, b = emitted[name]["value"], again["metrics"][name]["value"]
            check(a == b, f"{wl}: {name} differs at one seed ({a} vs {b})")

        traced, record = result_of(wl, 1)
        check_result_line(f"{wl} trace 1", traced, layer_names)
        layers = traced["metrics"]
        for span in BOUNDARY_CALLS:
            calls = layers[f"{span}.calls"]["value"]
            want = span in REACHED[wl]
            check((calls > 0) == want, f"{wl}: {span}.calls is {calls}")
        blas1 = [c for c in record["children"] if c["env"]["OPENBLAS_NUM_THREADS"] == "1"]
        check(len(blas1) == 1 and "blas1.core.fit.self_s" in layers, f"{wl}: blas1 run")

    check_missing_boundary()
    check_without_sources()
    print("self-test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
