"""kgard benchmark: run one workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload denoise-64 --seed 1 --seconds 20 --trace 0

Workloads (inputs generated from --seed, defined in bench/workloads.py):
denoise-64, sinc1d, lattice2d and sweep.  BENCHMARK.json lists the
three that the regression gate runs; sinc1d runs on request only, since
its timings are as noisy as denoise-64's and its layers are all covered.

Every measurement runs in a fresh child process (bench/child.py) that
imports kgard from ``src/``.  The child's environment has
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS removed, so
numpy's own BLAS defaults apply and an inherited setting cannot skew a
comparison.

``--trace 0`` starts SETUP_PROBES children that only set up (process
start, ``import kgard``, input generation and a warm-up call), then one
child that also runs the closed loop for ``--seconds``; it prints every
end-to-end metric.  ``--trace 1`` splits ``--seconds`` over three
children: untraced, traced, and traced with OPENBLAS_NUM_THREADS=1 (the
single-threaded BLAS reference); it prints every per-layer metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics being
those BENCHMARK.json lists for the mode.  The full record, with the
machine description, goes to ``.bench_out/``.  The exit code is not 0,
and no result is printed, when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("denoise-64", "sinc1d", "lattice2d", "sweep")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4
# every run ends within this many seconds of its start
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def child_env(blas_threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.children: list[dict] = []

    def spawn(self, mode: str, seconds: float, blas_threads: str | None = None) -> dict:
        a = self.args
        cmd = [
            sys.executable, str(CHILD), "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(seconds), "--mode", mode,
        ] + (["--tiny"] if a.tiny else [])
        env = child_env(blas_threads)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                timeout=max(self.deadline - spawned, 1.0),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
        report = json.loads(lines[-1])
        report["mode"] = mode
        # time.monotonic is one system-wide clock on Linux, so the child's
        # "ready" stamp and this parent's spawn stamp are comparable
        report["setup_s"] = report.pop("ready") - spawned
        report["env"] = {v: env.get(v) for v in BLAS_VARS}
        if mode != "setup" and not report["call_s"]:
            raise ChildFailed(f"{mode} child completed no call")
        self.children.append(report)
        return report


def end_to_end(meas: dict, setups: list[float]) -> dict:
    call_s = meas["call_s"]
    return {
        "call_s_p50": (statistics.median(call_s), "s"),
        "calls": (len(call_s), "count"),
        "items_per_s": (meas["items"] / sum(call_s), "1/s"),
        "cpu_s_p50": (statistics.median(meas["cpu_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (meas["peak_rss_mb"], "MB"),
        "fail_frac": (meas["failed"] / meas["attempted"], "ratio"),
        **meas["quality"],
    }


def per_layer(untraced: dict, traced: dict, blas1: dict) -> dict:
    base = statistics.median(untraced["call_s"])
    with_spans = statistics.median(traced["call_s"])
    metrics = spans.layer_metrics(traced["items_traced"])
    metrics["trace.unaccounted_frac"] = (
        spans.unaccounted_frac(traced["items_traced"]),
        "ratio",
    )
    metrics["trace.overhead_frac"] = ((with_spans - base) / base, "ratio")
    metrics["untraced.call_s_p50"] = (base, "s")
    metrics["traced.call_s_p50"] = (with_spans, "s")
    metrics["blas1.call_s_p50"] = (statistics.median(blas1["call_s"]), "s")
    for name, (value, unit) in spans.layer_metrics(blas1["items_traced"]).items():
        if unit == "s":
            metrics[f"blas1.{name}"] = (value, unit)
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--tiny", action="store_true", help="reduced inputs, for the self-test"
    )
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args)
    try:
        if args.trace == 0:
            setups = [runner.spawn("setup", 0.0)["setup_s"] for _ in range(SETUP_PROBES)]
            meas = runner.spawn("measure", args.seconds)
            metrics = end_to_end(meas, setups + [meas["setup_s"]])
            gated = spec["end_to_end"]
        else:
            third = args.seconds / 3.0
            untraced = runner.spawn("measure", third)
            traced = runner.spawn("trace", third)
            blas1 = runner.spawn("trace", third, blas_threads="1")
            metrics = per_layer(untraced, traced, blas1)
            gated = spec["per_layer"]
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    timed = [c for c in runner.children if c["mode"] != "setup"]
    failed_checks = sorted({n for c in timed for n in c["failed_checks"]})
    result = {
        "correct": not failed_checks,
        "attempted": sum(c["attempted"] for c in timed),
        "failed": sum(c["failed"] for c in timed),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in gated
        },
    }
    record = {
        "args": vars(args),
        "machine": {
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "blas_env_inherited": {v: os.environ.get(v) for v in BLAS_VARS},
        },
        "children": [
            {k: v for k, v in c.items() if k != "items_traced"} for c in runner.children
        ],
        "failed_checks": failed_checks,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    calls = ", ".join(str(len(c["call_s"])) for c in timed)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: timed calls per child {calls}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if failed_checks:
        print(f"  failed checks: {', '.join(failed_checks)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
