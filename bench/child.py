"""One benchmark child process: set up a workload, then time its calls.

run.py starts this script with the environment under test and reads the
JSON object on the last line of its standard output.  Modes:

- ``setup``: import kgard, generate the inputs, warm up, then report
  the moment the first timed call would start, and exit.
- ``measure``: as ``setup``, then run the closed loop (one caller, the
  next call starts when the previous one returns) for ``--seconds``.
- ``trace``: as ``measure``, with spans recorded at every layer boundary.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_record() -> dict:
    """numpy's BLAS build info and the thread count each loaded OpenBLAS
    library reports."""
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()

    import kgard

    # never measure an installed copy instead of the checkout's sources
    if not Path(kgard.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"kgard imported from {kgard.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer

    full, reduced = workloads.WORKLOADS[args.workload]
    work = (reduced if args.tiny else full)(args.seed)
    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    reduced(args.seed).call()  # warm-up: lazy imports, BLAS thread start
    ready = time.monotonic()
    report = {"ready": ready, "blas": blas_record()}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    call_s, cpu_s = [], []
    items = attempted = failed = 0
    failed_checks: list[str] = []
    quality = None
    start = time.perf_counter()
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = tracer.item(work.call) if tracer is not None else work.call()
        except Exception:
            # a raising call fails as a whole; the loop keeps measuring
            traceback.print_exc()
            out = None
        t1, c1 = time.perf_counter(), time.process_time()
        if out is None:
            attempted += 1
            failed += 1
            failed_checks.append("call_raised")
        else:
            call_s.append(t1 - t0)
            cpu_s.append(c1 - c0)
            verdict = work.check(out)
            items += verdict.items
            attempted += verdict.items + verdict.checks
            failed += verdict.failed_items + len(verdict.failed_checks)
            failed_checks += verdict.failed_checks
            if quality is None:
                quality = work.quality(out)
        if t1 - start >= args.seconds:
            break

    report.update(
        call_s=call_s,
        cpu_s=cpu_s,
        items=items,
        attempted=attempted,
        failed=failed,
        failed_checks=sorted(set(failed_checks)),
        quality=quality or {},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.uninstall()
        report["items_traced"] = tracer.summarise()
        report["unpatched"] = tracer.missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
