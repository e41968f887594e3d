"""One workload process: set up, measure for a fixed time, check, report.

Started by ``run.py``; not meant to be run by hand. The first line printed
is ``{"ready": <monotonic time>}`` once set-up is done; with
``--setup-only`` the process exits there. Otherwise the last line is the
raw result as JSON: every sample, the attempted and failed counts, the
per-layer metrics of a traced run and the machine information.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_out: Path | None = None, ready=None) -> dict:
    """Set up `name`, run its op for `seconds` (at least once; at least
    twice when traced, alternating traced and untraced ops), and return the
    raw result."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, seed, workdir)
    workload.setup()
    if ready is not None:
        ready()
    tally = workloads.Tally()
    tracer = Tracer() if trace else None
    op_s = {True: [], False: []}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 0
        try:
            if traced:
                probes.install(tracer)
                root = tracer.open("op")
            try:
                op_s[traced].append(workload.op(tally))
            finally:
                if traced:
                    tracer.close(root)
                    tracer.unpatch()
            workload.check(tally)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally.attempted += 1
            tally.failed += 1
            tally.errors.append(f"op {i} raised")
        if i == 0:
            # after a fixed amount of work, so a faster program that fits more
            # operations into the run is not charged for allocator growth
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or i >= 2):
            break

    result = {
        "workload": name,
        "samples": dict(tally.samples),
        "peak_rss_mb": peak_rss_mb,
        "machine": machine_info(seed),
    }
    if tracer is not None:
        per_layer = dict.fromkeys(probes.PER_LAYER, 0.0)
        per_layer.update(probes.summarize(tracer, tally))
        per_layer["qformat.dense_matvec_s"] = median(tally.samples.get("dense_matvec_s", [0.0]))
        per_layer["qformat.matvec_bytes"] = median(tally.samples.get("matvec_bytes", [0]))
        per_layer["trace.overhead_s"] = median(op_s[True]) - median(op_s[False])
        result["per_layer"] = {name: {"value": per_layer[name], "unit": unit}
                               for name, unit in probes.PER_LAYER.items()}
        if spans_out is not None:
            tracer.dump(spans_out)
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    def ready():
        print(json.dumps({"ready": time.monotonic()}), flush=True)

    if args.setup_only:
        args.workdir.mkdir(parents=True, exist_ok=True)
        workloads.make(args.workload, args.seed, args.workdir).setup()
        ready()
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir,
                 args.spans_out, ready)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
