"""maskquant benchmark: one workload per invocation, one process per workload.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 22 --trace 0

Run from the repository root. The workload runs in a child process with at
most ``nproc`` BLAS threads, as a closed loop: one caller, each call issued
after the previous one returns. Set-up is measured in that process and in
two more that only set up. The output is a table of every metric with its
unit and sample count, then, as the last line, the JSON result: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
BUDGET_S = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# the metric each workload's one operation is timed by
OP_METRIC = {"toy": "pipeline_s", "wide": "pipeline_s", "ablate": "ablate_s", "packed": "vector_s"}
WORKLOADS = tuple(OP_METRIC)

# name -> (unit, higher is better), for the printed table
UNITS = {
    "setup_s": ("s", False),
    "op_s": ("s", False),
    "calib_s": ("s", False),
    "quantize_s": ("s", False),
    "eval_s": ("s", False),
    "pipeline_s": ("s", False),
    "ablate_s": ("s", False),
    "load_s": ("s", False),
    "packed_tok_per_s": ("vectors/s", True),
    "softmax_kl": ("nats", False),
    "logit_mse": ("logit^2", False),
    "qpk_bytes": ("bytes", False),
    "peak_rss_mb": ("MB", False),
    "fail_frac": ("fraction", False),
}
TABLE = {
    "toy": ("calib_s", "quantize_s", "eval_s", "pipeline_s", "load_s", "softmax_kl", "logit_mse",
            "qpk_bytes"),
    "wide": ("calib_s", "quantize_s", "eval_s", "pipeline_s", "load_s", "softmax_kl", "logit_mse",
             "qpk_bytes"),
    "ablate": ("ablate_s", "load_s", "softmax_kl", "logit_mse", "qpk_bytes"),
    "packed": ("load_s", "packed_tok_per_s", "qpk_bytes"),
}
# gated end-to-end metrics: every workload defines them; BENCHMARK.json lists these
END_TO_END = ("setup_s", "op_s", "peak_rss_mb")


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values, higher_better: bool = False) -> dict:
    """Median, the highest ladder percentile with at least ten samples
    beyond it (the slow side: low for throughputs), and the sample count."""
    n = len(values)
    out = {"median": median(values), "tail": None, "tail_value": None, "n": n}
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            out["tail"] = p
            out["tail_value"] = percentile(values, 100.0 - p if higher_better else p)
            break
    return out


def _blas_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())


def _spawn(args: list[str], budget: Budget, env: dict) -> tuple[float, list[str]]:
    """Run a worker to completion; return its set-up time and stdout lines."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=budget.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    lines = out.splitlines()
    ready = json.loads(lines[0])["ready"]
    return ready - started, lines


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = _blas_env()
    budget = Budget(BUDGET_S)
    scratch = ROOT / ".perfbench_run"
    workdir = scratch / f"{workload}-seed{seed}-pid{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        setups = []
        if not trace:
            for k in range(SETUP_RUNS - 1):
                s, _ = _spawn([*common, "--seconds", "0", "--setup-only",
                               "--workdir", str(workdir / f"setup{k}")], budget, env)
                setups.append(s)
        main_args = [*common, "--seconds", str(seconds), "--trace", str(int(trace)),
                     "--workdir", str(workdir / "main")]
        if trace:
            main_args += ["--spans-out", str(scratch / f"{workload}-seed{seed}.spans.jsonl")]
        s, lines = _spawn(main_args, budget, env)
        setups.append(s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(lines[-1])
    result["setup_samples"] = setups
    return result


def end_to_end(result: dict) -> dict:
    """Every table metric of the workload: name -> summary with unit."""
    workload = result["workload"]
    samples = dict(result["samples"])
    samples["setup_s"] = result["setup_samples"]
    samples["op_s"] = samples[OP_METRIC[workload]]
    samples["packed_tok_per_s"] = [1.0 / v for v in samples.get("vector_s", ())]
    samples["peak_rss_mb"] = [result["peak_rss_mb"]]
    out = {}
    for name in (*END_TO_END, *TABLE[workload]):
        unit, higher = UNITS[name]
        out[name] = {**summarize(samples[name], higher), "unit": unit}
    out["fail_frac"] = {"median": result["failed"] / max(result["attempted"], 1),
                        "tail": None, "tail_value": None, "n": result["attempted"],
                        "unit": "fraction"}
    return out


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, int) or float(v).is_integer():
        return f"{int(v)}"
    return f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "maskquant" / "__init__.py").is_file():
        print(f"perfbench: no maskquant sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("perfbench: --seconds must be >= 0", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    for err in result["errors"]:
        print(f"# FAILED {err}")
    if args.trace:
        metrics = result["per_layer"]
        print(f"# {'per-layer metric (median over traced ops)':44s} {'value':>14s}  unit")
        for name, m in metrics.items():
            print(f"# {name:44s} {_fmt(m['value']):>14s}  {m['unit']}")
        print(f"# fail_frac {result['failed'] / max(result['attempted'], 1):g} "
              f"of n={result['attempted']} operations")
    else:
        table = end_to_end(result)
        print(f"# {'metric':18s} {'median':>12s} {'tail':>6s} {'tail value':>12s} {'n':>6s}  unit")
        for name, row in table.items():
            tail = f"p{row['tail']:g}" if row["tail"] is not None else "-"
            print(f"# {name:18s} {_fmt(row['median']):>12s} {tail:>6s} "
                  f"{_fmt(row['tail_value']):>12s} {row['n']:>6d}  {row['unit']}")
        metrics = {name: {"value": table[name]["median"], "unit": table[name]["unit"]}
                   for name in END_TO_END}
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
