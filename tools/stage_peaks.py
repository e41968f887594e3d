"""Print the peak resident memory of each pipeline stage on the benchmark configs.

    python3 tools/stage_peaks.py [--seed 7] [--workloads toy wide]

For each workload it runs calib, quantize and eval on the `TOY` or `WIDE`
config of `perfbench/workloads.py`, in a temporary directory, each stage in
a process of its own, then the whole cycle in one process: calib, then
calib, quantize and eval again, as the benchmark worker runs its set-up and
first op. It prints one `<workload> <stage> <MB>` line per stage and one
`<workload> cycle <MB>` line: the maximum resident set size of each
process. The stage lines show which stage needs the most memory; the cycle
line also counts what a stage's heap carries into the next, so it is the
one to compare with the benchmark's `peak_rss_mb`.

It runs the `maskquant` of the checkout it sits in, with the environment it
is given (so the BLAS thread count is the caller's).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("calib", "quantize", "eval")
# the worker's set-up calib, then its first op
CYCLE = ("calib", "calib", "quantize", "eval")
_STAGES = (
    "import json, sys; from maskquant import pipeline; "
    "cfg = pipeline.PipelineConfig(**json.loads(sys.argv[2])); "
    "[getattr(pipeline, 'cmd_' + stage)(cfg) for stage in sys.argv[1].split(',')]"
)


def stage_peak(stages, config: dict) -> float:
    """Run the stage named `stages`, or each of a sequence of stage names in
    turn, on `config` in one child process; its max RSS in MB."""
    stages = [stages] if isinstance(stages, str) else list(stages)
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = [sys.executable, "-c", _STAGES, ",".join(stages), json.dumps(config)]
    _, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, env), 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{'+'.join(stages)} exited with {os.waitstatus_to_exitcode(status)}")
    return usage.ru_maxrss / 1024.0  # KiB on Linux


def peaks(configs: dict, seed: int, out_dir: Path) -> list[tuple[str, str, float]]:
    """(workload, stage, MB) for every stage of each config of `configs`,
    run under `out_dir/<workload>`, then (workload, "cycle", MB) for the
    whole cycle, run under `out_dir/<workload>-cycle`."""
    rows = []
    for name, config in configs.items():
        config = {**config, "seed": seed}
        staged = {**config, "out_dir": str(out_dir / name)}
        rows += [(name, stage, stage_peak(stage, staged)) for stage in STAGES]
        cycle = {**config, "out_dir": str(out_dir / f"{name}-cycle")}
        rows.append((name, "cycle", stage_peak(CYCLE, cycle)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", nargs="+", choices=("toy", "wide"), default=["toy", "wide"])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    configs = {name: getattr(workloads, name.upper()) for name in args.workloads}
    with tempfile.TemporaryDirectory() as tmp:
        for name, stage, mb in peaks(configs, args.seed, Path(tmp)):
            print(f"{name:8s} {stage:9s} {mb:7.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
