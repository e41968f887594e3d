"""Hash every output file of the benchmark configs, to show a change keeps every byte.

    python3 tools/output_hashes.py OUT_DIR [--seeds 0 7 11]

For each seed it runs calib, quantize and eval on the `TOY` and `WIDE`
configs of `perfbench/workloads.py`, and the ablation grid on its `ABLATE`
config, under `OUT_DIR/seed<n>/{toy,wide,grid}`. Then it prints one
`<sha256>  <path relative to OUT_DIR>` line per file, sorted by path.

It runs the `maskquant` of the checkout it sits in. Reports record their
`out_dir`, so the listings of two checkouts compare only when both runs
used the same OUT_DIR. OUT_DIR must be empty or absent, so no earlier
run's file is hashed.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(out_dir: Path, seeds) -> None:
    from maskquant import pipeline
    from workloads import ABLATE, TOY, WIDE

    for seed in seeds:
        base = out_dir / f"seed{seed}"
        for name, config in (("toy", TOY), ("wide", WIDE)):
            cfg = pipeline.PipelineConfig(seed=seed, out_dir=str(base / name), **config)
            pipeline.cmd_calib(cfg)
            pipeline.cmd_quantize(cfg)
            pipeline.cmd_eval(cfg)
        grid = pipeline.PipelineConfig(seed=seed, out_dir=str(base / "grid"), **ABLATE)
        pipeline.ablation_grid(grid)


def hashes(out_dir: Path) -> list[str]:
    lines = []
    for path in out_dir.rglob("*"):
        if path.is_file():
            with open(path, "rb") as f:
                digest = hashlib.file_digest(f, "sha256").hexdigest()
            lines.append(f"{digest}  {path.relative_to(out_dir).as_posix()}")
    return sorted(lines, key=lambda line: line[66:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7, 11])
    args = parser.parse_args(argv)
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    run(args.out_dir.resolve(), args.seeds)
    print("\n".join(hashes(args.out_dir.resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
