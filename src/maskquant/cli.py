"""Command-line interface.

Subcommands: calib, quantize, eval, estimate-mem, report. Exit codes:
0 success, 2 configuration error, 3 I/O or file-format error, 4 shape or
layer mismatch.
"""
from __future__ import annotations

import argparse
import json
import sys

from .container import ContainerError
from .errors import ConfigError, ShapeError
from .pipeline import (
    PipelineConfig,
    _read_report,
    ablation_grid,
    cmd_calib,
    cmd_estimate_mem,
    cmd_eval,
    cmd_quantize,
    load_config,
)
from .qformat import QpkFormatError

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SHAPE = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--no-mcs", action="store_true", help="calibrate on fully visible sequences")
    parser.add_argument("--no-dor", action="store_true", help="disable saliency weighting")
    parser.add_argument("--no-abmp", action="store_true", help="uniform order, no reallocation")
    parser.add_argument("--no-rsr", action="store_true", help="skip refinement sweeps (sweeps=0)")
    parser.add_argument("--ratio", type=float, help="precision reallocation fraction")
    parser.add_argument("--order", type=int, help="uniform binary order when ABMP is off")
    parser.add_argument("--group-width", type=int, dest="group_width")
    parser.add_argument("--calib", dest="calib_path", help="QDT1 uint32 token tensor")
    parser.add_argument("--out", dest="out_dir", help="output directory")


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    overrides = {
        "seed": args.seed,
        "ratio": args.ratio,
        "order": args.order,
        "group_width": args.group_width,
        "calib_path": args.calib_path,
        "out_dir": args.out_dir,
        "sweeps": 0 if args.no_rsr else None,
    }
    if args.no_mcs:
        overrides["use_mcs"] = False
    if args.no_dor:
        overrides["use_dor"] = False
    if args.no_abmp:
        overrides["use_abmp"] = False
    return load_config(args.config, overrides)


def _print_report_summary(report: dict) -> None:
    for name in sorted(report.get("layers", {})):
        row = report["layers"][name]
        print(
            f"  {name}: {row['rows']}x{row['cols']}"
            f" alloc={row['allocation']}"
            f" proxy {row['proxy_loss_init']:.6g} -> {row['proxy_loss_final']:.6g}"
        )
    memory = report.get("memory")
    if memory:
        print(f"  packed bytes: {memory['qpk_bytes']}  total est: {memory['total_bytes']}")
    if report.get("eval"):
        ev = report["eval"]
        print(f"  eval: logit_mse={ev['logit_mse']:.6g} softmax_kl={ev['softmax_kl']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="maskquant")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("calib", "accumulate per-layer activation statistics"),
        ("quantize", "quantize targeted layers and write the packed model"),
        ("eval", "score the packed model against full precision"),
        ("ablate", "run the ablation grid end to end"),
    ):
        _add_common(sub.add_parser(name, help=help_text))

    p = sub.add_parser("estimate-mem", help="size accounting for a model description")
    _add_common(p)
    p.add_argument("--qpk", help="measure an existing packed file exactly")
    p.add_argument("--preset", choices=["fp16-8b", "llada8b-2bit"])

    p = sub.add_parser("report", help="pretty-print a run report")
    p.add_argument("--report", required=True, help="report JSON path")

    args = parser.parse_args(argv)
    try:
        if args.command == "calib":
            cfg = _config_from(args)
            stats_dir = cmd_calib(cfg)
            print(f"statistics written to {stats_dir}")
        elif args.command == "quantize":
            cfg = _config_from(args)
            qpk_path, report = cmd_quantize(cfg)
            print(f"packed model written to {qpk_path}")
            _print_report_summary(report)
        elif args.command == "eval":
            cfg = _config_from(args)
            report = cmd_eval(cfg)
            _print_report_summary(report)
            print(f"report updated at {cfg.report_path}")
        elif args.command == "ablate":
            cfg = _config_from(args)
            grid = ablation_grid(cfg)
            for arm in sorted(grid["arms"]):
                div = grid["arms"][arm]["divergence"]
                print(f"  {arm}: softmax_kl={div['softmax_kl']:.6g}")
            print(f"direction_ok={grid['direction_ok']}")
        elif args.command == "estimate-mem":
            cfg = None
            if args.qpk is None and args.preset is None:
                cfg = _config_from(args)
            result = cmd_estimate_mem(cfg, qpk_path=args.qpk, preset=args.preset)
            print(json.dumps(result, sort_keys=True, indent=2))
        elif args.command == "report":
            report = _read_report(args.report)
            print(f"seed: {report.get('seed')}")
            _print_report_summary(report)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContainerError, QpkFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
