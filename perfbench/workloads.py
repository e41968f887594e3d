"""The four benchmark workloads.

Each workload has a ``setup`` (input generation plus one warm-up call), an
``op`` that is timed and, in a traced run, traced, and a ``check`` of the
op's outputs that runs afterwards, untraced. Every stage or kernel call
and every output check counts as one attempted operation.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from maskquant import daq, pipeline, qformat

from probes import packed_bytes


LOADS_PER_FILE = 4


class Tally:
    """Samples per metric plus attempted and failed operation counts."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def sample(self, metric: str, value) -> None:
        self.samples[metric].append(value)

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise

    def timed(self, metric: str, fn, *args):
        start = perf_counter()
        result = self.call(fn, *args)
        self.sample(metric, perf_counter() - start)
        return result

    def check(self, label: str, predicate) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            self.errors.append(label)
        return ok


def _loads(tally: Tally, path: Path):
    """Time several reads of a packed file: one read of a small file is too
    short to time steadily."""
    for _ in range(LOADS_PER_FILE):
        layers = tally.timed("load_s", qformat.read_qpk, path)
    return layers


def _quality_ok(ev) -> bool:
    return all(math.isfinite(ev[k]) and ev[k] >= 0.0 for k in ("softmax_kl", "logit_mse"))


class Cycle:
    """calib -> quantize -> eval on one config, repeated."""

    def __init__(self, config: dict, seed: int, workdir: Path):
        self.cfg = pipeline.PipelineConfig(seed=seed, out_dir=str(workdir / "out"), **config)
        self.roundtrip = workdir / "roundtrip.qpk"
        self.reference = None

    def setup(self) -> None:
        pipeline.cmd_calib(self.cfg)

    def op(self, tally: Tally) -> float:
        start = perf_counter()
        tally.timed("calib_s", pipeline.cmd_calib, self.cfg)
        tally.timed("quantize_s", pipeline.cmd_quantize, self.cfg)
        tally.timed("eval_s", pipeline.cmd_eval, self.cfg)
        elapsed = perf_counter() - start
        tally.sample("pipeline_s", elapsed)
        return elapsed

    def check(self, tally: Tally) -> None:
        qpk = self.cfg.qpk_path.read_bytes()
        report = self.cfg.report_path.read_bytes()
        if self.reference is None:
            self.reference = (qpk, report)
        else:
            tally.check("model.qpk and report.json byte-identical across cycles",
                        lambda: (qpk, report) == self.reference)
        layers = _loads(tally, self.cfg.qpk_path)

        def roundtrip():
            qformat.write_qpk(self.roundtrip, layers)
            return self.roundtrip.read_bytes() == qpk

        tally.check("read_qpk round-trips model.qpk", roundtrip)
        tally.check("qpk_bytes == memory_estimate(describe_qpk(...))",
                    lambda: len(qpk) == qformat.memory_estimate(qformat.describe_qpk(layers)))
        ev = json.loads(report)["eval"]
        tally.check("quality metrics finite and non-negative", lambda: _quality_ok(ev))
        tally.sample("qpk_bytes", len(qpk))
        tally.sample("softmax_kl", ev["softmax_kl"])
        tally.sample("logit_mse", ev["logit_mse"])


class Ablate:
    """The eight-arm ablation grid on the determinism-criterion config."""

    def __init__(self, config: dict, seed: int, workdir: Path):
        self.cfg = pipeline.PipelineConfig(seed=seed, out_dir=str(workdir / "grid"), **config)
        self.grid = None
        self.reference = None

    def setup(self) -> None:
        full = dataclasses.replace(self.cfg, out_dir=str(Path(self.cfg.out_dir) / "arms" / "full"))
        pipeline.cmd_calib(full)

    def op(self, tally: Tally) -> float:
        self.grid = tally.timed("ablate_s", pipeline.ablation_grid, self.cfg)
        return tally.samples["ablate_s"][-1]

    def check(self, tally: Tally) -> None:
        grid_bytes = (Path(self.cfg.out_dir) / "ablation.json").read_bytes()
        if self.reference is None:
            self.reference = grid_bytes
        else:
            tally.check("ablation.json byte-identical across grids",
                        lambda: grid_bytes == self.reference)
        for arm, result in self.grid["arms"].items():
            report_path = Path(result["report_path"])
            report = json.loads(report_path.read_text())
            tally.check(f"{arm}: report holds its eval",
                        lambda: report["eval"] is not None
                        and report["eval"]["softmax_kl"] == result["divergence"]["softmax_kl"]
                        and report["eval"]["logit_mse"] == result["divergence"]["logit_mse"])
            tally.check(f"{arm}: quality metrics finite and non-negative",
                        lambda: _quality_ok(result["divergence"]))
            layers = _loads(tally, report_path.parent / "model.qpk")
            if arm == "no_abmp":
                tally.check("no_abmp has no order-1 or order-3 groups",
                            lambda: all(row["allocation"]["1"] == 0 and row["allocation"]["3"] == 0
                                        for row in report["layers"].values())
                            and all(g.order == 2 for layer in layers for g in layer.groups))
        full = self.grid["arms"]["full"]
        tally.sample("softmax_kl", full["divergence"]["softmax_kl"])
        tally.sample("logit_mse", full["divergence"]["logit_mse"])
        tally.sample("qpk_bytes", (Path(full["report_path"]).parent / "model.qpk").stat().st_size)


class Packed:
    """Reads a packed file and multiplies input vectors by every layer."""

    SHAPES = (("l0", 2048, 2048), ("l1", 2048, 2048), ("l2", 2048, 2048), ("ragged", 2048, 1020))
    GROUP_WIDTH = 128
    VECTORS_PER_OP = 4
    VECTOR_POOL = 64
    # one order-3 and one order-1 group per layer keep the mean at 2 bits,
    # like the allocator, with the same work on every seed
    ORDERS = (3, 1)
    # a wrong sign bit moves a result by ~1e-3 of this scale; rounding, ~1e-7
    RTOL = 1e-5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "packed.qpk"
        self.next_vector = 0
        self.last = None

    def _layer(self, rng, name: str, rows: int, cols: int):
        groups = []
        for g, start in enumerate(range(0, cols, self.GROUP_WIDTH)):
            width = min(self.GROUP_WIDTH, cols - start)
            order = self.ORDERS[g] if g < len(self.ORDERS) else 2
            terms = [
                daq.RCBinaryOrder(
                    alpha_r=rng.uniform(0.01, 0.1, rows).astype(np.float32),
                    alpha_c=rng.uniform(0.5, 1.5, width).astype(np.float32),
                    signs=np.where(rng.random((rows, width)) < 0.5, -1, 1).astype(np.int8),
                )
                for _ in range(order)
            ]
            groups.append(daq.QuantizedGroup(orders=terms))
        row_mean = (0.01 * rng.standard_normal(rows)).astype(np.float32)
        return qformat.build_layer(name, groups, self.GROUP_WIDTH, cols, row_mean)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.layers = [self._layer(rng, *shape) for shape in self.SHAPES]
        qformat.write_qpk(self.path, self.layers)
        self.dense = [qformat.dequantize(layer) for layer in self.layers]
        self.dense_abs = [np.abs(w) for w in self.dense]
        self.vectors = rng.standard_normal((self.VECTOR_POOL, max(c for _, _, c in self.SHAPES)))
        self.vector_bytes = sum(packed_bytes(layer) for layer in self.layers)
        for layer in qformat.read_qpk(self.path):
            qformat.rc_matvec(layer, self.vectors[0, : layer.cols])

    def op(self, tally: Tally) -> float:
        start = perf_counter()
        layers = tally.timed("load_s", qformat.read_qpk, self.path)
        xs, ys = [], []
        for _ in range(self.VECTORS_PER_OP):
            x = self.vectors[self.next_vector % self.VECTOR_POOL]
            self.next_vector += 1
            t0 = perf_counter()
            ys.append([tally.call(qformat.rc_matvec, layer, x[: layer.cols]) for layer in layers])
            tally.sample("vector_s", perf_counter() - t0)
            xs.append(x)
        self.last = (layers, xs, ys)
        return perf_counter() - start

    def check(self, tally: Tally) -> None:
        layers, xs, ys = self.last
        tally.check("read_qpk returns the written layers", lambda: _same_layers(layers, self.layers))
        dense_s = 0.0
        for x, y in zip(xs, ys):
            for j, layer in enumerate(layers):
                x32 = x[: layer.cols].astype(np.float32)
                t0 = perf_counter()
                ref = self.dense[j] @ x32
                dense_s += perf_counter() - t0
                scale = self.dense_abs[j] @ np.abs(x32)
                tally.check(f"rc_matvec agrees with dequantize @ x on {layer.name}",
                            lambda: bool((np.abs(y[j] - ref) <= self.RTOL * scale).all()))
        tally.sample("dense_matvec_s", dense_s)
        tally.sample("matvec_bytes", self.vector_bytes)
        tally.sample("qpk_bytes", self.path.stat().st_size)


def _same_layers(a, b) -> bool:
    if len(a) != len(b):
        return False
    for la, lb in zip(a, b):
        if (la.name, la.rows, la.cols, la.group_width) != (lb.name, lb.rows, lb.cols, lb.group_width):
            return False
        if not np.array_equal(la.row_mean, lb.row_mean) or len(la.groups) != len(lb.groups):
            return False
        for ga, gb in zip(la.groups, lb.groups):
            if not (np.array_equal(ga.planes, gb.planes) and np.array_equal(ga.alpha_r, gb.alpha_r)
                    and np.array_equal(ga.alpha_c, gb.alpha_c)):
                return False
    return True


# README toy.cfg
TOY = dict(d_model=128, d_hidden=384, seq_len=64, calib_sequences=32, group_width=8, ratio=0.05)
WIDE = dict(d_model=512, d_hidden=1024, calib_sequences=8, eval_sequences=8, group_width=128)
# the grid config of acceptance criterion 10
ABLATE = dict(d_model=128, d_hidden=384, seq_len=64, calib_sequences=32, eval_sequences=8,
              group_width=8)


def make(name: str, seed: int, workdir: Path):
    if name == "toy":
        return Cycle(TOY, seed, workdir)
    if name == "wide":
        return Cycle(WIDE, seed, workdir)
    if name == "ablate":
        return Ablate(ABLATE, seed, workdir)
    if name == "packed":
        return Packed(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("toy", "wide", "ablate", "packed")
