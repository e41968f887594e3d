"""Tests of the benchmark itself: span arithmetic, stop-reason inference,
summaries, a smoke pass of every workload, and the refusal to run without
the program's sources.

    python -m pytest perfbench/tests -q
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads
from maskquant import pipeline
from probes import stop_reason
from spans import Span, Tracer, child_time, self_times

BENCH = Path(__file__).resolve().parents[1]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # op [0, 10] > calib [1, 6] > {forward [2, 3], forward [4, 5.5]}; op > eval [7, 9]
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5.5, 6, 7, 9, 10]))
    with tr.span("op"):
        with tr.span("calib"):
            with tr.span("forward"):
                pass
            with tr.span("forward"):
                pass
        with tr.span("eval"):
            pass
    assert [s.name for s in tr.spans] == ["op", "calib", "forward", "forward", "eval"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 1, 0]
    assert all(s.root == 0 for s in tr.spans)
    assert self_times(tr.spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    selfs, kids = self_times(tr.spans), child_time(tr.spans)
    for s, own, children in zip(tr.spans, selfs, kids):
        assert own + children == pytest.approx(s.duration)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("p", 0.0, 10.0, -1, 0), Span("a", 1.0, 5.0, 0, 0), Span("b", 3.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)  # children cover [1, 10]


def test_counts_belong_to_the_running_operation():
    tr = Tracer()
    with tr.span("op") as first:
        with tr.span("inner"):
            tr.count("calls")
    with tr.span("op") as second:
        tr.count("calls", 2)
    assert tr.counts[first]["calls"] == 1 and tr.counts[second]["calls"] == 2


def test_patch_records_calls_and_unpatch_restores():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tr = Tracer()
    seen = []
    tr.patch(Owner, "f", "owner.f", lambda t, result, x: seen.append((x, result)))
    with tr.span("op"):
        assert Owner.f(1) == 2
    tr.unpatch()
    assert Owner.f is original
    assert [s.name for s in tr.spans] == ["op", "owner.f"] and seen == [(1, 2)]


@pytest.mark.parametrize(
    "history, sweeps, tol, expected",
    [
        ([10.0, 5.0, 4.99999999], 10, 1e-6, "tol"),
        ([10.0, 9.0, 8.0], 2, 1e-6, "max_sweeps"),
        ([10.0], 10, 1e-6, "rollback"),          # the first sweep raised the loss
        ([10.0, 9.0], 10, 1e-6, "rollback"),     # a later sweep did
        ([10.0], 0, 1e-6, "max_sweeps"),         # no sweeps allowed
        ([10.0, 9.999999999], 1, 1e-6, "tol"),   # tolerance wins at the cap
        ([0.0, 0.0], 10, 1e-6, "tol"),           # exact fit
    ],
)
def test_stop_reason(history, sweeps, tol, expected):
    assert stop_reason(history, sweeps, tol) == expected


def test_summary_tail_needs_ten_samples_beyond():
    assert run.summarize([1.0] * 19)["tail"] is None
    row = run.summarize([float(i) for i in range(1, 101)])
    assert row["median"] == 50.5 and row["tail"] == 90.0 and row["n"] == 100
    assert row["tail_value"] == pytest.approx(90.1)
    assert run.summarize(list(range(1, 101)), higher_better=True)["tail_value"] == pytest.approx(10.9)


def test_run_and_worker_agree_on_workloads():
    assert run.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("name, trace", [("toy", True), ("wide", False), ("ablate", False),
                                         ("packed", True)])
def test_workload_smoke(name, trace, tmp_path):
    result = worker.run(name, seed=3, seconds=0, trace=trace, workdir=tmp_path)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]
    table = run.end_to_end({**result, "setup_samples": [1.0]})
    assert table["fail_frac"]["median"] == 0
    for metric in run.END_TO_END:
        assert table[metric]["median"] > 0
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(run.END_TO_END) == {m["name"] for m in declared["end_to_end"]}
    if trace:
        assert set(result["per_layer"]) == {m["name"] for m in declared["per_layer"]}


def test_traced_run_leaves_plain_pipeline_bytes(tmp_path):
    worker.run("toy", seed=5, seconds=0, trace=True, workdir=tmp_path)
    cfg = workloads.make("toy", 5, tmp_path).cfg
    benched = cfg.qpk_path.read_bytes(), cfg.report_path.read_bytes()
    shutil.rmtree(cfg.out_dir)
    pipeline.cmd_calib(cfg)
    pipeline.cmd_quantize(cfg)
    pipeline.cmd_eval(cfg)
    assert (cfg.qpk_path.read_bytes(), cfg.report_path.read_bytes()) == benched


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
