"""The per-stage memory tool: one process per stage, each stage's peak, then
the whole cycle's peak in one process."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "stage_peaks.py"
_spec = importlib.util.spec_from_file_location("stage_peaks", _PATH)
stage_peaks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_peaks)

_TINY = dict(vocab=16, d_model=16, d_hidden=32, n_blocks=1, seq_len=8, calib_sequences=4,
             eval_sequences=2, group_width=8)


def test_peaks_run_each_stage_in_turn(tmp_path):
    rows = stage_peaks.peaks({"tiny": _TINY}, 3, tmp_path)
    assert [(name, stage) for name, stage, _ in rows] == [
        ("tiny", "calib"), ("tiny", "quantize"), ("tiny", "eval"), ("tiny", "cycle")
    ]
    # each is a whole interpreter with numpy loaded
    assert all(10.0 < mb < 1000.0 for _, _, mb in rows)
    # the cycle runs every stage in one process, in a directory of its own,
    # and writes what the separate stages write
    staged, cycled = tmp_path / "tiny", tmp_path / "tiny-cycle"
    report = json.loads((cycled / "report.json").read_text())
    assert report["seed"] == 3 and report["eval"] is not None
    assert (cycled / "model.qpk").read_bytes() == (staged / "model.qpk").read_bytes()
    assert json.loads((staged / "report.json").read_text())["eval"] == report["eval"]


def test_a_cycle_runs_its_stages_in_one_process(tmp_path):
    # eval without a quantize before it in the same process fails: the stages
    # share the out_dir, run in the order given
    config = {**_TINY, "out_dir": str(tmp_path)}
    with pytest.raises(RuntimeError, match="calib\\+eval exited with 1"):
        stage_peaks.stage_peak(("calib", "eval"), config)
    assert stage_peaks.stage_peak(("calib", "quantize", "eval"), config) > 10.0
    assert json.loads((tmp_path / "report.json").read_text())["eval"] is not None


def test_a_failing_stage_raises(tmp_path):
    # quantize without a calib before it has no statistics to read
    with pytest.raises(RuntimeError, match="quantize exited with 1"):
        stage_peaks.stage_peak("quantize", {**_TINY, "out_dir": str(tmp_path)})
