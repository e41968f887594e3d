"""Where the benchmark's traced run wraps maskquant, and what it derives.

Every wrapper is installed at the name its caller looks up, so the program
runs unchanged: the pipeline stages are looked up in ``maskquant.pipeline``
(by the benchmark and by ``ablation_grid``), calibration forwards in
``maskquant.pipeline.forward``, eval forwards in ``maskquant.denoiser.forward``
(by ``eval_divergence``), the fitting kernels in ``maskquant.daq`` (by
``daq_fit``), and tensor I/O in ``maskquant.stats`` (by the second-moment
savers). Counts come from the wrapped calls' arguments and results only.
"""
from __future__ import annotations

import math
from collections import Counter
from statistics import median

import numpy as np

from maskquant import abmp, daq, denoiser, mcs, pipeline, qformat, stats

from spans import Tracer, child_time, self_times

STAGES = ("pipeline.calib", "pipeline.quantize", "pipeline.eval")


def stop_reason(history, sweeps: int, tol: float) -> str:
    """Why ``daq_fit`` stopped, inferred from its returned loss history.

    ``tol``: the last recorded sweep improved by less than ``tol``.
    ``max_sweeps``: every allowed sweep was recorded (also ``sweeps == 0``).
    ``rollback``: a sweep ran but was discarded because it raised the loss.
    """
    recorded = len(history) - 1
    if recorded >= 1:
        prev, cur = history[-2], history[-1]
        if prev <= 0.0 or (prev - cur) / prev < tol:
            return "tol"
    if recorded >= sweeps:
        return "max_sweeps"
    return "rollback"


def _qdt_bytes(array) -> int:
    return 9 + 8 * array.ndim + array.nbytes


def _masked(tr: Tracer, result, *args, **kwargs):
    tr.count("mcs.sequences", len(result))
    tr.count("mcs.visible", int(sum(int(m.visible.sum()) for m in result)))
    tr.count("mcs.positions", int(sum(m.visible.size for m in result)))


def _forward(tr: Tracer, result, model, seq, *args, **kwargs):
    ids = seq.ids if isinstance(seq, mcs.MaskedSequence) else np.asarray(seq)
    tr.count("denoiser.tokens", int(ids.size))


def _gram(tr: Tracer, result, sm, inputs, *args, **kwargs):
    dim, tokens = np.shape(inputs)
    tr.count("stats.gram_flops", 2 * dim * dim * tokens)


def _second_moment_bytes(sm) -> int:
    return _qdt_bytes(sm.gram) + len(f"{sm.count}\n")


def _saved(tr: Tracer, result, sm, *args, **kwargs):
    tr.count("stats.io_bytes", _second_moment_bytes(sm))


def _loaded(tr: Tracer, result, *args, **kwargs):
    tr.count("stats.io_bytes", _second_moment_bytes(result))


def _tensor_written(tr: Tracer, result, path, array, *args, **kwargs):
    tr.count("container.bytes", _qdt_bytes(np.asarray(array)))


def _tensor_read(tr: Tracer, result, *args, **kwargs):
    tr.count("container.bytes", _qdt_bytes(result))


def _partitioned(tr: Tracer, result, *args, **kwargs):
    tr.count("abmp.groups", len(result.ranges))


def _allocated(tr: Tracer, result, *args, **kwargs):
    tr.count("abmp.order1", result.orders.count(1))
    tr.count("abmp.order3", result.orders.count(3))


def _fitted(tr: Tracer, result, w, lam=None, cfg=None, **kwargs):
    cfg = cfg or daq.DaqConfig()
    history = result.loss_history
    reason = stop_reason(history, cfg.sweeps, cfg.tol)
    tr.count("daq.weights", int(np.size(w)))
    tr.count("daq.sweeps", len(history) - 1 + (reason == "rollback"))
    tr.count(f"daq.stop_{reason}")
    tr.count("daq.loss_init", history[0])
    tr.count("daq.loss_final", history[-1])
    tr.count("daq.history_checked")
    if any(b > a for a, b in zip(history, history[1:])):
        tr.count("daq.history_increases")


def packed_bytes(layer) -> int:
    """Bytes of packed data one matvec reads: planes, scales and row means."""
    total = 0 if layer.row_mean is None else layer.row_mean.nbytes
    for g in layer.groups:
        total += g.planes.nbytes + g.alpha_r.nbytes + g.alpha_c.nbytes
    return total


def install(tr: Tracer) -> None:
    p = tr.patch
    p(pipeline, "cmd_calib", "pipeline.calib")
    p(pipeline, "cmd_quantize", "pipeline.quantize")
    p(pipeline, "cmd_eval", "pipeline.eval")
    p(pipeline, "ablation_grid", "pipeline.ablation_grid")
    p(mcs, "simulate", "mcs.simulate", _masked)
    p(pipeline, "forward", "denoiser.forward.calib", _forward)
    p(denoiser, "forward", "denoiser.forward.eval", _forward)
    p(stats.SecondMoment, "accumulate", "stats.accumulate", _gram)
    p(stats, "damped_inverse_diag", "stats.damped_inverse_diag")
    p(stats, "importance_matrix", "stats.importance")
    p(stats, "build_importance_mask", "stats.importance")
    p(stats, "block_scores", "stats.importance")
    p(stats, "true_data_loss", "stats.true_data_loss")
    p(stats, "save_second_moment", "stats.io", _saved)
    p(stats, "load_second_moment", "stats.io", _loaded)
    p(stats, "write_tensor", "container.write", _tensor_written)
    p(stats, "read_tensor", "container.read", _tensor_read)
    p(abmp, "partition", "abmp.partition", _partitioned)
    p(abmp, "allocate", "abmp.allocate", _allocated)
    p(daq, "daq_fit", "daq.fit", _fitted)
    p(daq, "update_signs", "daq.sign_search")
    p(daq, "update_alpha_r", "daq.scale_update")
    p(daq, "update_alpha_c", "daq.scale_update")
    p(qformat, "build_layer", "qformat.build_layer")
    p(qformat, "write_qpk", "qformat.write")
    p(qformat, "read_qpk", "qformat.read")
    p(qformat, "dequantize", "qformat.dequantize")
    p(qformat, "rc_matvec", "qformat.matvec")


# name -> unit; the order is the order of the printed table
PER_LAYER = {
    "pipeline.calib.self_s": "s",
    "pipeline.quantize.self_s": "s",
    "pipeline.eval.self_s": "s",
    "mcs.simulate_s": "s",
    "mcs.sequences": "count",
    "mcs.visible_frac": "fraction",
    "denoiser.forward_calls": "count",
    "denoiser.tokens": "count",
    "denoiser.forward_calib_s": "s",
    "denoiser.forward_eval_s": "s",
    "stats.accumulate_calls": "count",
    "stats.accumulate_s": "s",
    "stats.gram_flops": "flop",
    "stats.damped_inverse_diag_s": "s",
    "stats.true_data_loss_s": "s",
    "stats.importance_s": "s",
    "stats.io_s": "s",
    "stats.io_bytes": "bytes",
    "abmp.allocate_s": "s",
    "abmp.groups": "count",
    "abmp.order1": "count",
    "abmp.order3": "count",
    "daq.fit_calls": "count",
    "daq.fit_s": "s",
    "daq.weights_per_s": "weights/s",
    "daq.sign_search_s": "s",
    "daq.scale_update_s": "s",
    "daq.sweeps": "count",
    "daq.stop_tol": "count",
    "daq.stop_max_sweeps": "count",
    "daq.stop_rollback": "count",
    "daq.loss_ratio": "ratio",
    "qformat.build_layer_s": "s",
    "qformat.write_s": "s",
    "qformat.read_s": "s",
    "qformat.dequantize_s": "s",
    "qformat.matvec_calls": "count",
    "qformat.matvec_s": "s",
    "qformat.matvec_bytes": "bytes/vector",
    "qformat.dense_matvec_s": "s",
    "container.write_s": "s",
    "container.read_s": "s",
    "container.bytes": "bytes",
    "trace.overhead_s": "s",
}

# per-layer metric -> span names whose durations it sums
_DURATIONS = {
    "mcs.simulate_s": ("mcs.simulate",),
    "denoiser.forward_calib_s": ("denoiser.forward.calib",),
    "denoiser.forward_eval_s": ("denoiser.forward.eval",),
    "stats.accumulate_s": ("stats.accumulate",),
    "stats.damped_inverse_diag_s": ("stats.damped_inverse_diag",),
    "stats.true_data_loss_s": ("stats.true_data_loss",),
    "stats.importance_s": ("stats.importance",),
    "stats.io_s": ("stats.io",),
    "abmp.allocate_s": ("abmp.allocate",),
    "daq.fit_s": ("daq.fit",),
    "daq.sign_search_s": ("daq.sign_search",),
    "daq.scale_update_s": ("daq.scale_update",),
    "qformat.build_layer_s": ("qformat.build_layer",),
    "qformat.write_s": ("qformat.write",),
    "qformat.read_s": ("qformat.read",),
    "qformat.dequantize_s": ("qformat.dequantize",),
    "qformat.matvec_s": ("qformat.matvec",),
    "container.write_s": ("container.write",),
    "container.read_s": ("container.read",),
}

# per-layer metric -> span names whose calls it counts
_CALLS = {
    "denoiser.forward_calls": ("denoiser.forward.calib", "denoiser.forward.eval"),
    "stats.accumulate_calls": ("stats.accumulate",),
    "daq.fit_calls": ("daq.fit",),
    "qformat.matvec_calls": ("qformat.matvec",),
}

_COUNTS = (
    "mcs.sequences", "denoiser.tokens", "stats.gram_flops", "stats.io_bytes",
    "abmp.groups", "abmp.order1", "abmp.order3", "daq.sweeps", "daq.stop_tol",
    "daq.stop_max_sweeps", "daq.stop_rollback", "container.bytes",
)


def op_metrics(counts: Counter, self_by_name: Counter, dur_by_name: Counter,
               calls_by_name: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"{stage}.self_s"] = self_by_name[stage]
    for metric, names in _DURATIONS.items():
        out[metric] = sum(dur_by_name[n] for n in names)
    for metric, names in _CALLS.items():
        out[metric] = sum(calls_by_name[n] for n in names)
    for name in _COUNTS:
        out[name] = counts[name]
    positions = counts["mcs.positions"]
    out["mcs.visible_frac"] = counts["mcs.visible"] / positions if positions else 0.0
    fit_s = out["daq.fit_s"]
    out["daq.weights_per_s"] = counts["daq.weights"] / fit_s if fit_s else 0.0
    init = counts["daq.loss_init"]
    out["daq.loss_ratio"] = counts["daq.loss_final"] / init if init else 0.0
    return out


def summarize(tr: Tracer, tally) -> dict[str, float]:
    """Median over traced operations of each per-layer metric.

    Also runs the traced-run output checks: every ``daq_fit`` history is
    non-increasing, and for every stage span its self time plus the time of
    its wrapped children equals its wall time.
    """
    selfs = self_times(tr.spans)
    kids = child_time(tr.spans)
    roots = [i for i, s in enumerate(tr.spans) if s.parent < 0 and s.name == "op"]
    buckets = {r: (Counter(), Counter(), Counter()) for r in roots}
    for idx, s in enumerate(tr.spans):
        if s.root not in buckets or idx == s.root:
            continue
        self_by, dur_by, calls_by = buckets[s.root]
        self_by[s.name] += selfs[idx]
        dur_by[s.name] += s.duration
        calls_by[s.name] += 1
        if s.name in STAGES or s.name == "pipeline.ablation_grid":
            tally.check(
                f"{s.name} self + children == wall",
                lambda s=s, idx=idx: math.isclose(
                    selfs[idx] + kids[idx], s.duration, rel_tol=1e-9, abs_tol=1e-9
                ),
            )
    per_op = []
    for r in roots:
        counts = tr.counts.get(r, Counter())
        checked = counts["daq.history_checked"]
        bad = counts["daq.history_increases"]
        tally.attempted += checked
        tally.failed += bad
        if bad:
            tally.errors.append(f"{bad} daq_fit loss histories increase")
        per_op.append(op_metrics(counts, *buckets[r]))
    if not per_op:
        return {}
    return {name: median(op[name] for op in per_op) for name in per_op[0]}
