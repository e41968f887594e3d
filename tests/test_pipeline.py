"""End-to-end pipeline behavior, configuration, and CLI surface."""

import dataclasses
import hashlib
import json
import shutil
import struct
import tempfile
import threading
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskquant import daq, qformat
from maskquant.cli import main
from maskquant.container import ContainerError, read_tensor, write_tensor
from maskquant.daq import DaqConfig, daq_fit
from maskquant.denoiser import ToyModelSpec, forward, init_model, save_model
from maskquant.errors import ConfigError, ShapeError
from maskquant.mcs import simulate
from maskquant.pipeline import (
    PipelineConfig,
    _calibrate,
    _eval_set,
    _quantize,
    _weights_sha256,
    _with_inverse_diag,
    _write_report,
    ablation_grid,
    calibration_tokens,
    cmd_calib,
    cmd_estimate_mem,
    cmd_eval,
    cmd_quantize,
    get_model,
    load_config,
    parse_config_file,
    target_layers,
)
from maskquant.qformat import MAGIC, build_layer, read_qpk, write_qpk
from maskquant.rng import Rng
from maskquant.stats import SecondMoment, load_second_moment


def _cfg(tmp_path, **kwargs):
    defaults = dict(
        d_model=16,
        d_hidden=32,
        seq_len=32,
        calib_sequences=12,
        eval_sequences=4,
        group_width=8,
        out_dir=str(tmp_path / "run"),
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def _calibrated(cfg):
    """The in-memory second moments of cfg's target layers, as calib computes them."""
    model = get_model(cfg)
    return _calibrate(cfg, model, target_layers(cfg, model), calibration_tokens(cfg, model.spec))


def _calibrated_pairs(cfg):
    """Each target layer's pair of in-memory second moment and damped inverse
    diagonal, as the grid hands them to _quantize."""
    return {
        name: _with_inverse_diag(name, sm, cfg.damp_rel, ConfigError, "test")
        for name, sm in _calibrated(cfg).items()
    }


def test_config_file_parsing(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(
        "# comment\n"
        "seed = 3\n"
        "ratio=0.10  # inline comment\n"
        "use_mcs=false\n"
        "layers=block0.up, block0.down\n"
    )
    values = parse_config_file(path)
    assert values == {
        "seed": 3,
        "ratio": 0.10,
        "use_mcs": False,
        "layers": ("block0.up", "block0.down"),
    }
    cfg = load_config(path, {"seed": 9, "out_dir": str(tmp_path / "o")})
    assert cfg.seed == 9 and cfg.ratio == 0.10 and not cfg.use_mcs


def test_config_rejects_unknown_keys_and_bad_values(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("no_such_key=1\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    bad.write_text("ratio=0.9\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("use_mcs=maybe\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    with pytest.raises(ConfigError):
        PipelineConfig(order=5)


def _one_line(raw: bytes) -> bool:
    return len(raw.decode("utf-8", "replace").splitlines()) <= 1


_JUNK = st.binary(max_size=12).filter(_one_line)
_FLOAT = st.one_of(
    st.floats().map(repr), st.sampled_from(["nan", "inf", "-inf", "1e308", "-0.0"])
)
_SMALL_INT = st.integers(-2, 24).map(str)
_HUGE_INT = st.integers(10**11, 10**30).map(str)
_WORDS = {
    "bool": st.sampled_from(["true", "false", "1", "0", "yes", "no", "maybe"]),
    "float": _FLOAT,
    "int": st.one_of(_SMALL_INT, _FLOAT),
    "str": st.sampled_from(["", "block0.up", "block0.up,out_proj", "nope", "."]),
}
# only counts that the token or weight bound rejects before anything is allocated get huge values
_HUGE_OK = {
    "calib_sequences", "eval_sequences", "timesteps", "seq_len", "order",
    "vocab", "d_model", "d_hidden", "n_blocks",
}


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


# values at the edges of a field's bounds, drawn besides its type's words
_EDGES = {
    "lambda_weight": ["1.0000001", "1e6", "1000000.0000001", "1e7", "1e200"],
    "damp_rel": ["1e6", "1e7", "1e100", "1e300"],
}


def _config_value(name: str):
    words = _WORDS.get(_FIELDS[name].type, _WORDS["str"])
    if name in _EDGES:
        words = st.one_of(words, st.sampled_from(_EDGES[name]))
    if name in _HUGE_OK:
        words = st.one_of(words, _HUGE_INT)
    return st.one_of(words.map(str.encode), _JUNK)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_config_fuzz_exits_typed(data):
    # the 16/32 model of `_cfg`, then random key=value lines, which override it
    base = b"d_model=16\nd_hidden=32\nseq_len=32\ncalib_sequences=4\ngroup_width=8\n"
    keys = data.draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=6), label="keys")
    lines = [key.encode() + b"=" + data.draw(_config_value(key), label=key) for key in keys]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_bytes(base + b"\n".join(lines) + b"\n")
        try:
            load_config(path)
        except ConfigError:
            pass
        out = ["--config", str(path), "--out", str(Path(tmp) / "o")]
        code = main(["calib", *out])
        assert code in (0, 2, 3, 4)
        # a config that calib accepts quantizes without a warning (they are errors here)
        if code == 0:
            assert main(["quantize", *out]) in (0, 2, 3, 4)


@given(lam=st.one_of(st.sampled_from(_EDGES["lambda_weight"]), st.floats(1.0, 1e300).map(repr)))
@settings(max_examples=15, deadline=None)
def test_lambda_weight_beyond_bound_is_refused_before_any_work(lam):
    # 1e200 used to quantize with overflow warnings, then fail with exit 3 on
    # the float16 row scales; a weight the fit can carry quantizes cleanly
    base = b"d_model=16\nd_hidden=32\nseq_len=32\ncalib_sequences=4\ngroup_width=8\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lambda.cfg"
        path.write_bytes(base + f"lambda_weight={lam}\n".encode())
        out = ["--config", str(path), "--out", str(Path(tmp) / "o")]
        codes = [main([command, *out]) for command in ("calib", "quantize")]
    assert codes == ([0, 0] if 1.0 < float(lam) <= 1e6 else [2, 2])


def test_calib_writes_stats_per_layer(tmp_path):
    cfg = _cfg(tmp_path)
    stats_dir = cmd_calib(cfg)
    names = {p.name for p in stats_dir.iterdir()}
    layers = ["block0.up", "block0.down", "block1.up", "block1.down"]
    assert names == {f"{name}.qdt" for name in layers} | {"fingerprint.sha256"}
    moments = _calibrated(cfg)
    for name in layers:
        sm = load_second_moment(stats_dir / f"{name}.qdt")
        assert sm.gram.tobytes() == moments[name].gram.tobytes()
    assert moments["block0.up"].dim == cfg.d_model
    # one masked copy per sequence per timestep, every token column counted
    assert moments["block0.up"].count == cfg.calib_sequences * cfg.timesteps * cfg.seq_len
    # the manifest: the input fingerprint, then each layer file's sha256 in target order
    lines = (stats_dir / "fingerprint.sha256").read_text().splitlines()
    assert len(lines[0]) == 64
    for line, name in zip(lines[1:], layers, strict=True):
        digest = hashlib.sha256((stats_dir / f"{name}.qdt").read_bytes()).hexdigest()
        assert line == f"{digest}  {name}.qdt"


def test_calib_with_output_projection_included(tmp_path):
    cfg = _cfg(
        tmp_path,
        layers=("block0.up", "block0.down", "block1.up", "block1.down", "out_proj"),
    )
    stats_dir = cmd_calib(cfg)
    assert len(list(stats_dir.glob("*.qdt"))) == 5


def test_calib_without_mcs_uses_visible_sequences(tmp_path):
    cfg = _cfg(tmp_path, use_mcs=False)
    sm = _calibrated(cfg)["block0.up"]
    assert sm.count == cfg.calib_sequences * cfg.seq_len  # no timestep fan-out


@pytest.mark.parametrize(
    "use_mcs, seq_len",
    [
        (True, 32),   # 96 masked rows in 6 blocks of 16
        (False, 32),  # 12 raw rows in one partial block
        (True, 48),   # 10 rows per block: 9 full blocks and a ragged one of 6
    ],
)
def test_calib_grams_match_per_sequence_accumulation(tmp_path, use_mcs, seq_len):
    cfg = _cfg(tmp_path, use_mcs=use_mcs, seq_len=seq_len)
    cmd_calib(cfg)
    model = get_model(cfg)
    tokens = calibration_tokens(cfg, model.spec)
    if use_mcs:
        tokens = [m.ids for m in simulate(tokens, cfg.mcs_config(model.spec.mask_id))]
    reference = {name: SecondMoment(model.layers[name].shape[1]) for name in model.spec.quantizable_names()}
    for ids in tokens:
        _, inputs = forward(model, ids[None])
        for name, sm in reference.items():
            sm.accumulate(inputs[name])
    moments = _calibrated(cfg)
    for name, sm in reference.items():
        got = load_second_moment(cfg.stats_dir / f"{name}.qdt")
        assert moments[name].count == sm.count
        assert moments[name].gram.tobytes() == got.gram.tobytes()
        assert np.abs(got.gram - sm.gram).max() <= 1e-12 * np.abs(sm.gram).max(), name


def test_calibration_holds_one_block_input_at_a_time(tmp_path):
    # 512-token blocks of a 32-wide model: each layer input goes through one
    # float64 buffer into its gram as soon as it is computed. The peak is
    # block 0's down-projection, whose product sits beside h and u; the
    # walk stops after block1.down's input, before any later product.
    cfg = _cfg(tmp_path, d_model=32, d_hidden=64, seq_len=64, calib_sequences=16, use_mcs=False)
    model = get_model(cfg)
    names = target_layers(cfg, model)
    tokens = calibration_tokens(cfg, model.spec)
    tracemalloc.start()
    try:
        moments = _calibrate(cfg, model, names, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert moments["block1.down"].count == tokens.size
    grams = sum(sm.gram.nbytes for sm in moments.values())
    buffer = 8 * cfg.d_hidden * 512
    h, u = 4 * cfg.d_model * 512, 4 * cfg.d_hidden * 512
    small = 16 << 10  # the id block's index array, the views and closures
    assert peak <= grams + buffer + 2 * h + u + small


def test_forward_lookup_names_see_every_token(tmp_path, monkeypatch):
    # The benchmark's traced run counts tokens and times forwards by wrapping
    # the names the callers look up: `maskquant.pipeline.forward` in calib and
    # `maskquant.denoiser.forward` in eval. A refactor that bypasses either
    # name would make those counters read 0.
    import maskquant.denoiser
    import maskquant.pipeline

    tokens = {"calib": 0, "eval": 0}
    calls = {"calib": 0, "eval": 0}

    def counting(stage, inner):
        def wrapped(model, ids, *args, **kwargs):
            tokens[stage] += np.asarray(ids).size
            calls[stage] += 1
            return inner(model, ids, *args, **kwargs)

        return wrapped

    cfg = _cfg(tmp_path)
    moments = _calibrated(cfg)
    monkeypatch.setattr(maskquant.pipeline, "forward", counting("calib", maskquant.pipeline.forward))
    monkeypatch.setattr(maskquant.denoiser, "forward", counting("eval", maskquant.denoiser.forward))
    cmd_calib(cfg)
    cmd_quantize(cfg)
    cmd_eval(cfg)
    model = get_model(cfg)
    for name in model.spec.quantizable_names():
        assert moments[name].count == tokens["calib"]
    assert tokens["eval"] == 2 * _eval_set(cfg, model.spec).size
    # 512-token blocks of 16 rows: 96 masked calibration rows, 32 eval rows
    assert calls == {"calib": 6, "eval": 2 * 2}


@pytest.mark.parametrize("use_mcs", [True, False])
def test_grid_calibrates_once_per_statistics_fingerprint(tmp_path, monkeypatch, use_mcs):
    import maskquant.pipeline

    tokens = []
    inner = maskquant.pipeline.forward

    def counting(model, ids, *args, **kwargs):
        tokens.append(np.asarray(ids).size)
        return inner(model, ids, *args, **kwargs)

    monkeypatch.setattr(maskquant.pipeline, "forward", counting)
    cfg = _cfg(tmp_path, use_mcs=use_mcs)
    ablation_grid(cfg)
    masked = cfg.calib_sequences * cfg.timesteps * cfg.seq_len
    visible = cfg.calib_sequences * cfg.seq_len
    # with MCS on, the arms need one masked and one visible calibration; with
    # MCS off, every arm that uses statistics shares the visible one
    assert sum(tokens) == (masked + visible if use_mcs else visible)
    arms = Path(cfg.out_dir) / "arms"
    assert len(list(arms.glob("*/model.qpk"))) == len(list(arms.glob("*/report.json"))) == 8
    assert not list(arms.glob("*/stats"))


_ARMS = {
    "full": {},
    "no_mcs": {"use_mcs": False},
    "no_dor": {"use_dor": False},
    "no_abmp": {"use_abmp": False},
    "plain_uniform": {"use_dor": False, "use_abmp": False},
    "ratio_0": {"ratio": 0.0},
    "ratio_0.1": {"ratio": 0.10},
    "ratio_0.15": {"ratio": 0.15},
}


def test_grid_holds_one_calibrations_moments_at_a_time(tmp_path, monkeypatch):
    import maskquant.pipeline

    alive = []  # weakrefs to the moments of every calibration so far
    inner = maskquant.pipeline._calibrate

    def spy(*args):
        assert [ref for ref in alive if ref() is not None] == []
        moments = inner(*args)
        alive.extend(weakref.ref(sm) for sm in moments.values())
        return moments

    monkeypatch.setattr(maskquant.pipeline, "_calibrate", spy)
    ablation_grid(_cfg(tmp_path))
    assert len(alive) == 2 * 4  # the masked and the visible moments of four layers


def test_quantize_drops_each_layers_matrix_before_the_next(tmp_path, monkeypatch):
    import maskquant.pipeline

    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    returned = []  # a weakref to the matrix of every layer so far
    inner = maskquant.pipeline._quantize_layer

    def spy(*args):
        assert [ref for ref in returned if ref() is not None] == []
        record, row, matrix, keys = inner(*args)
        returned.append(weakref.ref(matrix))
        return record, row, matrix, keys

    monkeypatch.setattr(maskquant.pipeline, "_quantize_layer", spy)
    cmd_quantize(cfg)
    assert len(returned) == 4


def test_grid_arms_match_standalone_runs(tmp_path):
    # the arms share fits, inverse diagonals and the eval reference, so
    # each must still write what a run of its config alone writes; width-4
    # groups give the ratio arms order-1 and order-3 groups next to order 2
    cfg = _cfg(tmp_path, group_width=4)
    grid = ablation_grid(cfg)
    assert sorted(grid["arms"]) == sorted(_ARMS)
    reallocated = set()
    for arm, override in _ARMS.items():
        alone = _cfg(tmp_path, group_width=4, out_dir=str(tmp_path / arm), **override)
        cmd_calib(alone)
        cmd_quantize(alone)
        cmd_eval(alone)
        arm_dir = Path(cfg.out_dir) / "arms" / arm
        assert (arm_dir / "model.qpk").read_bytes() == alone.qpk_path.read_bytes(), arm
        report = (arm_dir / "report.json").read_bytes().replace(
            str(arm_dir).encode(), alone.out_dir.encode()
        )
        assert report == alone.report_path.read_bytes(), arm
        if any(row["reallocated"] for row in json.loads(report)["layers"].values()):
            reallocated.add(arm)
    assert reallocated == {"ratio_0.15"}


def test_grid_does_each_shared_piece_of_work_once(tmp_path, monkeypatch):
    import maskquant.denoiser
    import maskquant.pipeline
    from maskquant import stats

    fitted = []  # (target bytes, squared-mask bytes, DaqConfig) of every fitted group
    packed = []  # layer name of every packed group
    dequantized = []  # name of every dequantized record
    inverted = []  # gram bytes of every damped_inverse_diag call
    eval_sets = []
    eval_tokens = []

    def spy(module, name, record):
        inner = getattr(module, name)

        def wrapped(*args, **kwargs):
            record(*args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    def stack(target, lam2, daq_cfg, ws):
        for j in range(len(target)):
            mask = None if lam2 is None else lam2[j].tobytes()
            fitted.append((target[j].tobytes(), mask, daq_cfg))

    spy(daq, "_fit_stack", stack)
    spy(qformat, "pack_group", lambda group, name: packed.append(name))
    spy(qformat, "dequantize", lambda layer: dequantized.append(layer.name))
    spy(stats, "damped_inverse_diag", lambda sm, *args: inverted.append(sm.gram.tobytes()))
    spy(maskquant.pipeline, "_eval_set", lambda cfg, spec: eval_sets.append(cfg.seed))
    spy(maskquant.denoiser, "forward", lambda model, ids, *args: eval_tokens.append(ids.size))
    # the benchmark's ablate grid (acceptance criterion 10's config) at seed 7
    cfg = _cfg(
        tmp_path, seed=7, d_model=128, d_hidden=384, seq_len=64, calib_sequences=32,
        eval_sequences=8,
    )
    grid = ablation_grid(cfg)
    model = get_model(cfg)
    assert len(fitted) == len(set(fitted))
    # each distinct fit is packed once, and each arm's records are dequantized once
    assert len(packed) == len(fitted)
    assert dequantized == model.spec.quantizable_names() * len(grid["arms"])
    # masked moments for most arms, visible ones for no_mcs
    assert len(inverted) == len(set(inverted)) == 2 * len(model.spec.quantizable_names())
    assert len(eval_sets) == 1
    # one reference pass, then one pass per distinct set of arm layers: no_abmp
    # and ratio_0 allocate the same orders, so share layers, and 8 arms get 7 evals
    qpks = [path.read_bytes() for path in Path(cfg.out_dir).glob("arms/*/model.qpk")]
    assert len(set(qpks)) == 7 and len(qpks) == 8
    assert sum(eval_tokens) == (1 + 7) * _eval_set(cfg, model.spec).size


def test_quantize_hands_back_each_layer_as_dequantize_reads_it(tmp_path):
    # ragged last groups (20 = 8 + 8 + 4 and 36 = 4 * 8 + 4 columns) and,
    # at ratio 0.5, orders 1 to 3; the pipeline always stores row means
    cfg = _cfg(tmp_path, d_model=20, d_hidden=36, ratio=0.5)
    model = get_model(cfg)
    names = target_layers(cfg, model)
    matrices = {}
    digest = _weights_sha256(model).hexdigest()
    records, _ = _quantize(cfg, model, names, _calibrated_pairs(cfg).get, digest, {}, matrices)
    assert {g.order for record in records for g in record.groups} == {1, 2, 3}
    assert {g.cols for record in records for g in record.groups} == {8, 4}
    for record in records:
        assert record.row_mean is not None
        assert matrices[record.name][1].tobytes() == qformat.dequantize(record).tobytes()


def test_calib_deterministic_bytes(tmp_path):
    cfg = _cfg(tmp_path)
    first = {p.name: p.read_bytes() for p in cmd_calib(cfg).glob("*")}
    second = {p.name: p.read_bytes() for p in cmd_calib(cfg).glob("*")}
    assert first == second


def test_calibration_tokens_loaded_from_tensor(tmp_path):
    cfg = _cfg(tmp_path, calib_path=str(tmp_path / "tokens.qdt"))
    tokens = Rng(1, 1).integers(0, 10, (5, cfg.seq_len)).astype(np.uint32)
    write_tensor(tmp_path / "tokens.qdt", tokens)
    loaded = calibration_tokens(cfg, cfg.model_spec())
    assert np.array_equal(loaded, tokens)
    missing = _cfg(tmp_path, calib_path=str(tmp_path / "nope.qdt"))
    with pytest.raises(FileNotFoundError):
        calibration_tokens(missing, missing.model_spec())


def test_quantize_requires_stats_when_data_aware(tmp_path):
    cfg = _cfg(tmp_path)
    with pytest.raises(FileNotFoundError) as err:
        cmd_quantize(cfg)
    assert "block0.up" in str(err.value)


def test_quantize_report_and_budget(tmp_path):
    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    qpk_path, report = cmd_quantize(cfg)
    assert qpk_path.exists()
    layers = read_qpk(qpk_path)
    assert [l.name for l in layers] == ["block0.up", "block0.down", "block1.up", "block1.down"]
    for name, row in report["layers"].items():
        assert row["proxy_loss_final"] <= row["proxy_loss_init"]
        hist = row["allocation"]
        assert hist["1"] == hist["3"] == row["reallocated"]
        if row["avg_bits_full_groups"] is not None:
            assert row["avg_bits_full_groups"] == 2.0
        assert row["true_data_loss"] >= 0.0
        assert 0.0 <= row["outlier_fraction"] <= 1.0
    assert report["memory"]["qpk_bytes"] == qpk_path.stat().st_size
    assert report["seed"] == cfg.seed


def test_quantize_without_dor_has_uniform_weights(tmp_path):
    cfg = _cfg(tmp_path, use_dor=False)
    cmd_calib(cfg)
    _, report = cmd_quantize(cfg)
    for row in report["layers"].values():
        assert row["outlier_fraction"] is None
        assert row["allocation"]["1"] == row["allocation"]["3"]  # abmp still active


def test_quantize_without_abmp_is_uniform_two_bit(tmp_path):
    cfg = _cfg(tmp_path, use_abmp=False)
    cmd_calib(cfg)
    _, report = cmd_quantize(cfg)
    for row in report["layers"].values():
        assert row["allocation"] == {"1": 0, "2": sum(row["allocation"].values()), "3": 0}


def test_quantize_plain_arm_needs_no_stats(tmp_path):
    cfg = _cfg(tmp_path, use_dor=False, use_abmp=False)
    _, report = cmd_quantize(cfg)  # no calib run beforehand
    for row in report["layers"].values():
        assert row["true_data_loss"] is None


def test_ratio_sweep_histograms(tmp_path):
    results = {}
    for ratio in (0.0, 0.05, 0.10, 0.15):
        cfg = _cfg(tmp_path, ratio=ratio, out_dir=str(tmp_path / f"r{ratio}"))
        cmd_calib(cfg)
        _, report = cmd_quantize(cfg)
        results[ratio] = report
    # ratio 0 means no reallocation anywhere; larger ratios never reallocate less
    assert all(row["reallocated"] == 0 for row in results[0.0]["layers"].values())
    for name in results[0.0]["layers"]:
        counts = [results[r]["layers"][name]["reallocated"] for r in (0.0, 0.05, 0.10, 0.15)]
        assert counts == sorted(counts)


def test_eval_appends_divergence_and_is_deterministic(tmp_path):
    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    cmd_quantize(cfg)
    report = cmd_eval(cfg)
    ev = report["eval"]
    assert ev["eval_sequences"] == cfg.eval_sequences
    assert ev["logit_mse"] > 0.0 and ev["softmax_kl"] > 0.0
    again = cmd_eval(cfg)
    assert again["eval"] == ev
    on_disk = json.loads(cfg.report_path.read_text())
    assert on_disk["eval"] == ev


def test_eval_accepts_reports_without_model_fingerprint(tmp_path):
    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    _, report = cmd_quantize(cfg)
    assert report["model_sha256"] == json.loads(cfg.report_path.read_text())["model_sha256"]
    del report["model_sha256"]
    cfg.report_path.write_text(json.dumps(report))
    assert cmd_eval(cfg)["eval"]["softmax_kl"] > 0.0


def test_identity_injection_gives_zero_divergence(tmp_path):
    # substituting the original weights through the eval path must measure
    # exactly zero: the wiring introduces no error of its own
    from maskquant.denoiser import eval_divergence

    cfg = _cfg(tmp_path)
    model = get_model(cfg)
    overrides = {name: model.layers[name] for name in model.spec.quantizable_names()}
    metrics = eval_divergence(model, overrides, _eval_set(cfg, model.spec))
    assert metrics == {"logit_mse": 0.0, "softmax_kl": 0.0}


def test_pipeline_accepts_external_weight_directory(tmp_path):
    spec_cfg = _cfg(tmp_path)
    model = init_model(spec_cfg.model_spec())
    save_model(model, tmp_path / "weights")
    cfg = _cfg(tmp_path, model_dir=str(tmp_path / "weights"), out_dir=str(tmp_path / "ext"))
    loaded = get_model(cfg)
    assert np.array_equal(loaded.layers["block0.up"], model.layers["block0.up"])
    cmd_calib(cfg)
    qpk_path, report = cmd_quantize(cfg)
    assert qpk_path.exists()
    assert set(report["layers"]) == set(model.spec.quantizable_names())


def _drop_model_sha256(report_path):
    # a report without the fingerprint is accepted, so eval goes on to the layers
    report = json.loads(report_path.read_text())
    del report["model_sha256"]
    report_path.write_text(json.dumps(report))


def test_eval_rejects_mismatched_layers(tmp_path):
    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    cmd_quantize(cfg)
    other = dataclasses.replace(cfg, d_model=8, d_hidden=16, out_dir=str(tmp_path / "other"))
    Path(other.out_dir).mkdir()
    for name in ("model.qpk", "report.json"):  # the 16/32 run's files under the 8/16 config
        shutil.copy(Path(cfg.out_dir) / name, other.out_dir)
    _drop_model_sha256(Path(other.out_dir) / "report.json")
    with pytest.raises(ShapeError):
        cmd_eval(other)


def test_eval_checks_the_model_before_scoring(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    cmd_quantize(cfg)
    monkeypatch.setattr(
        "maskquant.pipeline._evaluate", lambda *a, **k: pytest.fail("scored another model's run")
    )
    with pytest.raises(ConfigError, match="other weights"):
        cmd_eval(dataclasses.replace(cfg, seed=5))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_report_refuses_non_finite_numbers(tmp_path, value):
    path = tmp_path / "report.json"
    _write_report(path, {"eval": {"logit_mse": 0.25, "softmax_kl": 0.5}})
    before = path.read_bytes()
    with pytest.raises(ContainerError, match="report.json"):
        _write_report(path, {"eval": {"logit_mse": 0.25, "softmax_kl": value}})
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert path.read_bytes() == before


def test_eval_refuses_qpk_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "--config", str(_cli_config(tmp_path)), "--qpk", "x"])
    assert exit_.value.code == 2
    assert "--qpk" in capsys.readouterr().err


def test_grid_reads_no_run_files_and_builds_one_model(tmp_path, monkeypatch):
    import maskquant.pipeline
    import maskquant.qformat

    calls = {"read_qpk": 0, "_read_report": 0, "get_model": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(maskquant.qformat, "read_qpk")
    counting(maskquant.pipeline, "_read_report")
    counting(maskquant.pipeline, "get_model")
    grid = ablation_grid(_cfg(tmp_path))
    assert calls == {"read_qpk": 0, "_read_report": 0, "get_model": 1}
    for arm, result in grid["arms"].items():
        report = json.loads(Path(result["report_path"]).read_text())
        assert report["eval"] == result["divergence"], arm


def test_estimate_mem_modes(tmp_path):
    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    qpk_path, _ = cmd_quantize(cfg)
    exact = cmd_estimate_mem(qpk_path=qpk_path)
    assert exact["bytes"] == qpk_path.stat().st_size
    fp16 = cmd_estimate_mem(preset="fp16-8b")
    assert fp16["gb"] == pytest.approx(16.09, rel=0.005)
    llada = cmd_estimate_mem(preset="llada8b-2bit")
    assert 3.1 <= llada["gb"] <= 4.3
    # width-6 groups leave a ragged tail, and ratio 0.5 makes ABMP promote and demote
    for use_abmp in (True, False):
        for order in (1, 3):
            sub = _cfg(tmp_path, group_width=6, ratio=0.5, use_abmp=use_abmp, order=order)
            cmd_calib(sub)
            _, report = cmd_quantize(sub)
            by_config = cmd_estimate_mem(sub)
            assert by_config["bytes"] == report["memory"]["total_bytes"], (use_abmp, order)
            allocations = [row["allocation"] for row in report["layers"].values()]
            used = {b for alloc in allocations for b, n in alloc.items() if n}
            assert used == ({"1", "2", "3"} if use_abmp else {str(order)})
    with pytest.raises(ConfigError):
        cmd_estimate_mem(cfg, preset="nope")


# --- CLI ----------------------------------------------------------------------


def _cli_config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(
        "d_model=16\nd_hidden=32\nseq_len=32\ncalib_sequences=12\n"
        "eval_sequences=4\ngroup_width=8\n"
        f"out_dir={tmp_path / 'cli'}\n"
    )
    return path


def test_cli_full_cycle(tmp_path, capsys):
    cfg_path = _cli_config(tmp_path)
    assert main(["calib", "--config", str(cfg_path)]) == 0
    assert main(["quantize", "--config", str(cfg_path)]) == 0
    assert main(["eval", "--config", str(cfg_path)]) == 0
    assert main(["report", "--report", str(tmp_path / "cli" / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "block0.up" in out and "softmax_kl" in out


def test_cli_estimate_mem_presets(capsys):
    assert main(["estimate-mem", "--preset", "fp16-8b"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gb"] == pytest.approx(16.09, rel=0.005)


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense=1\n")
    assert main(["calib", "--config", str(bad_cfg)]) == 2
    # quantize without stats -> i/o error
    cfg_path = _cli_config(tmp_path)
    assert main(["quantize", "--config", str(cfg_path)]) == 3
    # corrupted packed file -> i/o error
    assert main(["calib", "--config", str(cfg_path)]) == 0
    assert main(["quantize", "--config", str(cfg_path)]) == 0
    qpk = tmp_path / "cli" / "model.qpk"
    raw = bytearray(qpk.read_bytes())
    raw[0] = ord("Z")
    qpk.write_bytes(bytes(raw))
    assert main(["eval", "--config", str(cfg_path)]) == 3
    # shape mismatch -> distinct code
    assert main(["quantize", "--config", str(cfg_path)]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(
        "d_model=8\nd_hidden=16\nseq_len=32\ncalib_sequences=4\n"
        f"eval_sequences=2\ngroup_width=8\nout_dir={tmp_path / 'other'}\n"
    )
    (tmp_path / "other").mkdir()
    for name in ("model.qpk", "report.json"):  # the 16/32 run's files
        shutil.copy(tmp_path / "cli" / name, tmp_path / "other")
    _drop_model_sha256(tmp_path / "other" / "report.json")
    assert main(["eval", "--config", str(other)]) == 4


def _calib_on(tmp_path, tokens):
    write_tensor(tmp_path / "tokens.qdt", tokens)
    return ["calib", "--calib", str(tmp_path / "tokens.qdt"), "--out", str(tmp_path / "o")]


def _tokens_with_mask_id(tmp_path):
    return _calib_on(tmp_path, np.full((2, 32), 63, dtype=np.uint32))


def _tokens_without_rows(tmp_path):
    return _calib_on(tmp_path, np.zeros((0, 32), dtype=np.uint32))


def _qpk_with_non_utf8_name(tmp_path):
    path = tmp_path / "bad.qpk"
    path.write_bytes(MAGIC + struct.pack("<IH", 1, 2) + b"\xff\xfe")
    return ["estimate-mem", "--qpk", str(path)]


def _model_dir_run(tmp_path, edit):
    """CLI config on a saved copy of its own model, with `edit(weights_dir)`
    applied to the saved files; returns the config path."""
    cfg_path = _cli_config(tmp_path)
    weights = tmp_path / "weights"
    save_model(init_model(load_config(cfg_path).model_spec()), weights)
    edit(weights)
    with cfg_path.open("a") as f:
        f.write(f"model_dir={weights}\n")
    return cfg_path


def _weights_beyond_float16(tmp_path):
    def scale_up(weights):
        path = weights / "block0.up.qdt"
        write_tensor(path, read_tensor(path) * np.float32(1e6))

    cfg_path = _model_dir_run(tmp_path, scale_up)
    assert main(["calib", "--config", str(cfg_path)]) == 0
    return ["quantize", "--config", str(cfg_path)]


def _overflowing_then(command):
    """`command` on a saved model whose float32 forward overflows: its
    embedding and out_proj scaled by 1e20. Eval runs calib and quantize
    first, which pass."""

    def scale_up(weights):
        for name in ("embedding", "out_proj"):
            path = weights / f"{name}.qdt"
            write_tensor(path, read_tensor(path) * np.float32(1e20))

    def make_args(tmp_path):
        cfg_path = _model_dir_run(tmp_path, scale_up)
        if command == "eval":
            for step in ("calib", "quantize"):
                assert main([step, "--config", str(cfg_path)]) == 0
        return [command, "--config", str(cfg_path)]

    return make_args


def _qpk_with_infinite_scale(tmp_path):
    group = daq_fit(np.ones((4, 6), dtype=np.float32), cfg=DaqConfig(order=1))
    path = tmp_path / "inf.qpk"
    write_qpk(path, [build_layer("w", [group], 6, 6)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-2] + np.float16(np.inf).astype("<f2").tobytes())  # last alpha_c
    return ["estimate-mem", "--qpk", str(path)]


def _calibrated_then(edit, *flags):
    """Default CLI calib, then `edit(stats_dir)`; returns quantize args with `flags`."""

    def make_args(tmp_path):
        cfg_path = _cli_config(tmp_path)
        assert main(["calib", "--config", str(cfg_path)]) == 0
        edit(tmp_path / "cli" / "stats")
        return ["quantize", "--config", str(cfg_path), *flags]

    return make_args


def _edit_manifest(edit):
    """A stats edit that rewrites the manifest's lines with `edit(lines)`."""

    def apply(stats_dir):
        path = stats_dir / "fingerprint.sha256"
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))

    return apply


def _stats_from_before_digests(stats_dir):
    # the fingerprint line alone, and a token-count sidecar per layer file
    _edit_manifest(lambda lines: lines[:1])(stats_dir)
    for path in stats_dir.glob("*.qdt"):
        Path(f"{path}.count").write_text("384\n")


def _stats_gram_zero(stats_dir):
    write_tensor(stats_dir / "block0.up.qdt", np.zeros((16, 16)))


def _stats_gram_negative_identity(stats_dir):
    write_tensor(stats_dir / "block0.up.qdt", -np.eye(16))


def _stats_gram_without_rows(stats_dir):
    write_tensor(stats_dir / "block0.up.qdt", np.zeros((0, 0)))


def _manifest_without_dims(tmp_path):
    cfg_path = _model_dir_run(tmp_path, lambda w: (w / "manifest.txt").write_text("vocab=64\n"))
    return ["calib", "--config", str(cfg_path)]


def _tensor_of_wrong_shape(tmp_path):
    def reshape(weights):
        write_tensor(weights / "block0.up.qdt", np.ones((5, 7), dtype=np.float32))

    return ["calib", "--config", str(_model_dir_run(tmp_path, reshape))]


def _report_of(raw):
    def make_args(tmp_path):
        (tmp_path / "report.json").write_bytes(raw)
        return ["report", "--report", str(tmp_path / "report.json")]

    return make_args


_REPORT_WITH_NAN = json.dumps(
    {
        "layers": {
            "block0.up": {
                "rows": 32, "cols": 16, "allocation": {}, "proxy_loss_init": float("nan"),
                "proxy_loss_final": float("inf"),
            }
        },
        "eval": {"logit_mse": float("nan"), "softmax_kl": -float("inf")},
    }
).encode()


_REPORT_NESTED = b'{"layers": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"


def _eval_over_report_of(raw):
    def make_args(tmp_path):
        cfg_path = _cli_config(tmp_path)
        assert main(["calib", "--config", str(cfg_path)]) == 0
        assert main(["quantize", "--config", str(cfg_path)]) == 0
        (tmp_path / "cli" / "report.json").write_bytes(raw)
        return ["eval", "--config", str(cfg_path)]

    return make_args


def _config_with(lines, command="calib"):
    def make_args(tmp_path):
        cfg_path = _cli_config(tmp_path)
        with cfg_path.open("ab") as f:
            f.write((lines if isinstance(lines, bytes) else lines.encode()) + b"\n")
        return [command, "--config", str(cfg_path)]

    return make_args


def _quantize_after_calib(lines):
    def make_args(tmp_path):
        args = _config_with(lines)(tmp_path)
        assert main(args) == 0
        return ["quantize", *args[1:]]

    return make_args


def _eval_without_report(tmp_path):
    cfg_path = _cli_config(tmp_path)
    assert main(["calib", "--config", str(cfg_path)]) == 0
    assert main(["quantize", "--config", str(cfg_path)]) == 0
    (tmp_path / "cli" / "report.json").unlink()
    return ["eval", "--config", str(cfg_path)]


def _eval_of_another_model(tmp_path):
    cfg_path = _cli_config(tmp_path)
    assert main(["calib", "--config", str(cfg_path)]) == 0
    assert main(["quantize", "--config", str(cfg_path)]) == 0
    return ["eval", "--config", str(cfg_path), "--seed", "5"]


def _calib_rows_beyond_token_bound(tmp_path):
    # the config counts 1 x 4096 x 64 tokens; the file's 100 rows make 26,214,400
    args = _config_with("seq_len=64\ncalib_sequences=1\ntimesteps=4096")(tmp_path)
    write_tensor(tmp_path / "tokens.qdt", np.zeros((100, 64), dtype=np.uint32))
    return [*args, "--calib", str(tmp_path / "tokens.qdt")]


def _long_model_run(tmp_path, lines, *commands):
    """CLI config on a saved 16/32 model of seq_len 4096 plus `lines`; runs all
    but the last of `commands` and returns the args of the last."""
    save_model(init_model(ToyModelSpec(d_model=16, d_hidden=32, seq_len=4096)), tmp_path / "w")
    cfg_path = _cli_config(tmp_path)
    with cfg_path.open("a") as f:
        f.write(f"model_dir={tmp_path / 'w'}\n{lines}\n")
    for command in commands[:-1]:
        assert main([command, "--config", str(cfg_path)]) == 0
    return [commands[-1], "--config", str(cfg_path)]


def _model_seq_len_beyond_calib_bound(tmp_path):
    # the config counts 600 x 8 x 32 tokens; the model's seq_len makes 19,660,800
    return _long_model_run(tmp_path, "calib_sequences=600", "calib")


def _model_seq_len_beyond_eval_bound(tmp_path):
    # as above, for the eval set
    lines = "eval_sequences=600\nuse_dor=false\nuse_abmp=false"
    return _long_model_run(tmp_path, lines, "quantize", "eval")


@pytest.mark.parametrize(
    "make_args, code",
    [
        (_tokens_with_mask_id, 4),
        (_tokens_without_rows, 4),
        (_qpk_with_non_utf8_name, 3),
        (_weights_beyond_float16, 3),
        (_qpk_with_infinite_scale, 3),
        pytest.param(_overflowing_then("eval"), 3, id="eval_overflowing_forward"),
        pytest.param(_overflowing_then("ablate"), 3, id="ablate_overflowing_forward"),
        pytest.param(_calibrated_then(_stats_from_before_digests), 2, id="stats_without_digests"),
        pytest.param(
            _calibrated_then(
                _edit_manifest(lambda lines: [l for l in lines if "block1.down" not in l])
            ),
            2,
            id="manifest_lacks_layer",
        ),
        pytest.param(
            _calibrated_then(_edit_manifest(lambda lines: [*lines, "not a digest line"])),
            2,
            id="manifest_not_parsing",
        ),
        pytest.param(
            _calibrated_then(_edit_manifest(lambda lines: [*lines, lines[1]])),
            2,
            id="manifest_names_a_file_twice",
        ),
        pytest.param(_calibrated_then(_stats_gram_zero), 3, id="stats_gram_zero"),
        pytest.param(_calibrated_then(_stats_gram_negative_identity), 3, id="stats_gram_negative"),
        pytest.param(_calibrated_then(_stats_gram_without_rows), 4, id="stats_gram_without_rows"),
        pytest.param(_calibrated_then(lambda d: None, "--seed", "7"), 2, id="stats_of_seed_0"),
        pytest.param(_calibrated_then(lambda d: None, "--no-mcs"), 2, id="stats_with_mcs"),
        pytest.param(_report_of(b"[1,2]"), 3, id="report_not_an_object"),
        pytest.param(_report_of(b'{"layers": {"a": {}}}'), 3, id="report_layer_without_rows"),
        pytest.param(_report_of(b"\xff\xfe"), 3, id="report_not_utf8"),
        pytest.param(_report_of(_REPORT_WITH_NAN), 3, id="report_with_nan"),
        pytest.param(_report_of(b'{"layers": {}, "seed": 1e400}'), 3, id="report_with_1e400"),
        pytest.param(_report_of(_REPORT_NESTED), 3, id="report_nested_too_deeply"),
        pytest.param(_eval_over_report_of(_REPORT_NESTED), 3, id="eval_over_report_nested"),
        pytest.param(_eval_over_report_of(b"[]"), 3, id="eval_over_report_not_an_object"),
        pytest.param(_eval_over_report_of(b"\xff"), 3, id="eval_over_report_not_utf8"),
        pytest.param(
            _eval_over_report_of(b'{"eval": {"logit_mse": Infinity, "softmax_kl": 0.5}}'),
            3,
            id="eval_over_report_with_infinity",
        ),
        (_manifest_without_dims, 3),
        (_tensor_of_wrong_shape, 4),
        (_eval_of_another_model, 2),
        (_eval_without_report, 3),
        pytest.param(_config_with(b"seed=\xff"), 2, id="config_not_utf8"),
        # damp_rel=0 leaves the condition number unbounded, so both are refused
        # before the inverse; the singular paths are tested at the default damp_rel
        pytest.param(
            _config_with("vocab=8\ndamp_rel=0", "ablate"), 2, id="ablate_singular_moments"
        ),
        pytest.param(
            _quantize_after_calib("vocab=8\ndamp_rel=0"), 2, id="quantize_singular_moments"
        ),
        pytest.param(_config_with("layers=block0.up,block0.up"), 2, id="layer_named_twice"),
        pytest.param(_config_with("out_dir=/x\0y"), 2, id="out_dir_with_nul"),
        pytest.param(_config_with("model_dir=a\0b"), 2, id="model_dir_with_nul"),
        pytest.param(_config_with("calib_path=a\0b"), 2, id="calib_path_with_nul"),
        (_calib_rows_beyond_token_bound, 2),
        (_model_seq_len_beyond_calib_bound, 2),
        (_model_seq_len_beyond_eval_bound, 2),
        # the weight bound refuses these when the config is built, before any allocation
        pytest.param(_config_with("vocab=1000000000"), 2, id="vocab_beyond_weight_bound"),
        pytest.param(_config_with("d_model=100000000"), 2, id="d_model_beyond_weight_bound"),
        pytest.param(_config_with("d_hidden=100000000"), 2, id="d_hidden_beyond_weight_bound"),
        pytest.param(_config_with("n_blocks=10" + "0" * 29), 2, id="n_blocks_beyond_weight_bound"),
        # QPK1 stores the group width as a u64; 2^64 failed in write_qpk after the whole fit
        pytest.param(
            _config_with(f"group_width={1 << 64}", "quantize"), 2, id="group_width_beyond_u64"
        ),
        pytest.param(
            _config_with("d_model=4194304\nvocab=2\nd_hidden=1\nn_blocks=1"),
            2,
            id="d_model_beyond_gram_bound",
        ),
        pytest.param(
            _config_with(
                "positional=true\nseq_len=16777216\ncalib_sequences=1\neval_sequences=1\n"
                "timesteps=1"
            ),
            2,
            id="positional_beyond_weight_bound",
        ),
    ]
    + [
        pytest.param(_config_with(line), 2, id=line)
        for line in (
            "d_model=0",
            "d_hidden=-3",
            "seq_len=0",
            "n_blocks=0",
            "vocab=1",
            "use_rsr=false",
            "tol=nan",
            "tol=1",
            "epsilon=inf",
            "epsilon=1e308",
            "damp_rel=nan",
            "damp_rel=inf",
            "damp_rel=1e7",
            "lambda_weight=inf",
            "lambda_weight=1e200",
            "calib_sequences=100000000000",
            # Rng keeps the low 64 bits, so these would repeat seeds 2^64 - 1 and 0
            "seed=-1",
            f"seed={1 << 64}",
        )
    ],
)
def test_cli_bad_inputs_exit_with_one_line(tmp_path, capsys, make_args, code):
    assert main(make_args(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err


def test_ablate_arm_whose_report_is_refused_writes_neither_file(tmp_path, capsys):
    assert main(_overflowing_then("ablate")(tmp_path)) == 3
    assert "report holds a non-finite number" in capsys.readouterr().err
    assert not list((tmp_path / "cli").glob("arms/*/model.qpk"))


@pytest.mark.parametrize(
    "weights, message",
    [
        (np.full((32, 16), 1e300), "holds values beyond the float32 range"),  # float64
        (np.ones((32, 16), dtype=np.uint32), "holds uint32 values, not floating point"),
    ],
    ids=["float64_beyond_float32", "uint32"],
)
@pytest.mark.parametrize(
    "command", [["calib"], ["quantize", "--no-dor", "--no-abmp"], ["ablate"]], ids=" ".join
)
def test_weights_that_are_not_float32_values_are_refused_on_load(
    tmp_path, capsys, weights, message, command
):
    # a float64 1e300 loaded as inf: calib refused it only when writing the
    # statistics, and quantize and ablate failed in the fit with a traceback
    cfg_path = _model_dir_run(tmp_path, lambda w: write_tensor(w / "block0.up.qdt", weights))
    assert main([command[0], "--config", str(cfg_path), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"block0.up.qdt: block0.up {message}" in err


def test_eval_refuses_a_packed_model_its_report_does_not_describe(tmp_path, capsys):
    runs = {}
    for run in ("all", "one", "order3"):
        (tmp_path / run).mkdir()
        runs[run] = _cli_config(tmp_path / run)
    with runs["one"].open("a") as f:
        f.write("layers=block0.up\n")
    for run, flags in (("all", []), ("one", []), ("order3", ["--no-abmp", "--order", "3"])):
        for command in ("calib", "quantize"):
            assert main([command, "--config", str(runs[run]), *flags]) == 0
    qpk = {run: tmp_path / run / "cli" / "model.qpk" for run in runs}
    report = {run: tmp_path / run / "cli" / "report.json" for run in runs}
    # the four-layer file under the one-layer report, then an order-3 file of
    # the same layer names and shapes, hence another size, under the ABMP report
    for source, target in (("all", "one"), ("order3", "all")):
        before = report[target].read_bytes()
        shutil.copy(qpk[source], qpk[target])
        assert main(["eval", "--config", str(runs[target])]) == 2
        err = capsys.readouterr().err
        assert f"{qpk[target]} is not the packed model that {report[target]} describes" in err
        assert "rerun quantize" in err and err.count("\n") == 1
        assert report[target].read_bytes() == before
    assert main(["eval", "--config", str(runs["order3"])]) == 0


def test_quantize_and_ablate_hash_the_weights_once(tmp_path, monkeypatch):
    import maskquant.pipeline

    started = []  # every sha256 the pipeline starts; a fingerprint extends a copy of one

    def sha256(*args):
        started.append(args)
        return hashlib.sha256(*args)

    namespace = types.SimpleNamespace(sha256=sha256, file_digest=hashlib.file_digest)
    monkeypatch.setattr(maskquant.pipeline, "hashlib", namespace)
    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    for command in (cmd_quantize, ablation_grid):
        started.clear()
        command(cfg)
        assert len(started) == 1, command.__name__


def test_quantize_reads_each_layers_statistics_when_it_reaches_it(tmp_path, capsys, monkeypatch):
    cfg_path = _cli_config(tmp_path)
    assert main(["calib", "--config", str(cfg_path)]) == 0
    assert main(["quantize", "--config", str(cfg_path)]) == 0
    run = tmp_path / "cli"
    before = {name: (run / name).read_bytes() for name in ("model.qpk", "report.json")}
    last = run / "stats" / "block1.down.qdt"  # the last target layer's
    last.write_bytes(last.read_bytes()[:-8])
    fitted = []
    fit_groups = daq._fit_groups
    monkeypatch.setattr(daq, "_fit_groups", lambda *args: fitted.append(1) or fit_groups(*args))
    capsys.readouterr()
    assert main(["quantize", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "block1.down.qdt" in err and "Traceback" not in err
    assert fitted  # the layers before it were quantized first
    assert {name: (run / name).read_bytes() for name in before} == before


def test_quantize_refuses_missing_statistics_before_any_fit(tmp_path, capsys, monkeypatch):
    cfg_path = _cli_config(tmp_path)
    assert main(["calib", "--config", str(cfg_path)]) == 0
    (tmp_path / "cli" / "stats" / "block1.down.qdt").unlink()
    fitted = []
    monkeypatch.setattr(daq, "_fit_groups", lambda *args: fitted.append(1))
    capsys.readouterr()
    assert main(["quantize", "--config", str(cfg_path)]) == 3
    assert "block1.down" in capsys.readouterr().err
    assert not fitted


def test_quantize_refuses_statistics_changed_after_calib(tmp_path, capsys):
    # the lowest mantissa bit of entry (1, 5) of block0.up's 16x16 gram: still
    # a valid second moment, which quantize used to fit against
    cfg_path = _cli_config(tmp_path)
    for command in ("calib", "quantize", "eval"):
        assert main([command, "--config", str(cfg_path)]) == 0
    run = tmp_path / "cli"
    before = {name: (run / name).read_bytes() for name in ("model.qpk", "report.json")}
    path = run / "stats" / "block0.up.qdt"
    gram = load_second_moment(path).gram
    raw = bytearray(path.read_bytes())
    raw[9 + 2 * 8 + (1 * 16 + 5) * 8] ^= 1  # QDT1 header, then little-endian float64s
    path.write_bytes(bytes(raw))
    assert np.count_nonzero(load_second_moment(path).gram != gram) == 1
    capsys.readouterr()
    assert main(["quantize", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "stats/block0.up.qdt" in err and "sha256" in err and "Traceback" not in err
    assert {name: (run / name).read_bytes() for name in before} == before


def _stats_gram_zero_recorded(stats_dir):
    # the manifest records the zero gram's sha256, so only the inverse refuses it
    _stats_gram_zero(stats_dir)
    digest = hashlib.sha256((stats_dir / "block0.up.qdt").read_bytes()).hexdigest()
    ours = f"{digest}  block0.up.qdt"
    _edit_manifest(lambda lines: [ours if l[66:] == ours[66:] else l for l in lines])(stats_dir)


def _ablate_on_zero_up_weights(tmp_path):
    # block0.up's ReLU outputs are all 0, so block0.down's gram is 0 and its damping too
    def zero_up(weights):
        path = weights / "block0.up.qdt"
        write_tensor(path, np.zeros_like(read_tensor(path)))

    return ["ablate", "--config", str(_model_dir_run(tmp_path, zero_up))]


@pytest.mark.parametrize(
    "make_args, code, named",
    [
        pytest.param(
            _calibrated_then(_stats_gram_zero_recorded),
            3,
            ("stats/block0.up.qdt", "layer 'block0.up'"),
            id="quantize",
        ),
        pytest.param(_ablate_on_zero_up_weights, 2, ("arm '", "layer 'block0.down'"), id="ablate"),
    ],
)
def test_singular_moment_at_default_damping_is_refused(tmp_path, capsys, make_args, code, named):
    assert main(make_args(tmp_path)) == code
    err = capsys.readouterr().err
    assert "singular even with damp=0 (damp_rel=0.01)" in err and "Traceback" not in err
    assert all(part in err for part in named), err


@pytest.mark.parametrize(
    "damp, refused",
    [
        # n/damp_rel + 1 bounds the condition number of an n-wide damped gram;
        # at 3.3e-9 that is 4.8e9 for the 16-wide grams and 9.7e9 for the 32-wide ones
        ("3.3e-9", None),
        ("3.1e-9", ("block0.down", 32)),  # 5.2e9 and 1.03e10
        ("1e-9", ("block0.up", 16)),
        ("0", ("block0.up", 16)),
    ],
)
def test_damp_rel_whose_condition_bound_exceeds_1e10_is_refused(
    tmp_path, capsys, monkeypatch, damp, refused
):
    from maskquant import stats

    factored = []
    inverse_diag = stats.damped_inverse_diag
    monkeypatch.setattr(
        stats, "damped_inverse_diag", lambda sm, *a: factored.append(sm.dim) or inverse_diag(sm, *a)
    )
    cfg_path = _cli_config(tmp_path)
    with cfg_path.open("a") as f:
        f.write(f"damp_rel={damp}\n")
    assert main(["calib", "--config", str(cfg_path)]) == 0
    for command in ("quantize", "ablate"):
        capsys.readouterr()
        code = main([command, "--config", str(cfg_path)])
        err = capsys.readouterr().err
        if refused is None:
            assert code == 0, err
            continue
        layer, width = refused
        assert code == 2 and "Traceback" not in err
        for part in (f"layer '{layer}'", f"{width}-wide", f"damp_rel={float(damp):g}", "1e+10"):
            assert part in err, (part, err)
        assert width not in factored  # refused before its gram is factored


def test_group_width_at_the_u64_bound_quantizes(tmp_path):
    width = (1 << 64) - 1  # one ragged group per layer
    flags = ["--config", str(_cli_config(tmp_path)), "--group-width", str(width)]
    assert [main([command, *flags]) for command in ("calib", "quantize")] == [0, 0]
    assert {layer.group_width for layer in read_qpk(tmp_path / "cli" / "model.qpk")} == {width}


@pytest.mark.parametrize("damp", _EDGES["damp_rel"])
def test_damp_rel_beyond_bound_is_refused_before_any_work(tmp_path, damp):
    # 1e300 overflowed the importance, and quantize and ablate failed with a
    # traceback from abmp.allocate; 1e6 runs every stage without a warning
    cfg_path = _cli_config(tmp_path)
    with cfg_path.open("a") as f:
        f.write(f"damp_rel={damp}\n")
    commands = ("calib", "quantize", "ablate")
    codes = [main([command, "--config", str(cfg_path)]) for command in commands]
    assert codes == ([0, 0, 0] if float(damp) <= 1e6 else [2, 2, 2])


def test_fit_groups_starts_no_thread_on_wide_groups():
    # three 1024x128 groups, as a wide layer passes them: each is a stack of its own
    blocks = [np.asarray(Rng(21, g).gaussian((1024, 128))) for g in range(3)]
    before = threading.enumerate()
    fits = daq._fit_groups(blocks, None, DaqConfig(order=1, sweeps=1))
    assert len(fits) == 3
    assert threading.enumerate() == before


def test_cli_flag_overrides(tmp_path):
    cfg_path = _cli_config(tmp_path)
    out2 = tmp_path / "cli2"
    assert main(["calib", "--config", str(cfg_path), "--out", str(out2), "--no-mcs"]) == 0
    sm = load_second_moment(out2 / "stats" / "block0.up.qdt")
    visible = _calibrated(load_config(cfg_path, {"use_mcs": False}))["block0.up"]
    assert sm.gram.tobytes() == visible.gram.tobytes()
    assert visible.count == 12 * 32  # no timestep fan-out when --no-mcs
    flags = ["--out", str(out2), "--no-mcs", "--no-rsr"]
    assert main(["quantize", "--config", str(cfg_path), *flags]) == 0
    config = json.loads((out2 / "report.json").read_text())["config"]
    assert config["sweeps"] == 0 and "use_rsr" not in config


def test_cli_ablate(tmp_path, capsys):
    cfg_path = _cli_config(tmp_path)
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    grid = json.loads((tmp_path / "cli" / "ablation.json").read_text())
    assert len(grid["arms"]) == 8
    assert [line.split(":")[0].strip() for line in lines[:-1]] == sorted(grid["arms"])
    assert lines[-1] == f"direction_ok={grid['direction_ok']}"


def test_quantize_fits_same_kind_groups_in_capped_stacks(tmp_path, monkeypatch):
    # the README toy shapes: per block, 16 groups of 384x8 and 48 of 128x8
    cfg = PipelineConfig(
        d_model=128, d_hidden=384, seq_len=64, calib_sequences=4, group_width=8,
        out_dir=str(tmp_path),
    )
    model = get_model(cfg)
    names = target_layers(cfg, model)
    pairs = _calibrated_pairs(cfg)
    stacks = []
    fit_stack = daq._fit_stack

    def spy(target, lam2, daq_cfg, ws):
        stacks.append(target.shape)
        return fit_stack(target, lam2, daq_cfg, ws)

    monkeypatch.setattr(daq, "_fit_stack", spy)
    digest = _weights_sha256(model).hexdigest()
    records, report = _quantize(cfg, model, names, pairs.get, digest)
    assert max(size for size, _, _ in stacks) > 1
    assert all(size * rows * cols <= daq._MAX_STACK_WEIGHTS for size, rows, cols in stacks)
    assert sum(size for size, _, _ in stacks) == sum(len(r.groups) for r in records)
    # one group at a time gives the same packed bytes and report
    monkeypatch.setattr(daq, "_MAX_STACK_WEIGHTS", 1)
    stacks.clear()
    alone_records, alone_report = _quantize(cfg, model, names, pairs.get, digest)
    assert {size for size, _, _ in stacks} == {1}
    write_qpk(tmp_path / "stacked.qpk", records)
    write_qpk(tmp_path / "alone.qpk", alone_records)
    assert (tmp_path / "stacked.qpk").read_bytes() == (tmp_path / "alone.qpk").read_bytes()
    assert report == alone_report


def test_config_refuses_grams_beyond_bound():
    # 25,165,824 weights pass the weight bound, but block0.up's gram would
    # hold 2^44 entries; the config is refused before anything is allocated
    with pytest.raises(ConfigError, match="second-moment entries"):
        PipelineConfig(d_model=2**22, vocab=2, d_hidden=1, n_blocks=1)
    with pytest.raises(ConfigError, match="second-moment entries"):
        PipelineConfig(d_model=2**22, vocab=2, d_hidden=1, n_blocks=1, layers=("block0.up",))
    # block0.down alone reads d_hidden = 1 input
    PipelineConfig(d_model=2**22, vocab=2, d_hidden=1, n_blocks=1, layers=("block0.down",))


def test_calib_refuses_saved_model_beyond_gram_bound(tmp_path, monkeypatch, capsys):
    # a saved 16/32 model holds 2 * (16^2 + 32^2) = 2560 gram entries; the
    # config's own dims (1/1) hold 4, so only the model's are refused
    save_model(init_model(ToyModelSpec(d_model=16, d_hidden=32, seq_len=8)), tmp_path / "w")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"model_dir={tmp_path / 'w'}\nd_model=1\nd_hidden=1\nseq_len=8\n")
    monkeypatch.setattr("maskquant.pipeline._MAX_GRAM_ENTRIES", 100)
    allocated = []
    monkeypatch.setattr("maskquant.stats.SecondMoment.__init__", lambda *a: allocated.append(a))
    assert main(["calib", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "2560 second-moment entries" in capsys.readouterr().err
    assert allocated == []


# --- the whole run directory through the CLI -----------------------------------


def _run_args(run: Path) -> list[str]:
    """Flags for the 16/32 CLI config on the model saved in `run/model`, with
    `run` as the output directory; the config file sits next to `run`."""
    cfg_path = run.parent / "run.cfg"
    cfg_path.write_text(
        "d_model=16\nd_hidden=32\nseq_len=32\ncalib_sequences=12\neval_sequences=4\n"
        f"group_width=8\nmodel_dir={run / 'model'}\n"
    )
    return ["--config", str(cfg_path), "--out", str(run)]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A run directory after calib, quantize and eval: the saved model, the
    statistics and their manifest, model.qpk and report.json."""
    run = tmp_path_factory.mktemp("fuzz") / "run"
    save_model(init_model(ToyModelSpec(d_model=16, d_hidden=32, seq_len=32)), run / "model")
    for command in ("calib", "quantize", "eval"):
        assert main([command, *_run_args(run)]) == 0
    return run


def _files(run: Path) -> dict:
    return {str(p.relative_to(run)): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}


_RUN_COMMANDS = {
    "quantize": lambda run: ["quantize", *_run_args(run)],
    "eval": lambda run: ["eval", *_run_args(run)],
    "report": lambda run: ["report", "--report", str(run / "report.json")],
    "estimate-mem": lambda run: ["estimate-mem", "--qpk", str(run / "model.qpk")],
}
# the commands that read a run file, by the start of its path
_READERS = {
    "model/": ["eval", "quantize"],
    "stats/": ["quantize"],
    "model.qpk": ["estimate-mem", "eval"],
    "report.json": ["eval", "report"],
}


def _mutate(raw: bytes, data) -> bytes:
    """`raw` with one bit flipped, truncated, with bytes appended or one byte set."""
    kind = data.draw(st.sampled_from(["flip", "truncate", "append", "set"]), label="mutation")
    if kind == "append":
        return raw + data.draw(st.binary(min_size=1, max_size=16), label="appended")
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if kind == "flip":
        value = raw[at] ^ (1 << data.draw(st.integers(0, 7), label="bit"))
    else:
        value = data.draw(st.integers(0, 255), label="value")
    return raw[:at] + bytes([value]) + raw[at + 1 :]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_run_directory_fuzz_exits_typed(small_run, data):
    # a copy of the run with one file mutated, then a command that reads it, in process
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(small_run, run)
        files = _files(run)
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        mutated = _mutate(files[name], data)
        (run / name).write_bytes(mutated)
        files[name] = mutated
        readers = next(cmds for start, cmds in _READERS.items() if name.startswith(start))
        command = data.draw(st.sampled_from(readers), label="command")
        code = main(_RUN_COMMANDS[command](run))
        assert code in (0, 2, 3, 4)
        if code != 0:  # a failed command leaves every file as it was, and no other file
            assert _files(run) == files
        if name.startswith("stats/") and mutated != (small_run / name).read_bytes():
            assert code != 0  # quantize uses only statistics bytes that calib wrote
