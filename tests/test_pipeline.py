"""End-to-end pipeline behavior, configuration, and CLI surface."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from maskquant.cli import main
from maskquant.container import read_tensor, write_tensor
from maskquant.daq import DaqConfig, daq_fit
from maskquant.denoiser import init_model, save_model
from maskquant.errors import ConfigError
from maskquant.pipeline import (
    PipelineConfig,
    calibration_tokens,
    cmd_calib,
    cmd_estimate_mem,
    cmd_eval,
    cmd_quantize,
    load_config,
    parse_config_file,
)
from maskquant.qformat import MAGIC, build_layer, read_qpk, write_qpk
from maskquant.rng import Rng
from maskquant.stats import load_second_moment


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


def test_calib_writes_stats_per_layer(tmp_path):
    cfg = _cfg(tmp_path)
    stats_dir = cmd_calib(cfg)
    names = {p.name for p in stats_dir.glob("*.qdt")}
    assert names == {"block0.up.qdt", "block0.down.qdt", "block1.up.qdt", "block1.down.qdt"}
    sm = load_second_moment(stats_dir / "block0.up.qdt")
    assert sm.dim == cfg.d_model
    # one masked copy per sequence per timestep, every token column counted
    assert sm.count == cfg.calib_sequences * cfg.timesteps * cfg.seq_len


def test_calib_with_output_projection_included(tmp_path):
    cfg = _cfg(
        tmp_path,
        layers=("block0.up", "block0.down", "block1.up", "block1.down", "out_proj"),
    )
    stats_dir = cmd_calib(cfg)
    assert len(list(stats_dir.glob("*.qdt"))) == 5


def test_calib_without_mcs_uses_visible_sequences(tmp_path):
    cfg = _cfg(tmp_path, use_mcs=False)
    stats_dir = cmd_calib(cfg)
    sm = load_second_moment(stats_dir / "block0.up.qdt")
    assert sm.count == cfg.calib_sequences * cfg.seq_len  # no timestep fan-out


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


def test_identity_injection_gives_zero_divergence(tmp_path):
    # substituting the original weights through the eval path must measure
    # exactly zero: the wiring introduces no error of its own
    from maskquant.denoiser import eval_divergence
    from maskquant.pipeline import _eval_set, get_model

    cfg = _cfg(tmp_path)
    model = get_model(cfg)
    overrides = {name: model.layers[name] for name in model.quantizable_names()}
    metrics = eval_divergence(model, overrides, _eval_set(cfg, model.spec))
    assert metrics == {"logit_mse": 0.0, "softmax_kl": 0.0}


def test_pipeline_accepts_external_weight_directory(tmp_path):
    from maskquant.pipeline import get_model

    spec_cfg = _cfg(tmp_path)
    model = init_model(spec_cfg.model_spec())
    save_model(model, tmp_path / "weights")
    cfg = _cfg(tmp_path, model_dir=str(tmp_path / "weights"), out_dir=str(tmp_path / "ext"))
    loaded = get_model(cfg)
    assert np.array_equal(loaded.layers["block0.up"], model.layers["block0.up"])
    cmd_calib(cfg)
    qpk_path, report = cmd_quantize(cfg)
    assert qpk_path.exists()
    assert set(report["layers"]) == set(model.quantizable_names())


def test_eval_rejects_mismatched_layers(tmp_path):
    cfg = _cfg(tmp_path)
    cmd_calib(cfg)
    cmd_quantize(cfg)
    other = dataclasses.replace(cfg, d_model=8, d_hidden=16)
    from maskquant.errors import ShapeError

    with pytest.raises(ShapeError):
        cmd_eval(other, qpk_path=cfg.qpk_path)


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
    by_config = cmd_estimate_mem(cfg)
    assert by_config["bytes"] > 0
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
    assert main(["eval", "--config", str(other), "--qpk", str(qpk)]) == 4


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


def _qpk_with_infinite_scale(tmp_path):
    group = daq_fit(np.ones((4, 6), dtype=np.float32), cfg=DaqConfig(order=1, row_center=False))
    path = tmp_path / "inf.qpk"
    write_qpk(path, [build_layer("w", [group], 6, 6)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-2] + np.float16(np.inf).astype("<f2").tobytes())  # last alpha_c
    return ["estimate-mem", "--qpk", str(path)]


def _stats_count_not_a_number(tmp_path):
    cfg_path = _cli_config(tmp_path)
    assert main(["calib", "--config", str(cfg_path)]) == 0
    (tmp_path / "cli" / "stats" / "block0.up.qdt.count").write_text("abc\n")
    return ["quantize", "--config", str(cfg_path)]


def _calibrated_then(edit, *flags):
    """Default CLI calib, then `edit(stats_dir)`; returns quantize args with `flags`."""

    def make_args(tmp_path):
        cfg_path = _cli_config(tmp_path)
        assert main(["calib", "--config", str(cfg_path)]) == 0
        edit(tmp_path / "cli" / "stats")
        return ["quantize", "--config", str(cfg_path), *flags]

    return make_args


def _stats_count_zero(stats_dir):
    (stats_dir / "block0.up.qdt.count").write_text("0\n")


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


def _config_with(line):
    def make_args(tmp_path):
        cfg_path = _cli_config(tmp_path)
        with cfg_path.open("a") as f:
            f.write(line + "\n")
        return ["calib", "--config", str(cfg_path)]

    return make_args


@pytest.mark.parametrize(
    "make_args, code",
    [
        (_tokens_with_mask_id, 4),
        (_tokens_without_rows, 4),
        (_qpk_with_non_utf8_name, 3),
        (_weights_beyond_float16, 3),
        (_qpk_with_infinite_scale, 3),
        (_stats_count_not_a_number, 3),
        pytest.param(_calibrated_then(_stats_count_zero), 3, id="stats_count_zero"),
        pytest.param(_calibrated_then(_stats_gram_zero), 3, id="stats_gram_zero"),
        pytest.param(_calibrated_then(_stats_gram_negative_identity), 3, id="stats_gram_negative"),
        pytest.param(_calibrated_then(_stats_gram_without_rows), 4, id="stats_gram_without_rows"),
        pytest.param(_calibrated_then(lambda d: None, "--seed", "7"), 2, id="stats_of_seed_0"),
        pytest.param(_calibrated_then(lambda d: None, "--no-mcs"), 2, id="stats_with_mcs"),
        (_manifest_without_dims, 3),
        (_tensor_of_wrong_shape, 4),
    ]
    + [
        pytest.param(_config_with(line), 2, id=line)
        for line in ("d_model=0", "d_hidden=-3", "seq_len=0", "n_blocks=0", "vocab=1")
    ],
)
def test_cli_bad_inputs_exit_with_one_line(tmp_path, capsys, make_args, code):
    assert main(make_args(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err


def test_cli_flag_overrides(tmp_path):
    cfg_path = _cli_config(tmp_path)
    out2 = tmp_path / "cli2"
    assert main(["calib", "--config", str(cfg_path), "--out", str(out2), "--no-mcs"]) == 0
    sm = load_second_moment(out2 / "stats" / "block0.up.qdt")
    assert sm.count == 12 * 32  # no timestep fan-out when --no-mcs


def test_cli_ablate(tmp_path, capsys):
    cfg_path = _cli_config(tmp_path)
    assert main(["ablate", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    grid = json.loads((tmp_path / "cli" / "ablation.json").read_text())
    assert len(grid["arms"]) == 8
    assert [line.split(":")[0].strip() for line in lines[:-1]] == sorted(grid["arms"])
    assert lines[-1] == f"direction_ok={grid['direction_ok']}"
