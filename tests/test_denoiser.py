"""Toy denoiser: structure, determinism, capture exactness, divergence."""

import numpy as np
import pytest

from maskquant.container import ContainerError, write_tensor
from maskquant.daq import DaqConfig, daq_fit
from maskquant.denoiser import (
    ToyModelSpec,
    eval_divergence,
    forward,
    init_model,
    load_model,
    save_model,
)
from maskquant.errors import ShapeError
from maskquant.mcs import McsConfig, simulate
from maskquant.rng import Rng


def _model(**kwargs):
    return init_model(ToyModelSpec(**kwargs))


def _sequences(model, count, seed=0):
    tokens = Rng(seed, 77).integers(
        0, model.spec.mask_id, (count, model.spec.seq_len)
    ).astype(np.uint32)
    return simulate(tokens, McsConfig(timesteps=2, mask_id=model.spec.mask_id, seed=seed))


def test_default_structure():
    model = _model()
    assert model.quantizable_names() == [
        "block0.up",
        "block0.down",
        "block1.up",
        "block1.down",
    ]
    assert "out_proj" in model.layers
    assert model.layers["block0.up"].shape == (64, 32)
    assert model.layers["block0.down"].shape == (32, 64)
    assert model.layers["out_proj"].shape == (64, 32)


def test_same_seed_same_weights():
    a, b = _model(seed=4), _model(seed=4)
    for name in a.layers:
        assert np.array_equal(a.layers[name], b.layers[name])
    assert np.array_equal(a.embedding, b.embedding)


def test_degenerate_width_constructs():
    model = _model(d_model=1)
    assert model.layers["block0.up"].shape == (64, 1)
    logits, _ = forward(model, np.zeros(8, dtype=np.uint32))
    assert np.isfinite(logits).all()


def test_all_masked_logits_position_invariant():
    model = _model()
    ids = np.full(16, model.spec.mask_id, dtype=np.uint32)
    logits, _ = forward(model, ids)
    assert np.array_equal(logits, np.tile(logits[:, :1], (1, 16)))


def test_positional_variant_breaks_symmetry():
    model = _model(positional=True)
    ids = np.full(16, model.spec.mask_id, dtype=np.uint32)
    logits, _ = forward(model, ids)
    assert not np.array_equal(logits[:, 0], logits[:, 1])


def test_capture_shapes_and_exactness():
    model = _model()
    ids = Rng(1, 0).integers(0, 63, 32).astype(np.uint32)
    logits, by_name = forward(model, ids, capture=True)
    assert set(by_name) == set(model.layers)
    assert by_name["block0.up"].shape == (32, 32)  # (d_model, L)
    assert by_name["block0.down"].shape == (64, 32)  # (d_hidden, L)
    # the captures are the true operands: replaying each matmul on its
    # captured input reproduces the forward pass bitwise
    replayed_hidden = np.maximum(model.layers["block0.up"] @ by_name["block0.up"], 0.0)
    assert np.array_equal(replayed_hidden, by_name["block0.down"])
    assert np.array_equal(model.layers["out_proj"] @ by_name["out_proj"], logits)


def test_identity_override_bitwise_equal():
    model = _model()
    ids = Rng(2, 0).integers(0, 63, 24).astype(np.uint32)
    base, _ = forward(model, ids)
    same, _ = forward(model, ids, overrides={n: model.layers[n] for n in model.quantizable_names()})
    assert np.array_equal(base, same)


def test_forward_validations():
    model = _model()
    with pytest.raises(ValueError):
        forward(model, np.array([64], dtype=np.uint32))  # id == vocab
    with pytest.raises(ShapeError):
        forward(model, np.zeros(65, dtype=np.uint32))  # longer than seq_len
    with pytest.raises(ShapeError):
        forward(model, np.zeros(4, dtype=np.uint32), overrides={"nope": np.zeros((1, 1))})
    with pytest.raises(ShapeError):
        forward(
            model,
            np.zeros(4, dtype=np.uint32),
            overrides={"block0.up": np.zeros((2, 2), dtype=np.float32)},
        )


def test_divergence_identity_is_zero():
    model = _model()
    seqs = _sequences(model, 4)
    report = eval_divergence(model, {n: model.layers[n] for n in model.quantizable_names()}, seqs)
    assert report["logit_mse"] == 0.0
    assert report["softmax_kl"] == 0.0


def test_divergence_destroyed_model_positive():
    model = _model()
    seqs = _sequences(model, 4)
    zeros = {n: np.zeros_like(model.layers[n]) for n in model.quantizable_names()}
    report = eval_divergence(model, zeros, seqs)
    assert report["logit_mse"] > 0
    assert report["softmax_kl"] > 0


def test_divergence_deterministic_and_order_recorded():
    model = _model()
    seqs = _sequences(model, 8)
    results = {}
    for order in (1, 2):
        quantized = {
            n: np.asarray(
                daq_fit(model.layers[n], cfg=DaqConfig(order=order)).reconstruct(),
                dtype=np.float32,
            )
            for n in model.quantizable_names()
        }
        results[order] = eval_divergence(model, quantized, seqs)
        again = eval_divergence(model, quantized, seqs)
        assert again == results[order]
    # higher order is expected to diverge less; recorded, not guaranteed
    print(
        f"divergence order1={results[1]['softmax_kl']:.6g} "
        f"order2={results[2]['softmax_kl']:.6g} "
        f"ordered={results[2]['softmax_kl'] <= results[1]['softmax_kl']}"
    )
    assert all(np.isfinite(list(r.values())).all() for r in results.values())


def test_save_load_roundtrip(tmp_path):
    model = _model(seed=9, positional=True)
    save_model(model, tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert back.spec == model.spec
    assert np.array_equal(back.embedding, model.embedding)
    assert np.array_equal(back.positional, model.positional)
    for name in model.layers:
        assert np.array_equal(back.layers[name], model.layers[name])
    ids = Rng(3, 0).integers(0, 63, 16).astype(np.uint32)
    assert np.array_equal(forward(model, ids)[0], forward(back, ids)[0])


def _edit_manifest(root, old, new):
    manifest = root / "manifest.txt"
    text = manifest.read_text()
    assert old in text
    manifest.write_text(text.replace(old, new))


@pytest.mark.parametrize(
    "old, new",
    [
        ("d_model=32\n", ""),                       # missing key
        ("d_model=32", "d_model=wide"),             # malformed value
        ("d_model=32", "d_model=0"),                # invalid spec
        ("positional=false", "positional=maybe"),
        ("embedding\tembedding.qdt\n", ""),         # missing entry
        ("seed=0\n", "seed=0\nextra\tembedding.qdt\n"),
        ("seed=0\n", "seed=0\nno separator\n"),
    ],
)
def test_load_rejects_malformed_manifest(tmp_path, old, new):
    save_model(_model(), tmp_path / "m")
    _edit_manifest(tmp_path / "m", old, new)
    with pytest.raises(ContainerError):
        load_model(tmp_path / "m")


def test_load_rejects_tensor_of_wrong_shape(tmp_path):
    save_model(_model(), tmp_path / "m")
    write_tensor(tmp_path / "m" / "out_proj.qdt", np.zeros((64, 31), dtype=np.float32))
    with pytest.raises(ShapeError, match="out_proj"):
        load_model(tmp_path / "m")
