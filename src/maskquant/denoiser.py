"""Desk-scale masked denoiser used as the quantization target.

A per-token MLP: token embedding, two residual blocks of
(up-projection, relu, down-projection), then a vocabulary projection.
There is no attention and, by default, no positional term, so logits are a
pure per-token function of the ids and every forward pass is deterministic.
The block projections are the quantizable layers; embedding and the output
projection stay in full precision.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .container import read_tensor, write_tensor
from .errors import ShapeError
from .mcs import MaskedSequence
from .rng import Rng

MODEL_STREAM_BASE = 1 << 32


@dataclass(frozen=True)
class ToyModelSpec:
    vocab: int = 64
    d_model: int = 32
    d_hidden: int = 64
    n_blocks: int = 2
    seq_len: int = 64
    seed: int = 0
    positional: bool = False  # off by default; per-token model stays position-free

    def __post_init__(self):
        for name in ("vocab", "d_model", "d_hidden", "n_blocks", "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def mask_id(self) -> int:
        return self.vocab - 1


class ToyModel:
    """Weights are immutable after construction; forwards may run in parallel."""

    def __init__(
        self,
        spec: ToyModelSpec,
        embedding: np.ndarray,
        layers: dict[str, np.ndarray],
        positional: np.ndarray | None = None,
    ):
        self.spec = spec
        self.embedding = embedding          # (vocab, d_model) float32
        self.layers = layers                # name -> (out, in) float32
        self.positional = positional        # (seq_len, d_model) float32 or None

    def quantizable_names(self) -> list[str]:
        """Default quantization targets: the block projections."""
        return [f"block{b}.{p}" for b in range(self.spec.n_blocks) for p in ("up", "down")]


def init_model(spec: ToyModelSpec) -> ToyModel:
    """Gaussian weights scaled by 1/sqrt(fan_in), one stream per tensor."""
    emb_rng = Rng(spec.seed, MODEL_STREAM_BASE)
    embedding = (
        emb_rng.gaussian((spec.vocab, spec.d_model)) / np.sqrt(spec.d_model)
    ).astype(np.float32)
    layers: dict[str, np.ndarray] = {}
    stream = MODEL_STREAM_BASE + 1
    for b in range(spec.n_blocks):
        for name, shape in (
            (f"block{b}.up", (spec.d_hidden, spec.d_model)),
            (f"block{b}.down", (spec.d_model, spec.d_hidden)),
        ):
            rng = Rng(spec.seed, stream)
            stream += 1
            layers[name] = (rng.gaussian(shape) / np.sqrt(shape[1])).astype(np.float32)
    rng = Rng(spec.seed, stream)
    layers["out_proj"] = (
        rng.gaussian((spec.vocab, spec.d_model)) / np.sqrt(spec.d_model)
    ).astype(np.float32)
    positional = None
    if spec.positional:
        rng = Rng(spec.seed, MODEL_STREAM_BASE + 100)
        positional = (
            rng.gaussian((spec.seq_len, spec.d_model)) / np.sqrt(spec.d_model)
        ).astype(np.float32)
    return ToyModel(spec, embedding, layers, positional)


def forward(
    model: ToyModel,
    seq: MaskedSequence | np.ndarray,
    capture: bool = False,
    overrides: Mapping[str, np.ndarray] | None = None,
):
    """Run the denoiser on one sequence.

    Returns (logits, inputs): logits is (vocab, L); when capture is set,
    inputs maps each linear layer's name to the exact (features, L) matrix
    it was multiplied with, else it is None.
    `overrides` substitutes weight matrices by layer name, used to evaluate
    quantized variants without touching the model.
    """
    ids = seq.ids if isinstance(seq, MaskedSequence) else np.asarray(seq)
    if ids.ndim != 1 or ids.size == 0:
        raise ShapeError("sequence must be a nonempty 1-D id array")
    if ids.size > model.spec.seq_len:
        raise ShapeError(f"sequence length {ids.size} exceeds {model.spec.seq_len}")
    if int(ids.max()) >= model.spec.vocab:
        raise ValueError(f"token id {int(ids.max())} outside vocabulary")
    overrides = overrides or {}
    for name, w in overrides.items():
        if name not in model.layers:
            raise ShapeError(f"unknown layer {name!r}")
        if w.shape != model.layers[name].shape:
            raise ShapeError(
                f"override for {name} has shape {w.shape}, expected {model.layers[name].shape}"
            )

    def weight(name: str) -> np.ndarray:
        return overrides.get(name, model.layers[name])

    inputs: dict[str, np.ndarray] | None = {} if capture else None
    h = model.embedding[ids].T.copy()  # (d_model, L)
    if model.positional is not None:
        h = h + model.positional[: ids.size].T
    for b in range(model.spec.n_blocks):
        up, down = f"block{b}.up", f"block{b}.down"
        if inputs is not None:
            inputs[up] = h
        u = np.maximum(weight(up) @ h, 0.0)
        if inputs is not None:
            inputs[down] = u
        h = h + weight(down) @ u
    if inputs is not None:
        inputs["out_proj"] = h
    logits = weight("out_proj") @ h
    return logits, inputs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=0, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=0, keepdims=True))


def eval_divergence(
    model: ToyModel,
    quantized_layers: Mapping[str, np.ndarray],
    eval_set: list[MaskedSequence],
) -> dict[str, float]:
    """Mean squared logit error and mean per-position softmax KL between the
    full-precision model and the model with `quantized_layers` substituted.

    Both metrics are exactly zero when the substituted weights are the
    originals.
    """
    if not eval_set:
        raise ValueError("empty eval set")
    sq_sum = 0.0
    sq_count = 0
    kl_sum = 0.0
    kl_count = 0
    for seq in eval_set:
        ref, _ = forward(model, seq)
        quant, _ = forward(model, seq, overrides=quantized_layers)
        diff = (ref - quant).astype(np.float64)
        sq_sum += float((diff * diff).sum())
        sq_count += diff.size
        logp = _log_softmax(ref.astype(np.float64))
        logq = _log_softmax(quant.astype(np.float64))
        kl_sum += float((np.exp(logp) * (logp - logq)).sum())
        kl_count += ref.shape[1]
    return {"logit_mse": sq_sum / sq_count, "softmax_kl": kl_sum / kl_count}


_MANIFEST = "manifest.txt"


def save_model(model: ToyModel, dir_path: str | os.PathLike) -> None:
    """Write weights as one QDT1 tensor per layer plus a plain-text manifest."""
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    spec = model.spec
    lines = [
        f"vocab={spec.vocab}",
        f"d_model={spec.d_model}",
        f"d_hidden={spec.d_hidden}",
        f"n_blocks={spec.n_blocks}",
        f"seq_len={spec.seq_len}",
        f"seed={spec.seed}",
        f"positional={'true' if spec.positional else 'false'}",
    ]
    tensors = {"embedding": model.embedding, **model.layers}
    if model.positional is not None:
        tensors["positional"] = model.positional
    for name, arr in tensors.items():
        fname = f"{name}.qdt"
        write_tensor(root / fname, arr)
        lines.append(f"{name}\t{fname}")
    (root / _MANIFEST).write_text("\n".join(lines) + "\n")


def load_model(dir_path: str | os.PathLike) -> ToyModel:
    root = Path(dir_path)
    meta: dict[str, str] = {}
    tensor_files: dict[str, str] = {}
    for line in (root / _MANIFEST).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if "\t" in line:
            name, fname = line.split("\t", 1)
            tensor_files[name] = fname
        else:
            key, value = line.split("=", 1)
            meta[key] = value
    spec = ToyModelSpec(
        vocab=int(meta["vocab"]),
        d_model=int(meta["d_model"]),
        d_hidden=int(meta["d_hidden"]),
        n_blocks=int(meta["n_blocks"]),
        seq_len=int(meta["seq_len"]),
        seed=int(meta["seed"]),
        positional=meta.get("positional", "false") == "true",
    )
    tensors = {name: read_tensor(root / fname) for name, fname in tensor_files.items()}
    embedding = tensors.pop("embedding").astype(np.float32)
    positional = tensors.pop("positional", None)
    if positional is not None:
        positional = positional.astype(np.float32)
    layers = {name: arr.astype(np.float32) for name, arr in tensors.items()}
    return ToyModel(spec, embedding, layers, positional)
