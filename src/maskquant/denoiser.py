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
from typing import Iterable, Mapping

import numpy as np

from .container import _write_atomic, read_tensor, write_tensor
from .errors import ContainerError, ShapeError
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
        if self.vocab < 2:
            raise ValueError("vocab must be at least 2: the last id is the mask id")

    @property
    def mask_id(self) -> int:
        return self.vocab - 1

    def quantizable_names(self) -> list[str]:
        """Default quantization targets: the block projections."""
        return [f"block{b}.{p}" for b in range(self.n_blocks) for p in ("up", "down")]


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


def _tensor_shapes(spec: ToyModelSpec) -> dict[str, tuple[int, int]]:
    """Every weight tensor of the model by name, in stream order."""
    shapes = {"embedding": (spec.vocab, spec.d_model)}
    for b in range(spec.n_blocks):
        shapes[f"block{b}.up"] = (spec.d_hidden, spec.d_model)
        shapes[f"block{b}.down"] = (spec.d_model, spec.d_hidden)
    shapes["out_proj"] = (spec.vocab, spec.d_model)
    if spec.positional:
        shapes["positional"] = (spec.seq_len, spec.d_model)
    return shapes


def _assemble(spec: ToyModelSpec, tensors: dict[str, np.ndarray]) -> ToyModel:
    embedding = tensors.pop("embedding")
    positional = tensors.pop("positional", None)
    return ToyModel(spec, embedding, tensors, positional)


def init_model(spec: ToyModelSpec) -> ToyModel:
    """Gaussian weights scaled by 1/sqrt(fan_in), one stream per tensor."""
    tensors = {}
    for i, (name, shape) in enumerate(_tensor_shapes(spec).items()):
        stream = MODEL_STREAM_BASE + (100 if name == "positional" else i)
        rng = Rng(spec.seed, stream)
        tensors[name] = (rng.gaussian(shape) / np.sqrt(shape[1])).astype(np.float32)
    return _assemble(spec, tensors)


def forward(model: ToyModel, ids: np.ndarray, overrides: Mapping[str, np.ndarray] | None = None):
    """Run the denoiser on a 2-D `(n, L)` block of token ids.

    Returns (logits, inputs): logits is (vocab, n*L), and inputs maps each
    linear layer's name to the exact (features, n*L) matrix it was multiplied
    with. Column j*L + i belongs to position i of row j, and every row sees
    the positional term from position 0, so each row's columns are those of
    the row run on its own: bit for bit where the BLAS computes every column
    of a product alike whatever its width (OpenBLAS does at the pipeline's
    row length of 64), to float32 rounding elsewhere. `overrides` substitutes
    weight matrices by layer name, used to evaluate quantized variants
    without touching the model.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.size == 0:
        raise ShapeError(f"expected a nonempty 2-D (rows, length) id block, got shape {ids.shape}")
    rows, length = ids.shape
    if length > model.spec.seq_len:
        raise ShapeError(f"sequence length {length} exceeds {model.spec.seq_len}")
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

    inputs: dict[str, np.ndarray] = {}
    h = model.embedding[ids.reshape(-1)].T.copy()  # (d_model, n*L)
    if model.positional is not None:
        h = h + np.tile(model.positional[:length].T, (1, rows))
    for b in range(model.spec.n_blocks):
        up, down = f"block{b}.up", f"block{b}.down"
        u = np.maximum(weight(up) @ h, 0.0)
        inputs[up], inputs[down] = h, u
        h = h + weight(down) @ u
    inputs["out_proj"] = h
    return weight("out_proj") @ h, inputs


# Tokens per forward in calibration and eval. Measured on one README toy
# cycle: blocks of 512 tokens cut the per-call overhead of one forward and one
# gram update per sequence while peak RSS stays at its per-sequence 49.3 MB;
# 1024, 2048 and 4096 tokens raise it to 55.5, 66.3 and 90.2 MB.
_BLOCK_TOKENS = 512


def _row_blocks(ids: np.ndarray):
    """Consecutive row slices of a 2-D id array, each of `_BLOCK_TOKENS`
    tokens or fewer but at least one row."""
    step = max(1, _BLOCK_TOKENS // ids.shape[1])
    for start in range(0, ids.shape[0], step):
        yield ids[start : start + step]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=0, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=0, keepdims=True))


def _reference_logits(model: ToyModel, ids: np.ndarray):
    """Full-precision logits of each block of rows of the 2-D id array `ids`,
    in the blocks :func:`eval_divergence` scores, one block at a time."""
    for block in _row_blocks(ids):
        yield forward(model, block)[0]


def eval_divergence(
    model: ToyModel,
    quantized_layers: Mapping[str, np.ndarray],
    eval_set: np.ndarray,
    reference: Iterable[np.ndarray] | None = None,
) -> dict[str, float]:
    """Mean squared logit error and mean per-position softmax KL between the
    full-precision model and the model with `quantized_layers` substituted,
    over the rows of the 2-D `(n, L)` token-id array `eval_set`.

    Both models run on the same blocks of rows, and the sums are folded
    sequence by sequence from each row's own columns, so the metrics equal
    those of one forward per sequence wherever :func:`forward` reproduces a
    row's columns bit for bit. Both metrics are exactly zero when the
    substituted weights are the originals. `reference` holds the
    full-precision logits of each block, as `_reference_logits` yields them,
    for callers that score several variants on one set; by default each
    block's are computed as it is scored.
    """
    ids = np.asarray(eval_set)
    if ids.size == 0:
        raise ValueError("empty eval set")
    if ids.ndim != 2:
        raise ShapeError(f"eval set must be a 2-D (rows, length) id array, got shape {ids.shape}")
    if reference is None:
        reference = _reference_logits(model, ids)
    length = ids.shape[1]
    sq_sum = 0.0
    sq_count = 0
    kl_sum = 0.0
    kl_count = 0
    for block, ref_block in zip(_row_blocks(ids), reference, strict=True):
        quant_block, _ = forward(model, block, overrides=quantized_layers)
        if ref_block.shape != quant_block.shape:
            raise ShapeError(
                f"reference logits have shape {ref_block.shape}, expected {quant_block.shape}"
            )
        for start in range(0, ref_block.shape[1], length):
            ref = ref_block[:, start : start + length]
            quant = quant_block[:, start : start + length]
            diff = (ref - quant).astype(np.float64)
            sq_sum += float((diff * diff).sum())
            sq_count += diff.size
            logp = _log_softmax(ref.astype(np.float64))
            logq = _log_softmax(quant.astype(np.float64))
            kl_sum += float((np.exp(logp) * (logp - logq)).sum())
            kl_count += ref.shape[1]
    return {"logit_mse": sq_sum / sq_count, "softmax_kl": kl_sum / kl_count}


_MANIFEST = "manifest.txt"
_SPEC_INTS = ("vocab", "d_model", "d_hidden", "n_blocks", "seq_len", "seed")  # manifest keys


def save_model(model: ToyModel, dir_path: str | os.PathLike) -> None:
    """Write weights as one QDT1 tensor per layer plus a plain-text manifest."""
    root = Path(dir_path)
    root.mkdir(parents=True, exist_ok=True)
    spec = model.spec
    lines = [f"{key}={getattr(spec, key)}" for key in _SPEC_INTS]
    lines.append(f"positional={'true' if spec.positional else 'false'}")
    tensors = {"embedding": model.embedding, **model.layers}
    if model.positional is not None:
        tensors["positional"] = model.positional
    for name, arr in tensors.items():
        fname = f"{name}.qdt"
        write_tensor(root / fname, arr)
        lines.append(f"{name}\t{fname}")
    _write_atomic(root / _MANIFEST, ("\n".join(lines) + "\n").encode())


def load_model(dir_path: str | os.PathLike) -> ToyModel:
    """Inverse of :func:`save_model`. A manifest that does not describe a
    valid model, and a tensor that is not floating point or whose values
    overflow float32, raise ContainerError; a tensor whose shape disagrees
    with the manifest raises ShapeError."""
    root = Path(dir_path)
    manifest = root / _MANIFEST
    meta: dict[str, str] = {}
    tensor_files: dict[str, str] = {}
    try:
        text = manifest.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise ContainerError(f"{manifest}: not UTF-8 text") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if "\t" in line:
            name, fname = line.split("\t", 1)
            if "\0" in fname:  # no path can hold it: open() would raise ValueError
                raise ContainerError(f"{manifest}:{lineno}: file name holds a NUL byte")
            tensor_files[name] = fname
        elif "=" in line:
            key, value = line.split("=", 1)
            meta[key] = value
        else:
            raise ContainerError(f"{manifest}:{lineno}: expected key=value or name<TAB>file")
    missing = [key for key in _SPEC_INTS if key not in meta]
    if missing:
        raise ContainerError(f"{manifest}: missing {', '.join(missing)}")
    positional = meta.get("positional", "false")
    if positional not in ("true", "false"):
        raise ContainerError(f"{manifest}: positional must be true or false, got {positional!r}")
    try:
        ints = {key: int(meta[key]) for key in _SPEC_INTS}
        spec = ToyModelSpec(**ints, positional=positional == "true")
    except ValueError as exc:
        raise ContainerError(f"{manifest}: {exc}") from None
    shapes = _tensor_shapes(spec)
    missing = [name for name in shapes if name not in tensor_files]
    if missing:
        raise ContainerError(f"{manifest}: no entry for {', '.join(missing)}")
    unknown = [name for name in tensor_files if name not in shapes]
    if unknown:
        raise ContainerError(f"{manifest}: unexpected entries {', '.join(unknown)}")
    tensors = {}
    for name, shape in shapes.items():
        path = root / tensor_files[name]
        arr = read_tensor(path)
        if arr.shape != shape:
            raise ShapeError(f"{name}: tensor has shape {arr.shape}, the manifest implies {shape}")
        if arr.dtype.kind != "f":
            raise ContainerError(f"{path}: {name} holds {arr.dtype} values, not floating point")
        with np.errstate(over="ignore"):
            tensors[name] = arr.astype(np.float32)
        if not np.isfinite(tensors[name]).all():
            raise ContainerError(f"{path}: {name} holds values beyond the float32 range")
    return _assemble(spec, tensors)
