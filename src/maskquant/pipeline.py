"""Layer-wise quantization pipeline.

Stages: masked calibration of activation statistics, per-layer importance
and saliency weighting, blockwise precision allocation, multi-binary
fitting, packed encoding, and a held-out divergence evaluation. Every stage
is deterministic given the configuration, so identical runs produce
byte-identical artifacts, and every stage can be switched off independently
for ablations.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import abmp, daq, mcs, qformat, stats
from .container import _write_atomic, read_tensor
from .denoiser import (
    ToyModel,
    ToyModelSpec,
    _reference_logits,
    _row_blocks,
    _tensor_shapes,
    eval_divergence,
    forward,
    init_model,
    load_model,
)
from .errors import ConfigError, ContainerError, ShapeError
from .rng import Rng

CALIB_TOKEN_STREAM = 4 << 32
EVAL_TOKEN_STREAM = 5 << 32
_EVAL_SEED_SALT = 0x45564C31  # keeps held-out masking off the calibration streams
_MAX_STAGE_TOKENS = 1 << 24  # tokens calib or eval may run: far beyond desk scale
_MAX_MODEL_WEIGHTS = 1 << 26  # weights of a synthesized model: ~30x the benchmark's `wide`
_MAX_GRAM_ENTRIES = 1 << 27  # float64 second-moment entries calib holds (1 GiB): ~50x `wide`
# outlier weight: its square scales the fit's objective, and 1e200 overflowed float64
_MAX_LAMBDA_WEIGHT = 1e6
# relative ridge: it scales the importance, and 1e300 overflowed it to inf
_MAX_DAMP_REL = 1e6
# bound on the damped gram's condition number: on the benchmark grams the inverse
# diagonal is within 2e-6 of an eigh oracle at 1e10, and only within 1e-1 at 1e15
_MAX_CONDITION = 1e10
_MAX_GROUP_WIDTH = (1 << 64) - 1  # QPK1 stores the group width as a u64
_MAX_SEED = (1 << 64) - 1  # Rng keeps a seed's low 64 bits, so a larger one repeats a smaller


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    # masked calibration
    timesteps: int = 8
    prefix_ratio: float = 0.25
    use_mcs: bool = True
    # model
    vocab: int = 64
    d_model: int = 32
    d_hidden: int = 64
    n_blocks: int = 2
    seq_len: int = 64
    positional: bool = False
    model_dir: str = ""
    layers: tuple[str, ...] = ()
    # calibration data
    calib_path: str = ""
    calib_sequences: int = 128
    eval_sequences: int = 16
    # statistics / saliency
    damp_rel: float = 0.01
    lambda_weight: float = 2.0
    use_dor: bool = True
    # quantizer
    order: int = 2
    sweeps: int = 10
    tol: float = 1e-6
    epsilon: float = 1e-8
    # mixed precision
    use_abmp: bool = True
    ratio: float = 0.05
    group_width: int = 128
    # outputs
    out_dir: str = "out"

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type in ("float", float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        for name in ("model_dir", "calib_path", "out_dir"):
            if "\0" in getattr(self, name):  # no file system takes it in a path
                raise ConfigError(f"{name} holds a NUL byte")
        try:
            daq.DaqConfig(order=self.order, sweeps=self.sweeps, tol=self.tol, epsilon=self.epsilon)
            mcs.McsConfig(timesteps=self.timesteps, prefix_ratio=self.prefix_ratio, seed=self.seed)
            spec = self.model_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0.0 <= self.ratio <= 0.5:
            raise ConfigError("ratio must be in [0, 0.5]")
        if not 1 <= self.group_width <= _MAX_GROUP_WIDTH:
            raise ConfigError(f"group_width must be in [1, {_MAX_GROUP_WIDTH}]")
        if not 0 <= self.seed <= _MAX_SEED:
            raise ConfigError(f"seed must be in [0, {_MAX_SEED}]")
        if not 1.0 < self.lambda_weight <= _MAX_LAMBDA_WEIGHT:
            raise ConfigError(f"lambda_weight must be in (1, {_MAX_LAMBDA_WEIGHT:g}]")
        if not 0.0 <= self.damp_rel <= _MAX_DAMP_REL:
            raise ConfigError(f"damp_rel must be in [0, {_MAX_DAMP_REL:g}]")
        if self.calib_sequences < 1 or self.eval_sequences < 1:
            raise ConfigError("sequence counts must be positive")
        _check_stage_tokens(self, self.calib_sequences, self.seq_len, masked=self.use_mcs)
        _check_stage_tokens(self, self.eval_sequences, self.seq_len)
        # every block holds at least 2 weights, so a huge n_blocks fails before the walk
        huge = self.n_blocks > _MAX_MODEL_WEIGHTS
        shapes = {} if huge else _tensor_shapes(spec)
        if huge or sum(math.prod(shape) for shape in shapes.values()) > _MAX_MODEL_WEIGHTS:
            raise ConfigError(
                f"the model would hold more than {_MAX_MODEL_WEIGHTS} weights; lower vocab, "
                "d_model, d_hidden, n_blocks or, with positional, seq_len"
            )
        # target_layers refuses unknown names
        targets = self.layers or spec.quantizable_names()
        _check_gram_entries(shapes[name][1] for name in targets if name in shapes)

    # derived paths
    @property
    def stats_dir(self) -> Path:
        return Path(self.out_dir) / "stats"

    @property
    def qpk_path(self) -> Path:
        return Path(self.out_dir) / "model.qpk"

    @property
    def report_path(self) -> Path:
        return Path(self.out_dir) / "report.json"

    def model_spec(self) -> ToyModelSpec:
        return ToyModelSpec(
            vocab=self.vocab,
            d_model=self.d_model,
            d_hidden=self.d_hidden,
            n_blocks=self.n_blocks,
            seq_len=self.seq_len,
            seed=self.seed,
            positional=self.positional,
        )

    def mcs_config(self, mask_id: int, seed: int | None = None) -> mcs.McsConfig:
        return mcs.McsConfig(
            timesteps=self.timesteps,
            prefix_ratio=self.prefix_ratio,
            mask_id=mask_id,
            seed=self.seed if seed is None else seed,
        )

    def daq_config(self, order: int | None = None) -> daq.DaqConfig:
        return daq.DaqConfig(
            order=self.order if order is None else order,
            sweeps=self.sweeps,
            tol=self.tol,
            epsilon=self.epsilon,
        )


_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_value(field: dataclasses.Field, raw: str):
    if field.type in ("bool", bool):
        try:
            return _BOOLS[raw.strip().lower()]
        except KeyError:
            raise ConfigError(f"{field.name}: expected a boolean, got {raw!r}") from None
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("float", float):
        return float(raw)
    if field.name == "layers":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def parse_config_file(path) -> dict:
    """Plain key=value lines; '#' starts a comment, blank lines are ignored."""
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    values: dict = {}
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(fields[key], raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    values = parse_config_file(path) if path else {}
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    try:
        return PipelineConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _check_stage_tokens(cfg: PipelineConfig, rows: int, length: int, masked: bool = True) -> None:
    """Refuse a calib or eval stage over `rows` sequences of `length` tokens,
    each run in `timesteps` masked copies when `masked`, that would run more
    than _MAX_STAGE_TOKENS tokens."""
    tokens = rows * length * (cfg.timesteps if masked else 1)
    if tokens > _MAX_STAGE_TOKENS:
        raise ConfigError(
            f"calib or eval would run {tokens} tokens, more than {_MAX_STAGE_TOKENS}; lower "
            "calib_sequences, eval_sequences, timesteps, seq_len or the calibration rows"
        )


def _check_gram_entries(in_dims) -> None:
    """Refuse a calibration whose second moments, one in_dim x in_dim float64
    gram per targeted layer of input width in `in_dims`, would hold more than
    _MAX_GRAM_ENTRIES entries."""
    entries = sum(dim * dim for dim in in_dims)
    if entries > _MAX_GRAM_ENTRIES:
        raise ConfigError(
            f"calib would hold {entries} second-moment entries, more than {_MAX_GRAM_ENTRIES}; "
            "lower d_model or d_hidden, or target fewer layers"
        )


# --- model and data ----------------------------------------------------------


def get_model(cfg: PipelineConfig) -> ToyModel:
    if cfg.model_dir:
        return load_model(cfg.model_dir)
    return init_model(cfg.model_spec())


def target_layers(cfg: PipelineConfig, model: ToyModel) -> list[str]:
    if cfg.layers:
        for i, name in enumerate(cfg.layers):
            if name not in model.layers:
                raise ConfigError(f"unknown layer {name!r}; model has {sorted(model.layers)}")
            if name in cfg.layers[:i]:
                raise ConfigError(f"layer {name!r} is named more than once in layers")
        return list(cfg.layers)
    return model.spec.quantizable_names()


def calibration_tokens(cfg: PipelineConfig, spec: ToyModelSpec) -> np.ndarray:
    """Token sequences for calibration: loaded when a path is set, otherwise
    synthesized deterministically from the seed (mask id excluded)."""
    if cfg.calib_path:
        path = Path(cfg.calib_path)
        if not path.exists():
            raise FileNotFoundError(f"calibration tensor not found: {path}")
        tokens = read_tensor(path)
        if tokens.ndim != 2 or tokens.dtype != np.uint32:
            raise ShapeError(f"{path}: expected a 2-D uint32 token tensor")
        if tokens.size == 0:
            raise ShapeError(f"{path}: token tensor {tokens.shape} holds no tokens")
        if int(tokens.max()) >= spec.vocab:
            raise ShapeError(f"{path}: token ids exceed vocabulary {spec.vocab}")
        if (tokens == spec.mask_id).any():
            raise ShapeError(f"{path}: tokens contain the mask id {spec.mask_id}")
        _check_stage_tokens(cfg, *tokens.shape, masked=cfg.use_mcs)
        return tokens
    _check_stage_tokens(cfg, cfg.calib_sequences, spec.seq_len, masked=cfg.use_mcs)
    rng = Rng(cfg.seed, CALIB_TOKEN_STREAM)
    return rng.integers(0, spec.mask_id, (cfg.calib_sequences, spec.seq_len)).astype(np.uint32)


def _eval_set(cfg: PipelineConfig, spec: ToyModelSpec) -> np.ndarray:
    _check_stage_tokens(cfg, cfg.eval_sequences, spec.seq_len)
    eval_seed = cfg.seed ^ _EVAL_SEED_SALT
    rng = Rng(eval_seed, EVAL_TOKEN_STREAM)
    tokens = rng.integers(0, spec.mask_id, (cfg.eval_sequences, spec.seq_len)).astype(np.uint32)
    masked = mcs.simulate(tokens, cfg.mcs_config(spec.mask_id, seed=eval_seed))
    return np.stack([m.ids for m in masked])


# --- pipeline stages ----------------------------------------------------------


# the statistics manifest: the input fingerprint, then "<sha256>  <file>" per layer file
_FINGERPRINT = "fingerprint.sha256"
_DIGEST_LINE = re.compile(rb"([0-9a-f]{64})  ([!-~]+)")  # printable ASCII names


def _stats_path(cfg: PipelineConfig, name: str) -> Path:
    return cfg.stats_dir / f"{name}.qdt"


def _file_sha256(path: Path) -> str:
    """Hex sha256 of the file's bytes, streamed through hashlib's 256 KiB buffer."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _hash_arrays(h, named: dict):
    """`h` fed each array of `named` but None, after its name, dtype and shape."""
    for name, arr in named.items():
        if arr is not None:
            h.update(f"{name} {arr.dtype.str} {arr.shape}\n".encode())
            h.update(np.ascontiguousarray(arr))
    return h


def _weights_sha256(model: ToyModel):
    """sha256 over the model weights, taken once per command: each statistics
    fingerprint extends a copy of it."""
    named = {"embedding": model.embedding, **model.layers, "positional": model.positional}
    return _hash_arrays(hashlib.sha256(), named)


def _calib_fingerprint(cfg: PipelineConfig, weights, tokens: np.ndarray) -> str:
    """sha256 over everything the statistics depend on: the model weights,
    whose _weights_sha256 is `weights`, the calibration tokens and the
    masking settings."""
    h = _hash_arrays(weights.copy(), {"tokens": tokens})
    masking = {"use_mcs": cfg.use_mcs}
    if cfg.use_mcs:
        masking.update(timesteps=cfg.timesteps, prefix_ratio=cfg.prefix_ratio, seed=cfg.seed)
    h.update(json.dumps(masking, sort_keys=True).encode())
    return h.hexdigest()


def _calibrate(cfg: PipelineConfig, model: ToyModel, names: list[str], tokens: np.ndarray) -> dict:
    """Second moment of each named layer's inputs over the calibration tokens.
    One forward per block of rows hands each input to its layer's moment as
    it is computed, so a block's inputs are never held together."""
    _check_gram_entries(model.layers[name].shape[1] for name in names)
    if cfg.use_mcs:
        masked = mcs.simulate(tokens, cfg.mcs_config(model.spec.mask_id))
        sequences = np.stack([m.ids for m in masked])
    else:
        sequences = tokens  # calibration_tokens has already rejected the mask id
    moments = {name: stats.SecondMoment(model.layers[name].shape[1]) for name in names}
    blocks = list(_row_blocks(sequences))
    # each layer input is converted into the head of this buffer, then added to its gram
    buffer = np.empty(max(sm.dim for sm in moments.values()) * max(b.size for b in blocks))

    def accumulator(sm: stats.SecondMoment):
        def accumulate(inputs: np.ndarray) -> None:
            x = buffer[: inputs.size].reshape(inputs.shape)
            x[...] = inputs
            sm.accumulate(x)

        return accumulate

    consumers = {name: accumulator(sm) for name, sm in moments.items()}
    for block in blocks:
        forward(model, block, consumers=consumers)
    return moments


def cmd_calib(cfg: PipelineConfig) -> Path:
    """Accumulate one second-moment file per targeted layer, plus the
    manifest: the fingerprint of what they were accumulated from, then the
    sha256 of each file."""
    model = get_model(cfg)
    names = target_layers(cfg, model)
    tokens = calibration_tokens(cfg, model.spec)
    moments = _calibrate(cfg, model, names, tokens)
    cfg.stats_dir.mkdir(parents=True, exist_ok=True)
    manifest = cfg.stats_dir / _FINGERPRINT
    manifest.unlink(missing_ok=True)  # a half-rewritten directory matches nothing
    lines = [_calib_fingerprint(cfg, _weights_sha256(model), tokens)]
    for name, sm in moments.items():
        path = _stats_path(cfg, name)
        stats.save_second_moment(sm, path)
        lines.append(f"{_file_sha256(path)}  {path.name}")
    _write_atomic(manifest, "".join(line + "\n" for line in lines).encode())
    return cfg.stats_dir


def _stats_reader(cfg: PipelineConfig, model: ToyModel, names: list[str], weights):
    """A reader of each named layer's second moment from its statistics
    file, returned once every file exists and the manifest shows that `calib`
    accumulated them from this config's model (whose _weights_sha256 is
    `weights`), calibration tokens and masking settings and records each
    file's sha256. A file is read only when its layer is quantized, so
    quantize holds one gram at a time; it is parsed, its bytes are checked
    against the recorded sha256, and the reader returns it with its damped
    inverse diagonal (see _with_inverse_diag)."""
    paths = {name: _stats_path(cfg, name) for name in names}
    for name, path in paths.items():
        if not path.exists():
            raise FileNotFoundError(
                f"statistics for layer {name!r} not found at {path}; run calib first"
            )
    manifest = cfg.stats_dir / _FINGERPRINT
    if not manifest.exists():
        raise ConfigError(f"{manifest} is missing; rerun calib with this config")
    lines = manifest.read_bytes().split(b"\n")
    expected = _calib_fingerprint(cfg, weights, calibration_tokens(cfg, model.spec))
    if lines[0] != expected.encode():
        raise ConfigError(
            f"statistics in {cfg.stats_dir} were calibrated with another model, other "
            "calibration tokens or other masking settings; rerun calib with this config"
        )
    matches = [_DIGEST_LINE.fullmatch(line) for line in lines[1:-1]]
    digests = {m[2].decode(): m[1].decode() for m in matches if m}
    if lines[-1] or len(digests) < len(matches):  # no final newline, a bad or repeated line
        raise ConfigError(f"{manifest} does not parse; rerun calib with this config")
    for path in paths.values():
        if path.name not in digests:
            raise ConfigError(
                f"{manifest} records no sha256 of {path.name} (statistics from before "
                "digests were recorded have none); rerun calib with this config"
            )

    def read(name: str):
        path = paths[name]
        sm = stats.load_second_moment(path)
        if _file_sha256(path) != digests[path.name]:
            raise ContainerError(f"{path}: sha256 differs from the one recorded in {manifest}")
        return _with_inverse_diag(name, sm, cfg.damp_rel, ContainerError, str(path))

    return read


def _with_inverse_diag(name: str, sm: stats.SecondMoment, damp_rel: float, error, where: str):
    """The pair `_quantize` reads for layer `name`: its second moment `sm` and
    the diagonal of its damped inverse.

    For a gram of width n, damping by damp_rel times its mean diagonal bounds
    the condition number by n / damp_rel + 1 (the largest eigenvalue is at
    most the trace). A `damp_rel` that leaves that bound above _MAX_CONDITION
    raises ConfigError before anything is factored; a moment that stays
    singular after damping raises `error`, its message prefixed by `where`."""
    n = sm.dim
    if n > (_MAX_CONDITION - 1) * damp_rel:
        bound = n / damp_rel + 1 if damp_rel else math.inf
        raise ConfigError(
            f"layer {name!r}: damp_rel={damp_rel:g} bounds the condition number of its "
            f"{n}-wide damped second moment only by {n}/damp_rel + 1 = {bound:.3g}, above "
            f"{_MAX_CONDITION:g}; raise damp_rel"
        )
    try:
        return sm, stats.damped_inverse_diag(sm, damp_rel)
    except ValueError as exc:
        raise error(f"{where}: layer {name!r}: {exc} (damp_rel={damp_rel:g})") from exc


@dataclass(frozen=True)
class _Fit:
    """What a quantize keeps of one group's fit: the packed group and the
    first and last entries of its loss history."""

    packed: qformat.PackedGroup
    loss_init: float
    loss_final: float


def _keep(fit: daq.QuantizedGroup, name: str) -> _Fit:
    return _Fit(qformat.pack_group(fit, name), fit.loss_history[0], fit.loss_history[-1])


def _quantize_layer(name: str, weights: np.ndarray, moment, cfg: PipelineConfig, fits: dict):
    """Quantize one layer against `moment`, its second moment and damped
    inverse diagonal (None for a config that uses neither), reusing and
    adding to `fits`, which maps (layer, column range, DaqConfig, weight-mask
    key or None) to a _Fit. Returns its packed record, its report row, its
    float32 reconstruction (qformat.dequantize of the record) and its fit
    keys, which name everything that reconstruction depends on besides the
    model."""
    rows, cols = weights.shape
    sm, inv_diag = moment or (None, None)
    importance = None
    mask = None  # the outliers, which the fits weigh by lambda_weight and the rest by 1.0
    outlier_fraction = None
    if cfg.use_dor or cfg.use_abmp:
        importance = stats.importance_matrix(weights, inv_diag)
    if cfg.use_dor:
        mask = stats.build_importance_mask(importance)
        outlier_fraction = float(mask.mean())

    part = abmp.partition(rows, cols, cfg.group_width)
    if cfg.use_abmp:
        scores = stats.block_scores(importance, part.ranges)
        alloc = abmp.allocate(scores, cfg.ratio, locked=part.ragged_indices())
    else:
        alloc = abmp.BitAllocation(orders=(cfg.order,) * len(part.ranges), reallocated=0)
    del importance  # the mask and the scores hold what the fit needs of it

    mu, target = daq.center_rows(weights)

    # a group's fit depends on its columns of the target and of the weight
    # mask, and on its DaqConfig, not on the stack it runs in; the mask's
    # columns are 1 and lambda_weight where its outlier bits say
    keys = []
    for (start, end), order in zip(part.ranges, alloc.orders):
        weighting = None
        if mask is not None:
            weighting = (cfg.lambda_weight, np.packbits(mask[:, start:end]).tobytes())
        keys.append((name, (start, end), cfg.daq_config(order), weighting))
    missing = [i for i, key in enumerate(keys) if key not in fits]
    # missing groups of one order and width are fitted together
    kinds = list(zip(alloc.orders, part.widths()))
    for kind in dict.fromkeys(kinds[i] for i in missing):
        members = [i for i in missing if kinds[i] == kind]
        columns = [slice(*part.ranges[i]) for i in members]
        fitted = daq._fit_groups(
            [target[:, c] for c in columns],
            None if mask is None else [mask[:, c] for c in columns],
            cfg.daq_config(kind[0]),
            cfg.lambda_weight,
        )
        fits.update((keys[i], _keep(fit, name)) for i, fit in zip(members, fitted))
    del target, mask  # no view of them outlives the fits, so they are freed here
    groups = [fits[key] for key in keys]
    loss_init = 0.0
    loss_final = 0.0
    for fit in groups:
        loss_init += fit.loss_init
        loss_final += fit.loss_final

    record = qformat._layer_record(name, [fit.packed for fit in groups], cfg.group_width, cols, mu)
    matrix = qformat.dequantize(record)

    full_orders = [
        order
        for order, width in zip(alloc.orders, part.widths())
        if width == cfg.group_width
    ]
    if cfg.use_abmp and full_orders and sum(full_orders) != 2 * len(full_orders):
        raise AssertionError(f"{name}: precision budget violated")  # unreachable by construction
    row = {
        "rows": rows,
        "cols": cols,
        "allocation": {str(b): n for b, n in alloc.histogram().items()},
        "reallocated": alloc.reallocated,
        "avg_bits_full_groups": (
            sum(full_orders) / len(full_orders) if full_orders else None
        ),
        "proxy_loss_init": loss_init,
        "proxy_loss_final": loss_final,
        "outlier_fraction": outlier_fraction,
        "true_data_loss": stats.true_data_loss(weights, matrix, sm) if sm is not None else None,
    }
    return record, row, matrix, tuple(keys)


def _quantize(
    cfg: PipelineConfig,
    model: ToyModel,
    names: list[str],
    moment,
    model_sha256: str,
    fits: dict | None = None,
    matrices: dict | None = None,
):
    """Quantize the named layers, each against the pair that `moment(name)`
    returns: the layer's second moment and its damped inverse diagonal (None
    for a config that uses neither). Each pair is asked for when its layer is
    reached and dropped after it. The fits of a grid's arms are reused from
    and added to `fits`; without it nothing is reused, and each layer's fits
    are freed once it is packed. `matrices`, when given, receives each
    layer's fit keys and float32 reconstruction under its name; otherwise
    the reconstruction is dropped with the layer. Returns the packed records
    and the report, whose `eval` is null."""
    records = []
    layer_rows = {}
    for name in names:
        try:
            record, row, matrix, keys = _quantize_layer(
                name, model.layers[name], moment(name), cfg, {} if fits is None else fits
            )
        except ShapeError as exc:
            raise ShapeError(f"layer {name!r}: {exc}") from exc
        records.append(record)
        layer_rows[name] = row
        if matrices is not None:
            matrices[name] = (keys, matrix)
        del record, row, matrix, keys  # so the next layer loads and fits without them

    qpk_bytes = qformat.memory_estimate(qformat.describe_qpk(records))
    fp16_params = _fp16_params(model, names)
    total_bytes = qpk_bytes + 2 * fp16_params
    report = {
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
        "model_sha256": model_sha256,
        "layers": layer_rows,
        "memory": {
            "qpk_bytes": qpk_bytes,
            "fp16_params": fp16_params,
            "total_bytes": total_bytes,
            "gb": qformat.gigabytes(total_bytes),
        },
        "eval": None,
    }
    return records, report


def _write_run(cfg: PipelineConfig, records: list, report: dict) -> None:
    """Write the run's packed file, check its size against the report, then the
    report, which is encoded first: one that cannot be leaves both files as they were."""
    encoded = _encode_report(cfg.report_path, report)
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    qformat.write_qpk(cfg.qpk_path, records)
    if cfg.qpk_path.stat().st_size != report["memory"]["qpk_bytes"]:
        raise AssertionError("size estimator out of sync with the encoder")
    _write_atomic(cfg.report_path, encoded)


def cmd_quantize(cfg: PipelineConfig):
    """Quantize every targeted layer; writes the packed file and the report."""
    model = get_model(cfg)
    names = target_layers(cfg, model)
    weights = _weights_sha256(model)
    use_stats = cfg.use_dor or cfg.use_abmp
    moment = _stats_reader(cfg, model, names, weights) if use_stats else {}.get
    records, report = _quantize(cfg, model, names, moment, weights.hexdigest())
    _write_run(cfg, records, report)
    return cfg.qpk_path, report


def _fp16_params(model: ToyModel, quantized: list[str]) -> int:
    """Parameters left in half precision: everything not quantized."""
    total = model.embedding.size + sum(w.size for w in model.layers.values())
    if model.positional is not None:
        total += model.positional.size
    return total - sum(model.layers[n].size for n in quantized)


def _encode_report(path: Path, report: dict) -> bytes:
    """`report` as the JSON bytes to write to `path`. A non-finite number,
    which JSON cannot hold, raises ContainerError."""
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ContainerError(f"{path}: the report holds a non-finite number; not written") from None
    return (text + "\n").encode()


def _write_report(path: Path, report: dict) -> None:
    """Write `report` as JSON; one that cannot be encoded leaves `path` as it was."""
    _write_atomic(path, _encode_report(path, report))


def _finite(text: str) -> float:
    """A JSON number or constant as a float, refusing NaN, Infinity and
    numbers beyond the float range (such as 1e400)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


_NUMBER = (int, float)
# the fields of each report section that `eval` and `maskquant report` use
_REPORT_FIELDS = {
    "layers": {
        "rows": int,
        "cols": int,
        "allocation": dict,
        "proxy_loss_init": _NUMBER,
        "proxy_loss_final": _NUMBER,
    },
    "memory": {"qpk_bytes": int, "total_bytes": int},
    "eval": {"logit_mse": _NUMBER, "softmax_kl": _NUMBER},
}


def _read_report(path) -> dict:
    """The run report at `path`. Anything but a UTF-8 JSON object whose
    layer rows, `memory` and `eval` (each may be null) hold the fields in
    `_REPORT_FIELDS` raises ContainerError, as does a non-finite number anywhere."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
        report = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: not a JSON report: {exc}") from None
    except ValueError as exc:  # from _finite
        raise ContainerError(f"{path}: {exc}") from None
    except RecursionError:
        raise ContainerError(f"{path}: not a JSON report: nested too deeply") from None
    if not isinstance(report, dict):
        raise ContainerError(f"{path}: a report is a JSON object, not {type(report).__name__}")
    layers = report.get("layers", {})
    if not isinstance(layers, dict):
        raise ContainerError(f"{path}: layers is not an object")
    sections = [(f"layers.{name}", row, _REPORT_FIELDS["layers"]) for name, row in layers.items()]
    for key in ("memory", "eval"):
        if report.get(key) is not None:
            sections.append((key, report[key], _REPORT_FIELDS[key]))
    for where, section, fields in sections:
        if not isinstance(section, dict):
            raise ContainerError(f"{path}: {where} is not an object")
        for field, kind in fields.items():
            if not isinstance(section.get(field), kind):
                raise ContainerError(f"{path}: {where}.{field} is missing or of the wrong type")
    return report


def _evaluate(
    cfg: PipelineConfig, model: ToyModel, overrides: dict, eval_set=None, reference=None
) -> dict:
    """The report's `eval` row: the model with the float32 layer matrices in
    `overrides`, keyed by layer name, against full precision on the held-out
    masked set. The set uses its own seed, derived from the run seed, so it
    never overlaps the calibration draws. A grid passes the set and its
    full-precision logits, computed once for all arms; by default they are
    computed here, block by block."""
    # forward refuses a layer the model lacks or whose shape differs (ShapeError)
    if eval_set is None:
        eval_set = _eval_set(cfg, model.spec)
    metrics = eval_divergence(model, overrides, eval_set, reference)
    return {**metrics, "eval_sequences": cfg.eval_sequences}


def cmd_eval(cfg: PipelineConfig) -> dict:
    """Score the run's own packed model, refusing one whose layers or size
    differ from its report's, and record the result in its report."""
    if not cfg.report_path.exists():
        raise FileNotFoundError(f"{cfg.report_path} not found; run quantize first")
    report = _read_report(cfg.report_path)
    model = get_model(cfg)
    model_sha256 = _weights_sha256(model).hexdigest()
    if report.get("model_sha256", model_sha256) != model_sha256:
        raise ConfigError(
            f"{cfg.report_path} belongs to a model quantized from other weights than "
            "this config's; rerun quantize with this config"
        )
    layers = qformat.read_qpk(cfg.qpk_path)
    packed = sorted((layer.name, layer.rows, layer.cols) for layer in layers)
    layer_rows = report.get("layers", {})
    described = sorted((name, row["rows"], row["cols"]) for name, row in layer_rows.items())
    memory = report.get("memory")
    size = cfg.qpk_path.stat().st_size
    if packed != described or (memory is not None and memory["qpk_bytes"] != size):
        raise ConfigError(
            f"{cfg.qpk_path} is not the packed model that {cfg.report_path} describes; "
            "rerun quantize with this config"
        )
    overrides = {layer.name: qformat.dequantize(layer) for layer in layers}
    report["eval"] = _evaluate(cfg, model, overrides)
    _write_report(cfg.report_path, report)
    return report


_PRESETS = ("fp16-8b", "llada8b-2bit")


def _size_report(source: str, assumptions: str, size: int) -> dict:
    return {
        "source": source,
        "assumptions": assumptions,
        "bytes": size,
        "gb": qformat.gigabytes(size),
    }


def cmd_estimate_mem(cfg: PipelineConfig | None = None, qpk_path=None, preset: str | None = None) -> dict:
    """Size accounting for a packed file, a named preset, or the configured model."""
    if qpk_path is not None:
        layers = qformat.read_qpk(qpk_path)
        return _size_report(
            str(qpk_path),
            "exact accounting of the packed file, headers included",
            qformat.memory_estimate(qformat.describe_qpk(layers)),
        )
    if preset == "fp16-8b":
        params = 8_045_000_000
        return _size_report(
            preset,
            f"{params} parameters, all half precision",
            qformat.memory_estimate([], fp16_params=params),
        )
    if preset == "llada8b-2bit":
        layers, fp16_params = qformat.llada8b_like_layers()
        return _size_report(
            preset,
            qformat.llada8b_like_layers.__doc__.strip(),
            qformat.memory_estimate(layers, fp16_params),
        )
    if preset is not None:
        raise ConfigError(f"unknown preset {preset!r}; choose from {_PRESETS}")
    if cfg is None:
        raise ConfigError("estimate-mem needs a config, a packed file, or a preset")
    model = get_model(cfg)
    names = target_layers(cfg, model)
    # ABMP trades order-3 for order-1 groups one for one, and sizes are linear in order
    order = 2 if cfg.use_abmp else cfg.order
    shapes = [
        qformat.LayerShape.tiled(name, *model.layers[name].shape, cfg.group_width, order)
        for name in names
    ]
    fp16_params = _fp16_params(model, names)
    orders = "ABMP orders, sized as uniform order 2" if cfg.use_abmp else f"uniform order {order}"
    return _size_report(
        "config",
        f"{len(shapes)} quantized layers at {orders}, "
        f"group width {cfg.group_width}, {fp16_params} half-precision parameters",
        qformat.memory_estimate(shapes, fp16_params),
    )


# --- ablation grid -------------------------------------------------------------


def ablation_grid(cfg: PipelineConfig) -> dict:
    """Run the ablation arms end to end and collect their divergences.

    Arms: the full pipeline, each stage disabled in isolation, a plain
    uniform arm (no saliency weighting, no mixed precision), and a
    reallocation-ratio sweep. Arms with one statistics fingerprint share one
    calibration, kept in memory, and its inverse diagonals; all arms share
    the DAQ fits, each packed once, the eval set and its full-precision
    logits. Each arm dequantizes its layers once; arms whose layers have the
    same fit keys have the same layers, and share one eval row.
    Also records whether the full pipeline beat the plain uniform arm on
    held-out divergence; small-model runs are not guaranteed to preserve
    that ordering, so a violation is flagged rather than fatal.
    """
    arms: dict[str, dict] = {
        "full": {},
        "no_mcs": {"use_mcs": False},
        "no_dor": {"use_dor": False},
        "no_abmp": {"use_abmp": False},
        "plain_uniform": {"use_dor": False, "use_abmp": False},
    }
    for ratio in (0.0, 0.10, 0.15):
        arms[f"ratio_{ratio:g}"] = {"ratio": ratio}

    model = get_model(cfg)
    names = target_layers(cfg, model)
    tokens = calibration_tokens(cfg, model.spec)
    # the arms override no field the eval set depends on
    eval_set = _eval_set(cfg, model.spec)
    reference = list(_reference_logits(model, eval_set))
    weights = _weights_sha256(model)
    model_sha256 = weights.hexdigest()
    fits = {}  # every arm's fits: see _quantize_layer
    scored = {}  # the fit keys of an arm's layers -> its eval row
    plan = []  # (statistics fingerprint, "" for an arm that uses none; arm; its config)
    for arm, override in arms.items():
        sub = dataclasses.replace(cfg, out_dir=str(Path(cfg.out_dir) / "arms" / arm), **override)
        use_stats = sub.use_dor or sub.use_abmp
        stats_key = _calib_fingerprint(sub, weights, tokens) if use_stats else ""
        plan.append((stats_key, arm, sub))
    results = {}
    current = None
    # arms that share statistics run back to back, so one set of moments is alive at a time
    for stats_key, arm, sub in sorted(plan, key=lambda step: step[0]):
        if stats_key != current:
            current, pairs = stats_key, {}
            if stats_key:
                # a comprehension, so no name holds a moment into the next calibration
                pairs = {
                    name: _with_inverse_diag(name, sm, sub.damp_rel, ConfigError, f"arm {arm!r}")
                    for name, sm in _calibrate(sub, model, names, tokens).items()
                }
        matrices = {}
        records, report = _quantize(sub, model, names, pairs.get, model_sha256, fits, matrices)
        eval_key = tuple(keys for keys, _ in matrices.values())
        if eval_key not in scored:
            overrides = {name: matrix for name, (_, matrix) in matrices.items()}
            scored[eval_key] = _evaluate(sub, model, overrides, eval_set, reference)
            del overrides  # so the next arm quantizes with only its own matrices alive
        report["eval"] = scored[eval_key]
        _write_run(sub, records, report)
        results[arm] = {
            "divergence": report["eval"],
            "report_path": str(sub.report_path),
        }

    full_kl = results["full"]["divergence"]["softmax_kl"]
    plain_kl = results["plain_uniform"]["divergence"]["softmax_kl"]
    grid = {
        "arms": results,
        "direction_ok": bool(full_kl <= plain_kl),
        "direction_note": (
            "full-pipeline held-out divergence vs the plain uniform arm; "
            "orderings at this scale are recorded, not guaranteed"
        ),
    }
    grid_path = Path(cfg.out_dir) / "ablation.json"
    _write_report(grid_path, grid)
    return grid
