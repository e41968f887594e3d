"""Bit-exact packed storage of quantized layers ("QPK1").

File layout, all integers little-endian:

    magic        4 bytes  b"QPK1"
    layer_count  u32
    per layer:
        name_len   u16, then UTF-8 name bytes
        rows m     u64 x 3   (rows, cols, group_width)
        row_mean   u8 flag; if 1, rows x float16
        num_groups u64
        per group, in column order:
            cols   u64      (columns in this group)
            order  u8       (number of binary terms)
            planes order x ceil(rows*cols/64) x u64
            alpha_r order x rows x float16
            alpha_c order x cols x float16

Sign planes are packed row-major, LSB-first within each 64-bit word, bit 1
meaning +1; trailing pad bits are zero and are verified on read. Scales
are stored half precision and widened before any arithmetic.

The struct constants and :func:`_group_nbytes` below are the one
definition of this layout: the writer, the reader and
:func:`memory_estimate` all use them, so an estimate over the same layer
descriptions equals the encoded file size.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .abmp import partition
from .container import _write_atomic
from .daq import QuantizedGroup
from .errors import ContainerError, ShapeError

MAGIC = b"QPK1"
_MAX_ORDER = 3

_FILE_HEADER = struct.Struct("<4sI")     # magic, layer count
_NAME_LEN = struct.Struct("<H")          # followed by the UTF-8 name
_LAYER_HEADER = struct.Struct("<QQQB")   # rows, cols, group width, row-mean flag
_GROUP_COUNT = struct.Struct("<Q")       # after the optional row means
_GROUP_HEADER = struct.Struct("<QB")     # group cols, order


def _plane_words(rows: int, cols: int) -> int:
    return (rows * cols + 63) // 64


def _group_nbytes(rows: int, cols: int, order: int) -> int:
    """Encoded size of one group: header, sign planes, alpha_r, alpha_c."""
    return _GROUP_HEADER.size + order * (8 * _plane_words(rows, cols) + 2 * (rows + cols))


def _is_pm1(a: np.ndarray) -> np.ndarray:
    """Whether each entry is -1 or +1, exactly as np.isin(a, (-1, 1)) decides,
    without isin's overhead for real dtypes. `a == -1` would raise on
    unsigned dtypes; |a| == 1 holds for exactly -1 and +1 (int8's -128 keeps
    its sign under abs). Complex, object and string entries keep isin."""
    return np.abs(a) == 1 if a.dtype.kind in "biuf" else np.isin(a, (-1, 1))


def pack_signs(signs: np.ndarray) -> np.ndarray:
    """Pack a +-1 matrix into u64 words: row-major bits, LSB first, +1 -> 1."""
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ShapeError("sign matrix must be 2-D")
    if not _is_pm1(signs).all():
        raise ValueError("sign matrix entries must be +-1")
    bits = (signs > 0).astype(np.uint8).ravel()
    pad = (-bits.size) % 64
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    packed = np.packbits(bits, bitorder="little")
    return packed.view("<u8").copy()


def unpack_signs(words: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`pack_signs`; rejects nonzero padding bits."""
    words = np.ascontiguousarray(words, dtype="<u8")
    expected = _plane_words(rows, cols)
    if words.size != expected:
        raise ContainerError(f"plane has {words.size} words, expected {expected}")
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    if bits[rows * cols :].any():
        raise ContainerError("nonzero padding bits in sign plane")
    signs = bits[: rows * cols].view(np.int8)
    signs *= 2  # 0/1 -> -1/+1 in place: no wider temporary
    signs -= 1
    return signs.reshape(rows, cols)


@dataclass
class PackedGroup:
    rows: int
    cols: int
    order: int
    planes: np.ndarray   # (order, words) u64
    alpha_r: np.ndarray  # (order, rows) float16
    alpha_c: np.ndarray  # (order, cols) float16


@dataclass
class QpkLayer:
    name: str
    rows: int
    cols: int
    group_width: int
    row_mean: np.ndarray | None  # (rows,) float16
    groups: list[PackedGroup]


def _half(values, what: str) -> np.ndarray:
    """Cast to float16 for storage; a value the cast cannot hold is an error.

    The check follows the cast because values just above 65504 still round
    to it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.asarray(values, dtype=np.float16)
    if not np.isfinite(half).all():
        raise ContainerError(f"{what} exceed the float16 range")
    return half


def pack_group(group: QuantizedGroup, name: str) -> PackedGroup:
    rows, cols = group.shape
    return PackedGroup(
        rows=rows,
        cols=cols,
        order=len(group.orders),
        planes=np.stack([pack_signs(term.signs) for term in group.orders]),
        alpha_r=_half([term.alpha_r for term in group.orders], f"layer {name!r}: row scales"),
        alpha_c=_half([term.alpha_c for term in group.orders], f"layer {name!r}: column scales"),
    )


def build_layer(
    name: str,
    groups: Sequence[QuantizedGroup],
    group_width: int,
    cols: int,
    row_mean: np.ndarray | None = None,
) -> QpkLayer:
    """Pack per-group fits and assemble them into one encodable layer record."""
    return _layer_record(name, [pack_group(g, name) for g in groups], group_width, cols, row_mean)


def _layer_record(
    name: str,
    groups: Sequence[PackedGroup],
    group_width: int,
    cols: int,
    row_mean: np.ndarray | None,
) -> QpkLayer:
    """Assemble packed groups, in column order, into one encodable layer record."""
    if not groups:
        raise ShapeError("layer needs at least one group")
    rows = groups[0].rows
    if any(g.rows != rows for g in groups):
        raise ShapeError("groups disagree on row count")
    if sum(g.cols for g in groups) != cols:
        raise ShapeError("group widths do not sum to the layer's columns")
    mean16 = None
    if row_mean is not None:
        mean16 = _half(row_mean, f"layer {name!r}: row means")
        if mean16.shape != (rows,):
            raise ShapeError(f"row_mean shape {mean16.shape}, expected ({rows},)")
    return QpkLayer(name, rows, cols, group_width, mean16, list(groups))


def dequantize(layer: QpkLayer) -> np.ndarray:
    """Full layer reconstruction in float32, including the stored row mean:
    each group's terms are added in order, in place, onto one zero layer, so
    no entry is -0.0."""
    out = np.zeros((layer.rows, layer.cols), dtype=np.float32)
    start = 0
    for g in layer.groups:
        block = out[:, start : start + g.cols]
        for k in range(g.order):
            alpha_r, alpha_c = g.alpha_r[k].astype(np.float32), g.alpha_c[k].astype(np.float32)
            block += np.outer(alpha_r, alpha_c) * unpack_signs(g.planes[k], g.rows, g.cols)
        start += g.cols
    if layer.row_mean is not None:
        out += layer.row_mean.astype(np.float32)[:, None]
    return out


# _BITS[p, b] is the sign that bit b (LSB first) of byte p stands for
_BITS = np.where((np.arange(256)[:, None] >> np.arange(8)) & 1, 1.0, -1.0)


def _row_bytes(g: PackedGroup) -> np.ndarray:
    """The group's sign bits as (order, rows, ceil(cols/8)) bytes, each row
    starting on a byte boundary and zero-padded at its end."""
    nb = -(-g.cols // 8)
    planes = np.ascontiguousarray(g.planes, dtype="<u8").view(np.uint8)
    if g.cols % 8 == 0:
        return planes[:, : g.rows * nb].reshape(g.order, g.rows, nb)
    bits = np.unpackbits(planes, axis=1, count=g.rows * g.cols, bitorder="little")
    return np.packbits(bits.reshape(g.order, g.rows, g.cols), axis=2, bitorder="little")


def rc_matvec(layer: QpkLayer, x: np.ndarray) -> np.ndarray:
    """Multiply the packed layer by a vector without materializing it.

    Per group, the column scales fold into the input once (v = alpha_c * x,
    zero-padded to whole bytes), and each run of 8 columns gets a table of
    the 256 signed sums of its 8 entries. Every packed sign byte is then one
    lookup into that table (the byte-table matvec of LUT-GEMM), and the row
    scales weight the looked-up sums. Rows of a group whose width is not a
    multiple of 8 are first repacked onto byte boundaries. All arithmetic
    is float64; the result matches dense dequantize-then-multiply to float
    rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layer.cols,):
        raise ShapeError(f"vector has shape {x.shape}, layer expects ({layer.cols},)")
    y = np.zeros(layer.rows, dtype=np.float64)
    if layer.row_mean is not None:
        y += layer.row_mean.astype(np.float64) * x.sum()
    start = 0
    for g in layer.groups:
        nb = -(-g.cols // 8)
        v = np.zeros((g.order, 8 * nb))
        v[:, : g.cols] = g.alpha_c.astype(np.float64) * x[start : start + g.cols]
        table = v.reshape(g.order, nb, 8) @ _BITS.T  # (order, nb, 256)
        offsets = 256 * np.arange(g.order * nb).reshape(g.order, 1, nb) + _row_bytes(g)
        sums = table.ravel().take(offsets)  # (order, rows, nb)
        y += np.einsum("kr,krj->r", g.alpha_r.astype(np.float64), sums)
        start += g.cols
    return y


# --- encoding ---------------------------------------------------------------


def write_qpk(path: str | os.PathLike, layers: Sequence[QpkLayer]) -> None:
    buf = bytearray(_FILE_HEADER.pack(MAGIC, len(layers)))
    for layer in layers:
        name = layer.name.encode("utf-8")
        buf += _NAME_LEN.pack(len(name))
        buf += name
        has_mean = layer.row_mean is not None
        buf += _LAYER_HEADER.pack(layer.rows, layer.cols, layer.group_width, has_mean)
        if has_mean:
            buf += layer.row_mean.astype("<f2").tobytes()
        buf += _GROUP_COUNT.pack(len(layer.groups))
        for g in layer.groups:
            buf += _GROUP_HEADER.pack(g.cols, g.order)
            buf += g.planes.astype("<u8").tobytes()
            buf += g.alpha_r.astype("<f2").tobytes()
            buf += g.alpha_c.astype("<f2").tobytes()
    _write_atomic(path, buf)


class _Reader:
    def __init__(self, raw: bytes, label: str):
        self.raw = raw
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise ContainerError(f"{self.label}: truncated at byte {self.pos}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, layout: struct.Struct):
        return layout.unpack(self.take(layout.size))


def _read_group(rd: _Reader, name: str, rows: int, cols: int, order: int) -> PackedGroup:
    body = rd.take(_group_nbytes(rows, cols, order) - _GROUP_HEADER.size)
    words = _plane_words(rows, cols)
    planes = np.frombuffer(body, dtype="<u8", count=order * words).reshape(order, words)
    scales = np.frombuffer(body, dtype="<f2", offset=planes.nbytes)
    if not np.isfinite(scales).all():
        raise ContainerError(f"{rd.label}: non-finite scale in layer {name!r}")
    pad = -(rows * cols) % 64  # the high bits of each plane's last word
    if pad and (planes[:, -1] & np.uint64(((1 << pad) - 1) << (64 - pad))).any():
        raise ContainerError(f"{rd.label}: nonzero padding bits in layer {name!r}")
    return PackedGroup(
        rows=rows,
        cols=cols,
        order=order,
        planes=planes.copy(),
        alpha_r=scales[: order * rows].reshape(order, rows).copy(),
        alpha_c=scales[order * rows :].reshape(order, cols).copy(),
    )


def read_qpk(path: str | os.PathLike) -> list[QpkLayer]:
    raw = Path(path).read_bytes()
    rd = _Reader(raw, str(path))
    magic, layer_count = rd.unpack(_FILE_HEADER)
    if magic != MAGIC:
        raise ContainerError(f"{path}: not a QPK1 file")
    layers = []
    for _ in range(layer_count):
        (name_len,) = rd.unpack(_NAME_LEN)
        try:
            name = rd.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"{path}: layer name is not UTF-8 ({exc.reason})") from None
        rows, cols, group_width, has_mean = rd.unpack(_LAYER_HEADER)
        if rows < 1 or cols < 1 or group_width < 1:
            raise ContainerError(f"{path}: implausible shape for layer {name!r}")
        row_mean = None
        if has_mean == 1:
            row_mean = np.frombuffer(rd.take(2 * rows), dtype="<f2").copy()
            if not np.isfinite(row_mean).all():
                raise ContainerError(f"{path}: non-finite row mean in layer {name!r}")
        elif has_mean != 0:
            raise ContainerError(f"{path}: bad row-mean flag {has_mean}")
        (num_groups,) = rd.unpack(_GROUP_COUNT)
        groups = []
        covered = 0
        for _ in range(num_groups):
            g_cols, order = rd.unpack(_GROUP_HEADER)
            if not 1 <= order <= _MAX_ORDER:
                raise ContainerError(f"{path}: bad order {order} in layer {name!r}")
            if g_cols < 1 or covered + g_cols > cols:
                raise ContainerError(f"{path}: group overruns layer {name!r}")
            groups.append(_read_group(rd, name, rows, g_cols, order))
            covered += g_cols
        if covered != cols:
            raise ContainerError(f"{path}: groups cover {covered} of {cols} columns")
        layers.append(QpkLayer(name, rows, cols, group_width, row_mean, groups))
    if rd.pos != len(raw):
        raise ContainerError(f"{path}: {len(raw) - rd.pos} trailing bytes")
    return layers


# --- size accounting ---------------------------------------------------------


@dataclass(frozen=True)
class LayerShape:
    """Description of one quantized layer for size estimation: one
    (cols, order) pair per group, in column order."""

    name: str
    rows: int
    groups: tuple[tuple[int, int], ...]
    row_mean: bool = True

    @classmethod
    def tiled(cls, name: str, rows: int, cols: int, group_width=128, order=2, row_mean=True):
        """A layer not yet quantized: its columns tiled as the pipeline tiles
        them, every group at one order."""
        widths = partition(rows, cols, group_width).widths()
        return cls(name, rows, tuple((w, order) for w in widths), row_mean)


def memory_estimate(layers: Sequence[LayerShape], fp16_params: int = 0) -> int:
    """Exact encoded size in bytes of the described layers, headers included,
    plus two bytes per parameter kept in half precision outside the file."""
    total = _FILE_HEADER.size
    for layer in layers:
        total += _NAME_LEN.size + len(layer.name.encode("utf-8"))
        total += _LAYER_HEADER.size + _GROUP_COUNT.size
        if layer.row_mean:
            total += 2 * layer.rows
        for g_cols, order in layer.groups:
            total += _group_nbytes(layer.rows, g_cols, order)
    return total + 2 * fp16_params


def describe_qpk(layers: Sequence[QpkLayer]) -> list[LayerShape]:
    """Layer descriptions matching already-encoded data, for size checks."""
    return [
        LayerShape(
            name=layer.name,
            rows=layer.rows,
            groups=tuple((g.cols, g.order) for g in layer.groups),
            row_mean=layer.row_mean is not None,
        )
        for layer in layers
    ]


def gigabytes(size_bytes: int) -> float:
    """Decimal gigabytes, the convention used in model-size tables."""
    return size_bytes / 1e9


def llada8b_like_layers() -> tuple[list[LayerShape], int]:
    """Size-estimation stand-in for an 8B-parameter masked diffusion model.

    Assumptions: 32 transformer blocks with hidden width 4096 and MLP width
    12288; per block, four 4096x4096 attention projections plus gate/up
    (12288x4096) and down (4096x12288) MLP projections, all quantized at a
    2-bit average with 128-column groups, half-precision scales, and stored
    row means. Tied-size embedding and output head (vocab 126464 x 4096)
    stay in half precision. Roughly 7.0e9 quantized and 1.0e9 half-precision
    parameters.
    """
    layers = []
    for block in range(32):
        for suffix, rows, cols in (
            ("attn.q", 4096, 4096),
            ("attn.k", 4096, 4096),
            ("attn.v", 4096, 4096),
            ("attn.o", 4096, 4096),
            ("mlp.gate", 12288, 4096),
            ("mlp.up", 12288, 4096),
            ("mlp.down", 4096, 12288),
        ):
            layers.append(LayerShape.tiled(f"block{block}.{suffix}", rows, cols))
    fp16_params = 2 * 126464 * 4096
    return layers, fp16_params
