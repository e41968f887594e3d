"""Packed-format round trips, dequantization, matvec, and size accounting."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskquant import qformat
from maskquant.cli import main
from maskquant.daq import DaqConfig, QuantizedGroup, RCBinaryOrder, center_rows, daq_fit
from maskquant.errors import ContainerError, ShapeError
from maskquant.qformat import (
    LayerShape,
    build_layer,
    dequantize,
    describe_qpk,
    gigabytes,
    llada8b_like_layers,
    memory_estimate,
    pack_signs,
    rc_matvec,
    read_qpk,
    unpack_signs,
    write_qpk,
)
from maskquant.rng import Rng


def _random_signs(rows, cols, seed):
    return np.where(np.asarray(Rng(seed, 0).uniform((rows, cols))) < 0.5, 1, -1).astype(np.int8)


def _fit_layer(name, rows, cols, seed, group_width=32, order=2, centered=True):
    w = np.asarray(Rng(seed, 1).gaussian((rows, cols)), dtype=np.float32)
    mu = w.mean(axis=1) if centered else None
    target = w - mu[:, None] if centered else w
    groups = [
        daq_fit(
            target[:, start : min(start + group_width, cols)],
            cfg=DaqConfig(order=order, sweeps=3),
        )
        for start in range(0, cols, group_width)
    ]
    return build_layer(name, groups, group_width, cols, mu)


def test_pack_all_plus_ones_is_full_word():
    words = pack_signs(np.ones((1, 64), dtype=np.int8))
    assert words.tolist() == [0xFFFFFFFFFFFFFFFF]


def test_pack_single_minus_one_is_zero_word():
    words = pack_signs(np.array([[-1]], dtype=np.int8))
    assert words.tolist() == [0]


def test_pack_bit_positions_lsb_first():
    signs = -np.ones((1, 64), dtype=np.int8)
    signs[0, 0] = 1
    signs[0, 63] = 1
    words = pack_signs(signs)
    assert words.tolist() == [(1 << 0) | (1 << 63)]


def test_pack_unpack_roundtrip_large():
    signs = _random_signs(128, 128, seed=4)
    assert np.array_equal(unpack_signs(pack_signs(signs), 128, 128), signs)


@given(
    rows=st.integers(min_value=1, max_value=20),
    cols=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_pack_unpack_roundtrip_property(rows, cols, seed):
    signs = np.where(
        np.random.default_rng(seed).uniform(size=(rows, cols)) < 0.5, 1, -1
    ).astype(np.int8)
    assert np.array_equal(unpack_signs(pack_signs(signs), rows, cols), signs)


def test_pack_rejects_non_sign_values():
    with pytest.raises(ValueError):
        pack_signs(np.array([[0, 1]], dtype=np.int8))


_SIGN_DTYPES = (np.int8, np.int16, np.int64, np.uint8, np.uint64, np.bool_, np.float32, np.float64)
_SIGN_VALUES = (-1, 1, 0, 2, -2, -128, 127, 255, 256, -(2**63), 2**64 - 1, 0.5, -1.5,
                float("nan"), float("inf"), -float("inf"))


def _sign_values(dtype) -> np.ndarray:
    """The values of _SIGN_VALUES that `dtype` holds exactly."""
    if dtype is np.bool_:
        return np.array([True, False])
    out = []
    for v in _SIGN_VALUES:
        if np.dtype(dtype).kind == "f":
            out.append(v)
        elif float(v).is_integer() and np.iinfo(dtype).min <= v <= np.iinfo(dtype).max:
            out.append(int(v))
    return np.array(out, dtype=dtype)


@pytest.mark.parametrize("dtype", _SIGN_DTYPES, ids=lambda d: np.dtype(d).name)
def test_pack_accepts_what_isin_accepts(dtype):
    values = _sign_values(dtype)
    planes = [values[None, :], values[:, None]]
    planes += [v.reshape(1, 1) for v in values]
    rng = np.random.default_rng(3)
    planes += [rng.choice(values, size=(4, 5)) for _ in range(50)]
    pm1 = values[np.isin(values, (-1, 1))]
    planes += [rng.choice(pm1, size=(3, 70)) for _ in range(10)]
    for plane in planes:
        accepted = bool(np.isin(plane, (-1, 1)).all())  # the check pack_signs used to make
        assert np.array_equal(qformat._is_pm1(plane), np.isin(plane, (-1, 1))), plane
        if accepted:
            assert np.array_equal(pack_signs(plane), pack_signs(np.where(plane > 0, 1, -1)))
        else:
            with pytest.raises(ValueError):
                pack_signs(plane)


def test_pack_keeps_isin_for_other_dtypes():
    # complex 1j has modulus 1 but is not +-1; a string is no sign at all
    with pytest.raises(ValueError):
        pack_signs(np.array([[1 + 0j, 1j]]))
    assert np.array_equal(pack_signs(np.array([[1 + 0j, -1 + 0j]])), pack_signs(np.array([[1, -1]])))
    with pytest.raises(ValueError):
        pack_signs(np.array([["1", "-1"]]))


def test_unpack_rejects_nonzero_padding():
    words = pack_signs(np.array([[-1]], dtype=np.int8))
    words[0] |= 1 << 5  # pad bit
    with pytest.raises(ContainerError, match="nonzero padding bits"):
        unpack_signs(words, 1, 1)


def test_dequantize_constant_cases():
    ones = daq_fit(np.ones((4, 6), dtype=np.float32), cfg=DaqConfig(order=1))
    layer = build_layer("x", [ones], 6, 6, None)
    assert np.allclose(dequantize(layer), 1.0, atol=1e-3)
    # all scales zero, constant row mean
    zeros = daq_fit(np.zeros((4, 6), dtype=np.float32), cfg=DaqConfig(order=1))
    layer = build_layer("y", [zeros], 6, 6, np.full(4, 2.5))
    assert np.allclose(dequantize(layer), 2.5)


def test_encode_dequantize_close_to_inmemory():
    w = np.asarray(Rng(5, 1).gaussian((48, 64)), dtype=np.float32)
    mu, x = center_rows(w)
    mu = mu.astype(np.float32)
    group = daq_fit(x, cfg=DaqConfig(order=2))
    layer = build_layer("z", [group], 64, 64, mu)
    packed = dequantize(layer)
    in_memory = group.reconstruct() + mu[:, None]
    scale = np.abs(in_memory).max()
    assert np.allclose(packed, in_memory, atol=1e-3 * scale)


def test_qpk_roundtrip(tmp_path):
    layers = [
        _fit_layer("block0.up", 24, 40, seed=6),
        _fit_layer("block0.down", 16, 24, seed=7, centered=False, order=3),
    ]
    path = tmp_path / "m.qpk"
    write_qpk(path, layers)
    back = read_qpk(path)
    assert [l.name for l in back] == ["block0.up", "block0.down"]
    for orig, loaded in zip(layers, back):
        assert (loaded.rows, loaded.cols) == (orig.rows, orig.cols)
        assert loaded.group_width == orig.group_width
        if orig.row_mean is None:
            assert loaded.row_mean is None
        else:
            assert np.array_equal(loaded.row_mean, orig.row_mean)
        for g1, g2 in zip(orig.groups, loaded.groups):
            assert g1.order == g2.order
            assert np.array_equal(g1.planes, g2.planes)
            assert np.array_equal(g1.alpha_r, g2.alpha_r)
            assert np.array_equal(g1.alpha_c, g2.alpha_c)
        assert np.array_equal(dequantize(orig), dequantize(loaded))


def test_qpk_corruption_detected(tmp_path):
    path = tmp_path / "m.qpk"
    write_qpk(path, [_fit_layer("a", 8, 16, seed=8)])
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="not a QPK1 file"):
        read_qpk(path)
    write_qpk(path, [_fit_layer("a", 8, 16, seed=8)])
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ContainerError, match="truncated at byte"):
        read_qpk(path)


# rows x cols signs fill bits 0 .. rows*cols-1 of each plane's only word;
# the rest, up to bit 63, are padding
@pytest.mark.parametrize("rows, cols, bit", [(3, 5, 15), (3, 5, 40), (3, 5, 63), (7, 9, 63)])
def test_read_qpk_refuses_a_pad_bit_in_a_later_plane(tmp_path, rows, cols, bit):
    layer = _fit_layer("a", rows, cols, seed=17, group_width=cols, order=3)
    layer.groups[0].planes[1, -1] |= np.uint64(1 << bit)
    path = tmp_path / "m.qpk"
    write_qpk(path, [layer])
    with pytest.raises(ContainerError, match="padding"):
        read_qpk(path)


def test_read_qpk_accepts_planes_without_padding(tmp_path):
    # 8 x 8 signs fill whole words, so the top bit of the last word is a sign
    group = QuantizedGroup(orders=[
        RCBinaryOrder(alpha_r=np.ones(8, np.float32), alpha_c=np.ones(8, np.float32),
                      signs=np.ones((8, 8), np.int8))
        for _ in range(3)
    ])
    layer = build_layer("a", [group], 8, 8)
    assert (layer.groups[0].planes == np.uint64(2**64 - 1)).all()
    path = tmp_path / "m.qpk"
    write_qpk(path, [layer])
    assert np.array_equal(dequantize(read_qpk(path)[0]), np.full((8, 8), 3.0, np.float32))


def test_rc_matvec_zero_vector():
    layer = _fit_layer("a", 12, 20, seed=9)
    assert np.array_equal(rc_matvec(layer, np.zeros(20)), np.zeros(12))


def test_rc_matvec_basis_probe():
    layer = _fit_layer("a", 10, 14, seed=10, group_width=5)
    dense = dequantize(layer).astype(np.float64)
    for j in (0, 5, 13):
        basis = np.zeros(14)
        basis[j] = 1.0
        assert np.allclose(rc_matvec(layer, basis), dense[:, j], rtol=1e-6, atol=1e-9)


def test_rc_matvec_matches_dense_oracle():
    for seed in range(10):
        layer = _fit_layer("a", 33, 47, seed=100 + seed, group_width=16, order=(seed % 3) + 1)
        x = np.asarray(Rng(seed, 2).gaussian(47))
        dense = dequantize(layer).astype(np.float64) @ x
        fast = rc_matvec(layer, x)
        assert np.allclose(fast, dense, rtol=1e-5, atol=1e-7 * np.abs(dense).max())


def test_rc_matvec_length_checked():
    layer = _fit_layer("a", 8, 12, seed=11)
    with pytest.raises(ShapeError):
        rc_matvec(layer, np.zeros(11))


def _per_term_matvec(layer, x):
    """Reference oracle: decode each term's signs and multiply them in float64."""
    y = np.zeros(layer.rows)
    if layer.row_mean is not None:
        y += layer.row_mean.astype(np.float64) * x.sum()
    start = 0
    for g in layer.groups:
        for k in range(g.order):
            signs = unpack_signs(g.planes[k], g.rows, g.cols)
            v = g.alpha_c[k].astype(np.float64) * x[start : start + g.cols]
            y += g.alpha_r[k].astype(np.float64) * (signs @ v)
        start += g.cols
    return y


def _abs_terms(layer, x):
    """Per row, the sum of the magnitudes of everything the matvec adds up."""
    total = np.zeros(layer.rows)
    if layer.row_mean is not None:
        total += np.abs(layer.row_mean.astype(np.float64)) * np.abs(x.sum())
    start = 0
    for g in layer.groups:
        ac = np.abs(g.alpha_c.astype(np.float64)) @ np.abs(x[start : start + g.cols])
        total += np.abs(g.alpha_r.astype(np.float64)).T @ ac
        start += g.cols
    return total


@given(
    rows=st.integers(min_value=1, max_value=40),
    width=st.one_of(
        st.integers(min_value=1, max_value=7),
        st.sampled_from([8, 16]),
        st.integers(min_value=9, max_value=20).filter(lambda w: w % 8),
    ),
    groups=st.integers(min_value=1, max_value=4),
    ragged_tail=st.integers(min_value=0, max_value=19),
    orders=st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4),
    with_mean=st.booleans(),
    fortran_planes=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_rc_matvec_byte_tables_property(
    rows, width, groups, ragged_tail, orders, with_mean, fortran_planes, seed
):
    # whole groups of `width` columns, then possibly a narrower last group
    cols = width * groups + ragged_tail % width
    rng = np.random.default_rng(seed)
    fits = []
    for g, start in enumerate(range(0, cols, width)):
        w = min(width, cols - start)
        terms = [
            RCBinaryOrder(
                alpha_r=rng.uniform(0.01, 0.1, rows).astype(np.float32),
                alpha_c=rng.uniform(0.5, 1.5, w).astype(np.float32),
                signs=np.where(rng.random((rows, w)) < 0.5, -1, 1).astype(np.int8),
            )
            for _ in range(orders[g % len(orders)])
        ]
        fits.append(QuantizedGroup(orders=terms))
    mean = rng.standard_normal(rows).astype(np.float32) if with_mean else None
    layer = build_layer("w", fits, width, cols, mean)
    if fortran_planes:
        for g in layer.groups:
            g.planes = np.asfortranarray(g.planes)
    x = rng.standard_normal(cols)
    fast = rc_matvec(layer, x)
    # the float32 dense matrix rounds each entry, so its error scales with
    # |W| @ |x|, as in the benchmark's check
    dense = dequantize(layer).astype(np.float64)
    assert (np.abs(fast - dense @ x) <= 1e-5 * (np.abs(dense) @ np.abs(x))).all()
    assert (np.abs(fast - _per_term_matvec(layer, x)) <= 1e-12 * _abs_terms(layer, x)).all()


def test_memory_estimate_component_arithmetic():
    # 4096x4096, uniform order 2, width 128: 4 MiB of sign planes and
    # 2*2*(4096+128) bytes of scales per group over 32 groups
    shape = LayerShape.tiled("w", 4096, 4096, 128, 2, row_mean=False)
    assert shape.groups == ((128, 2),) * 32
    plane_bytes = sum(order * 8 * ((4096 * gc + 63) // 64) for gc, order in shape.groups)
    scale_bytes = sum(order * 2 * (4096 + gc) for gc, order in shape.groups)
    assert plane_bytes == 4 * 1024 * 1024
    assert scale_bytes == 540_672
    total = memory_estimate([shape])
    overhead = 8 + 2 + 1 + 24 + 1 + 8 + 32 * 9
    assert total == plane_bytes + scale_bytes + overhead
    assert total / (1024 * 1024) == pytest.approx(4.52, abs=0.01)


def test_memory_estimate_equals_file_size(tmp_path):
    layers = [
        _fit_layer("block0.up", 24, 40, seed=12),
        _fit_layer("block0.down", 16, 24, seed=13, order=1),
        _fit_layer("тék.layer", 8, 8, seed=14, group_width=8, centered=False),
    ]
    path = tmp_path / "m.qpk"
    write_qpk(path, layers)
    assert memory_estimate(describe_qpk(layers)) == path.stat().st_size
    assert memory_estimate(describe_qpk(read_qpk(path))) == path.stat().st_size


def test_memory_anchor_fp16():
    size = memory_estimate([], fp16_params=8_045_000_000)
    assert gigabytes(size) == pytest.approx(16.09, rel=0.005)


def test_memory_anchor_llada_like():
    layers, fp16_params = llada8b_like_layers()
    quantized = sum(l.rows * gc for l in layers for gc, _ in l.groups)
    assert quantized == pytest.approx(7.0e9, rel=0.01)
    assert fp16_params == pytest.approx(1.0e9, rel=0.05)
    size = memory_estimate(layers, fp16_params)
    assert 3.1 <= gigabytes(size) <= 4.3


def test_memory_estimate_ratio_invariant():
    # reallocation moves orders around but keeps the byte total identical
    # when every group has the same width
    uniform = LayerShape.tiled("w", 512, 512, 128, 2)
    mixed = LayerShape("w", 512, ((128, 3), (128, 2), (128, 2), (128, 1)))
    assert memory_estimate([uniform]) == memory_estimate([mixed])


def test_tiled_shape_follows_the_pipeline_partition():
    # a ragged last group, as abmp.partition tiles it
    shape = LayerShape.tiled("w", 6, 10, group_width=4, order=3, row_mean=False)
    assert shape.groups == ((4, 3), (4, 3), (2, 3))
    assert not shape.row_mean


_RAGGED_LAYER = st.integers(1, 12).flatmap(
    lambda cols: st.tuples(
        st.integers(1, 9),  # rows
        st.just(cols),
        # cut points split the columns into groups of any widths
        st.sets(st.integers(1, cols - 1), max_size=cols - 1) if cols > 1 else st.just(set()),
        st.integers(1, 2 * cols),  # header group width, unrelated to the groups
        st.booleans(),  # row means
        st.integers(0, 2**32 - 1),  # seed of signs, scales and orders
    )
)


def _ragged_layer(name, rows, cols, cuts, group_width, centered, seed):
    """A layer record whose groups have the widths that `cuts` gives, each at
    a random order of 1 to 3, whatever `group_width` its header records."""
    rng = np.random.default_rng(seed)
    edges = [0, *sorted(cuts), cols]
    groups = []
    for start, end in zip(edges, edges[1:]):
        terms = [
            RCBinaryOrder(
                alpha_r=rng.uniform(0.1, 1.0, rows).astype(np.float32),
                alpha_c=rng.uniform(0.1, 1.0, end - start).astype(np.float32),
                signs=np.where(rng.random((rows, end - start)) < 0.5, 1, -1).astype(np.int8),
            )
            for _ in range(rng.integers(1, 4))
        ]
        groups.append(QuantizedGroup(terms))
    mu = rng.standard_normal(rows) if centered else None
    return build_layer(name, groups, group_width, cols, mu)


@given(layers=st.lists(_RAGGED_LAYER, min_size=1, max_size=3))
@example(layers=[(10, 8, {7}, 4, True, 0)])  # groups of 7 and 1 columns under width 4
@example(layers=[(10, 8, {2, 5}, 4, True, 0)])  # three groups where the width makes two
@settings(max_examples=60, deadline=None)
def test_size_accounting_is_exact_on_any_readable_grouping(layers, tmp_path_factory):
    # read_qpk accepts any group widths that add up to the layer's columns;
    # the estimate and `estimate-mem --qpk` must size each such file exactly
    records = [_ragged_layer(f"l{i}", *spec) for i, spec in enumerate(layers)]
    path = tmp_path_factory.mktemp("qpk") / "m.qpk"
    write_qpk(path, records)
    size = path.stat().st_size
    assert memory_estimate(describe_qpk(records)) == size
    assert memory_estimate(describe_qpk(read_qpk(path))) == size
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["estimate-mem", "--qpk", str(path)]) == 0
    assert json.loads(out.getvalue())["bytes"] == size


def _dequantize_oracle(layer):
    """dequantize as first written: each term added in place onto a zero layer."""
    out = np.zeros((layer.rows, layer.cols), dtype=np.float32)
    start = 0
    for g in layer.groups:
        cols = slice(start, start + g.cols)
        for k in range(g.order):
            signs = unpack_signs(g.planes[k], g.rows, g.cols)
            alpha_r, alpha_c = g.alpha_r[k].astype(np.float32), g.alpha_c[k].astype(np.float32)
            out[:, cols] += np.outer(alpha_r, alpha_c) * signs
        start += g.cols
    if layer.row_mean is not None:
        out += layer.row_mean.astype(np.float32)[:, None]
    return out


@pytest.mark.parametrize("with_mean", [False, True])
def test_dequantize_is_the_oracle_bit_for_bit(with_mean):
    rng = np.random.default_rng(5)
    rows = 12
    fits = []
    for order, width in zip((1, 3, 2, 3), (8, 8, 8, 5)):  # mixed orders, a ragged last group
        terms = [
            RCBinaryOrder(
                alpha_r=rng.uniform(0.01, 0.1, rows).astype(np.float32),
                alpha_c=rng.uniform(0.5, 1.5, width).astype(np.float32),
                signs=np.where(rng.random((rows, width)) < 0.5, -1, 1).astype(np.int8),
            )
            for _ in range(order)
        ]
        fits.append(QuantizedGroup(orders=terms))
    # a zero row scale times -1 signs is -0.0; dequantize must store +0.0 there
    fits[0].orders[0].alpha_r[0] = 0.0
    fits[0].orders[0].signs[0] = -1
    mean = rng.standard_normal(rows).astype(np.float32) if with_mean else None
    record = build_layer("w", fits, 8, 29, mean)
    matrix = dequantize(record)
    assert matrix.dtype == np.float32 and matrix.shape == (rows, 29)
    assert matrix.tobytes() == _dequantize_oracle(record).tobytes()
    if not with_mean:
        assert not np.signbit(matrix[0, :8]).any()  # the zero row scale's row of group 0


def test_build_layer_rejects_values_beyond_float16():
    group = daq_fit(np.ones((4, 6), dtype=np.float32), cfg=DaqConfig(order=1))
    layer = build_layer("w", [group], 6, 6, np.full(4, 65519.0))  # rounds to the finite max
    assert (layer.row_mean == np.float16(65504)).all()
    with pytest.raises(ContainerError, match="'w': row means"):
        build_layer("w", [group], 6, 6, np.full(4, 65520.0))
    huge = daq_fit(np.full((4, 6), 1e10, dtype=np.float32), cfg=DaqConfig(order=1))
    with pytest.raises(ContainerError, match="'w'.*float16"):
        build_layer("w", [huge], 6, 6)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["row_mean", "alpha_c"])
def test_read_rejects_non_finite_halves(tmp_path, where, value):
    group = daq_fit(np.ones((4, 6), dtype=np.float32), cfg=DaqConfig(order=1))
    path = tmp_path / "m.qpk"
    write_qpk(path, [build_layer("w", [group], 6, 6, np.zeros(4))])
    raw = bytearray(path.read_bytes())
    # the row means follow the 36-byte file and layer header; alpha_c ends the file
    at = 36 if where == "row_mean" else len(raw) - 2
    raw[at : at + 2] = np.float16(value).astype("<f2").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="non-finite"):
        read_qpk(path)


@pytest.fixture(scope="module")
def valid_qpk(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.qpk"
    write_qpk(path, [
        _fit_layer("block0.up", 6, 10, seed=15, group_width=4, order=3),
        _fit_layer("b", 3, 5, seed=16, centered=False, order=1),
    ])
    return path


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_read_qpk_damaged_bytes_raise_only_format_errors(valid_qpk, data):
    raw = bytearray(valid_qpk.read_bytes())
    for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), max_size=3)):
        raw[bit // 8] ^= 1 << (bit % 8)
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(raw) - 1)))
    path = valid_qpk.with_name("damaged.qpk")
    path.write_bytes(bytes(raw if cut is None else raw[:cut]))
    try:
        read_qpk(path)
    except ContainerError:
        pass
