"""Tensor container round trips and failure modes."""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskquant.container import ContainerError, read_tensor, write_tensor
from maskquant.daq import DaqConfig, center_rows, daq_fit
from maskquant.denoiser import ToyModelSpec, init_model, save_model
from maskquant.pipeline import _write_report
from maskquant.qformat import build_layer, write_qpk
from maskquant.rng import Rng
from maskquant.stats import SecondMoment, save_second_moment


def _traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call of `fn`."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_read_and_write_hold_one_copy_of_the_payload(tmp_path):
    # an 8 MB float64 tensor, the size of a `wide` gram: neither direction
    # copies the payload, so the peak is the array plus small temporaries
    arr = Rng(3, 1).gaussian((1024, 1024))
    path = tmp_path / "g.qdt"
    peak, _ = _traced_peak(write_tensor, path, arr)
    assert peak < 1.25 * arr.nbytes
    peak, back = _traced_peak(read_tensor, path)
    assert peak < 1.25 * arr.nbytes
    assert back.tobytes() == arr.tobytes()


def test_exact_byte_layout(tmp_path):
    path = tmp_path / "m.qdt"
    mat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    write_tensor(path, mat)
    expected = (
        b"QDT1"
        + struct.pack("<BI", 0, 2)
        + struct.pack("<QQ", 2, 2)
        + mat.astype("<f4").tobytes()
    )
    assert path.read_bytes() == expected
    assert path.stat().st_size == 41  # 4 magic + 1 dtype + 4 ndim + 16 dims + 16 payload


def test_empty_matrix_is_header_only(tmp_path):
    path = tmp_path / "e.qdt"
    write_tensor(path, np.zeros((0, 0), dtype=np.float32))
    assert path.stat().st_size == 4 + 1 + 4 + 16
    out = read_tensor(path)
    assert out.shape == (0, 0)


def test_roundtrip_random_f32_bitwise(tmp_path):
    values = np.asarray(Rng(123, 0).gaussian(1000), dtype=np.float32)
    path = tmp_path / "r.qdt"
    write_tensor(path, values)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert back.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(12, dtype=np.float64).reshape(3, 4),
        np.arange(6, dtype=np.uint32).reshape(2, 3),
        np.arange(24, dtype=np.float32).reshape(2, 3, 4),
    ],
)
def test_roundtrip_all_dtypes(tmp_path, arr):
    path = tmp_path / "t.qdt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.qdt"
    write_tensor(path, np.ones((2, 2), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="not a QDT1 file"):
        read_tensor(path)


def test_bad_dtype_code(tmp_path):
    path = tmp_path / "bad.qdt"
    write_tensor(path, np.ones((2, 2), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="unknown dtype code 9"):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "bad.qdt"
    write_tensor(path, np.ones((2, 2), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(ContainerError, match="payload is 15 bytes, header implies 16"):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "bad.qdt"
    write_tensor(path, np.ones((2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ContainerError, match="payload is 17 bytes, header implies 16"):
        read_tensor(path)


def test_nonfinite_rejected_on_write(tmp_path):
    with pytest.raises(ContainerError, match="refusing to write non-finite values"):
        write_tensor(tmp_path / "nan.qdt", np.array([np.nan], dtype=np.float32))


def test_nonfinite_rejected_on_read(tmp_path):
    path = tmp_path / "inf.qdt"
    write_tensor(path, np.zeros(2, dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[-8:-4] = np.array([np.inf], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="non-finite values in payload"):
        read_tensor(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ContainerError):
        write_tensor(tmp_path / "x.qdt", np.zeros(3, dtype=np.int64))


def test_dims_whose_product_overflows_u64_rejected(tmp_path):
    path = tmp_path / "big.qdt"
    write_tensor(path, np.zeros((0, 4), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[9 + 7] |= 0x40  # dims (2**62, 4): a product taken in 64 bits wraps to 0
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match="implausible dims"):
        read_tensor(path)


@pytest.fixture(scope="module")
def valid_tensors(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, arr in enumerate([
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.linspace(-1.0, 1.0, 4),
        np.arange(8, dtype=np.uint32).reshape(2, 2, 2),
        np.zeros((0, 4), dtype=np.float32),
    ]):
        paths.append(root / f"valid{i}.qdt")
        write_tensor(paths[-1], arr)
    return paths


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_read_tensor_damaged_bytes_raise_only_container_errors(valid_tensors, data):
    valid = data.draw(st.sampled_from(valid_tensors))
    raw = bytearray(valid.read_bytes())
    for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), max_size=3)):
        raw[bit // 8] ^= 1 << (bit % 8)
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(raw) - 1)))
    path = valid.with_name("damaged.qdt")
    path.write_bytes(bytes(raw if cut is None else raw[:cut]))
    try:
        read_tensor(path)
    except ContainerError:
        pass


def _second_moment(value):
    sm = SecondMoment(2)
    sm.accumulate(np.full((2, value), float(value)))
    return sm


def _packed_layer(value):
    mu, x = center_rows(np.full((4, 6), float(value), dtype=np.float32))
    group = daq_fit(x, cfg=DaqConfig(order=1))
    return [build_layer("w", [group], 6, 6, mu.astype(np.float32))]


# file name -> writer of a version of it into a directory
_WRITERS = {
    "t.qdt": lambda d, v: write_tensor(d / "t.qdt", np.full(3, float(v))),
    "s.qdt": lambda d, v: save_second_moment(_second_moment(v), d / "s.qdt"),
    "m.qpk": lambda d, v: write_qpk(d / "m.qpk", _packed_layer(v)),
    "report.json": lambda d, v: _write_report(d / "report.json", {"version": v}),
    "manifest.txt": lambda d, v: save_model(init_model(ToyModelSpec(seed=v)), d),
}


@pytest.mark.parametrize("name", _WRITERS)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, name):
    write = _WRITERS[name]
    write(tmp_path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_open = Path.open

    class HalfWriter:
        """Writes half of the first chunk it is given, then fails as a full disk does."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            data = memoryview(data).cast("B")
            self.f.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    def open_failing(self, mode="r", *args, **kwargs):
        f = real_open(self, mode, *args, **kwargs)
        return HalfWriter(f) if name in self.name and "w" in mode else f

    monkeypatch.setattr(Path, "open", open_failing)
    with pytest.raises(OSError):
        write(tmp_path, 2)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert after.keys() == before.keys()  # no temporary file left behind
    assert after[name] == before[name]
