"""The byte-identity tool: its listing and its refusal of a used output directory."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"
_spec = importlib.util.spec_from_file_location("output_hashes", _PATH)
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)


def test_hashes_list_every_file_by_relative_path(tmp_path):
    files = {"seed0/toy/model.qpk": b"a", "seed0/toy/stats/block0.up.qdt": b"b", "seed0/grid": b""}
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(data)
    assert output_hashes.hashes(tmp_path) == [
        f"{hashlib.sha256(files[name]).hexdigest()}  {name}" for name in sorted(files)
    ]


def test_refuses_an_output_directory_that_holds_files(tmp_path):
    (tmp_path / "old").write_bytes(b"")
    with pytest.raises(SystemExit) as exc:
        output_hashes.main([str(tmp_path)])
    assert exc.value.code == 2
