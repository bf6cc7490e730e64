import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sakit.checkpoint import (VERSION, CheckpointError, atomic_open, load_checkpoint,
                              save_checkpoint)
from sakit.rng import stream
from sakit.training import write_metrics_csv


def test_round_trip_bitwise(tmp_path):
    path = tmp_path / "ck.sanc"
    rng = stream(0, "ck")
    tensors = {
        "a.weight": rng.normal(size=(2, 3, 3, 3)).astype(np.float32),
        "bn.gamma": rng.normal(size=(7,)).astype(np.float64),
        "scalar": np.float32(4.25).reshape(()),
    }
    save_checkpoint(path, "network toy\n", tensors)
    spec_text, back = load_checkpoint(path)
    assert spec_text == "network toy\n"
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].dtype == tensors[name].dtype
        assert np.array_equal(back[name], tensors[name])
        assert back[name].tobytes() == np.asarray(tensors[name], order="C").tobytes()


def test_binary_layout_independent_parser(tmp_path):
    """Field-by-field decode with struct, no shared code with the writer."""
    path = tmp_path / "ck.sanc"
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    save_checkpoint(path, "spec-text", {"t": arr})
    raw = path.read_bytes()
    assert raw[:4] == b"SANC"
    off = 4
    version, = struct.unpack_from("<I", raw, off); off += 4
    assert version == VERSION
    spec_len, = struct.unpack_from("<Q", raw, off); off += 8
    assert raw[off:off + spec_len] == b"spec-text"; off += spec_len
    count, = struct.unpack_from("<Q", raw, off); off += 8
    assert count == 1
    name_len, = struct.unpack_from("<H", raw, off); off += 2
    assert raw[off:off + name_len] == b"t"; off += name_len
    dtype_code, rank = struct.unpack_from("<BB", raw, off); off += 2
    assert dtype_code == 0 and rank == 2
    dims = struct.unpack_from("<2I", raw, off); off += 8
    assert dims == (2, 3)
    vals = struct.unpack_from("<6f", raw, off); off += 24
    assert list(vals) == [0, 1, 2, 3, 4, 5]
    assert off == len(raw)


def test_repeated_tensor_name_is_rejected(tmp_path):
    path = tmp_path / "dup.sanc"
    save_checkpoint(path, "s", {"a": np.zeros(2, np.float32),
                                "b": np.ones(2, np.float32)})
    raw = path.read_bytes()
    name_at = raw.rindex(b"\x01\x00b") + 2
    path.write_bytes(raw[:name_at] + b"a" + raw[name_at + 1:])
    with pytest.raises(CheckpointError,
                       match=f"tensor 1 repeats the name 'a' at offset {name_at}"):
        load_checkpoint(path)


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.sanc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)
    good = tmp_path / "good.sanc"
    save_checkpoint(good, "", {})
    raw = bytearray(good.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.sanc"
    save_checkpoint(path, "", {"a": np.zeros(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="dtype"):
        save_checkpoint(tmp_path / "t.sanc", "", {"a": np.zeros(2, dtype=np.int32)})


@pytest.mark.parametrize("bad", [{"z": np.zeros(2, dtype=np.int32)},
                                 {"n" * 0x10000: np.zeros(2, dtype=np.float32)}])
def test_rejected_save_leaves_existing_file_unchanged(tmp_path, bad):
    path = tmp_path / "t.sanc"
    good = {"a": np.arange(3, dtype=np.float32)}
    save_checkpoint(path, "network toy\n", good)
    before = path.read_bytes()
    with pytest.raises(CheckpointError):
        save_checkpoint(path, "network toy\n", {**good, **bad})
    assert path.read_bytes() == before
    assert load_checkpoint(path)[1]["a"].tobytes() == good["a"].tobytes()


def test_write_that_raises_partway_keeps_the_old_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("old\n")
    with pytest.raises(KeyError):
        write_metrics_csv([{}], path)  # the row fails
    assert path.read_text() == "old\n"
    with pytest.raises(RuntimeError):
        with atomic_open(tmp_path / "ck.sanc", "wb") as f:
            f.write(b"SANC")
            raise RuntimeError("interrupted")
    assert os.listdir(tmp_path) == ["m.csv"]


def _sample_checkpoint(tmp_path):
    path = tmp_path / "ck.sanc"
    save_checkpoint(path, "network toy\n", {
        "a.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
        "bn.gamma": np.ones(2, dtype=np.float64)})
    return path, path.read_bytes()


def test_every_truncation_is_a_checkpoint_error(tmp_path):
    path, raw = _sample_checkpoint(tmp_path)
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(CheckpointError, match="magic|offset"):
            load_checkpoint(path)


def test_huge_dims_are_a_checkpoint_error(tmp_path):
    path = tmp_path / "huge.sanc"
    rank = 8
    raw = (b"SANC" + struct.pack("<IQ", VERSION, 0) + struct.pack("<Q", 1)
           + struct.pack("<H", 1) + b"t" + struct.pack("<BB", 1, rank)
           + struct.pack(f"<{rank}I", *[0xFFFFFFFF] * rank))
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="offset 61: tensor 't' data needs"):
        load_checkpoint(path)
    path.write_bytes(b"SANC" + struct.pack("<IQ", VERSION, 2 ** 64 - 1))
    with pytest.raises(CheckpointError, match="spec text"):
        load_checkpoint(path)
    # an empty tensor whose other dims overflow numpy's addressable size
    dims = (0, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
    path.write_bytes(raw[:27] + struct.pack("<BB", 1, 4) + struct.pack("<4I", *dims))
    with pytest.raises(CheckpointError, match=r"tensor 't' dims \(0, 4294967295, "
                       r"4294967295, 4294967295\) at offset 29 exceed"):
        load_checkpoint(path)


@given(st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupted_checkpoints_load_or_raise_checkpoint_error(tmp_path, data):
    path, raw = _sample_checkpoint(tmp_path)
    buf = bytearray(raw)
    # flip bytes, favouring the header and per-tensor fields ahead of the payloads
    for _ in range(data.draw(st.integers(1, 3))):
        last = min(len(buf) - 1, data.draw(st.sampled_from([40, 80, 999])))
        i = data.draw(st.integers(0, last))
        buf[i] = data.draw(st.integers(0, 255))
    buf = buf[:data.draw(st.integers(0, len(buf)))]
    path.write_bytes(bytes(buf))
    try:
        spec_text, tensors = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(spec_text, str)
    assert all(isinstance(t, np.ndarray) for t in tensors.values())
