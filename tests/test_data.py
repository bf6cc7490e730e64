import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sakit.data import (DataError, Dataset, augment, load_cifar,
                        normalization_stats, normalize, synthetic_dataset)
from sakit.rng import stream


def test_synthetic_shapes_and_balance():
    ds = synthetic_dataset(classes=10, per_class=100, size=32, seed=1)
    assert len(ds) == 1000
    assert ds.images.shape == (1000, 1, 32, 32)
    assert ds.images.dtype == np.float32
    counts = np.bincount(ds.labels, minlength=10)
    assert np.all(counts == 100)


def test_synthetic_deterministic_per_seed():
    a = synthetic_dataset(5, 20, 16, seed=9)
    b = synthetic_dataset(5, 20, 16, seed=9)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = synthetic_dataset(5, 20, 16, seed=10)
    assert not np.array_equal(a.images, c.images)


def test_synthetic_blob_size_tracks_class():
    ds = synthetic_dataset(classes=10, per_class=50, size=32, seed=2)
    # mass is equalized, so the peak must shrink as the class blob widens
    peaks = [ds.images[ds.labels == c].max() for c in range(10)]
    assert peaks[0] > 4 * peaks[9]


def _write_cifar100(path, n, seed=0):
    rng = stream(seed, "fake-cifar")
    recs = []
    for i in range(n):
        coarse = rng.integers(0, 20)
        fine = rng.integers(0, 100)
        pixels = rng.integers(0, 256, size=3072, dtype=np.int64)
        recs.append((coarse, fine, pixels))
    with open(path, "wb") as f:
        for coarse, fine, pixels in recs:
            f.write(struct.pack("BB", coarse, fine))
            f.write(bytes(pixels.tolist()))
    return recs


def test_load_cifar100_and_independent_parser(tmp_path):
    recs = _write_cifar100(tmp_path / "train.bin", 7)
    ds = load_cifar(tmp_path, "cifar100", "train")
    assert len(ds) == 7 and ds.num_classes == 100
    assert ds.images.shape == (7, 3, 32, 32)
    # independent byte-level parse of the first record
    raw = (tmp_path / "train.bin").read_bytes()
    assert ds.labels[0] == raw[1]
    r_plane = np.frombuffer(raw[2:2 + 1024], dtype=np.uint8).reshape(32, 32)
    assert np.allclose(ds.images[0, 0], r_plane / 255.0)
    b_plane = np.frombuffer(raw[2 + 2048:2 + 3072], dtype=np.uint8).reshape(32, 32)
    assert np.allclose(ds.images[0, 2], b_plane / 255.0)
    assert ds.labels[3] == recs[3][1]


def test_load_cifar10_layout(tmp_path):
    rng = stream(1, "fake-c10")
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        with open(tmp_path / name, "wb") as f:
            for _ in range(3):
                f.write(bytes([int(rng.integers(0, 10))]))
                f.write(bytes(rng.integers(0, 256, size=3072).tolist()))
    train = load_cifar(tmp_path, "cifar10", "train")
    test = load_cifar(tmp_path, "cifar10", "test")
    assert len(train) == 15 and len(test) == 3
    assert train.num_classes == 10


def test_load_cifar_truncated_file(tmp_path):
    (tmp_path / "train.bin").write_bytes(b"\0" * 3073)  # one byte short
    with pytest.raises(DataError, match="multiple"):
        load_cifar(tmp_path, "cifar100", "train")


def test_load_cifar_empty_file(tmp_path):
    (tmp_path / "train.bin").write_bytes(b"")
    with pytest.raises(DataError, match="train.bin' holds no records"):
        load_cifar(tmp_path, "cifar100", "train")


def test_load_cifar_label_out_of_range(tmp_path):
    record = bytes(3072)
    for i in range(1, 6):
        labels = [3, 9, 10, 12] if i == 3 else [0]
        (tmp_path / f"data_batch_{i}.bin").write_bytes(
            b"".join(bytes([c]) + record for c in labels))
    with pytest.raises(DataError, match=r"data_batch_3.bin' record 2 has label 10, "
                       r"not in \[0, 10\)"):
        load_cifar(tmp_path, "cifar10", "train")
    # cifar100 checks the fine label, the second byte
    (tmp_path / "test.bin").write_bytes(bytes([19, 99]) + record + bytes([0, 100]) + record)
    with pytest.raises(DataError, match=r"test.bin' record 1 has label 100, "
                       r"not in \[0, 100\)"):
        load_cifar(tmp_path, "cifar100", "test")


def test_load_cifar_missing_and_bad_args(tmp_path):
    with pytest.raises(DataError, match="missing"):
        load_cifar(tmp_path, "cifar100", "train")
    with pytest.raises(DataError, match="variant"):
        load_cifar(tmp_path, "cifar7", "train")
    with pytest.raises(DataError, match="split"):
        load_cifar(tmp_path, "cifar100", "dev")


@st.composite
def byte_edits(draw, data, label_bytes):
    """``data`` truncated, with bytes appended (whole records with a drawn
    label byte, then up to 3 more bytes), or with one bit of one byte flipped."""
    edit = draw(st.sampled_from(["truncate", "append", "flip"]))
    if edit == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if edit == "append":
        records = b"".join(bytes([draw(st.integers(0, 255))]) * label_bytes + bytes(3072)
                           for _ in range(draw(st.integers(0, 2))))
        return data + records + draw(st.binary(min_size=0 if records else 1, max_size=3))
    i, bit = draw(st.integers(0, len(data) - 1)), draw(st.integers(0, 7))
    return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1:]


@pytest.mark.parametrize("variant, fname, label_bytes, classes", [
    ("cifar10", "test_batch.bin", 1, 10), ("cifar100", "test.bin", 2, 100)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_load_cifar_under_byte_edits(variant, fname, label_bytes, classes, data):
    # a 3-record file after one edit loads whole records with in-range labels,
    # or fails with the loader's own error naming the file
    rng = stream(0, "cifar-edits", variant)
    record = label_bytes + 3072
    raw = b"".join(bytes(rng.integers(0, 10, size=label_bytes).tolist())
                   + bytes(rng.integers(0, 256, size=3072).tolist()) for _ in range(3))
    raw = data.draw(byte_edits(raw, label_bytes))
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / fname).write_bytes(raw)
        try:
            ds = load_cifar(d, variant, "test")
        except DataError as e:
            assert fname in str(e)
            return
    assert len(ds) == len(raw) // record and ds.images.shape == (len(ds), 3, 32, 32)
    assert np.array_equal(ds.labels, np.frombuffer(raw, np.uint8)[label_bytes - 1::record])
    assert ds.labels.max() < classes


def test_augment_empty_flags_is_identity():
    x = stream(2, "aug").normal(size=(4, 1, 8, 8)).astype(np.float32)
    assert np.array_equal(augment(x, (), stream(0, "r")), x)


def test_flip_twice_is_identity():
    x = stream(3, "flip").normal(size=(4, 1, 8, 8)).astype(np.float32)
    once = augment(x, ("flip",), stream(0, "r"))
    twice = augment(once, ("flip",), stream(0, "r"))
    assert np.array_equal(twice, x)
    assert not np.array_equal(once, x)


def test_unknown_flag_rejected():
    with pytest.raises(DataError, match="unknown"):
        augment(np.zeros((1, 1, 4, 4), dtype=np.float32), ("cutout",), stream(0, "r"))


def test_crop_offsets_uniform_histogram():
    # marker image encodes pixel coordinates; decode the offset drawn for
    # each of 10^4 samples and check all 81 cells are roughly uniform
    size = 16
    marker = np.zeros((1, size, size), dtype=np.float32)
    for i in range(size):
        for j in range(size):
            marker[0, i, j] = i * 100 + j
    batch = np.repeat(marker[None], 10_000, axis=0)
    out = augment(batch, ("crop-pad-4",), stream(4, "crop"))
    probe = out[:, 0, 4, 4]  # = marker[oy, ox] for offsets in [0,8]^2
    oy = (probe // 100).astype(int)
    ox = (probe % 100).astype(int)
    assert oy.min() >= 0 and oy.max() == 8 and ox.max() == 8
    hist = np.zeros((9, 9), dtype=int)
    np.add.at(hist, (oy, ox), 1)
    assert hist.sum() == 10_000
    assert hist.min() > 60 and hist.max() < 200


def test_normalization_stats_and_apply():
    ds = synthetic_dataset(3, 30, 16, seed=5)
    mean, std = normalization_stats(ds)
    z = normalize(ds.images, mean, std)
    assert abs(z.mean()) < 1e-4
    assert abs(z.std() - 1) < 1e-2


def test_dataset_validation():
    with pytest.raises(DataError, match="length"):
        Dataset(np.zeros((3, 1, 2, 2), dtype=np.float32), np.zeros(2, dtype=np.int64), 2)
    with pytest.raises(DataError, match=r"label 5 out of range \[0, 2\)"):
        Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32),
                np.array([0, 5], dtype=np.int64), 2)
    with pytest.raises(DataError, match=r"label -1 out of range \[0, 2\)"):
        Dataset(np.zeros((2, 1, 2, 2), dtype=np.float32),
                np.array([1, -1], dtype=np.int64), 2)


def test_linear_probe_below_conv_net_on_held_out_split():
    # multinomial logistic regression on raw pixels vs a small aggregation
    # net: size-coded classes at random positions should favor the conv net
    from test_train import micro_sa_net
    from sakit.training import TrainConfig, train

    train_ds = synthetic_dataset(10, 30, 16, seed=21, split="train")
    val_ds = synthetic_dataset(10, 10, 16, seed=21, split="val")

    xtr = train_ds.images.reshape(len(train_ds), -1).astype(np.float64)
    xva = val_ds.images.reshape(len(val_ds), -1).astype(np.float64)
    xtr = (xtr - xtr.mean(0)) / (xtr.std(0) + 1e-6)
    xva = (xva - xva.mean(0)) / (xva.std(0) + 1e-6)
    w = np.zeros((xtr.shape[1], 10))
    b = np.zeros(10)
    onehot = np.eye(10)[train_ds.labels]
    for _ in range(300):
        logits = xtr @ w + b
        logits -= logits.max(1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(1, keepdims=True)
        g = (p - onehot) / len(xtr)
        w -= 0.5 * (xtr.T @ g + 1e-3 * w)
        b -= 0.5 * g.sum(0)
    linear_acc = float(((xva @ w + b).argmax(1) == val_ds.labels).mean())

    cfg = TrainConfig(epochs=8, batch_size=32, lr=0.1, seed=21, deterministic=True)
    result = train(micro_sa_net(), train_ds, val_ds, cfg)
    conv_acc = result.metrics[-1]["val_top1"]
    assert conv_acc > linear_acc, (conv_acc, linear_acc)
