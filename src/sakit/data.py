"""Dataset ingestion and augmentation.

CIFAR binaries follow the standard record layout (label byte(s) then 3072
channel-major pixel bytes); the synthetic generator renders one Gaussian
blob per image whose size encodes the class, with equalized total mass and
a random position, so local multi-scale structure (not global statistics)
separates the classes.
"""

import os
from dataclasses import dataclass

import numpy as np

from .rng import stream


class DataError(ValueError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) int64
    num_classes: int
    split: str = ""
    mean: np.ndarray = None  # per-channel, attached by normalization_stats
    std: np.ndarray = None

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise DataError("images/labels length mismatch")
        bad = self.labels[(self.labels < 0) | (self.labels >= self.num_classes)]
        if bad.size:
            raise DataError(f"label {bad[0]} out of range [0, {self.num_classes})")

    def __len__(self):
        return len(self.labels)

    @property
    def channels(self):
        return self.images.shape[1]


_CIFAR_FILES = {
    "cifar10": {"train": [f"data_batch_{i}.bin" for i in range(1, 6)],
                "test": ["test_batch.bin"]},
    "cifar100": {"train": ["train.bin"], "test": ["test.bin"]},
}


def load_cifar(path, variant="cifar100", split="train") -> Dataset:
    """Read CIFAR binary batches from a directory.

    cifar100 records are 1 coarse + 1 fine label byte + 3072 pixel bytes
    (1024 R, 1024 G, 1024 B, row-major 32x32); cifar10 records are 1 label
    byte + 3072 pixel bytes. Fine labels are used for cifar100.
    """
    if variant not in _CIFAR_FILES:
        raise DataError(f"unknown variant '{variant}'")
    if split not in ("train", "test"):
        raise DataError(f"unknown split '{split}'")
    label_bytes = 2 if variant == "cifar100" else 1
    record = label_bytes + 3072
    classes = 100 if variant == "cifar100" else 10
    images, labels = [], []
    for fname in _CIFAR_FILES[variant][split]:
        fpath = os.path.join(path, fname)
        if not os.path.exists(fpath):
            raise DataError(f"missing file '{fpath}'")
        raw = np.fromfile(fpath, dtype=np.uint8)
        if raw.size == 0:
            raise DataError(f"'{fpath}' holds no records")
        if raw.size % record != 0:
            raise DataError(
                f"'{fpath}': {raw.size} bytes is not a multiple of record size {record}")
        recs = raw.reshape(-1, record)
        file_labels = recs[:, label_bytes - 1].astype(np.int64)
        bad = np.flatnonzero(file_labels >= classes)
        if bad.size:
            raise DataError(f"'{fpath}' record {bad[0]} has label {file_labels[bad[0]]}, "
                            f"not in [0, {classes})")
        labels.append(file_labels)
        images.append(recs[:, label_bytes:].reshape(-1, 3, 32, 32))
    images = np.concatenate(images).astype(np.float32) / 255.0
    labels = np.concatenate(labels)
    return Dataset(images, labels, classes, split=split)


def synthetic_dataset(classes=10, per_class=100, size=32, seed=0,
                      split="train") -> Dataset:
    """Class-conditional blobs: class c gets a Gaussian of width sigma_c
    (geometric ladder from 1 to 4 pixels at size 32), equal integrated mass,
    uniformly random center, light pixel noise. Deterministic per seed."""
    rng = stream(seed, "synthetic", split)
    n = classes * per_class
    sigmas = 1.0 * (4.0 ** (np.arange(classes) / max(classes - 1, 1))) * (size / 32.0)
    mass = 4.0 * 2 * np.pi * sigmas[0] ** 2  # peak amplitude 4 for the finest class
    images = np.empty((n, 1, size, size), dtype=np.float32)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    yy, xx = np.mgrid[0:size, 0:size]
    for i in range(n):
        c = labels[i]
        sigma = sigmas[c] * (1.0 + rng.uniform(-0.1, 0.1))
        margin = min(3.0 * sigma, (size - 1) / 2 - 1)
        cy = rng.uniform(margin, size - 1 - margin)
        cx = rng.uniform(margin, size - 1 - margin)
        amp = mass / (2 * np.pi * sigma ** 2)
        blob = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
        noise = rng.normal(0.0, 0.02, size=(size, size))
        images[i, 0] = (blob + noise).astype(np.float32)
    perm = stream(seed, "synthetic-perm", split).permutation(n)
    return Dataset(images[perm], labels[perm], classes, split=split)


AUGMENT_FLAGS = ("flip", "crop-pad-4")


def augment(batch, flags, rng):
    """Random horizontal flip (each image with probability 0.5) and zero-pad-4
    random crop back to input dims."""
    unknown = set(flags) - set(AUGMENT_FLAGS)
    if unknown:
        raise DataError(f"unknown augmentation flags {sorted(unknown)}")
    x = batch
    if "flip" in flags:
        do = rng.random(len(x)) < 0.5
        x = np.where(do[:, None, None, None], x[:, :, :, ::-1], x)
    if "crop-pad-4" in flags:
        n, c, h, w = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (4, 4), (4, 4)))
        offs = rng.integers(0, 9, size=(n, 2))
        out = np.empty_like(x)
        for i in range(n):
            oy, ox = offs[i]
            out[i] = xp[i, :, oy:oy + h, ox:ox + w]
        x = out
    return np.ascontiguousarray(x)


def normalization_stats(ds: Dataset):
    """Per-channel mean/std over the whole split; std floored away from zero."""
    mean = ds.images.mean(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    std = ds.images.std(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
    std = np.maximum(std, 1e-6)
    ds.mean, ds.std = mean, std
    return mean, std


def normalize(images, mean, std):
    return (images - mean[None, :, None, None]) / std[None, :, None, None]
