"""Seeded RNG streams on a counter-based generator.

Every randomized stage (init, shuffling, augmentation, synthetic data) pulls
an independent stream derived from the run seed plus string labels, so adding
or reordering the stages that draw never perturbs the others.
"""

import zlib

import numpy as np


def stream(seed: int, *labels) -> np.random.Generator:
    """Return a Philox generator keyed by ``seed`` and the given labels.

    Labels may be strings or ints; identical (seed, labels) always yields an
    identical stream, independent of call order elsewhere in the program.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        if isinstance(label, int):
            entropy.append(label & 0xFFFFFFFFFFFFFFFF)
        else:
            entropy.append(zlib.crc32(str(label).encode("utf-8")))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
