"""Machine-speed probe: a fixed piece of work, timed between rounds.

On a 2-vCPU virtual machine of a shared host, speed moved by up to 40%
over tens of seconds with CPU time equal to wall time: a corpus round took
0.35 s in a fast phase and 0.5 s in a slow one. The probe runs the
same code in every phase, interpreter work (struct, hashing, frozen
dataclass copies, a seeded Random) and small BLAS products, so its time
follows the machine's speed. The benchmark scales each round's times by
``REFERENCE_S / probe time``: figures read as on a machine where the probe
takes ``REFERENCE_S``. The probe never calls evasionlab, so a change to the
program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import random
import struct
import time
from dataclasses import dataclass, replace

import numpy as np

REFERENCE_S = 0.010


@dataclass(frozen=True)
class _Header:
    a: int
    b: int
    c: int
    data: bytes


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._blobs = [rng.randbytes(64) for _ in range(400)]
        gen = np.random.default_rng(0)
        self._a = gen.standard_normal((64, 256))
        self._b = gen.standard_normal((256, 256))
        self._x = gen.standard_normal((50, 128))

    def measure(self) -> float:
        """Seconds the fixed work takes now."""
        start = time.perf_counter()
        acc = 0
        for _ in range(2):
            rng = random.Random(1)
            for blob in self._blobs:
                header = _Header(1, 2, 3, blob)
                header = replace(header, c=sum(struct.unpack("!32H", header.data)) & 0xFFFF)
                acc ^= hash(tuple(blob[:8])) ^ header.c ^ rng.randrange(1 << 16)
                acc += len(struct.pack("!HHI", header.a, header.b, header.c) + blob[:8])
        for _ in range(20):
            self._a @ self._b
            np.tanh(self._x[:, :64]) * (1.0 / (1.0 + np.exp(-self._x[:, 64:])))
        return time.perf_counter() - start

    def scale(self, probe_s: float) -> float:
        """Factor that maps a time measured at ``probe_s`` to the reference speed."""
        return REFERENCE_S / probe_s
