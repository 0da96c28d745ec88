"""Machine-speed calibration: a fixed piece of work that uses no qsiglab code.

The host this benchmark runs on changes speed by itself, by up to a third
over stretches of seconds to minutes, with the process on the CPU the whole
time (its CPU time equals its wall time). Timing the same fixed work right
after each operation measures that speed where the operation ran. Every
timing the benchmark reports is scaled by ``REF_MS / calibration time``,
that is, to the speed at which this work takes ``REF_MS``.

The work is a mix shaped like qsiglab's: Python-level loops, numpy scalar
indexing, small-array numpy calls, reshape-transposes of complex vectors of
4096 and 65536 elements (the second the size of a 16-qubit state) and
SHA-256 over short strings. It does not depend on the workload, the seed
or the program, so a change to qsiglab does not change what it does.
"""
from __future__ import annotations

import gc
import hashlib
import statistics
import time

import numpy as np

REF_MS = 3.5  # calibration time at the reference speed

_U = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=np.int64)
_W = np.array([0, 1, 1, 0, 1, 1, 0, 1], dtype=np.int64)
_VEC = (np.arange(4096) + 1j).astype(np.complex128)
_BIG = (np.arange(1 << 16) + 1j).astype(np.complex128)
# written in place, so that the work's time does not depend on whether the
# allocator has to fetch fresh pages for 1 MiB arrays after an operation
_BUF = np.zeros((2, 1 << 16), dtype=np.complex128)


def _work() -> int:
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    for _ in range(60):
        for i in range(4):
            acc ^= int((_U[2 * i] & _W[2 * i + 1]) ^ (_U[2 * i + 1] & _W[2 * i]))
    x = _U
    for _ in range(150):
        x = (x + _W) % 2
        acc += np.array_equal(x, _U)
    a = _VEC
    for _ in range(40):
        a = (a * (0.5 + 0.5j)).reshape(64, 64).T.reshape(-1) + _VEC
    b = _BIG
    for _ in range(2):
        np.multiply(b, 0.5 + 0.5j, out=_BUF[0])
        np.copyto(_BUF[1].reshape(256, 256), _BUF[0].reshape(256, 256).T)
        b = np.add(_BUF[1], _BIG, out=_BUF[0])
    for i in range(300):
        acc += hashlib.sha256(b"qsigbench:%d" % i).digest()[0]
    return acc


def calibrate() -> float:
    """Seconds the fixed work takes now.

    The work is run once untimed first, so that the timed run finds its code
    and data in the caches whatever the operation before it left there, and
    with the cyclic garbage collector off, as the cost of a collection grows
    with the objects the program keeps alive. The work makes no cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(reps: int = 9) -> float:
    """``REF_MS`` over the median of ``reps`` calibrations."""
    return REF_MS * 1e-3 / statistics.median(calibrate() for _ in range(reps))
