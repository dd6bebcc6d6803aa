"""Machine-speed calibration for wall times measured on a shared host.

On a host whose effective CPU speed swings by up to 2x within seconds,
raw wall times cannot resolve a 25% regression.  The benchmark
therefore times this fixed kernel right before and right after every
request (and every set-up) and reports times scaled to a machine on
which the kernel takes REFERENCE_S:

    scaled = wall * REFERENCE_S / mean(kernel before, kernel after)

The speed also wobbles from one 25 ms stretch to the next, which a
request lasting seconds averages out.  So after a request the kernel is
run as many times as fill about SHARE of the request's wall time, and
its mean time is taken; after a short request it runs once.

The kernel mixes the two kinds of work nmrqc does: many small-matrix
numpy calls driven from Python, as in program building, and products
over stacks of 4x4 matrices, as in the integrator.  It is the
benchmark's own code and never changes with nmrqc.  So that the state a
program leaves behind cannot move it, the kernel writes only into
buffers allocated here at import and runs with the garbage collector
off.  Raw wall times are kept beside every scaled one.
"""
from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.025
SHARE = 0.03

_SMALL = np.exp(1j * np.arange(16.0)).reshape(4, 4) / 4
_A, _B = _SMALL[:2, :2].copy(), _SMALL[2:, 2:].copy()
_EYE = np.eye(4, dtype=complex)
_KRON = np.empty((2, 2, 2, 2), dtype=complex)
_KRON4 = _KRON.reshape(4, 4)            # a view: kron(_A, _B) lands here
_M = np.empty((4, 4), dtype=complex)
_TMP = np.empty((4, 4), dtype=complex)
_STACK = np.exp(1j * np.arange(8192 * 16.0)).reshape(8192, 4, 4) / 4
_PRODUCT = np.empty_like(_STACK)


def _run() -> None:
    np.copyto(_M, _EYE)
    for _ in range(1200):
        np.multiply(_A[:, None, :, None], _B[None, :, None, :], out=_KRON)
        np.matmul(_KRON4, _M, out=_TMP)
        np.multiply(_TMP, 1.0 / np.sqrt(np.vdot(_TMP, _TMP).real), out=_M)
    for _ in range(2):
        np.einsum("nab,nbc->nac", _STACK, _STACK, out=_PRODUCT)


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _run()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def kernel_after_s(wall: float) -> float:
    """Mean kernel time over about SHARE of `wall` seconds, at least one run."""
    runs = max(1, round(SHARE * wall / REFERENCE_S))
    return sum(kernel_s() for _ in range(runs)) / runs


def scaled(wall: float, before: float, after: float) -> float:
    """`wall` in seconds of the reference machine."""
    return wall * REFERENCE_S / (0.5 * (before + after))
