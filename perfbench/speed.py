"""A fixed speed probe, so that op times can be compared on a drifting host.

On a shared host the CPU speed one process gets drifts by 15-20% over tens
of seconds, and every kind of code slows down together.  (Measured on a
2-vCPU x86 VM: a pure-Python loop, a batched einsum over 10^4 3x3 matrices
and a small-matrix numpy loop, timed back to back for 80 s, had per-op
coefficients of variation near 20% and pairwise correlations of 0.8-0.9.)
A run of a few dozen seconds cannot average that out: medians of the raw op
wall time of 21 s runs spread by 9-18% between runs.

So the benchmark times this probe between ops and rescales each op's time
to the probe's nominal duration: ``wall * NOMINAL_S / probe``, where probe is
the mean of the probes right before and right after the op.  The probe is
numpy and Python code of the benchmark's own, never gumkf, so no change to
gumkf moves it.  It mixes the four kinds of work the workloads do (per-call
Python overhead on small matrices, batched 3x3 products and solves,
10^4-element vector passes, and building a Philox generator per draw);
rescaling by it cut the spread of 24 s window
medians of op times by a factor of 1.7 to 3 on every workload.

Set-up is mostly importing numpy and scipy in a fresh interpreter, which
drifts differently from compute (by up to 30% between runs minutes apart,
even after rescaling by the probe above).  So ``import_probe`` times a fresh
interpreter importing the third-party and standard modules gumkf depends
on, and each set-up time is divided by the import probe run right before
it.  Over 90 s of alternating pairs, medians of seven such ratios varied by
2%, against 7% for set-up times rescaled by the compute probe and 19% raw.
The import probe never imports gumkf, so work gumkf adds to its own import
or set-up still shows in full.
"""

import subprocess
import sys
import time

import numpy as np

# Median probe duration on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4), so rescaled times read as seconds at that speed.
# It holds for the fixed sizes below; changing any of them invalidates it.
NOMINAL_S = 0.2
# Median import probe duration on the reference host at that speed.
IMPORT_NOMINAL_S = 0.47
_IMPORTS = ("numpy, numpy.random, scipy.linalg, scipy.special, argparse, csv, hashlib, json, "
            "concurrent.futures, dataclasses, pathlib")

_F = np.array([[1.0, 0.05, 0.01], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_Q = np.diag([0.0, 1e-4, 1e-8])
_H = np.array([[1.0, 0.0, 0.0]])
_R = np.array([[1.0]])
_P0 = np.diag([0.0, 1e-4, 6.4e-5])
_I = np.eye(3)
_Y = np.array([1.0])
_rng = np.random.default_rng(0)
_BATCH = _rng.random((10_000, 3, 3))
_VECTORS = _rng.random((10_000, 3))
_UNIFORMS = np.sort(_rng.random(10_000))


def _small_matrices():
    x, P = np.zeros(3), _P0
    for _ in range(1500):
        x = _F @ x
        P = _F @ P @ _F.T + _Q
        P = (P + P.T) / 2
        np.linalg.eigvalsh(P)
        K = np.linalg.solve(_H @ P @ _H.T + _R, _H @ P).T
        x = x + K @ (_Y - _H @ x)
        A = _I - K @ _H
        P = A @ P @ A.T + K @ _R @ K.T
        P = (P + P.T) / 2
        np.linalg.eigvalsh(P)


def _batched():
    for _ in range(6):
        np.einsum("mij,mjk,mlk->mil", _BATCH, _BATCH, _BATCH)
        np.linalg.solve(_BATCH[:, :1, :1] + 1.0, _BATCH[:, :1, :])


def _vectors():
    for _ in range(40):
        w = np.exp(-0.5 * (_VECTORS[:, 0] - 0.5) ** 2)
        w /= w.sum()
        idx = np.searchsorted(np.cumsum(w), _UNIFORMS)
        _VECTORS[np.minimum(idx, len(w) - 1)]
        w @ _VECTORS


def _generators():
    for i in range(1000):
        np.random.Generator(np.random.Philox(np.random.SeedSequence([7, 1, i, 3]))).random(4)


def probe() -> float:
    """Seconds this host takes now for the fixed probe work."""
    t0 = time.perf_counter()
    _small_matrices()
    _batched()
    _vectors()
    _generators()
    return time.perf_counter() - t0


def import_probe() -> float:
    """Seconds a fresh interpreter takes now to import the modules gumkf imports."""
    code = f"import time; t0 = time.perf_counter(); import {_IMPORTS}; print(time.perf_counter() - t0)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)
