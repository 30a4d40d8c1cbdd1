"""Shared domain types, covariance utilities and reproducible random streams.

All estimators in this package operate on the small set of value objects
defined here: Gaussian state beliefs, linear/nonlinear system descriptions,
parameter knowledge, and a seedable plan for addressing independent random
substreams.  Everything is immutable and safe to share between threads.
Both system types answer one contract, whose pairs linearize (f(x), F) and
linearize_obs (h(x), H) give a filter step its model in one call each; the
per-trial products on trial-axis-last stacks (_mm, _mv) live here too.  _mm
sums its terms in one fixed order, bit for bit alike in its two forms: one
broadcast product and one reduce for a small stack, such as a filter's
(M = 1), and a loop over the terms for a large one, such as a Monte Carlo
block of 1e4 trials.  The sampling path is trial-axis-last too: a block of
normal_rows and the draws of mvn_rows and mvn_sample are the (M, n) views
of C (n, M) stacks, and _apply gives its einsum, whose sums follow the
batch's layout, a C-ordered x.  mvn_rows, the gated draw of the Monte Carlo
steps and the particle filter, factors each distinct covariance once
(_factor_columns, a bounded cache of psd_sqrt keyed by its bytes) and
draws, converts and transforms only the variates of the factor's nonzero
columns: a third fewer for the tank's Q = diag(0, tau^2, alpha^2).
"""

from __future__ import annotations

import _imp
import hashlib
import numbers
import os
import sys
import types
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy
from numpy.random import Generator, Philox, SeedSequence


def _load_ndtri():
    """scipy.special.ndtri, the same ufunc object, taken from the extension
    module scipy.special._ufuncs without running scipy/special/__init__.py,
    whose array-API layer (numpy.testing, numpy.f2py, numpy.ma, unittest)
    costs about half of gumkf's import.  An empty stand-in package holds the
    name scipy.special, under the import lock so that no other thread sees
    it, until _ufuncs is loaded; a later import scipy.special runs the real
    package, which finds the same _ufuncs.  A real scipy.special that is
    already loaded, or loading in another thread, is used as is, imported
    after the lock is released so as not to wait on that thread holding it."""
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(scipy.__path__[0], "special")]
    _imp.acquire_lock()
    if sys.modules.setdefault("scipy.special", stub) is not stub:
        _imp.release_lock()
        from scipy.special import ndtri
        return ndtri
    try:
        from scipy.special._ufuncs import ndtri
        return ndtri
    finally:
        del sys.modules["scipy.special"]
        _imp.release_lock()


ndtri = _load_ndtri()


class DimensionError(ValueError):
    """Shapes of the supplied arrays are inconsistent."""


class NumericError(RuntimeError):
    """A numerical contract was violated (singular matrix, non-finite value)."""


class CapacityError(RuntimeError):
    """A requested allocation exceeds the configured memory budget."""


class ConfigError(ValueError):
    """Invalid configuration input."""


def _named(where: str, fn: Callable, *args):
    """fn(*args), with a NumericError or DimensionError of its gates re-raised
    naming `where` (e.g. "kf_correct at k=3") in place of fn's own name."""
    try:
        return fn(*args)
    except (NumericError, DimensionError) as exc:
        raise type(exc)(str(exc).replace(fn.__name__, where)) from exc


# ---------------------------------------------------------------------------
# covariance utilities


def symmetrize(cov: np.ndarray) -> np.ndarray:
    """Return the symmetric part (A + A.T) / 2 of a square matrix."""
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return (a + a.T) / 2.0


def assert_psd(cov: np.ndarray, tol: float = 1e-10) -> bool:
    """Check positive semidefiniteness of a symmetric matrix.

    Returns True iff every entry is finite and the smallest eigenvalue is
    >= -tol * ||cov||.
    Raises DimensionError for non-square or significantly asymmetric input.
    """
    a = np.asarray(cov, dtype=float)
    scale = _scale(a)
    return bool(np.isfinite(scale)) and _psd(np.linalg.eigvalsh((a + a.T) / 2.0), scale, tol)


def _scale(a: np.ndarray) -> float:
    """Largest absolute entry of a, refusing a non-square or significantly
    asymmetric matrix as assert_psd does; inf or nan, unchecked for
    symmetry, if an entry is not finite."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    if 0 < scale < np.inf and np.abs(a - a.T).max() > 1e-8 * scale:
        raise DimensionError("matrix is asymmetric beyond tolerance")
    return scale


def _psd(w: np.ndarray, scale: float, tol: float) -> bool:
    """The eigenvalue test of every PSD gate: w, the eigenvalues of a matrix
    whose largest absolute entry is `scale`, are >= -tol * scale."""
    return w.size == 0 or bool(w.min() >= -tol * max(scale, 1e-300))


def _require_beliefs(means: np.ndarray, covs: np.ndarray, where: Callable[[int], str]) -> None:
    """The gate of every belief, on the stacks means (N, d) and covs (N, d,
    d): finite mean and covariance, covariance symmetric to 1e-12 and with
    eigenvalues >= -1e-10 relative to its largest absolute entry.  The
    first belief that fails, i, raises naming where(i): NumericError when
    not finite or not PSD, DimensionError when asymmetric.  The symmetry and
    eigenvalue tests run on the beliefs before the first non-finite one."""
    scale = np.abs(covs).max(axis=(1, 2), initial=0.0)  # a NaN makes scale NaN
    finite = np.isfinite(scale) & np.isfinite(means).all(axis=1)
    end = means.shape[0] if finite.all() else int(np.argmin(finite))
    covs, scale = covs[:end], scale[:end]
    asym = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0) > 1e-12 * scale
    w = np.linalg.eigvalsh((covs + covs.transpose(0, 2, 1)) / 2.0)
    bad = asym | ~np.all(w >= -1e-10 * np.maximum(scale, 1e-300)[:, np.newaxis], axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if asym[i]:
            raise DimensionError(f"covariance is asymmetric beyond 1e-12 relative ({where(i)})")
        raise NumericError(f"covariance is not positive semidefinite ({where(i)})")
    if end < means.shape[0]:
        raise NumericError(f"mean or covariance is not finite ({where(end)})")


def require_psd(cov: np.ndarray, tol: float = 1e-10, context: str = "") -> np.ndarray:
    """Gate used after every filter step; raises NumericError on failure."""
    if not assert_psd(cov, tol):
        where = f" ({context})" if context else ""
        raise NumericError(f"covariance is not positive semidefinite{where}")
    return cov


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Square-root factor L with L @ L.T == cov for PSD cov.

    One eigendecomposition serves the factor and require_psd's gate (1e-10,
    NumericError naming psd_sqrt, as also for a non-finite cov); the
    eigenvalues that pass it below zero are clamped, so exactly singular
    covariances (zero rows/columns) work.
    """
    a = np.asarray(cov, dtype=float)
    scale = _scale(a)
    if not np.isfinite(scale):
        raise NumericError("covariance is not finite (psd_sqrt)")
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    if not _psd(w, scale, 1e-10):
        raise NumericError("covariance is not positive semidefinite (psd_sqrt)")
    return v * np.sqrt(np.maximum(w, 0.0))  # np.clip's own ufunc, without its wrapper


@lru_cache(maxsize=32)
def _factor_columns(data: bytes, shape: Tuple[int, int]) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """(factor, used) for the float64 covariance of these bytes and shape:
    psd_sqrt's factor kept to its columns `used`, those with a nonzero
    entry, read only.  A bounded cache, safe to share between threads,
    keyed by the covariance's exact bytes: psd_sqrt's gate (its errors
    naming mvn_rows) runs once per distinct covariance and is as strong as
    before, since only bytes that passed it are reused; a covariance it
    refuses is not cached and raises on every call."""
    factor = _named("mvn_rows", psd_sqrt, np.frombuffer(data).reshape(shape))
    used = tuple(int(c) for c in np.flatnonzero((factor != 0).any(axis=0)))
    factor = factor[:, list(used)]
    factor.setflags(write=False)
    return factor, used


def finite_difference_jacobian(
    fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    rel_step: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference Jacobian of fn at x, step rel_step*(|x_i|+1).

    x may carry leading trial axes, shape (..., n); fn then maps (..., n) to
    (..., p) and the result is the stack of Jacobians, shape (..., p, n).
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]

    def ev(v):
        return np.asarray(fn(v), dtype=float).reshape(lead + (-1,))

    f0 = ev(x)
    jac = np.empty(lead + (f0.shape[-1], x.shape[-1]))
    for i in range(x.shape[-1]):
        h = rel_step * (np.abs(x[..., i]) + 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[..., i] += h
        xm[..., i] -= h
        jac[..., i] = (ev(xp) - ev(xm)) / (2.0 * np.asarray(h)[..., np.newaxis])
    return jac


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class GaussianBelief:
    """A state estimate: finite mean vector with symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise DimensionError("mean must be a vector")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionError(
                f"cov shape {cov.shape} does not match mean dimension {mean.shape[0]}"
            )
        _require_beliefs(mean[np.newaxis], cov[np.newaxis], lambda _: "GaussianBelief")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


MatrixSpec = Union[np.ndarray, Callable]


def _eval_matrix(spec: MatrixSpec, *args) -> np.ndarray:
    if callable(spec):
        return np.asarray(spec(*args), dtype=float)
    return np.asarray(spec, dtype=float)


def _at_least_2d(a: np.ndarray) -> np.ndarray:
    """np.atleast_2d of an array, called only when it has fewer axes."""
    return a if a.ndim >= 2 else np.atleast_2d(a)


def _apply(matrix: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(matrix x, matrix) for a matrix or (M, r, c) stack and one vector or
    an (M, c) batch; a matrix that does not fit x is a DimensionError.

    The einsum gets x C-ordered: from c = 3 on its sums follow the batch's
    layout, and a Monte Carlo block's states are the (M, c) view of a
    (c, M) stack, where mc_batch's one-trial blocks are C-ordered."""
    if matrix.shape[-1:] != np.shape(x)[-1:]:
        raise DimensionError(f"matrix shape {matrix.shape} does not fit x {np.shape(x)}")
    return np.einsum("...ij,...j->...i", matrix, np.ascontiguousarray(x)), matrix


@dataclass(frozen=True)
class LinearModel:
    """Linear state-space system x(k+1) = F x(k) + w, y(k) = H x(k) + v.

    It answers NonlinearModel's contract: f, h, F and H of (x, theta, k),
    and the pairs (f(x), F) = linearize(x, theta, k) and (h(x), H) =
    linearize_obs(x, theta, k), which evaluate a matrix callable once.  F
    and H are the system matrices, exact Jacobians that ignore x.
    `state_matrix` and `obs_matrix` may be constant arrays or callables of
    (k, theta); noise covariances may be constant arrays or callables of k.
    theta is None, one parameter vector, or an (M, n_theta) batch with a
    leading trial axis; for a batch the matrix callables return (M, ., .)
    stacks, or one matrix that holds for every trial.
    """

    state_matrix: MatrixSpec
    obs_matrix: MatrixSpec
    process_noise: MatrixSpec
    obs_noise: MatrixSpec

    def F(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        return _eval_matrix(self.state_matrix, k, theta)

    def H(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        return _at_least_2d(_eval_matrix(self.obs_matrix, k, theta))

    def linearize(self, x: np.ndarray, theta, k: int) -> Tuple[np.ndarray, np.ndarray]:
        return _apply(self.F(x, theta, k), x)

    def linearize_obs(self, x: np.ndarray, theta, k: int) -> Tuple[np.ndarray, np.ndarray]:
        return _apply(self.H(x, theta, k), x)

    def f(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        return self.linearize(x, theta, k)[0]

    def h(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        return self.linearize_obs(x, theta, k)[0]

    def Q(self, k: int) -> np.ndarray:
        return _eval_matrix(self.process_noise, k)

    def R(self, k: int) -> np.ndarray:
        return _eval_matrix(self.obs_noise, k)


@dataclass(frozen=True)
class NonlinearModel:
    """Nonlinear system x(k+1) = f(x, theta, k) + w, y(k) = h(x, theta, k) + v.

    x is one state vector or an (M, n) batch with a leading trial axis (theta
    then None or (M, n_theta)); every callable handles both.  Jacobian
    callables return (..., rows, n) stacks, or one matrix that holds for
    every trial.  Jacobians are optional; central finite differences are
    used as fallback.  linearize(x, theta, k) is (f(x), F) and
    linearize_obs(x, theta, k) is (h(x), H), as for LinearModel.  The
    optional `linearization(x, theta, k)` returns the pair (f(x), F) in one
    call, so that a model can share the work of the two, e.g. cos and sin of
    one argument; when it is set, linearize calls it alone, and it must
    return state_fn's and F's values bit for bit.  f and F still call
    state_fn and the Jacobian (the particle filter calls f alone), so the
    separate callables stay the joint one's reference.
    """

    state_fn: Callable
    obs_fn: Callable
    process_noise: MatrixSpec
    obs_noise: MatrixSpec
    state_jacobian: Optional[Callable] = None
    obs_jacobian: Optional[Callable] = None
    linearization: Optional[Callable] = None

    def f(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        out = np.asarray(self.state_fn(x, theta, k), dtype=float)
        return out.reshape(np.shape(x)[:-1] + (-1,))

    def h(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        out = np.asarray(self.obs_fn(x, theta, k), dtype=float)
        return out.reshape(np.shape(x)[:-1] + (-1,))

    def F(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        if self.state_jacobian is not None:
            return np.asarray(self.state_jacobian(x, theta, k), dtype=float)
        return finite_difference_jacobian(lambda v: self.state_fn(v, theta, k), x)

    def H(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        if self.obs_jacobian is not None:
            return _at_least_2d(np.asarray(self.obs_jacobian(x, theta, k), dtype=float))
        return finite_difference_jacobian(lambda v: self.obs_fn(v, theta, k), x)

    def linearize(self, x: np.ndarray, theta, k: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.linearization is None:
            return self.f(x, theta, k), self.F(x, theta, k)
        fx, F = self.linearization(x, theta, k)
        fx = np.asarray(fx, dtype=float).reshape(np.shape(x)[:-1] + (-1,))
        return fx, np.asarray(F, dtype=float)

    def linearize_obs(self, x: np.ndarray, theta, k: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.h(x, theta, k), self.H(x, theta, k)

    def Q(self, k: int) -> np.ndarray:
        return _eval_matrix(self.process_noise, k)

    def R(self, k: int) -> np.ndarray:
        return _eval_matrix(self.obs_noise, k)


@dataclass(frozen=True)
class ParameterKnowledge:
    """Estimate of uncertain model parameters with its covariance."""

    estimate: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        est = np.atleast_1d(np.asarray(self.estimate, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (est.shape[0], est.shape[0]):
            raise DimensionError("parameter covariance shape mismatch")
        if not np.isfinite(est).all():
            raise NumericError("estimate is not finite (ParameterKnowledge)")
        require_psd(cov, 1e-10, "ParameterKnowledge")
        est.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.estimate.shape[0]


# ---------------------------------------------------------------------------
# reproducible random streams


@lru_cache(maxsize=None)
def _label_id(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


_M32 = 0xFFFFFFFF


def _words(value: int) -> list:
    """SeedSequence's uint32 words of a non-negative int, little-endian; 0 is
    one word."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _stream_keys(seed: int, ks, label: str) -> np.ndarray:
    """The Philox keys of the streams (seed, k, label) for every k of ks, an
    (len(ks), 2) uint64 array: row i is SeedSequence([seed, 1, ks[i],
    _label_id(label)]).generate_state(2, np.uint64), numpy's uint32 hash
    evaluated on arrays over k.  The hash constants depend only on the word
    position and are folded as Python ints, so no uint32 scalar overflows."""
    k = np.asarray(ks)
    if k.size and not (k.min() >= 0 and k.max() <= _M32):
        raise ConfigError("stream time index k must be in [0, 2**32)")
    k = k.astype(np.uint32).reshape(-1)
    head, tail = _words(int(seed)) + [1], _words(_label_id(label))
    entropy = [np.full_like(k, w) for w in head] + [k] + [np.full_like(k, w) for w in tail]
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * 0x931E8875) & _M32  # MULT_A
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * 0xCA01F9DD - y * 0x4973F715  # MIX_MULT_L, MIX_MULT_R
        return out ^ (out >> 16)

    pool = [hashmix(word) for word in entropy[:4]]  # entropy has at least four words
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = 0x8B51F9DD, []  # INIT_B
    for word in pool:  # generate_state(2, uint64): four words, one per pool entry
        word = word ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _M32  # MULT_B
        word = word * hash_const
        state.append((word ^ (word >> 16)).astype(np.uint64))
    return np.stack([state[0] | (state[1] << 32), state[2] | (state[3] << 32)], axis=1)


def _mulhilo(a: int, b: np.ndarray):
    """(high, low) uint64 words of the 128-bit products of the constant a and
    the uint64 array b, built from 32-bit halves."""
    a_lo, a_hi, b_lo, b_hi = a & _M32, a >> 32, b & _M32, b >> 32
    lh, hl = b_lo * a_hi, b_hi * a_lo
    mid = ((b_lo * a_lo) >> 32) + (lh & _M32) + (hl & _M32)
    return b_hi * a_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), b * a


def _philox_first(keys: np.ndarray) -> np.ndarray:
    """First uint64 output of Philox4x64-10 under each key of the (M, 2)
    array: counter 1, as numpy increments the counter before it generates."""
    k0, k1 = keys[:, 0], keys[:, 1]
    zero = np.zeros_like(k0)
    c0, c1, c2, c3 = zero + 1, zero, zero, zero
    for r in range(10):
        if r:  # bump the key between rounds
            k0, k1 = k0 + 0x9E3779B97F4A7C15, k1 + 0xBB67AE8584CAA73B
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, c0)
        hi1, lo1 = _mulhilo(0xCA5A826395121157, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0


@dataclass(frozen=True)
class RngStreamPlan:
    """Deterministic, counter-addressable random substreams.

    Draws for Monte Carlo trials are addressed by (time index k, label) with
    the trial index selecting a fixed-width counter offset into the Philox
    stream.  Normal variates are produced from uniforms via the inverse CDF so
    every variate consumes exactly one 64-bit counter step: trial m of a block
    draw is bit-identical to a single-trial draw advanced to offset m.
    normal_rows reads the raw Philox words and converts and transforms only
    the lanes of the columns asked for; the others, and the padding lanes
    that align each trial to a counter step, are generated but never
    converted.  mvn_rows asks for the columns that its covariance's cached
    factor uses, so no variate is transformed only to be multiplied by 0.
    step_normals draws one variate for each of many time indices in one pass
    (the simulator's whole record), equal to the single-trial draws bit for
    bit; its keys and first Philox output are computed on arrays over k.
    uniform_rows is the one uniform draw (the particle filter's resampling).
    """

    master_seed: int

    def __post_init__(self):
        seed = self.master_seed
        if (
            isinstance(seed, bool)
            or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 2**64
        ):
            raise ConfigError("master_seed must be a 64-bit non-negative integer")

    def _bitgen(self, k: int, label: str, start: int) -> Philox:
        """The Philox stream (k, label) advanced by `start` outputs.  Philox
        advances in 128-bit counter steps of 4 uint64 outputs, one output
        per double; offsets must therefore be multiples of 4."""
        if start % 4:
            raise ConfigError("uniform_rows offset must be a multiple of 4")
        bg = Philox(SeedSequence([int(self.master_seed), 1, int(k), _label_id(label)]))
        if start:
            bg.advance(int(start) // 4)
        return bg

    def uniform_rows(self, k: int, label: str, start: int, count: int) -> np.ndarray:
        return Generator(self._bitgen(k, label, start)).random(count)

    def normal_rows(
        self, k: int, label: str, start_trial: int, trials: int, width: int, columns=None
    ) -> np.ndarray:
        """Standard-normal block of shape (trials, width) for trials starting
        at `start_trial`; row m equals the draw of absolute trial start+m.

        Trial m owns the counter-aligned run of `stride` Philox outputs from
        (start_trial + m) * stride, lane c its variate of column c.  Only the
        lanes of `columns` (default: all `width`), in their order, are read
        with random_raw, converted as numpy's next_double, (w >> 11) * 2**-53,
        clamped and transformed, so normal_rows(..., columns=c) equals
        normal_rows(...)[:, c] bit for bit and returns (trials, len(c)).  The
        block is the view of a C (len(c), trials) stack, trial axis last."""
        stride = ((width + 3) // 4) * 4  # counter-aligned per-trial stride
        cols = range(width) if columns is None else list(columns)
        if not all(0 <= c < width for c in cols):
            raise DimensionError(f"normal_rows: columns {cols} outside width {width}")
        words = self._bitgen(k, label, start_trial * stride).random_raw(trials * stride)
        words = words.reshape(trials, stride)
        rows, bits = np.empty((len(cols), trials)), np.empty(trials, np.int64)
        for row, c in zip(rows, cols):
            np.right_shift(words[:, c], 11, out=bits, casting="unsafe")  # < 2**53: exact
            np.multiply(bits, 2.0**-53, out=row)
        np.maximum(rows, np.nextafter(0.0, 1.0), out=rows)
        return ndtri(rows, out=rows).T

    def mvn_rows(
        self, k: int, label: str, start_trial: int, trials: int, mean: np.ndarray, cov: np.ndarray
    ) -> np.ndarray:
        """Draws from N(mean, cov), shape (trials, n), for the trials of
        normal_rows(k, label, start_trial, trials, n): the gated draw of the
        Monte Carlo steps and the particle filter.

        cov is factored by _factor_columns, psd_sqrt's factor (and gate,
        NumericError naming mvn_rows) cached per distinct covariance, kept
        to its nonzero columns; only those columns' variates are drawn and
        transformed.  The result is mvn_sample(mean, cov, normal_rows(k,
        label, start_trial, trials, n)) bit for bit but for the sign of an
        exactly zero entry where mean is -0.0: a skipped term is a zero
        column times a finite variate, +-0.  It is the (trials, n) view of
        a C (n, trials) stack."""
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionError("mvn_rows: cov shape does not match mean")
        factor, used = _factor_columns(cov.tobytes(), cov.shape)
        z = self.normal_rows(k, label, start_trial, trials, mean.shape[0], columns=used)
        return _affine(mean, factor, z)

    def step_normals(self, ks, label: str) -> np.ndarray:
        """One standard normal per time index of ks, in one pass: entry i
        equals normal_rows(ks[i], label, 0, 1, 1)[0, 0] bit for bit."""
        w = _philox_first(_stream_keys(self.master_seed, ks, label))
        return ndtri(np.maximum((w >> 11) * 2.0**-53, np.nextafter(0.0, 1.0)))


# ---------------------------------------------------------------------------
# structure-of-arrays stacks, trial axis last


def _soa(matrix: np.ndarray) -> np.ndarray:
    """(r, c, M) stack of a (M, r, c) per-trial stack, or (r, c, 1) for one
    matrix shared by every trial.  A float64 array is taken as it is when
    its stack is a view of it: a matrix, or a per-trial stack filled trial
    axis last, as the tank's Jacobian is."""
    if type(matrix) is np.ndarray and matrix.dtype == np.float64:  # without re-wrapping
        if matrix.ndim == 2:
            return matrix[:, :, np.newaxis]  # the filters' Q, R and H
        if matrix.ndim == 3:
            a = matrix.transpose(1, 2, 0)
            if a.flags.c_contiguous:  # e.g. a Jacobian filled trial axis last
                return a
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.ndim == 2:
        return a[:, :, np.newaxis]
    return np.ascontiguousarray(a.transpose(1, 2, 0))  # np.moveaxis's view, without its overhead


# _mm adds the l terms of a product in one reduce when the (i, l, j, M)
# product holds at most this many doubles: the filters (M = 1) and small
# stacks.  The term loop is faster from about 2.5e4 (1x3 by 3x3 stacks) to
# 7e4 doubles (3x3 by 3x3) on, so Monte Carlo blocks of 1e4 trials keep it.
_SMALL_PRODUCT = 2**14

# numpy adds a reduction over an axis that is not its innermost loop row by
# row in index order, and one that is (e.g. j = M = 1, or a layout that
# makes it so) in index order only below 8 terms: from 8 on it sums pairwise.
_ORDERED_TERMS = 8


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-trial product of an (i, l, .) and an (l, j, .) stack, bit for bit
    the sum (((a_0 b_0 + a_1 b_1) + a_2 b_2) + ...) in order of l.

    For l = 1 that is one product.  A small product (at most _SMALL_PRODUCT
    doubles, 1 < l < _ORDERED_TERMS) is one broadcast product and one reduce
    over l: two calls in place of the loop's 2l + 1.  numpy adds such a
    reduce in index order whatever the operands' layout, and its start -0.0
    (not numpy's +0) keeps signed zeros, as -0 + x = x for every x, -0 too.
    Any other product adds its terms in the same order, `out += term`,
    through one reused product buffer, with fewer temporaries than the
    (i, l, j, M) product.
    """
    (i, l, m_a), (_, j, m_b) = a.shape, b.shape
    if l == 1:
        return a * b
    if 1 < l < _ORDERED_TERMS and i * l * j * (m_a if m_a > m_b else m_b) <= _SMALL_PRODUCT:
        return np.add.reduce(a[:, :, np.newaxis] * b[np.newaxis], axis=1, initial=-0.0)
    out = a[:, :1] * b[:1]
    if l > 1:
        term = np.empty_like(out)
        for t in range(1, l):
            out += np.multiply(a[:, t : t + 1], b[t : t + 1], out=term)
    return out


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-trial product of an (i, l, .) stack and an (l, M) vector stack."""
    return _mm(a, v[:, np.newaxis]).reshape(a.shape[0], v.shape[1])  # also for l = 0


def _t(a: np.ndarray) -> np.ndarray:
    """Per-trial transpose of an (r, c, .) stack."""
    return a.transpose(1, 0, 2)


def mvn_sample(mean: np.ndarray, cov: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Draws from N(mean, cov), one per row of the standard-normal block z
    (shape (M, n), e.g. from RngStreamPlan.normal_rows); returns (M, n).

    Gated by psd_sqrt, which lets semidefinite covs pass (a zero cov returns
    the mean).  Row m depends on row m of z only, bit for bit, whatever z's
    layout; the result is the (M, n) view of a C (n, M) stack.  The gated
    draw RngStreamPlan.mvn_rows shares its product, _affine.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if cov.shape != (mean.shape[0], mean.shape[0]) or z.shape[1] != mean.shape[0]:
        raise DimensionError("mvn_sample: cov or z shape does not match mean")
    return _affine(mean, _named("mvn_sample", psd_sqrt, cov), z)


def _affine(mean: np.ndarray, factor: np.ndarray, z: np.ndarray) -> np.ndarray:
    """mean + factor z for each row z of the (M, l) block z and an (n, l)
    factor, its l terms summed in column order (_mv); the (M, n) view of a
    C (n, M) stack.  With no columns, every row is the mean."""
    if factor.shape[1]:
        rows = _mv(_soa(factor), z.T)
    else:
        rows = np.zeros((factor.shape[0], z.shape[0]))
    rows += mean[:, np.newaxis]
    return rows.T


def _normalize_measurements(measurements) -> np.ndarray:
    """The measurement record as (steps, p) rows; refuses an empty record."""
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, np.newaxis]
    if ys.shape[0] < 1:
        raise NumericError("need at least one measurement")
    return ys
