"""Shared domain types, covariance utilities and reproducible random streams.

All estimators in this package operate on the small set of value objects
defined here: Gaussian state beliefs, linear/nonlinear system descriptions,
parameter knowledge, and a seedable plan for addressing independent random
substreams.  Everything is immutable and safe to share between threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri


class DimensionError(ValueError):
    """Shapes of the supplied arrays are inconsistent."""


class NumericError(RuntimeError):
    """A numerical contract was violated (singular matrix, non-finite value)."""


class CapacityError(RuntimeError):
    """A requested allocation exceeds the configured memory budget."""


class ConfigError(ValueError):
    """Invalid configuration input."""


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

    Returns True iff the smallest eigenvalue is >= -tol * ||cov||.
    Raises DimensionError for non-square or significantly asymmetric input.
    """
    a = np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-8 * scale:
        raise DimensionError("matrix is asymmetric beyond tolerance")
    if a.size == 0:
        return True
    w = np.linalg.eigvalsh(symmetrize(a))
    return bool(w.min() >= -tol * max(scale, 1e-300))


def require_psd(cov: np.ndarray, tol: float = 1e-10, context: str = "") -> np.ndarray:
    """Gate used after every filter step; raises NumericError on failure."""
    if not assert_psd(cov, tol):
        where = f" ({context})" if context else ""
        raise NumericError(f"covariance is not positive semidefinite{where}")
    return cov


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Square-root factor L with L @ L.T == cov for PSD cov.

    Uses an eigendecomposition with negative eigenvalues clamped to zero, so
    exactly singular covariances (zero rows/columns) are handled.
    """
    a = symmetrize(cov)
    if a.shape[0] == 0:
        return a
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


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
        scale = np.abs(cov).max() if cov.size else 0.0
        if not (np.isfinite(scale) and np.isfinite(mean).all()):  # a NaN makes scale NaN
            raise NumericError("mean or covariance is not finite (GaussianBelief)")
        if scale > 0 and np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise DimensionError("covariance is asymmetric beyond 1e-12 relative")
        require_psd(cov, 1e-10, "GaussianBelief")
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


@dataclass(frozen=True)
class LinearModel:
    """Linear state-space system x(k+1) = F x(k) + w, y(k) = C x(k) + v.

    `state_matrix` and `obs_matrix` may be constant arrays or callables of
    (k, theta); noise covariances may be constant arrays or callables of k.
    theta is None, one parameter vector, or an (M, n_theta) batch with a
    leading trial axis; for a batch the matrix callables return (M, ., .)
    stacks, or one matrix that holds for every trial.  f and h evaluate the
    system like NonlinearModel's: on one state vector or an (M, n) batch.
    """

    state_matrix: MatrixSpec
    obs_matrix: MatrixSpec
    process_noise: MatrixSpec
    obs_noise: MatrixSpec

    def F(self, k: int, theta=None) -> np.ndarray:
        return _eval_matrix(self.state_matrix, k, theta)

    def C(self, k: int, theta=None) -> np.ndarray:
        return _eval_matrix(self.obs_matrix, k, theta)

    def f(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self.F(k, theta), x)

    def h(self, x: np.ndarray, theta, k: int) -> np.ndarray:
        return np.einsum("...ij,...j->...i", np.atleast_2d(self.C(k, theta)), x)

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
    used as fallback.
    """

    state_fn: Callable
    obs_fn: Callable
    process_noise: MatrixSpec
    obs_noise: MatrixSpec
    state_jacobian: Optional[Callable] = None
    obs_jacobian: Optional[Callable] = None

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
            return np.atleast_2d(np.asarray(self.obs_jacobian(x, theta, k), dtype=float))
        return finite_difference_jacobian(lambda v: self.obs_fn(v, theta, k), x)

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


def _label_id(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class RngStreamPlan:
    """Deterministic, counter-addressable random substreams.

    Draws for Monte Carlo trials are addressed by (time index k, label) with
    the trial index selecting a fixed-width counter offset into the Philox
    stream.  Normal variates are produced from uniforms via the inverse CDF so
    every variate consumes exactly one 64-bit counter step: trial m of a block
    draw is bit-identical to a single-trial draw advanced to offset m.
    """

    master_seed: int

    def __post_init__(self):
        if int(self.master_seed) < 0 or int(self.master_seed) >= 2**64:
            raise ConfigError("master_seed must be a 64-bit non-negative integer")

    def _bitgen(self, k: int, label: str) -> Philox:
        return Philox(SeedSequence([int(self.master_seed), 1, int(k), _label_id(label)]))

    def uniform_rows(self, k: int, label: str, start: int, count: int) -> np.ndarray:
        # Philox advances in 128-bit counter steps of 4 uint64 outputs, one
        # output per double; offsets must therefore be multiples of 4.
        if start % 4:
            raise ConfigError("uniform_rows offset must be a multiple of 4")
        bg = self._bitgen(k, label)
        if start:
            bg.advance(int(start) // 4)
        return Generator(bg).random(count)

    def normal_rows(
        self, k: int, label: str, start_trial: int, trials: int, width: int
    ) -> np.ndarray:
        """Standard-normal block of shape (trials, width) for trials starting
        at `start_trial`; row m equals the draw of absolute trial start+m."""
        stride = ((width + 3) // 4) * 4  # counter-aligned per-trial stride
        u = self.uniform_rows(k, label, start_trial * stride, trials * stride)
        u = u.reshape(trials, stride)[:, :width]
        return ndtri(np.maximum(u, np.nextafter(0.0, 1.0)))

    def uniforms(self, k: int, label: str, count: int) -> np.ndarray:
        return self.uniform_rows(k, label, 0, count)


def mvn_sample(mean: np.ndarray, cov: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Draws from N(mean, cov), one per row of the standard-normal block z
    (shape (M, n), e.g. from RngStreamPlan.normal_rows); returns (M, n).

    Tolerates semidefinite covariances; a zero covariance returns the mean.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if cov.shape != (mean.shape[0], mean.shape[0]) or z.shape[1] != mean.shape[0]:
        raise DimensionError("mvn_sample: cov or z shape does not match mean")
    require_psd(cov, 1e-10, "mvn_sample")
    return mean + np.einsum("ij,mj->mi", psd_sqrt(cov), z)
