"""Linear Kalman filter and the analytic uncertainty propagation it equals.

The LKF and the EKF are one recursion, held by the private kernels `_predict`
and `_correct`: kf_* (here) fetch F or C from their model, ekf_* (in `ekf`)
the Jacobian and the predicted value f(x) or h(x).  Every belief a step returns
passes one PSD gate, GaussianBelief's own; a failure names the step and k.

The correction covariance is computed in Joseph form, which is algebraically
equal to (I - K C) P at the optimal gain but remains PSD under rounding.  The
innovation covariance is handled through a symmetric positive-definite solve,
never an explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    DimensionError,
    GaussianBelief,
    LinearModel,
    NumericError,
    symmetrize,
)


@dataclass(frozen=True)
class KalmanStep:
    """One prediction/correction cycle: predicted belief, gain, corrected
    belief and the measurement innovation."""

    predicted: GaussianBelief
    gain: np.ndarray
    corrected: GaussianBelief
    innovation: np.ndarray


def _belief(mean, cov, where: str) -> GaussianBelief:
    """GaussianBelief, the step's one PSD gate, failing with `where` named."""
    try:
        return GaussianBelief(mean, cov)
    except NumericError as exc:
        raise NumericError(f"covariance is not positive semidefinite ({where})") from exc


def _gain(P: np.ndarray, H: np.ndarray, R: np.ndarray, k: int) -> np.ndarray:
    """kf_gain with the time index added to its error."""
    try:
        return kf_gain(P, H, R)
    except NumericError as exc:
        raise NumericError(f"{exc} at time index {k}") from exc


def _predict(prev: GaussianBelief, F, Q, where: str, mean=None) -> GaussianBelief:
    """Covariance F P F' + Q; the mean is `mean`, or F x when it is None."""
    n = prev.dim
    if F.shape != (n, n):
        raise DimensionError(f"state matrix shape {F.shape} != ({n}, {n}) ({where})")
    if Q.shape != (n, n):
        raise DimensionError(f"process noise shape {Q.shape} != ({n}, {n}) ({where})")
    mean = F @ prev.mean if mean is None else mean
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(F))):
        raise NumericError(f"non-finite dynamics evaluation ({where})")
    return _belief(mean, symmetrize(F @ prev.cov @ F.T + Q), where)


def _correct(predicted: GaussianBelief, y, H, R, k: int, where: str, h_pred=None) -> KalmanStep:
    """Joseph-form correction; the predicted observation is `h_pred`, or H x
    when it is None."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    H, R = np.atleast_2d(H), np.atleast_2d(R)
    if H.shape != (y.shape[0], predicted.dim):
        raise DimensionError(
            f"obs matrix shape {H.shape} != ({y.shape[0]}, {predicted.dim}) ({where})"
        )
    h_pred = H @ predicted.mean if h_pred is None else h_pred
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h_pred))):
        raise NumericError(f"non-finite observation evaluation ({where})")
    K = _gain(predicted.cov, H, R, k)
    innovation = y - h_pred
    mean = predicted.mean + K @ innovation
    cov = joseph_update(predicted.cov, K, H, R)
    return KalmanStep(predicted, K, _belief(mean, cov, where), innovation)


def kf_predict(
    prev: GaussianBelief, model: LinearModel, theta=None, k: int = 0
) -> GaussianBelief:
    """Prediction step: mean F x, covariance F P F' + Q."""
    return _predict(prev, model.F(k, theta), model.Q(k), f"kf_predict at k={k}")


def kf_gain(predicted_cov: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Kalman gain K = P C' (C P C' + R)^-1 via a symmetric-PD solve."""
    P = np.asarray(predicted_cov, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if C.shape[1] != P.shape[0] or R.shape != (C.shape[0], C.shape[0]):
        raise DimensionError("kf_gain: inconsistent P/C/R shapes")
    S = symmetrize(C @ P @ C.T + R)
    try:
        # K' = S^-1 C P, using symmetry of P and S
        return scipy.linalg.solve(S, C @ P, assume_a="pos").T
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericError(f"singular innovation covariance: {exc}") from exc


def joseph_update(
    predicted_cov: np.ndarray, gain: np.ndarray, obs_matrix: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """Joseph-form covariance (I-KC) P (I-KC)' + K R K', symmetrized."""
    P = np.asarray(predicted_cov, dtype=float)
    K = np.asarray(gain, dtype=float)
    C = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    A = np.eye(P.shape[0]) - K @ C
    return symmetrize(A @ P @ A.T + K @ R @ K.T)


def kf_correct(
    predicted: GaussianBelief,
    y: np.ndarray,
    model: LinearModel,
    theta=None,
    k: int = 0,
) -> KalmanStep:
    """Correction step: mean shifted by gain times innovation, Joseph-form
    covariance."""
    return _correct(predicted, y, model.C(k, theta), model.R(k), k, f"kf_correct at k={k}")


def propagate_linear_gum(
    prev: GaussianBelief,
    y: GaussianBelief,
    model: LinearModel,
    theta=None,
    k: int = 0,
) -> GaussianBelief:
    """Analytic propagation of the joint normal state-of-knowledge PDF through
    the linear estimation equation.

    The inputs (previous state and measurement) must be independent.  The
    result coincides with kf_predict followed by kf_correct when y.cov equals
    the model's measurement noise covariance.
    """
    F = model.F(k, theta)
    Q = model.Q(k)
    C = np.atleast_2d(model.C(k, theta))
    R = y.cov
    P_pred = symmetrize(F @ prev.cov @ F.T + Q)
    K = _gain(P_pred, C, R, k)
    A = np.eye(prev.dim) - K @ C
    mean = A @ (F @ prev.mean) + K @ y.mean
    cov = symmetrize(A @ P_pred @ A.T + K @ R @ K.T)
    return _belief(mean, cov, f"propagate_linear_gum at k={k}")
