"""Linear Kalman filter and the analytic uncertainty propagation it equals.

One Kalman step serves the LKF, the EKF and every Monte Carlo trial.  It runs
on structure-of-arrays stacks, trial axis last: matrices (r, c, M) or, shared
by every trial, (r, c, 1), and vectors (n, M).  Each product is a short loop
of elementwise multiply-adds, so a trial's bits never depend on the other
trials, and a filter (M = 1) and a trial given the same matrices agree bit for
bit.  `_update` is the correction, with a Joseph-form covariance that stays
PSD under rounding.  `_predict` and `_correct` run the step on one belief,
whose one gate is GaussianBelief's own, and name the step and k on failure:
kf_* fetch F or C from their model, ekf_* (in `ekf`) the Jacobian and f(x) or
h(x).  `kf_gain` and `joseph_update` keep the matrix formulas for the analytic
propagations, the filters' independent references.
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


def _soa(matrix: np.ndarray) -> np.ndarray:
    """(r, c, M) stack of a (M, r, c) per-trial stack, or (r, c, 1) for one
    matrix shared by every trial."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.ndim == 2:
        return a[:, :, np.newaxis]
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-trial product of an (i, l, .) and an (l, j, .) stack."""
    out = a[:, :1] * b[:1]
    for l in range(1, a.shape[1]):
        out += a[:, l : l + 1] * b[l : l + 1]
    return out


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-trial product of an (i, l, .) stack and an (l, M) vector stack."""
    return _mm(a, v[:, np.newaxis])[:, 0]


def _t(a: np.ndarray) -> np.ndarray:
    """Per-trial transpose of an (r, c, .) stack."""
    return a.transpose(1, 0, 2)


@np.errstate(over="ignore", invalid="ignore")
def _update(x, P, y, h, H, R, k: int, trial_start=None):
    """Correction of the stacks x (n, M) and P (n, n, M) by measurements y
    with predicted observations h (p, M), H (p, n, .) and R (p, p, .);
    returns (x, P, gain, innovation).

    The gain is H P / s for p = 1 and a batched solve after a Cholesky check
    of S for p > 1.  A failed check names k and, unless `trial_start` is None,
    the trial; overflow ends as non-finite values for the callers' gates.
    """
    hp = _mm(H, P)  # H P, (p, n, M)
    s_mat = _mm(hp, _t(H)) + R
    if s_mat.shape[0] == 1:
        s = s_mat[0, 0]
        bad = ~(np.isfinite(s) & (s > 0.0))
        if bad.any():
            first = int(np.argmax(bad))
            trial = "" if trial_start is None else f"in trial {trial_start + first} "
            raise NumericError(
                f"innovation variance {s[first]:g} is not finite and positive "
                f"{trial}at time index {k}"
            )
        gain = _t(hp / s)  # (n, 1, M)
    else:
        s_mat = s_mat.transpose(2, 0, 1)
        try:
            np.linalg.cholesky(s_mat)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"innovation covariance is not positive definite at time index {k}"
            ) from exc
        gain = np.linalg.solve(s_mat, hp.transpose(2, 0, 1)).transpose(2, 1, 0)
    innovation = y - h
    a_mat = np.eye(x.shape[0])[:, :, np.newaxis] - _mm(gain, H)
    cov = _mm(_mm(a_mat, P), _t(a_mat)) + _mm(_mm(gain, R), _t(gain))
    return x + _mv(gain, innovation), (cov + _t(cov)) / 2.0, gain, innovation


def _belief(mean, cov, where: str) -> GaussianBelief:
    """GaussianBelief, the step's one gate, failing with `where` named."""
    try:
        return GaussianBelief(mean, cov)
    except NumericError as exc:
        raise NumericError(str(exc).replace("GaussianBelief", where)) from exc


def _gain(P: np.ndarray, H: np.ndarray, R: np.ndarray, k: int) -> np.ndarray:
    """kf_gain with the time index added to its error."""
    try:
        return kf_gain(P, H, R)
    except NumericError as exc:
        raise NumericError(f"{exc} at time index {k}") from exc


@np.errstate(over="ignore", invalid="ignore")
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
    F = _soa(F)
    return _belief(mean, (_mm(_mm(F, _soa(prev.cov)), _t(F)) + _soa(Q))[:, :, 0], where)


def _correct(predicted: GaussianBelief, y, H, R, k: int, where: str, h_pred=None) -> KalmanStep:
    """`_update` of one belief; the predicted observation is `h_pred`, or H x
    when it is None."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    H, R = np.atleast_2d(H), np.atleast_2d(R)
    p, n = y.shape[0], predicted.dim
    if H.shape != (p, n) or R.shape != (p, p):
        raise DimensionError(f"obs matrix {H.shape} or noise {R.shape} != p={p}, n={n} ({where})")
    h_pred = H @ predicted.mean if h_pred is None else h_pred
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h_pred))):
        raise NumericError(f"non-finite observation evaluation ({where})")
    x, P, K, innovation = _update(
        predicted.mean[:, np.newaxis], _soa(predicted.cov), y[:, np.newaxis],
        h_pred[:, np.newaxis], _soa(H), _soa(R), k,
    )
    return KalmanStep(predicted, K[:, :, 0], _belief(x[:, 0], P[:, :, 0], where), innovation[:, 0])


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
