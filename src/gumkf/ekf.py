"""Extended Kalman filter, state augmentation for uncertain parameters, and
the linearized propagation of uncertainty that matches it.

The augmented dynamics map (x, theta) to (f(x, theta, k), theta): parameters
drift as the identity, optionally with a small artificial process noise of
standard deviation alpha that keeps the filter responsive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    GaussianBelief,
    LinearModel,
    NonlinearModel,
    ParameterKnowledge,
    finite_difference_jacobian,
    require_psd,
    symmetrize,
)
from .core import _named
from .kalman import KalmanStep, _correct, _predict, _require_index, joseph_update, kf_gain


def ekf_predict(
    prev: GaussianBelief,
    model: Union[LinearModel, NonlinearModel],
    *,
    k: int = 0,
    theta=None,
) -> GaussianBelief:
    """Prediction through the nonlinear dynamics with Jacobian-propagated
    covariance."""
    return _predict(prev, model, theta, k, "ekf_predict")


def ekf_correct(
    predicted: GaussianBelief,
    y: np.ndarray,
    model: Union[LinearModel, NonlinearModel],
    *,
    k: int = 0,
    theta=None,
) -> KalmanStep:
    """Correction with the observation Jacobian H evaluated at the predicted
    estimate; Joseph-form covariance."""
    return _correct(predicted, y, model, theta, k, "ekf_correct")


def propagate_nonlinear_gum_linearized(
    prev: GaussianBelief,
    y: GaussianBelief,
    model: NonlinearModel,
    k: int = 0,
    theta=None,
) -> GaussianBelief:
    """Linearized propagation of the state-of-knowledge PDF through the
    nonlinear estimation equation; coincides with ekf_predict + ekf_correct
    when y.cov equals the model's measurement noise covariance.  Written in
    matrix form, as propagate_linear_gum is, so it shares no step with the
    EKF it checks.  A k that is not an integer, e.g. theta and k swapped, is
    a TypeError."""
    _require_index(k, "propagate_nonlinear_gum_linearized(prev, y, model, k=0, theta=None)")
    where = f"propagate_nonlinear_gum_linearized at k={k}"
    F = model.F(prev.mean, theta, k)
    x_pred = model.f(prev.mean, theta, k)
    P_pred = symmetrize(F @ prev.cov @ F.T + model.Q(k))
    predicted = _named(where, GaussianBelief, x_pred, P_pred)
    H = model.H(predicted.mean, theta, k)
    K = _named(where, kf_gain, predicted.cov, H, y.cov)
    mean = predicted.mean + K @ (y.mean - model.h(predicted.mean, theta, k))
    cov = joseph_update(predicted.cov, K, H, y.cov)
    return _named(where, GaussianBelief, mean, cov)


# ---------------------------------------------------------------------------
# state augmentation


@dataclass(frozen=True)
class AugmentedModel:
    """A base system with uncertain parameters folded into the state vector.

    `model` is the nonlinear system over the augmented state (x, theta) with
    process noise block-diag(Q, alpha^2 I).
    """

    base: Union[LinearModel, NonlinearModel]
    model: NonlinearModel
    n_x: int
    n_theta: int


def augment(
    model: Union[LinearModel, NonlinearModel],
    prior: GaussianBelief,
    theta_knowledge: ParameterKnowledge,
    alpha: float,
):
    """Fold uncertain parameters into the state.

    Returns (AugmentedModel, initial GaussianBelief) with block-diagonal
    initial covariance diag(P_x(0), U_theta) and process noise
    diag(Q, alpha^2 I).  With zero parameters the base model and prior are
    returned unchanged.  The augmented model is differentiated by finite
    differences; closed forms replace its fields with dataclasses.replace.
    """
    if alpha < 0:
        raise ConfigError(f"alpha must be non-negative, got {alpha}")
    n_theta = theta_knowledge.dim if theta_knowledge is not None else 0
    if n_theta == 0:
        return model, prior
    n_x = prior.dim
    n = n_x + n_theta

    def f_aug(z, _theta, k):
        z = np.asarray(z, dtype=float)
        x, th = z[..., :n_x], z[..., n_x:]
        return np.concatenate([model.f(x, th, k), th], axis=-1)

    def h_aug(z, _theta, k):
        z = np.asarray(z, dtype=float)
        x, th = z[..., :n_x], z[..., n_x:]
        return model.h(x, th, k)

    q_theta = (alpha**2) * np.eye(n_theta)

    def q_aug(k):
        out = np.zeros((n, n))
        out[:n_x, :n_x] = model.Q(k)  # broadcast as its np.atleast_2d would be
        out[n_x:, n_x:] = q_theta
        return out

    aug_model = NonlinearModel(
        state_fn=f_aug,
        obs_fn=h_aug,
        process_noise=q_aug,
        obs_noise=model.obs_noise,
    )
    mean0 = np.concatenate([prior.mean, theta_knowledge.estimate])
    cov0 = np.zeros((n, n))
    cov0[:n_x, :n_x] = prior.cov
    cov0[n_x:, n_x:] = theta_knowledge.cov
    return (
        AugmentedModel(base=model, model=aug_model, n_x=n_x, n_theta=n_theta),
        GaussianBelief(mean0, cov0),
    )


# ---------------------------------------------------------------------------
# split-gain formulation of the augmented correction


@dataclass(frozen=True)
class SplitUpdate:
    """Block gains of the augmented correction: state gain K1, parameter gain
    K2, innovation covariance S and the stacked observation Jacobian."""

    K1: np.ndarray
    K2: np.ndarray
    S: np.ndarray
    H_theta: np.ndarray


@dataclass(frozen=True)
class SplitStep:
    """Result of the block-partitioned correction."""

    update: SplitUpdate
    state_mean: np.ndarray
    param_mean: np.ndarray
    state_cov: np.ndarray
    param_cov: np.ndarray
    cross_cov: np.ndarray

    def assemble(self) -> GaussianBelief:
        n_x = self.state_mean.shape[0]
        n_t = self.param_mean.shape[0]
        mean = np.concatenate([self.state_mean, self.param_mean])
        cov = np.zeros((n_x + n_t, n_x + n_t))
        cov[:n_x, :n_x] = self.state_cov
        cov[:n_x, n_x:] = self.cross_cov
        cov[n_x:, :n_x] = self.cross_cov.T
        cov[n_x:, n_x:] = self.param_cov
        return GaussianBelief(mean, symmetrize(cov))


def split_update(
    predicted: GaussianBelief,
    y: np.ndarray,
    aug: AugmentedModel,
    k: int = 0,
) -> SplitStep:
    """Correction of an augmented belief in separate state/parameter blocks.

    Equals the monolithic augmented correction, re-partitioned.  The base
    system must be linear in the original state so the observation splits as
    (H(theta), d(H(theta) x)/d theta).
    """
    if not isinstance(aug.base, LinearModel):
        raise DimensionError("split_update requires a linear base model")
    n_x, n_t = aug.n_x, aug.n_theta
    if predicted.dim != n_x + n_t:
        raise DimensionError("predicted belief does not match augmented dimensions")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x_pred = predicted.mean[:n_x]
    th_pred = predicted.mean[n_x:]
    P = predicted.cov
    Px = P[:n_x, :n_x]
    Pxt = P[:n_x, n_x:]
    Pt = P[n_x:, n_x:]

    H = aug.base.H(x_pred, th_pred, k)
    D = finite_difference_jacobian(lambda th: aug.base.H(x_pred, th, k) @ x_pred, th_pred)
    H_theta = np.hstack([H, D])
    R = np.atleast_2d(aug.base.R(k))
    S = symmetrize(H_theta @ P @ H_theta.T + R)
    K_full = _named(f"split_update at k={k}", kf_gain, P, H_theta, R)
    K1 = K_full[:n_x]
    K2 = K_full[n_x:]

    innovation = y - H @ x_pred
    state_mean = x_pred + K1 @ innovation
    param_mean = th_pred + K2 @ innovation
    state_cov = symmetrize(Px - K1 @ S @ K1.T)
    param_cov = symmetrize(Pt - K2 @ S @ K2.T)
    cross_cov = Pxt - K1 @ S @ K2.T
    require_psd(state_cov, 1e-8, f"split_update state block at k={k}")
    require_psd(param_cov, 1e-8, f"split_update parameter block at k={k}")
    return SplitStep(
        SplitUpdate(K1, K2, S, H_theta),
        state_mean,
        param_mean,
        state_cov,
        param_cov,
        cross_cov,
    )
