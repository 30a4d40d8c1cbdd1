"""Sequential-importance-resampling particle filter.

Bootstrap proposal (the state transition density), Gaussian likelihood
weighting in the log domain, effective-sample-size monitoring and multinomial
resampling when the ESS drops below a tolerance fraction of the particle
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple, Union

import numpy as np

from .core import (
    ConfigError,
    LinearModel,
    NonlinearModel,
    NumericError,
    RngStreamPlan,
    mvn_sample,
    symmetrize,
)

LABEL_INIT = "pf/init"
LABEL_PROCESS = "pf/process"
LABEL_RESAMPLE = "pf/resample"


@dataclass(frozen=True)
class ParticleSet:
    """Weighted samples approximating a posterior at time index k."""

    states: np.ndarray
    weights: np.ndarray
    k: int

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if weights.shape[0] != states.shape[0]:
            raise NumericError("weight/state particle counts differ")
        if not np.all(np.isfinite(states)):
            first = int(np.argmax(~np.all(np.isfinite(states), axis=1)))
            raise NumericError(f"non-finite state in particle {first} at k={self.k}")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise NumericError("weights must be finite and non-negative")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.states.shape[0]


def _require_normalized(weights: np.ndarray) -> None:
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("particle weights are not normalized")


def pf_propagate(
    particles: ParticleSet,
    model: Union[LinearModel, NonlinearModel],
    plan: RngStreamPlan,
    k: int,
) -> ParticleSet:
    """Advance every particle through the dynamics plus process noise;
    weights unchanged."""
    n = particles.states.shape[1]
    z = plan.normal_rows(k, LABEL_PROCESS, 0, particles.size, n)
    new_states = mvn_sample(np.zeros(n), model.Q(k), z)  # the process noise
    new_states += model.f(particles.states, None, k)  # in place: one (M, n) array fewer
    return ParticleSet(new_states, particles.weights, k)


def _log_likelihood(model, states, y_hat, k):
    r_mat = np.atleast_2d(model.R(k))
    p = r_mat.shape[0]
    resid = y_hat - model.h(states, None, k)
    try:
        r_inv_resid = np.linalg.solve(r_mat, resid.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"observation noise covariance is singular: {exc}") from exc
    sign, logdet = np.linalg.slogdet(r_mat)
    if sign <= 0:
        raise NumericError("observation noise covariance is not positive definite")
    quad = np.einsum("mi,mi->m", resid, r_inv_resid)
    return -0.5 * (quad + logdet + p * np.log(2.0 * np.pi))


def pf_weight(
    particles: ParticleSet,
    y_hat: np.ndarray,
    model: Union[LinearModel, NonlinearModel],
    k: int,
) -> ParticleSet:
    """Multiply weights by the Gaussian measurement likelihood and
    renormalize; all arithmetic in the log domain."""
    y_hat = np.atleast_1d(np.asarray(y_hat, dtype=float))
    log_lik = _log_likelihood(model, particles.states, y_hat, k)
    with np.errstate(divide="ignore"):
        log_w = np.log(particles.weights) + log_lik
    top = log_w.max()
    if not np.isfinite(top):
        raise NumericError(
            f"all particle weights vanished at k={k} "
            f"(max log-likelihood {log_lik.max():.3g}, min {log_lik.min():.3g})"
        )
    w = np.exp(log_w - top)
    w /= w.sum()
    return ParticleSet(particles.states, w, k)


def pf_ess(particles: ParticleSet) -> float:
    """Effective sample size 1 / sum(w^2); lies in [1, N_s] for normalized
    weights."""
    _require_normalized(particles.weights)
    return float(1.0 / np.sum(particles.weights**2))


def pf_resample(
    particles: ParticleSet, gamma: float, plan: RngStreamPlan
) -> ParticleSet:
    """Multinomial resampling, triggered when ESS < gamma * N_s."""
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"resampling tolerance factor must lie in (0, 1], got {gamma}")
    if pf_ess(particles) >= gamma * particles.size:
        return particles
    u = plan.uniforms(particles.k, LABEL_RESAMPLE, particles.size)
    cum = np.cumsum(particles.weights)
    cum[-1] = 1.0
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, particles.size - 1)
    return ParticleSet(
        particles.states[idx], np.full(particles.size, 1.0 / particles.size), particles.k
    )


@dataclass
class PfRunResult:
    """Per-step weighted summaries and optional marginal snapshots."""

    means: np.ndarray
    covs: np.ndarray
    ess: np.ndarray
    resampled: np.ndarray
    records: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def weighted_moments(states: np.ndarray, weights: np.ndarray):
    mean = weights @ states
    dev = states - mean
    cov = symmetrize(np.einsum("m,mi,mj->ij", weights, dev, dev))
    return mean, cov


def marginal_histogram(samples: np.ndarray, weights: np.ndarray):
    """Weighted density histogram with Freedman-Diaconis binning."""
    edges = np.histogram_bin_edges(samples, bins="fd")
    density, _ = np.histogram(samples, bins=edges, weights=weights, density=True)
    return edges, density


def pf_run(
    measurements,
    model: Union[LinearModel, NonlinearModel],
    prior_sampler: Callable[[RngStreamPlan, int], np.ndarray],
    n_particles: int,
    gamma: float,
    plan: RngStreamPlan,
    record_at: Tuple[int, ...] = (),
) -> PfRunResult:
    """Full propagate / weight / ESS / resample loop over the measurement
    sequence.  `record_at` collects (states, weights) snapshots at the given
    time indices for marginal-PDF inspection."""
    if n_particles < 2:
        raise ConfigError(f"need at least 2 particles, got {n_particles}")
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, np.newaxis]
    n_steps = ys.shape[0]
    record_at = set(int(r) for r in record_at)

    states = np.atleast_2d(np.asarray(prior_sampler(plan, n_particles), dtype=float))
    particles = ParticleSet(states, np.full(n_particles, 1.0 / n_particles), 0)

    means = np.empty((n_steps + 1, states.shape[1]))
    covs = np.empty((n_steps + 1, states.shape[1], states.shape[1]))
    ess_hist = np.empty(n_steps + 1)
    resampled = np.zeros(n_steps + 1, dtype=bool)
    records: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def summarize(k):
        means[k], covs[k] = weighted_moments(particles.states, particles.weights)
        ess_hist[k] = pf_ess(particles)
        if k in record_at:
            records[k] = (particles.states.copy(), particles.weights.copy())

    summarize(0)
    for k in range(1, n_steps + 1):
        particles = pf_propagate(particles, model, plan, k)
        particles = pf_weight(particles, ys[k - 1], model, k)
        before = particles
        particles = pf_resample(particles, gamma, plan)
        resampled[k] = particles is not before
        summarize(k)
    return PfRunResult(means, covs, ess_hist, resampled, records)
