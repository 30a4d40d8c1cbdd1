"""Sequential-importance-resampling particle filter.

Bootstrap proposal (the state transition density), Gaussian likelihood
weighting in the log domain, effective-sample-size monitoring and multinomial
resampling when the ESS drops below a tolerance fraction of the particle
count.  Resampling draws one uniform per particle and looks the uniforms up
in the cumulative weights in sorted order, so each search starts where the
previous one ended; the ancestors are those of the uniforms in draw order.

The particle states stay trial-axis-last from the draw on: they are the
(N, n) view of a C (n, N) stack, as the plan's gated draw `mvn_rows`
returns it, and propagation, weighting and resampling keep that layout.  The
weighted moments sum contiguous particle-axis-last rows in one fixed order,
so no layout decides their bits; the likelihood uses core's ordered product,
so no BLAS kernel decides a weight.  pf_propagate and pf_weight each run in
one error scope, as mc_step does: an overflow, in a model callable too, ends
as a non-finite value, refused where it is made, naming the particle and k.
A set that pf_weight or resampling derives from a gated one is not gated
again: its weights are valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

import numpy as np

from .core import (
    ConfigError,
    GaussianBelief,
    LinearModel,
    NonlinearModel,
    NumericError,
    RngStreamPlan,
)
from .core import _mv, _named, _normalize_measurements, _soa

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
        _require_weights(weights)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def _derived(self, states: np.ndarray, weights: np.ndarray, k: int) -> "ParticleSet":
        """A set at time index k whose states (N, n) come from this set's
        gated ones and whose weights (N,) are valid by construction (pf_weight's
        lie in [0, 1], resampling's are 1/N), so neither is checked again."""
        out = object.__new__(ParticleSet)
        for name, value in (("states", states), ("weights", weights), ("k", k)):
            object.__setattr__(out, name, value)
        return out


def _require_weights(weights: np.ndarray) -> None:
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise NumericError("weights must be finite and non-negative")


def _require_normalized(weights: np.ndarray) -> None:
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("particle weights are not normalized")


@np.errstate(over="ignore", invalid="ignore")
def pf_propagate(
    particles: ParticleSet,
    model: Union[LinearModel, NonlinearModel],
    plan: RngStreamPlan,
    k: int,
) -> ParticleSet:
    """Advance every particle through the dynamics plus process noise;
    weights unchanged."""
    n = particles.states.shape[1]
    draw = (k, LABEL_PROCESS, 0, particles.size, np.zeros(n), model.Q(k))
    new_states = _named(f"pf_propagate at k={k}", plan.mvn_rows, *draw)
    new_states += model.f(particles.states, None, k)  # in place: one (M, n) array fewer
    return ParticleSet(new_states, particles.weights, k)


def _log_likelihood(model, states, y_hat, k):
    r_mat = np.atleast_2d(model.R(k))
    p = r_mat.shape[0]
    try:
        chol = np.linalg.cholesky(r_mat)  # the one gate: R positive definite
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"observation noise covariance is not positive definite (pf_weight at k={k})"
        ) from exc
    h = model.h(states, None, k)
    if not np.all(np.isfinite(h)):
        first = int(np.argmax(~np.all(np.isfinite(h), axis=1)))
        raise NumericError(
            f"non-finite predicted observation in particle {first} (pf_weight at k={k})"
        )
    white = _mv(_soa(np.linalg.inv(chol)), (y_hat - h).T)  # (p, N)
    quad = np.add.reduce(white * white, axis=0)  # the p rows, in order
    logdet = 2.0 * np.log(np.diagonal(chol)).sum()
    return -0.5 * (quad + logdet + p * np.log(2.0 * np.pi))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # divide: log(0)
def pf_weight(
    particles: ParticleSet,
    y_hat: np.ndarray,
    model: Union[LinearModel, NonlinearModel],
    k: int,
) -> ParticleSet:
    """Multiply weights by the Gaussian measurement likelihood and
    renormalize; all arithmetic in the log domain.  A non-finite h(x) is
    refused, naming its first particle and k; the weights exp(log w - max) /
    sum, for a max that must be finite, lie in [0, 1] by construction."""
    y_hat = np.atleast_1d(np.asarray(y_hat, dtype=float))
    log_lik = _log_likelihood(model, particles.states, y_hat, k)
    log_w = np.log(particles.weights) + log_lik
    top = log_w.max()
    if not np.isfinite(top):
        raise NumericError(
            f"all particle weights vanished at k={k} "
            f"(max log-likelihood {log_lik.max():.3g}, min {log_lik.min():.3g})"
        )
    w = np.exp(log_w - top)
    w /= w.sum()
    return particles._derived(particles.states, w, k)


def pf_ess(particles: ParticleSet) -> float:
    """Effective sample size 1 / sum(w^2); lies in [1, N_s] for normalized
    weights."""
    _require_normalized(particles.weights)
    return float(1.0 / np.sum(particles.weights**2))


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"resampling tolerance factor must lie in (0, 1], got {gamma}")


def _resample(particles: ParticleSet, plan: RngStreamPlan) -> ParticleSet:
    """Multinomial resampling of every particle, with equal weights after.

    Particle i's ancestor is searchsorted(cum, u[i], side="right") for the
    cumulative weights cum (cum[-1] = 1) and the uniforms u; the uniforms
    are looked up in sorted order and the indices scattered back.  The
    states are gathered along the particle axis of their (n, N) stack."""
    u = plan.uniform_rows(particles.k, LABEL_RESAMPLE, 0, particles.size)
    cum = np.cumsum(particles.weights)
    cum[-1] = 1.0
    order = np.argsort(u)
    idx = np.empty_like(order)
    idx[order] = np.searchsorted(cum, u[order], side="right")  # < size, as u < 1
    return particles._derived(
        np.take(particles.states.T, idx, axis=1).T,
        np.full(particles.size, 1.0 / particles.size),
        particles.k,
    )


def pf_resample(
    particles: ParticleSet, gamma: float, plan: RngStreamPlan
) -> ParticleSet:
    """Multinomial resampling, triggered when ESS < gamma * N_s; returns
    `particles` itself when it does not resample."""
    _check_gamma(gamma)
    if pf_ess(particles) >= gamma * particles.size:
        return particles
    return _resample(particles, plan)


@dataclass
class PfRunResult:
    """Per-step weighted summaries and optional marginal snapshots.  `ess` is
    the effective sample size after each step's resampling decision,
    `ess_pre_resample` that of the weighted set the decision was made on."""

    means: np.ndarray
    covs: np.ndarray
    ess: np.ndarray
    ess_pre_resample: np.ndarray
    resampled: np.ndarray
    records: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def weighted_moments(states: np.ndarray, weights: np.ndarray):
    """Weighted mean and covariance of the (M, n) states, whatever their
    layout.

    The states are copied once to contiguous, particle-axis-last (n, M) rows.
    Each mean entry is one pairwise np.add.reduce over a row of the weighted
    states, and each upper-triangle covariance entry one over a row of the
    weighted deviations, mirrored below the diagonal, so every moment sums in
    one fixed order and the covariance is exactly symmetric."""
    rows = np.ascontiguousarray(states.T)
    mean = np.add.reduce(weights * rows, axis=1)
    dev = rows - mean[:, np.newaxis]
    wdev = weights * dev
    n = dev.shape[0]
    cov = np.empty((n, n))
    for i in range(n):
        cov[i, i:] = cov[i:, i] = np.add.reduce(wdev[i] * dev[i:], axis=1)
    return mean, cov


def marginal_histogram(samples: np.ndarray, weights: np.ndarray):
    """Weighted density histogram with Freedman-Diaconis binning."""
    edges = np.histogram_bin_edges(samples, bins="fd")
    density, _ = np.histogram(samples, bins=edges, weights=weights, density=True)
    return edges, density


def pf_run(
    measurements,
    model: Union[LinearModel, NonlinearModel],
    prior: GaussianBelief,
    n_particles: int,
    gamma: float,
    plan: RngStreamPlan,
    record_at: Tuple[int, ...] = (),
) -> PfRunResult:
    """Full propagate / weight / ESS / resample loop over the measurement
    sequence from n_particles prior draws.  `record_at` collects (states,
    weights) snapshots at the given time indices for marginal-PDF inspection."""
    if n_particles < 2:
        raise ConfigError(f"need at least 2 particles, got {n_particles}")
    _check_gamma(gamma)
    ys = _normalize_measurements(measurements)
    n_steps = ys.shape[0]
    record_at = set(int(r) for r in record_at)

    states = plan.mvn_rows(0, LABEL_INIT, 0, n_particles, prior.mean, prior.cov)
    particles = ParticleSet(states, np.full(n_particles, 1.0 / n_particles), 0)

    means = np.empty((n_steps + 1, prior.dim))
    covs = np.empty((n_steps + 1, prior.dim, prior.dim))
    ess_hist = np.empty(n_steps + 1)
    resampled = np.zeros(n_steps + 1, dtype=bool)
    records: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def summarize(k, ess):
        means[k], covs[k] = weighted_moments(particles.states, particles.weights)
        ess_hist[k] = ess
        if k in record_at:
            records[k] = (particles.states.copy(), particles.weights.copy())

    summarize(0, pf_ess(particles))
    ess_pre = ess_hist.copy()  # entry 0: the prior set, never resampled
    for k in range(1, n_steps + 1):
        particles = pf_propagate(particles, model, plan, k)
        particles = pf_weight(particles, ys[k - 1], model, k)
        ess = ess_pre[k] = pf_ess(particles)
        if ess < gamma * particles.size:  # pf_resample's test, on this ESS
            particles = _resample(particles, plan)
            resampled[k] = True
            ess = pf_ess(particles)
        summarize(k, ess)
    return PfRunResult(means, covs, ess_hist, ess_pre, resampled, records)
