"""Monte Carlo propagation of state-of-knowledge PDFs through a Kalman-type
estimation model (GUM Supplement 1 over the filter recursion).

Every trial m carries a joint sample (x, theta) together with its own
deterministic filter covariance recursion, which depends on the trial's
sampled parameters through the system matrices.  That recursion is the
filters' Kalman step from `kalman`, run with the trials as the last axis of
its stacks, so a trial's covariance is the LKF's or EKF's bit for bit.
Draws are addressed by (trial, time, label) through the RngStreamPlan, so a
trial's trajectory does not depend on which other trials are advanced with it.

One driver runs every mode.  It splits the trials into blocks [a, b) and, at
each time step, advances every block with mc_step; the moments, stored
samples and recorded rows are taken from the blocks joined in trial order.
mc_sequential (time-major, online) uses one block per thread and mc_batch
(trial-major) one block per trial, so both, threaded or not, give
bit-identical results.  Models are evaluated on whole blocks: every model
callable accepts one vector or a batch with a leading trial axis.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .core import (
    CapacityError,
    ConfigError,
    GaussianBelief,
    LinearModel,
    NonlinearModel,
    NumericError,
    ParameterKnowledge,
    RngStreamPlan,
    mvn_sample,
    psd_sqrt,
    symmetrize,
)
from .kalman import _mm, _mv, _soa, _t, _update

LABEL_INIT_STATE = "mc/init-state"
LABEL_INIT_PARAM = "mc/init-param"
LABEL_OBS = "mc/obs"
LABEL_PROCESS = "mc/process"


@dataclass(frozen=True)
class McEnsemble:
    """M joint samples (x, theta) representing the PDF at time index k.

    State and parameter rows with the same trial index belong together and
    are never recombined across trials; the joint PDF does not factorize.
    """

    states: np.ndarray
    params: np.ndarray
    k: int

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        params = np.asarray(self.params, dtype=float)
        if params.ndim == 1:
            params = params.reshape(states.shape[0], -1)
        if params.shape[0] != states.shape[0]:
            raise NumericError("state/parameter trial counts differ")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(params))):
            raise NumericError(f"non-finite ensemble at time index {self.k}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "params", params)

    @property
    def trial_count(self) -> int:
        return self.states.shape[0]

    def joined(self) -> np.ndarray:
        if self.params.shape[1]:
            return np.hstack([self.states, self.params])
        return self.states.copy()


class RunningMoments:
    """Streaming mean/covariance with shifted extended-precision accumulation.

    After feeding all samples the results agree with the two-pass formulas to
    better than 1e-10 relative, independent of feed order.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self._shift: Optional[np.ndarray] = None
        self._s1 = np.zeros(dim, dtype=np.longdouble)
        self._s2 = np.zeros((dim, dim), dtype=np.longdouble)

    def push(self, x: np.ndarray) -> None:
        self.push_block(np.asarray(x, dtype=float)[np.newaxis, :])

    def push_block(self, block: np.ndarray) -> None:
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.shape[0] == 0:
            return
        if self._shift is None:
            self._shift = block[0].copy()
        dev = block - self._shift
        self._s1 += dev.sum(axis=0, dtype=np.longdouble)
        self._s2 += np.einsum("mi,mj->ij", dev, dev, dtype=np.longdouble)
        self.count += block.shape[0]

    def mean(self) -> np.ndarray:
        if self.count < 1:
            raise NumericError("RunningMoments: no samples")
        return np.asarray(self._shift + self._s1 / self.count, dtype=float)

    def cov(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros((self.dim, self.dim))
        s2 = self._s2 - np.outer(self._s1, self._s1) / self.count
        return symmetrize(np.asarray(s2 / (self.count - 1), dtype=float))


def _mean_cov(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased covariance via extended-precision accumulation."""
    m = samples.shape[0]
    if samples.shape[1] == 0:
        return np.zeros(0), np.zeros((0, 0))
    mean = np.asarray(samples.sum(axis=0, dtype=np.longdouble) / m, dtype=float)
    if m < 2:
        return mean, np.zeros((samples.shape[1],) * 2)
    dev = samples - mean
    cov = np.einsum("mi,mj->ij", dev, dev, dtype=np.longdouble) / (m - 1)
    return mean, symmetrize(np.asarray(cov, dtype=float))


def finalize_stats(
    ensemble: McEnsemble, probs: Tuple[float, ...] = (0.025, 0.975)
) -> Tuple[GaussianBelief, np.ndarray]:
    """Summarize a joint ensemble: mean/covariance belief plus per-coordinate
    empirical quantiles (nearest-rank on the sorted marginal sample)."""
    if ensemble.trial_count < 2:
        raise NumericError("finalize_stats requires at least 2 samples")
    joined = ensemble.joined()
    mean, cov = _mean_cov(joined)
    m = joined.shape[0]
    srt = np.sort(joined, axis=0)
    idx = [min(max(int(np.ceil(p * m)), 1), m) - 1 for p in probs]
    quantiles = srt[idx].T  # (dim, len(probs))
    return GaussianBelief(mean, cov), quantiles


# ---------------------------------------------------------------------------
# the per-step Monte Carlo propagation


# Overflow and invalid results end as non-finite values, which the checks of
# s, S and the samples reject with a NumericError naming the time index.
@np.errstate(over="ignore", invalid="ignore")
def mc_step(
    ensemble: McEnsemble,
    y_hat: np.ndarray,
    model: Union[LinearModel, NonlinearModel],
    filter_state: np.ndarray,
    plan: RngStreamPlan,
    k: int,
    trial_start: int = 0,
) -> Tuple[McEnsemble, np.ndarray]:
    """Advance every trial from k-1 to k.

    For each trial: draw a measurement sample around y_hat with covariance R
    and a process-noise sample from N(0, Q); propagate through the dynamics,
    add the process noise ("x tilde", carrying the state-covariance
    contribution) and apply the correction with the gain from the trial's own
    deterministic covariance recursion.  `filter_state` holds the per-trial
    predicted-covariance recursion, shape (M, n, n), going in and out.

    The trials are the last axis of `kalman`'s structure-of-arrays stacks,
    and the prediction F P F' + Q and the correction `kalman._update` are the
    filters' own step: each trial's covariance equals the LKF's or EKF's bit
    for bit when it sees the same matrices.
    """
    states, params = ensemble.states, ensemble.params
    m_trials, n = states.shape
    y_hat = np.atleast_1d(np.asarray(y_hat, dtype=float))
    p = y_hat.shape[0]

    Q = np.atleast_2d(model.Q(k))
    R = np.atleast_2d(model.R(k))
    z = _mv(
        _soa(psd_sqrt(Q)),
        plan.normal_rows(k, LABEL_PROCESS, trial_start, m_trials, n).T,
    )
    y_samples = y_hat[:, np.newaxis] + _mv(
        _soa(psd_sqrt(R)),
        plan.normal_rows(k, LABEL_OBS, trial_start, m_trials, p).T,
    )

    # prediction: mean push-forward and the deterministic covariance recursion
    theta = params if params.shape[1] else None
    if isinstance(model, LinearModel):
        F = _soa(model.F(k, theta))
        x_pred = _mv(F, states.T)
    else:
        x_pred = model.f(states, theta, k).T
        F = _soa(model.F(states, theta, k))
    cov_pred = _mm(_mm(F, _soa(filter_state)), _t(F)) + _soa(Q)

    x_tilde = x_pred + z

    # correction at x_tilde
    if isinstance(model, LinearModel):
        H = _soa(model.C(k, theta))
        h_val = _mv(H, x_tilde)
    else:
        x_rows = np.ascontiguousarray(x_tilde.T)
        H = _soa(model.H(x_rows, theta, k))
        h_val = model.h(x_rows, theta, k).T
    x_new, cov_new, _, _ = _update(x_tilde, cov_pred, y_samples, h_val, H, _soa(R), k, trial_start)

    bad = ~np.all(np.isfinite(x_new), axis=0)
    if bad.any():
        first = int(np.argmax(bad))
        raise NumericError(
            f"non-finite sample in trial {trial_start + first} at time index {k}"
        )
    return McEnsemble(np.ascontiguousarray(x_new.T), params, k), np.moveaxis(cov_new, -1, 0)


def _init_trials(prior, theta_knowledge, plan, trials, trial_start):
    z0 = plan.normal_rows(0, LABEL_INIT_STATE, trial_start, trials, prior.dim)
    states = mvn_sample(prior.mean, prior.cov, z0)
    if theta_knowledge is not None and theta_knowledge.dim > 0:
        zt = plan.normal_rows(0, LABEL_INIT_PARAM, trial_start, trials, theta_knowledge.dim)
        params = mvn_sample(theta_knowledge.estimate, theta_knowledge.cov, zt)
    else:
        params = np.zeros((trials, 0))
    covs = np.repeat(prior.cov[np.newaxis], trials, axis=0)
    return McEnsemble(states, params, 0), covs


@dataclass
class McRunResult:
    """Per-time-step summaries of a Monte Carlo run (row 0 = initial time)."""

    state_means: np.ndarray
    state_covs: np.ndarray
    param_means: np.ndarray
    param_covs: np.ndarray
    trial_count: int
    samples_states: Optional[np.ndarray] = None
    samples_params: Optional[np.ndarray] = None
    records: Dict[int, np.ndarray] = field(default_factory=dict)


def _check_store(n_steps, trials, width, max_store_bytes):
    need = (n_steps + 1) * trials * width * 8
    if need > max_store_bytes:
        raise CapacityError(
            f"full sample store needs {need} bytes, exceeding the budget of "
            f"{max_store_bytes}; raise max_store_bytes or disable store_samples"
        )


def _normalize_measurements(measurements):
    ys = np.asarray(measurements, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, np.newaxis]
    if ys.shape[0] < 1:
        raise NumericError("need at least one measurement")
    return ys


def _run_blocks(
    measurements,
    model: Union[LinearModel, NonlinearModel],
    prior: GaussianBelief,
    theta_knowledge: Optional[ParameterKnowledge],
    plan: RngStreamPlan,
    trials: int,
    n_blocks: int,
    threads: int,
    store_samples: bool,
    record_at: Tuple[int, ...],
    max_store_bytes: int,
) -> McRunResult:
    """The Monte Carlo driver: `trials` split into `n_blocks` near-equal
    trial blocks [a, b), time loop outer, blocks inner.

    Every block is advanced by mc_step with trial_start=a, on `threads`
    threads; summaries are taken from the blocks joined in trial order, so
    the block layout does not change a single bit of the result.
    """
    if trials < 2:
        raise ConfigError(f"Monte Carlo needs at least 2 trials, got {trials}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    ys = _normalize_measurements(measurements)
    n_steps = ys.shape[0]
    n = prior.dim
    n_t = theta_knowledge.dim if theta_knowledge is not None else 0
    record_at = set(int(r) for r in record_at)

    if store_samples:
        _check_store(n_steps, trials, n + n_t, max_store_bytes)
        samples_states = np.empty((n_steps + 1, trials, n))
        samples_params = np.empty((n_steps + 1, trials, n_t))
    else:
        samples_states = samples_params = None

    bounds = np.linspace(0, trials, n_blocks + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    blocks = [_init_trials(prior, theta_knowledge, plan, b - a, a) for a, b in spans]
    state_means = np.empty((n_steps + 1, n))
    state_covs = np.empty((n_steps + 1, n, n))
    param_means = np.empty((n_steps + 1, n_t))
    param_covs = np.empty((n_steps + 1, n_t, n_t))
    records: Dict[int, np.ndarray] = {}

    def summarize(k):
        # the blocks are McEnsembles that mc_step or _init_trials validated
        states = np.concatenate([e.states for e, _ in blocks])
        params = np.concatenate([e.params for e, _ in blocks])
        state_means[k], state_covs[k] = _mean_cov(states)
        param_means[k], param_covs[k] = _mean_cov(params)
        if store_samples:
            samples_states[k] = states
            samples_params[k] = params
        if k in record_at:
            records[k] = np.hstack([states, params])

    executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    mapper = map if executor is None else executor.map
    try:
        summarize(0)
        for k in range(1, n_steps + 1):
            y = ys[k - 1]
            blocks = list(
                mapper(
                    lambda span, block: mc_step(
                        block[0], y, model, block[1], plan, k, trial_start=span[0]
                    ),
                    spans,
                    blocks,
                )
            )
            summarize(k)
    finally:
        if executor is not None:
            executor.shutdown()

    return McRunResult(
        state_means,
        state_covs,
        param_means,
        param_covs,
        trials,
        samples_states,
        samples_params,
        records,
    )


def mc_sequential(
    measurements,
    model: Union[LinearModel, NonlinearModel],
    prior: GaussianBelief,
    theta_knowledge: Optional[ParameterKnowledge],
    plan: RngStreamPlan,
    trials: int,
    *,
    store_samples: bool = False,
    record_at: Tuple[int, ...] = (),
    threads: int = 1,
    max_store_bytes: int = 1 << 30,
) -> McRunResult:
    """Time-major Monte Carlo: the trials advance together, split into
    `threads` near-equal blocks run on as many threads.

    Memory use is independent of the number of time steps unless
    store_samples is requested.
    """
    return _run_blocks(
        measurements, model, prior, theta_knowledge, plan, trials,
        threads, threads, store_samples, record_at, max_store_bytes,
    )


def mc_batch(
    measurements,
    model: Union[LinearModel, NonlinearModel],
    prior: GaussianBelief,
    theta_knowledge: Optional[ParameterKnowledge],
    plan: RngStreamPlan,
    trials: int,
    *,
    store_samples: bool = False,
    record_at: Tuple[int, ...] = (),
    max_store_bytes: int = 1 << 30,
) -> McRunResult:
    """Trial-major Monte Carlo: every trial is its own block, so each trial
    runs the whole-sequence estimation model on its own.  With a shared
    RngStreamPlan the result is bit-identical to mc_sequential."""
    return _run_blocks(
        measurements, model, prior, theta_knowledge, plan, trials,
        trials, 1, store_samples, record_at, max_store_bytes,
    )
