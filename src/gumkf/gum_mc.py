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
each time step, advances every block with mc_step.  The ensembles stay
trial-axis-last: mc_step's states are an (M, n) view of its (n, M) stack.
The per-step mean and covariance are reduced over fixed chunks of trials,
the absolute ranges [c * _CHUNK, (c + 1) * _CHUNK), each summed pairwise on
the thread that advanced it, and the chunks are combined in trial order by
the pairwise update of Chan, Golub & LeVeque; stored samples and recorded
rows are the blocks joined in trial order.  mc_sequential (time-major,
online) uses one chunk-aligned block per thread and mc_batch (trial-major)
one block per trial, gathered into the same chunks, so both, threaded or
not, give bit-identical results.  Models are evaluated on whole blocks:
every model callable accepts one vector or a batch with a leading trial
axis.
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
    symmetrize,
)
from .core import _mm, _mv, _named, _normalize_measurements, _soa, _t
from .kalman import _update

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
    better than 1e-10 relative, independent of feed order.  No gumkf code
    uses it: the Monte Carlo moments are _chunk_moments and _mean_cov.  It
    is kept only because the benchmark's tracer patches
    RunningMoments.push_block by name.
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


# The trials are reduced in fixed chunks covering the absolute trial ranges
# [c * _CHUNK, (c + 1) * _CHUNK), combined in trial order, so the moments do
# not depend on how the trials are split into blocks or threads.
_CHUNK = 4096


def _chunk_moments(x: np.ndarray) -> list:
    """Moments of each chunk of the trial-last samples x, shape (d, m), whose
    first column is a chunk boundary: (count, shift, offset, sums) with the
    chunk mean shift + offset and sums its centred cross-product sums.

    A chunk is summed as C-ordered (d, m) rows by np.add.reduce (pairwise
    summation), so an F-ordered x gives the same bits.  The first-pass mean
    `shift` is corrected once by the mean deviation `offset`, and the
    cross-products are summed per pair of coordinates.
    """
    parts = []
    for a in range(0, x.shape[1], _CHUNK):
        rows = np.ascontiguousarray(x[:, a : a + _CHUNK])
        d, m = rows.shape
        shift = np.add.reduce(rows, axis=1) / m
        dev = rows - shift[:, np.newaxis]
        offset = np.add.reduce(dev, axis=1) / m
        sums = np.empty((d, d))
        for i in range(d):
            sums[i, i:] = sums[i:, i] = np.add.reduce(dev[i] * dev[i:], axis=1)
        parts.append((m, shift, offset, sums - m * np.outer(offset, offset)))
    return parts


def _mean_cov(parts: list) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased covariance of at least two trials from the chunk
    moments of _chunk_moments, combined in trial order by the pairwise update of Chan, Golub & LeVeque
    (1983).  Chunk means enter relative to the first chunk's shift, so an
    offset far above the spread costs no precision."""
    base = parts[0][1]
    count, mean, sums = 0, np.zeros_like(base), np.zeros((base.size,) * 2)
    for m, shift, offset, chunk_sums in parts:
        delta = (shift - base) + offset - mean
        total = count + m
        mean = mean + delta * (m / total)
        sums = sums + chunk_sums + np.outer(delta, delta) * (count * m / total)
        count = total
    return base + mean, sums / (count - 1)


def finalize_stats(
    ensemble: McEnsemble, probs: Tuple[float, ...] = (0.025, 0.975)
) -> Tuple[GaussianBelief, np.ndarray]:
    """Summarize a joint ensemble: mean/covariance belief plus per-coordinate
    empirical quantiles (nearest-rank on the sorted marginal sample)."""
    if ensemble.trial_count < 2:
        raise NumericError("finalize_stats requires at least 2 samples")
    joined = ensemble.joined()
    mean, cov = _mean_cov(_chunk_moments(joined.T))
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

    For each trial: draw a measurement sample from N(y_hat, R) and a
    process-noise sample from N(0, Q) through mvn_sample, whose PSD gate
    refuses an indefinite Q or R naming mc_step and k; propagate through the
    dynamics, add the process noise ("x tilde", carrying the state-covariance
    contribution) and apply the correction with the gain from the trial's own
    deterministic covariance recursion.  `filter_state` holds the per-trial
    predicted-covariance recursion, shape (M, n, n), going in and out.

    The trials are the last axis of `kalman`'s structure-of-arrays stacks,
    and the prediction F P F' + Q and the correction `kalman._update` are the
    filters' own step: each trial's covariance equals the LKF's or EKF's bit
    for bit when it sees the same matrices.  The returned states are the
    (M, n) transposed view of the (n, M) result stack, not a copy.
    """
    states, params = ensemble.states, ensemble.params
    m_trials, n = states.shape
    p = np.size(y_hat)
    Q, R = model.Q(k), model.R(k)
    z = plan.normal_rows(k, LABEL_PROCESS, trial_start, m_trials, n)
    z = _named(f"mc_step at k={k}", mvn_sample, np.zeros(n), Q, z).T
    y_samples = plan.normal_rows(k, LABEL_OBS, trial_start, m_trials, p)
    y_samples = _named(f"mc_step at k={k}", mvn_sample, y_hat, R, y_samples).T

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
    return McEnsemble(x_new.T, params, k), cov_new.transpose(2, 0, 1)


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


def _trial_last(arrays):
    """The (M, d) arrays of consecutive blocks joined as one (d, M) array."""
    if len(arrays) == 1:
        return arrays[0].T
    return np.concatenate([x.T for x in arrays], axis=1)


def _run_blocks(
    measurements,
    model: Union[LinearModel, NonlinearModel],
    prior: GaussianBelief,
    theta_knowledge: Optional[ParameterKnowledge],
    plan: RngStreamPlan,
    trials: int,
    threads: int,
    per_trial: bool,
    store_samples: bool,
    record_at: Tuple[int, ...],
    max_store_bytes: int,
) -> McRunResult:
    """The Monte Carlo driver: time loop outer, trial blocks [a, b) inner.

    mc_batch (`per_trial`) runs one block per trial; mc_sequential splits
    the trials into `threads` near-equal blocks whose bounds are chunk
    boundaries (multiples of _CHUNK), so each chunk is a view into one block.
    Consecutive blocks are grouped into tasks that cover whole chunks: one
    block for mc_sequential, the one-trial blocks of a chunk for mc_batch.
    At each time step the tasks run on `threads` threads; each advances its
    blocks by mc_step with trial_start=a and reduces its chunks
    (_chunk_moments); the calling thread combines the chunks in trial order
    (_mean_cov).  The chunks and their order are the same for every block
    layout, so the layout does not change a single bit of the result.
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

    # each task covers whole chunks: a chunk-aligned block of mc_sequential,
    # or the one-trial blocks of one chunk for mc_batch
    if per_trial:
        cuts = np.append(np.arange(0, trials, _CHUNK), trials)
    else:
        near_equal = np.linspace(0, trials, threads + 1)
        cuts = np.minimum(np.rint(near_equal / _CHUNK) * _CHUNK, trials).astype(int)
        cuts[-1] = trials
    task_spans = [
        [(m, m + 1) for m in range(a, b)] if per_trial else [(a, b)]
        for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())
        if b > a
    ]
    state_means = np.empty((n_steps + 1, n))
    state_covs = np.empty((n_steps + 1, n, n))
    param_means = np.empty((n_steps + 1, n_t))
    param_covs = np.empty((n_steps + 1, n_t, n_t))
    records: Dict[int, np.ndarray] = {}

    # a task is ([(a, ensemble, covs) per block], state chunks, param chunks)
    def reduced(blocks):
        # the blocks are McEnsembles that mc_step or _init_trials validated
        states = _trial_last([e.states for _, e, _ in blocks])
        params = _trial_last([e.params for _, e, _ in blocks])
        return blocks, _chunk_moments(states), _chunk_moments(params)

    def advance(task, k):
        return reduced([
            (a, *mc_step(e, ys[k - 1], model, covs, plan, k, trial_start=a))
            for a, e, covs in task[0]
        ])

    def summarize(k):
        state_means[k], state_covs[k] = _mean_cov([c for t in tasks for c in t[1]])
        param_means[k], param_covs[k] = _mean_cov([c for t in tasks for c in t[2]])
        if store_samples or k in record_at:
            states = np.concatenate([e.states for t in tasks for _, e, _ in t[0]])
            params = np.concatenate([e.params for t in tasks for _, e, _ in t[0]])
        if store_samples:
            samples_states[k] = states
            samples_params[k] = params
        if k in record_at:
            records[k] = np.hstack([states, params])

    tasks = [
        reduced([(a, *_init_trials(prior, theta_knowledge, plan, b - a, a)) for a, b in spans])
        for spans in task_spans
    ]
    workers = min(threads, len(tasks))
    executor = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    mapper = map if executor is None else executor.map
    try:
        summarize(0)
        for k in range(1, n_steps + 1):
            tasks = list(mapper(lambda task: advance(task, k), tasks))
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
    `threads` near-equal blocks that start and end on chunk boundaries
    (so fewer blocks when the trials span fewer chunks), run on as many
    threads.

    Memory use is independent of the number of time steps unless
    store_samples is requested.
    """
    return _run_blocks(
        measurements, model, prior, theta_knowledge, plan, trials,
        threads, False, store_samples, record_at, max_store_bytes,
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
    runs the whole-sequence estimation model on its own; the moments are
    reduced over the same chunks as mc_sequential's.  With a shared
    RngStreamPlan the result is bit-identical to mc_sequential."""
    return _run_blocks(
        measurements, model, prior, theta_knowledge, plan, trials,
        1, True, store_samples, record_at, max_store_bytes,
    )
