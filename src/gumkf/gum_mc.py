"""Monte Carlo propagation of state-of-knowledge PDFs through a Kalman-type
estimation model (GUM Supplement 1 over the filter recursion).

Every trial m carries a joint sample (x, theta) together with its own
deterministic filter covariance recursion, which depends on the trial's
sampled parameters through the system matrices.  Its prediction and
correction are the filters' own, `kalman`'s stack functions run with the
trials as the last axis, so a trial's covariance is the LKF's or EKF's.
Draws are addressed by (trial, time, label) through the RngStreamPlan, so a
trial's trajectory does not depend on which other trials are advanced with it.

One driver runs every mode.  It splits the trials into near-equal blocks
[a, b) and, at each time step, advances every block with mc_step.  The
ensembles stay trial-axis-last: mc_step's states are an (M, n) view of its
(n, M) stack.  The calling thread joins the blocks in trial order and reduces
the per-step mean and covariance over fixed chunks of trials, the absolute
ranges [c * _CHUNK, (c + 1) * _CHUNK), each summed pairwise and combined in
trial order by the pairwise update of Chan, Golub & LeVeque; stored samples
and recorded rows are rows of one sample store.  mc_sequential (time-major,
online) runs one block per thread and mc_batch (trial-major) one block per
trial, so both, threaded or not, give bit-identical results.  Models are
evaluated on whole blocks, once per linearization and step: every model
callable accepts one vector or a batch with a leading trial axis.
"""

from __future__ import annotations

import os
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
    symmetrize,
)
from .core import _finite_moments, _named, _normalize_measurements, _soa
from .kalman import _correct_stack, _predict_stack

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
        bad = ~(np.isfinite(states).all(axis=1) & np.isfinite(params).all(axis=1))
        if bad.any():
            first = np.argmax(bad)
            raise NumericError(f"non-finite sample in trial {first} at time index {self.k}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "params", params)

    @property
    def trial_count(self) -> int:
        return self.states.shape[0]

    def _derived(self, states: np.ndarray, k: int) -> "McEnsemble":
        """The ensemble at time index k of the (M, n) states, which the
        caller has checked, and this ensemble's gated parameters."""
        out = object.__new__(McEnsemble)
        for name, value in (("states", states), ("params", self.params), ("k", k)):
            object.__setattr__(out, name, value)
        return out


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
    """Moments of each chunk of the trial-last samples x, shape (d, m), the
    columns [c * _CHUNK, (c + 1) * _CHUNK): (count, shift, offset, sums) with
    the chunk mean shift + offset and sums its centred cross-product sums.

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


# ---------------------------------------------------------------------------
# the per-step Monte Carlo propagation


# The step's one error scope, which covers the model callables and the
# `kalman` stack functions it calls (they enter none of their own): overflow
# and invalid results end as non-finite values, which the checks of s, S and
# the samples reject with a NumericError naming the time index.
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
    process-noise sample from N(0, Q) through the plan's gated draw
    mvn_rows, whose PSD gate runs once per distinct Q or R and refuses an
    indefinite one on every call, naming mc_step and k; add the noise in
    place to the dynamics' push-forward ("x tilde", carrying the
    state-covariance contribution) and correct x tilde with the gain of the trial's own
    covariance recursion, `filter_state` (M, n, n) in and out.  Prediction
    and correction are `kalman`'s stack functions, the filters' own, run on
    the block with the trials as the last axis, so a trial's covariance is
    the LKF's or EKF's bit for bit.  The returned states are the (M, n)
    transposed view of the (n, M) result stack, not a copy; the step's
    per-trial finiteness check is their only one, and the parameters are
    the input ensemble's.
    """
    states, params = ensemble.states, ensemble.params
    m_trials, n = states.shape
    where = f"mc_step at k={k}"
    Q, R = model.Q(k), model.R(k)
    block = (trial_start, m_trials)
    x_tilde = _named(where, plan.mvn_rows, k, LABEL_PROCESS, *block, np.zeros(n), Q)
    y_samples = _named(where, plan.mvn_rows, k, LABEL_OBS, *block, y_hat, R)

    theta = params if params.shape[1] else None
    # F is held to the step's end: freed before the correction, it made the heap re-fault
    x_pred, F, cov_pred = _predict_stack(states, _soa(filter_state), Q, model, theta, k, "mc_step")
    x_tilde += x_pred  # the process-noise draw's own array, added to in place
    x_new, cov_new, _, _ = _correct_stack(
        x_tilde, cov_pred, y_samples, R, model, theta, k, "mc_step", trial_start
    )

    bad = ~np.all(np.isfinite(x_new), axis=0)
    if bad.any():
        first = int(np.argmax(bad))
        raise NumericError(f"non-finite sample in trial {trial_start + first} at time index {k}")
    return ensemble._derived(x_new.T, k), cov_new.transpose(2, 0, 1)


def _init_trials(prior, theta_knowledge, plan, trials, trial_start):
    states = plan.mvn_rows(0, LABEL_INIT_STATE, trial_start, trials, prior.mean, prior.cov)
    if theta_knowledge is not None and theta_knowledge.dim > 0:
        params = plan.mvn_rows(
            0, LABEL_INIT_PARAM, trial_start, trials, theta_knowledge.estimate, theta_knowledge.cov
        )
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


def _check_store(rows, trials, width, max_store_bytes, what, remedy):
    need = rows * trials * width * 8
    if need > max_store_bytes:
        raise CapacityError(
            f"{what} needs {need} bytes, exceeding the budget of "
            f"{max_store_bytes}; raise max_store_bytes or {remedy}"
        )


def _trial_last(arrays):
    """The (M, d) arrays of consecutive blocks joined as one (d, M) array."""
    if len(arrays) == 1:
        return arrays[0].T
    return np.concatenate([x.T for x in arrays], axis=1)


# The driver's error scope, which covers the moment reductions of the calling
# thread; numpy's error state is per thread, so mc_step keeps its own.
@np.errstate(over="ignore", invalid="ignore")
def _run_blocks(
    measurements,
    model: Union[LinearModel, NonlinearModel],
    prior: GaussianBelief,
    theta_knowledge: Optional[ParameterKnowledge],
    plan: RngStreamPlan,
    trials: int,
    threads: int,
    n_blocks: int,
    store_samples: bool,
    record_at: Tuple[int, ...],
    max_store_bytes: int,
) -> McRunResult:
    """The Monte Carlo driver: time loop outer, trial blocks [a, b) inner.

    The trials are cut into `n_blocks` near-equal blocks, fewer when there
    are fewer trials: mc_batch asks for one per trial, mc_sequential for one
    per thread.  At each time step the blocks are advanced by mc_step with
    trial_start=a on `threads` threads, but on no more than there are blocks
    or CPUs (os.cpu_count()); the calling thread joins them
    trial-axis-last and reduces the joined ensemble over the chunks of
    _chunk_moments, combined in trial order (_mean_cov).  The chunks are
    absolute trial ranges of the joined ensemble, so the block layout does
    not change a single bit of the result.  A reduced mean or covariance
    that is not finite is refused where it is made, naming k, or the
    parameters for theirs.  The records and stored samples are views of
    one C store, shape (stored steps, trials, n + n_t).
    """
    if trials < 2:
        raise ConfigError(f"Monte Carlo needs at least 2 trials, got {trials}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    ys = _normalize_measurements(measurements)
    n_steps = ys.shape[0]
    n = prior.dim
    n_t = theta_knowledge.dim if theta_knowledge is not None else 0
    record_at = sorted(r for r in set(map(int, record_at)) if 0 <= r <= n_steps)
    if store_samples:
        stored, what, remedy = range(n_steps + 1), "full sample store", "disable store_samples"
    else:
        stored, what, remedy = record_at, "record_at", "record fewer steps"
    _check_store(len(stored), trials, n + n_t, max_store_bytes, what, remedy)
    slot = {k: i for i, k in enumerate(stored)}
    store = np.empty((len(stored), trials, n + n_t))

    cuts = np.rint(np.linspace(0, trials, min(n_blocks, trials) + 1)).astype(int).tolist()
    state_means = np.empty((n_steps + 1, n))
    state_covs = np.empty((n_steps + 1, n, n))
    param_means = np.empty((n_steps + 1, n_t))
    param_covs = np.empty((n_steps + 1, n_t, n_t))

    # a block is (a, ensemble, covs)
    def advance(block, k):
        a, ensemble, covs = block
        return (a, *mc_step(ensemble, ys[k - 1], model, covs, plan, k, trial_start=a))

    def summarize(k):
        # the blocks are McEnsembles that mc_step or _init_trials validated
        states = _trial_last([e.states for _, e, _ in blocks])
        moments = _mean_cov(_chunk_moments(states))
        state_means[k], state_covs[k] = _finite_moments(moments, f"Monte Carlo moments at k={k}")
        if k in slot:
            store[slot[k], :, :n] = states.T

    blocks = [
        (a, *_init_trials(prior, theta_knowledge, plan, b - a, a))
        for a, b in zip(cuts[:-1], cuts[1:])
        if b > a
    ]
    # mc_step hands every trial's parameters back unchanged, so their
    # moments and stored columns are those of step 0 at every step
    params = _trial_last([e.params for _, e, _ in blocks])
    moments = _mean_cov(_chunk_moments(params))
    where = "Monte Carlo moments of the parameters"
    param_means[:], param_covs[:] = _finite_moments(moments, where)
    store[:, :, n:] = params.T
    workers, executor, mapper = min(threads, len(blocks), os.cpu_count() or 1), None, map
    if workers > 1:  # concurrent.futures, with logging and queue, only for threads
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(max_workers=workers)
        mapper = executor.map
    try:
        summarize(0)
        for k in range(1, n_steps + 1):
            blocks = list(mapper(lambda block: advance(block, k), blocks))
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
        store[:, :, :n] if store_samples else None,
        store[:, :, n:] if store_samples else None,
        {k: store[slot[k]] for k in record_at},
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
    `threads` near-equal blocks (one per trial when there are fewer trials
    than threads), run on as many threads but at most one per CPU; no bit
    of the result depends on the thread count.

    Memory use is independent of the number of time steps unless
    store_samples is requested; the one sample store, every step with
    store_samples and else the record_at steps, must fit max_store_bytes
    (else CapacityError).
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
    runs the whole-sequence estimation model on its own; the moments are
    reduced over the same chunks as mc_sequential's.  With a shared
    RngStreamPlan the result is bit-identical to mc_sequential."""
    return _run_blocks(
        measurements, model, prior, theta_knowledge, plan, trials,
        1, trials, store_samples, record_at, max_store_bytes,
    )
