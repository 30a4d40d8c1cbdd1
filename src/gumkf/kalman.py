"""Linear Kalman filter and the analytic uncertainty propagation it equals.

One Kalman step serves the LKF, the EKF and every Monte Carlo trial.  It runs
on `core`'s structure-of-arrays stacks, trial axis last, whose products keep a
trial's bits independent of the other trials, so a filter (M = 1) and a trial
given the same matrices agree bit for bit, also where `core._mm` takes its
one-reduce form for the small stack and its term loop for the large one.
`_predict_stack` (f(x), F and F P F' + Q) and `_correct_stack` take one state
vector or an (M, n) batch, fetch (f(x), F) = linearize or (h(x), H) =
linearize_obs in one call (one model callable for a NonlinearModel with a
joint `linearization`, such as the tank's), and refuse a pair, Q or R of the
wrong shape naming the step and k.  On a filter's small stacks the step is
bound by per-call overhead, so it takes float64 matrices and C-contiguous
trial-last views as they are, without re-wrapping them, and forms H' once;
no floating-point operation depends on that.  Their kernel `_update` is a
Joseph-form correction that stays PSD under rounding, evaluated as rank-p
corrections of P at O(n^2 p) per trial rather than as O(n^3) products with
I - K H.  `_predict` and `_correct` run the step on one belief, whose one
gate is GaussianBelief's own, for kf_* and ekf_* (in `ekf`); `_scan` runs it
over a whole record on M filters at once, the `watertank` filter scenarios
with M = 1, and gates both halves of every step, kept in one buffer, a
block at a time as its loop stores them, with the same check,
`core._require_beliefs`, whose PSD test is a shifted LDL' pivot test over
the block rather than an eigendecomposition;
`gum_mc.mc_step` runs it on a block of trials.  The stack functions and the kernel enter no error scope: each
of these callers is one np.errstate(over="ignore", invalid="ignore") scope,
`_scan` per record, `_predict`/`_correct` per step and `mc_step` per block
step, so an overflow, in a model callable too, ends as non-finite values
for the gates.  `kf_gain` and `joseph_update` keep the matrix formulas for the
analytic propagations, the filters' independent references; `kf_gain` solves
with numpy behind a Cholesky gate of its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionError,
    GaussianBelief,
    LinearModel,
    NumericError,
    symmetrize,
)
from .core import (
    _at_least_2d,
    _mm,
    _mv,
    _named,
    _normalize_measurements,
    _pivots_positive,
    _require_beliefs,
    _soa,
    _t,
)


@dataclass(frozen=True)
class KalmanStep:
    """One prediction/correction cycle: predicted belief, gain, corrected
    belief and the measurement innovation."""

    predicted: GaussianBelief
    gain: np.ndarray
    corrected: GaussianBelief
    innovation: np.ndarray


def _update(x, P, y, h, H, R, k: int, trial_start=None):
    """Correction of the stacks x (n, M) and P (n, n, M) by measurements y
    with predicted observations h (p, M), H (p, n, .) and R (p, p, .);
    returns (x, P, gain, innovation).

    The gain is H P / s for p = 1 and a batched solve for p > 1, after a
    check that s, or S by `core._pivots_positive` at tol 0, is finite and
    positive definite; S is tested on its lower triangle, as a Cholesky
    factorization reads it, so an asymmetric R cannot pass by its upper
    one.  A failed check names k and, unless
    `trial_start` is None, the trial.  The kernel, like `_predict_stack`,
    enters no error scope of its own: its callers run it under
    np.errstate(over="ignore", invalid="ignore"), one scope per loop or
    one-step call, so overflow ends as non-finite values for their gates.
    The Joseph form (I - K H) P (I - K H)' + K R K' is evaluated without
    I - K H, as A P + (K R - A P H') K' with A P = P - K (H P), which is the
    same for any K and costs O(n^2 p) per trial instead of O(n^3).  Only
    the kernel's own temporaries are updated in place, never x, P, y, h or
    the matrices, which may be views of a caller's or a model's arrays.
    """
    hp, ht = _mm(H, P), _t(H)  # H P, (p, n, M), and H'
    s_mat = _mm(hp, ht)
    s_mat += R
    if s_mat.shape[0] == 1:
        s = s_mat[0, 0]
        # NaN fails both bounds; one trial's s is compared without reduces
        if not (0.0 < s[0] < np.inf if s.shape[0] == 1 else s.min() > 0.0 and s.max() < np.inf):
            first = int(np.argmax(~(np.isfinite(s) & (s > 0.0))))
            trial = "" if trial_start is None else f"in trial {trial_start + first} "
            raise NumericError(
                f"innovation variance {s[first]:g} is not finite and positive "
                f"{trial}at time index {k}"
            )
        gain = _t(hp / s)  # (n, 1, M)
    else:
        s_mat = s_mat.transpose(2, 0, 1)
        lower = np.tril(s_mat) + np.triu(s_mat.transpose(0, 2, 1), 1)
        ok = _pivots_positive(lower, np.abs(s_mat).max(axis=(1, 2)), 0.0)
        if not ok.all():
            trial = "" if trial_start is None else f"in trial {trial_start + int(np.argmin(ok))} "
            raise NumericError(
                f"innovation covariance is not positive definite {trial}at time index {k}"
            )
        gain = np.linalg.solve(s_mat, hp.transpose(2, 0, 1)).transpose(2, 1, 0)
    innovation = y - h
    ap = _mm(gain, hp)
    np.subtract(P, ap, out=ap)  # (I - K H) P
    kr = _mm(gain, R)
    kr -= _mm(ap, ht)
    cov = _mm(kr, _t(gain))
    cov += ap
    cov /= 2.0  # halved before the sum, as in symmetrize, so no finite entry overflows
    sym = cov + _t(cov)
    x_new = _mv(gain, innovation)
    x_new += x
    return x_new, sym, gain, innovation


def _predict_stack(x, P, Q, model, theta, k: int, step: str):
    """(f(x), F, F P F' + Q) for the states x, one vector (n,) or an (M, n)
    batch, with (f(x), F) = linearize at x and P an (n, n, M) stack; F is
    returned as the (n, n, M) or (n, n, 1) stack."""
    n, Q = P.shape[0], _at_least_2d(Q)
    fx, F = model.linearize(x, theta, k)
    if fx.shape != x.shape or F.shape not in ((n, n), x.shape[:-1] + (n, n)) or Q.shape != (n, n):
        raise DimensionError(
            f"f {fx.shape}, F {F.shape} or Q {Q.shape} do not fit n={n} ({step} at k={k})"
        )
    F = _soa(F)
    cov = _mm(_mm(F, P), _t(F))
    cov += _soa(Q)
    return fx, F, cov


def _correct_stack(x, P, y, R, model, theta, k: int, step: str, trial_start=None):
    """`_update` of the states x, one vector (n,) or an (M, n) batch, and the
    (n, n, M) stack P by the measurements y, (p,) or (M, p), with (h(x), H)
    = linearize_obs at x; returns `_update`'s stacks."""
    n, p, lead, R = P.shape[0], y.shape[-1], x.shape[:-1], _at_least_2d(R)
    hx, H = model.linearize_obs(x, theta, k)
    if hx.shape != lead + (p,) or H.shape not in ((p, n), lead + (p, n)) or R.shape != (p, p):
        raise DimensionError(
            f"h {hx.shape}, H {H.shape} or R {R.shape} do not fit p={p}, n={n} ({step} at k={k})"
        )
    # (d, M) views
    x, y, hx = x.reshape(-1, x.shape[-1]).T, y.reshape(-1, p).T, hx.reshape(-1, p).T
    return _update(x, P, y, hx, _soa(H), _soa(R), k, trial_start)


@np.errstate(over="ignore", invalid="ignore")
def _predict(prev: GaussianBelief, model, theta, k: int, step: str) -> GaussianBelief:
    """`_predict_stack` of one belief."""
    mean, _, cov = _predict_stack(prev.mean, _soa(prev.cov), model.Q(k), model, theta, k, step)
    return _named(f"{step} at k={k}", GaussianBelief, mean, cov[:, :, 0])


@np.errstate(over="ignore", invalid="ignore")
def _correct(predicted: GaussianBelief, y, model, theta, k: int, step: str) -> KalmanStep:
    """`_correct_stack` of one belief by y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    x, P, K, innovation = _correct_stack(
        predicted.mean, _soa(predicted.cov), y, model.R(k), model, theta, k, step
    )
    corrected = _named(f"{step} at k={k}", GaussianBelief, x[:, 0], P[:, :, 0])
    return KalmanStep(predicted, K[:, :, 0], corrected, innovation[:, 0])


# Beliefs the scan's gate checks in one call, whose pivot test runs one
# vector operation per entry block over them all: enough to share the
# per-call overhead, few enough that its temporaries stay small.  The
# filters (one node) gate 256 steps at a time.
_GATE_BLOCK = 512


@np.errstate(over="ignore", invalid="ignore")
def _scan(ys, model, x, P, theta, name: str):
    """Filter M nodes over the measurement record ys, (K, p) or (K,), from
    the prior means x (M, n) and covariances P (M, n, n); theta is None, one
    parameter vector or an (M, n_theta) batch.  Returns the means (K + 1, M,
    n) and covariances (K + 1, M, n, n) of the corrected beliefs, row 0 the
    priors.

    Each step k runs `_predict_stack` and `_correct_stack` on the (n, M) and
    (n, n, M) stacks, named "{name}_predict at k={k}" and "{name}_correct at
    k={k}" as kf_*/ekf_* name theirs, so a node's values are those of the
    one-step functions bit for bit.  The whole scan, its gate too, is one
    error scope, np.errstate(over="ignore", invalid="ignore"), so overflow
    in a model callable or the kernel ends as non-finite values.  Both
    halves are kept in one buffer, (K + 1, 2, M, n) and (K + 1, 2, M, n, n):
    row (k, 0) the predicted beliefs of step k, row (k, 1) the corrected
    ones, row (0, 1) the priors; the results are views of the corrected
    rows.  The loop checks only that each half's means are finite, on their
    Python floats (exact, and cheaper than np.isfinite for a few filters),
    since the model callables see only means and theta, and stops before a
    non-finite one reaches them.  Every stored belief passes
    GaussianBelief's gate, `_require_beliefs`, in the order predicted 1,
    corrected 1, predicted 2, ...: each full _GATE_BLOCK of them as soon as
    it is stored, read from the buffer, in one pivot test over the block,
    and the rest when the loop stops, at an exception too.  So an error
    names the first belief that fails, and a failing record stops within
    one gate block.
    """
    ys = _normalize_measurements(ys)
    m, n = x.shape
    xs, ps = np.empty((ys.shape[0] + 1, 2, m, n)), np.empty((ys.shape[0] + 1, 2, m, n, n))
    xs[0, 1], ps[0, 1] = x, P
    predict, correct = f"{name}_predict", f"{name}_correct"

    def where(i):  # belief i in gate order, from predicted 1 of node 0
        j, node = divmod(i, m)
        half = (predict, correct)[j % 2] + (f" of node {node}" if m > 1 else "")
        return f"{half} at k={1 + j // 2}"

    gated_x, gated_p = xs.reshape(-1, n)[2 * m :], ps.reshape(-1, n, n)[2 * m :]

    def gate(start, stop):  # the stored beliefs [start, stop) in gate order
        _require_beliefs(gated_x[start:stop], gated_p[start:stop], lambda i: where(start + i))

    stored = gated = 0  # beliefs stored after the priors, and gated
    P = _soa(P)
    try:
        for k in range(1, ys.shape[0] + 1):
            x, _, P = _predict_stack(x, P, model.Q(k), model, theta, k, predict)
            xs[k, 0], ps[k, 0] = x, P.transpose(2, 0, 1)
            stored += m
            while stored - gated >= _GATE_BLOCK:
                gate(gated, gated + _GATE_BLOCK)
                gated += _GATE_BLOCK
            if not all(map(math.isfinite, x.ravel().tolist())):
                break
            x, P, _, _ = _correct_stack(x, P, ys[k - 1], model.R(k), model, theta, k, correct)
            x = x.T
            xs[k, 1], ps[k, 1] = x, P.transpose(2, 0, 1)
            stored += m
            while stored - gated >= _GATE_BLOCK:
                gate(gated, gated + _GATE_BLOCK)
                gated += _GATE_BLOCK
            if not all(map(math.isfinite, x.ravel().tolist())):
                break
    finally:  # on an exception too: a failure before it is the one to report
        if 0 < stored - gated < _GATE_BLOCK:  # else none is left, or a full block failed first
            gate(gated, stored)
    return xs[:, 1], ps[:, 1]


def _require_index(k, signature: str) -> None:
    """Refuse a time index k that is not an integer, a bool included,
    naming the function by its signature: the analytic references take
    theta and k in opposite orders, and a swapped pair would otherwise fail
    inside a model callable."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise TypeError(f"{signature}: k must be an integer time index, got {k!r}")


def kf_predict(
    prev: GaussianBelief, model: LinearModel, *, theta=None, k: int = 0
) -> GaussianBelief:
    """Prediction step: mean F x, covariance F P F' + Q."""
    return _predict(prev, model, theta, k, "kf_predict")


def kf_gain(predicted_cov: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Kalman gain K = P C' (C P C' + R)^-1 by a numpy solve, gated by a
    Cholesky factorization of the innovation covariance S: an S that is not
    finite and positive definite raises NumericError."""
    P = np.asarray(predicted_cov, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if C.shape[1] != P.shape[0] or R.shape != (C.shape[0], C.shape[0]):
        raise DimensionError("kf_gain: inconsistent P/C/R shapes")
    S = symmetrize(C @ P @ C.T + R)
    if not np.all(np.isfinite(S)):
        raise NumericError("innovation covariance is not finite (kf_gain)")
    try:
        np.linalg.cholesky(S)
        # K' = S^-1 C P, using symmetry of P and S
        return np.linalg.solve(S, C @ P).T
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular innovation covariance (kf_gain): {exc}") from exc


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
    *,
    theta=None,
    k: int = 0,
) -> KalmanStep:
    """Correction step: mean shifted by gain times innovation, Joseph-form
    covariance."""
    return _correct(predicted, y, model, theta, k, "kf_correct")


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
    the model's measurement noise covariance.  A k that is not an integer,
    e.g. theta and k swapped, is a TypeError.
    """
    _require_index(k, "propagate_linear_gum(prev, y, model, theta=None, k=0)")
    F = model.F(prev.mean, theta, k)
    Q = model.Q(k)
    H = model.H(prev.mean, theta, k)
    R = y.cov
    P_pred = symmetrize(F @ prev.cov @ F.T + Q)
    K = _named(f"propagate_linear_gum at k={k}", kf_gain, P_pred, H, R)
    A = np.eye(prev.dim) - K @ H
    mean = A @ (F @ prev.mean) + K @ y.mean
    cov = symmetrize(A @ P_pred @ A.T + K @ R @ K.T)
    return _named(f"propagate_linear_gum at k={k}", GaussianBelief, mean, cov)
