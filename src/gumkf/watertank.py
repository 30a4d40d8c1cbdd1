"""Sloshing water-tank benchmark system and its five estimation scenarios.

The water level oscillates harmonically: the two-dimensional state is
(level x_L, sloshing amplitude x_s) with transition matrix
[[1, 2*pi*theta*cos(2*pi*theta*t_k)], [0, 1]] and a level-only observation.
The sloshing frequency theta may be known exactly or only up to a standard
uncertainty, which is what the different scenarios exercise.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .core import (
    ConfigError,
    GaussianBelief,
    LinearModel,
    ParameterKnowledge,
    RngStreamPlan,
)
from .ekf import AugmentedModel, augment
from .gum_mc import mc_sequential
from .kalman import _scan
from .particle import pf_run

SCHEMA_VERSION = 1
SCENARIOS = ("lkf-known", "mc-lkf-uncertain", "ekf-augmented", "mc-ekf", "pf")
# the sample-based scenarios, each with the option that counts its samples
SAMPLED = {"mc-lkf-uncertain": "trials", "mc-ekf": "trials", "pf": "particles"}
COMPONENTS = {"xL": 0, "xs": 1, "theta": 2}


@dataclass(frozen=True)
class TankConfig:
    """Benchmark parameters; defaults are the reference values of the system.

    u_theta defaults to 1% of theta, alpha (artificial process noise on the
    augmented frequency state) to u_theta / 100.  The noise standard
    deviations tau, sigma, u_theta and alpha must lie in [0, sqrt(max
    float)], so that their squares, the variances, are finite.
    """

    L0: float = 100.0
    xs: float = 0.01
    theta: float = 0.8
    tau: float = 0.01
    sigma: float = 1.0
    dt: float = 0.01
    n_steps: int = 1000
    u_theta: Optional[float] = None
    alpha: Optional[float] = None

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.name != "n_steps"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            default = value is None and name in ("u_theta", "alpha")
            # abs() <= max also refuses an int too large for a float
            if not (default or real and abs(value) <= sys.float_info.max):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.u_theta is None:
            object.__setattr__(self, "u_theta", 0.01 * self.theta)
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.u_theta / 100.0)
        if self.tau < 0 or self.sigma < 0 or self.u_theta < 0 or self.alpha < 0:
            raise ConfigError("noise standard deviations must be non-negative")
        for name in ("tau", "sigma", "u_theta", "alpha"):  # each is squared to a variance
            if getattr(self, name) > math.sqrt(sys.float_info.max):
                raise ConfigError(f"{name} is too large: its square overflows a float")
        if self.dt <= 0:
            raise ConfigError("sampling interval dt must be positive")
        n = self.n_steps
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ConfigError(f"n_steps must be an integer of at least 1, got {n!r}")

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "TankConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported config schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TankConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON or UTF-8, or an over-long integer
                raise ConfigError(f"{path}: not a JSON config: {exc}") from exc
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# models


def linear_model(config: TankConfig) -> LinearModel:
    """Theta-parameterized linear tank model; the state-matrix callable
    accepts either a single parameter vector or an (M, 1) batch."""
    dt = config.dt

    def state_matrix(k, theta):
        if theta is None:
            th = np.asarray(config.theta, dtype=float)
        else:
            th = np.asarray(theta, dtype=float)[..., 0]
        w = 2.0 * np.pi * th
        coupling = w * np.cos(w * ((k - 1) * dt))
        out = np.zeros(np.shape(th) + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 0, 1] = coupling
        out[..., 1, 1] = 1.0
        return out

    return LinearModel(
        state_matrix=state_matrix,
        obs_matrix=np.array([[1.0, 0.0]]),
        process_noise=np.diag([0.0, config.tau**2]),
        obs_noise=np.array([[config.sigma**2]]),
    )


def _augmented_closed_forms(config: TankConfig) -> dict:
    """NonlinearModel fields of the augmented tank in closed form: state_fn,
    obs_fn, (x_L + 2 pi theta cos(2 pi theta t) x_s, x_s, theta) and x_L, and
    their Jacobians.  They use linear_model's floating-point expressions, so
    they equal augment's generic functions of linear_model bit for bit.  The
    state Jacobian is filled trial axis last, (3, 3, M), and returned as its
    (M, 3, 3) transposed view, which _soa takes without a copy.
    `linearization` returns (state_fn, state_jacobian) in one call, with
    w = 2 pi theta, u = w t, cos u, sin u and w cos u evaluated once in the
    two's expressions and order, so its bits are theirs."""
    dt = config.dt

    def _jacobian(z, xs, w_cos, u, c, s):
        out = np.zeros((3, 3) + z.shape[:-1])
        out[0, 0] = out[1, 1] = out[2, 2] = 1.0
        out[0, 1] = w_cos
        out[0, 2] = xs * 2.0 * np.pi * (c - u * s)
        return out.transpose(tuple(range(2, out.ndim)) + (0, 1))

    def state_fn(z, _theta, k):
        z = np.asarray(z, dtype=float)
        th = z[..., 2]
        t = (k - 1) * dt
        out = z.copy(order="K")  # keeps the (M, 3) view of a (3, M) stack one
        out[..., 0] += 2.0 * np.pi * th * np.cos(2.0 * np.pi * th * t) * z[..., 1]
        return out

    def obs_fn(z, _theta, _k):
        return np.asarray(z, dtype=float)[..., :1]

    def state_jacobian(z, _theta, k):
        z = np.asarray(z, dtype=float)
        t = (k - 1) * dt
        xs = z[..., 1]
        th = z[..., 2]
        u = 2.0 * np.pi * th * t
        c = np.cos(u)
        return _jacobian(z, xs, 2.0 * np.pi * th * c, u, c, np.sin(u))

    def linearization(z, _theta, k):
        z = np.asarray(z, dtype=float)
        t = (k - 1) * dt
        xs = z[..., 1]
        w = 2.0 * np.pi * z[..., 2]
        u = w * t
        c = np.cos(u)
        w_cos = w * c
        out = z.copy(order="K")
        out[..., 0] += w_cos * xs
        return out, _jacobian(z, xs, w_cos, u, c, np.sin(u))

    def obs_jacobian(_z, _theta, _k):
        return np.array([[1.0, 0.0, 0.0]])

    return dict(
        state_fn=state_fn,
        obs_fn=obs_fn,
        state_jacobian=state_jacobian,
        obs_jacobian=obs_jacobian,
        linearization=linearization,
    )


def state_prior(config: TankConfig) -> GaussianBelief:
    """Initial belief over (x_L, x_s): exactly known level, amplitude known
    to the state-noise standard deviation."""
    return GaussianBelief(
        np.array([config.L0, config.xs]), np.diag([0.0, config.tau**2])
    )


def frequency_knowledge(config: TankConfig) -> ParameterKnowledge:
    return ParameterKnowledge(
        np.array([config.theta]), np.array([[config.u_theta**2]])
    )


def augmented_model(config: TankConfig) -> Tuple[AugmentedModel, GaussianBelief]:
    """Three-state augmented system (x_L, x_s, theta) with its initial
    belief diag(0, tau^2, u_theta^2); augment's model of linear_model with
    the closed-form state and observation functions and Jacobians."""
    aug, belief = augment(
        linear_model(config), state_prior(config), frequency_knowledge(config), config.alpha
    )
    return replace(aug, model=replace(aug.model, **_augmented_closed_forms(config))), belief


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimulationRecord:
    """Ground truth trajectory and noisy level measurements.

    states has shape (n_steps + 1, 2); measurements[k-1] is the level
    observation at time index k.
    """

    times: np.ndarray
    states: np.ndarray
    measurements: np.ndarray


def simulate(config: TankConfig, plan: RngStreamPlan) -> SimulationRecord:
    """Iterate the discrete system; state noise enters the amplitude
    component only.  Deterministic under the plan: the noise of all steps
    is drawn in one step_normals pass per label, and the recursion runs as
    cumulative sums, which add in step order, so every bit equals that of
    a step-by-step loop drawing normal_rows(k, label, 0, 1, 1)."""
    n = config.n_steps
    ks = np.arange(1, n + 1)
    two_pi = 2.0 * np.pi
    amp = np.cumsum(np.concatenate(([config.xs], config.tau * plan.step_normals(ks, "sim/state"))))
    t_prev = (ks - 1) * config.dt
    slope = amp[:-1] * two_pi * config.theta * np.cos(two_pi * config.theta * t_prev)
    level = np.cumsum(np.concatenate(([config.L0], slope)))
    measurements = level[1:] + config.sigma * plan.step_normals(ks, "sim/obs")
    times = np.arange(n + 1) * config.dt
    return SimulationRecord(times, np.stack([level, amp], axis=1), measurements)


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class EstimationReport:
    """Uniform per-scenario result: estimates and standard uncertainties for
    the physical states, the frequency trajectory where applicable, and
    optional marginal sample snapshots keyed by time in seconds (sample
    columns ordered xL, xs, theta).  The particle filter also reports its
    per-step effective sample size after and before the resampling decision
    and the resampling flags."""

    scenario: str
    config: TankConfig
    times: np.ndarray
    state_est: np.ndarray
    state_u: np.ndarray
    theta_est: Optional[np.ndarray]
    theta_u: Optional[np.ndarray]
    record: SimulationRecord
    marginals: Dict[float, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    ess: Optional[np.ndarray] = None
    ess_pre_resample: Optional[np.ndarray] = None
    resampled: Optional[np.ndarray] = None


def _times_to_indices(config: TankConfig, times_s) -> Dict[int, float]:
    out = {}
    horizon = config.n_steps * config.dt
    for t in map(float, times_s):
        if not 0.0 <= t <= horizon:  # also refuses nan
            raise ConfigError(
                f"requested time {t} s is outside the simulated horizon [0, {horizon}] s"
            )
        k = round(t / config.dt)
        if k in out:
            raise ConfigError(f"requested times {out[k]} s and {t} s fall on the same step {k}")
        out[k] = t
    return out


def _variances(covs: np.ndarray) -> np.ndarray:
    return np.diagonal(covs, axis1=1, axis2=2)


def _report(name, config, record, means, variances, marginals=None):
    """Report from per-step means and variances with columns (xL, xs) or
    (xL, xs, theta)."""
    u = np.sqrt(np.maximum(variances, 0.0))
    has_theta = means.shape[1] > 2
    return EstimationReport(
        name,
        config,
        record.times,
        means[:, :2],
        u[:, :2],
        means[:, 2] if has_theta else None,
        u[:, 2] if has_theta else None,
        record,
        marginals or {},
    )


def scenario(
    name: str,
    config: TankConfig,
    plan: RngStreamPlan,
    *,
    trials: int = 100_000,
    n_particles: int = 100_000,
    gamma: float = 0.9,
    record_at_times: Tuple[float, ...] = (),
    threads: int = 1,
) -> EstimationReport:
    """Run one estimation scenario on a freshly simulated record.

    trials and n_particles must be at least 2, gamma in (0, 1] and threads
    at least 1 (else ConfigError), whether or not the scenario uses them.
    All scenarios under the same plan consume the identical SimulationRecord,
    so cross-scenario comparisons are paired.  lkf-known and ekf-augmented
    run `kalman._scan` over the record with one filter, whose means and
    variances are those of a kf_*/ekf_* loop bit for bit and whose gate
    refuses what theirs refuses, with the same message.
    """
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    if trials < 2:
        raise ConfigError(f"trials must be at least 2, got {trials}")
    if n_particles < 2:
        raise ConfigError(f"particles must be at least 2, got {n_particles}")
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must lie in (0, 1], got {gamma}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    record = simulate(config, plan)
    ys = record.measurements
    rec_idx = _times_to_indices(config, record_at_times)

    if name in ("lkf-known", "ekf-augmented"):
        if name == "lkf-known":
            model, belief = linear_model(config), state_prior(config)
            theta, step = np.array([config.theta]), "kf"
        else:
            aug, belief = augmented_model(config)
            model, theta, step = aug.model, None, "ekf"
        means, covs = _scan(
            ys, model, belief.mean[np.newaxis], belief.cov[np.newaxis], theta, step
        )
        return _report(name, config, record, means[:, 0], _variances(covs[:, 0]))

    if name in ("mc-lkf-uncertain", "mc-ekf"):
        if name == "mc-ekf":
            aug, prior = augmented_model(config)
            model, knowledge = aug.model, None
        else:
            model, prior = linear_model(config), state_prior(config)
            knowledge = frequency_knowledge(config)
        res = mc_sequential(
            ys, model, prior, knowledge, plan, trials, record_at=tuple(rec_idx), threads=threads
        )
        # columns (xL, xs, theta): the frequency is a parameter of the linear
        # model and the third state of the augmented one
        marginals = {rec_idx[k]: (res.records[k], np.full(trials, 1.0 / trials)) for k in res.records}
        return _report(
            name,
            config,
            record,
            np.hstack([res.state_means, res.param_means]),
            np.hstack([_variances(res.state_covs), _variances(res.param_covs)]),
            marginals,
        )

    # particle filter on the augmented system
    aug, belief0 = augmented_model(config)
    res = pf_run(ys, aug.model, belief0, n_particles, gamma, plan, record_at=tuple(rec_idx))
    marginals = {rec_idx[k]: res.records[k] for k in res.records}
    report = _report(name, config, record, res.means, _variances(res.covs), marginals)
    return replace(
        report, ess=res.ess, ess_pre_resample=res.ess_pre_resample, resampled=res.resampled
    )
