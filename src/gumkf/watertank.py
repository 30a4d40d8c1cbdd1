"""Sloshing water-tank benchmark system and its five estimation scenarios.

The water level oscillates harmonically: the two-dimensional state is
(level x_L, sloshing amplitude x_s) with transition matrix
[[1, 2*pi*theta*cos(2*pi*theta*t_k)], [0, 1]] and a level-only observation.
The sloshing frequency theta may be known exactly or only up to a standard
uncertainty, which is what the different scenarios exercise.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Tuple

import numpy as np

from .core import (
    ConfigError,
    GaussianBelief,
    LinearModel,
    ParameterKnowledge,
    RngStreamPlan,
    mvn_sample,
)
from .ekf import AugmentedModel, augment, ekf_correct, ekf_predict
from .gum_mc import mc_sequential
from .kalman import kf_correct, kf_predict
from .particle import pf_run

SCHEMA_VERSION = 1
SCENARIOS = ("lkf-known", "mc-lkf-uncertain", "ekf-augmented", "mc-ekf", "pf")
COMPONENTS = {"xL": 0, "xs": 1, "theta": 2}


@dataclass(frozen=True)
class TankConfig:
    """Benchmark parameters; defaults are the reference values of the system.

    u_theta defaults to 1% of theta, alpha (artificial process noise on the
    augmented frequency state) to u_theta / 100.
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
        if self.u_theta is None:
            object.__setattr__(self, "u_theta", 0.01 * self.theta)
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.u_theta / 100.0)
        if self.tau < 0 or self.sigma < 0 or self.u_theta < 0 or self.alpha < 0:
            raise ConfigError("noise standard deviations must be non-negative")
        if self.dt <= 0:
            raise ConfigError("sampling interval dt must be positive")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be at least 1")

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "TankConfig":
        data = dict(data)
        version = data.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported config schema_version {version!r}, expected {SCHEMA_VERSION}"
            )
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TankConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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
        t = (k - 1) * dt
        coupling = 2.0 * np.pi * th * np.cos(2.0 * np.pi * th * t)
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


def _augmented_jacobian(config: TankConfig):
    dt = config.dt

    def jac(z, _theta, k):
        z = np.asarray(z, dtype=float)
        t = (k - 1) * dt
        xs = z[..., 1]
        th = z[..., 2]
        u = 2.0 * np.pi * th * t
        c = np.cos(u)
        s = np.sin(u)
        out = np.zeros(z.shape[:-1] + (3, 3))
        out[..., 0, 0] = 1.0
        out[..., 0, 1] = 2.0 * np.pi * th * c
        out[..., 0, 2] = xs * 2.0 * np.pi * (c - u * s)
        out[..., 1, 1] = 1.0
        out[..., 2, 2] = 1.0
        return out

    return jac


def _augmented_obs_jacobian(_z, _theta, _k):
    return np.array([[1.0, 0.0, 0.0]])


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
    belief diag(0, tau^2, u_theta^2)."""
    aug, belief = augment(
        linear_model(config),
        state_prior(config),
        frequency_knowledge(config),
        config.alpha,
        state_jacobian=_augmented_jacobian(config),
        obs_jacobian=_augmented_obs_jacobian,
    )
    return aug, belief


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
    component only.  Deterministic under the plan."""
    n = config.n_steps
    states = np.empty((n + 1, 2))
    measurements = np.empty(n)
    states[0] = (config.L0, config.xs)
    two_pi = 2.0 * np.pi
    for k in range(1, n + 1):
        t_prev = (k - 1) * config.dt
        level, amp = states[k - 1]
        level = level + amp * two_pi * config.theta * np.cos(two_pi * config.theta * t_prev)
        amp = amp + config.tau * plan.normal_rows(k, "sim/state", 0, 1, 1)[0, 0]
        states[k] = (level, amp)
        measurements[k - 1] = level + config.sigma * plan.normal_rows(k, "sim/obs", 0, 1, 1)[0, 0]
    times = np.arange(n + 1) * config.dt
    return SimulationRecord(times, states, measurements)


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class EstimationReport:
    """Uniform per-scenario result: estimates and standard uncertainties for
    the physical states, the frequency trajectory where applicable, and
    optional marginal sample snapshots keyed by time in seconds (sample
    columns ordered xL, xs, theta)."""

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


def _times_to_indices(config: TankConfig, times_s) -> Dict[int, float]:
    out = {}
    for t in times_s:
        k = int(round(float(t) / config.dt))
        if not 0 <= k <= config.n_steps:
            raise ConfigError(
                f"requested time {t} s is outside the simulated horizon "
                f"[0, {config.n_steps * config.dt}] s"
            )
        out[k] = float(t)
    return out


def _variances(covs: np.ndarray) -> np.ndarray:
    return np.diagonal(covs, axis1=1, axis2=2)


def _report(name, config, record, means, variances, marginals=None, ess=None):
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
        ess=ess,
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

    All scenarios under the same plan consume the identical SimulationRecord,
    so cross-scenario comparisons are paired.
    """
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    record = simulate(config, plan)
    ys = record.measurements
    n = config.n_steps
    rec_idx = _times_to_indices(config, record_at_times)

    if name in ("lkf-known", "ekf-augmented"):
        if name == "lkf-known":
            model, belief = linear_model(config), state_prior(config)
            theta = np.array([config.theta])
            predict, correct = kf_predict, kf_correct
        else:
            aug, belief = augmented_model(config)
            model, theta = aug.model, None
            predict, correct = ekf_predict, ekf_correct
        means = np.empty((n + 1, belief.dim))
        variances = np.empty((n + 1, belief.dim))
        means[0], variances[0] = belief.mean, np.diag(belief.cov)
        for k in range(1, n + 1):
            predicted = predict(belief, model, theta=theta, k=k)
            belief = correct(predicted, ys[k - 1 : k], model, theta=theta, k=k).corrected
            means[k], variances[k] = belief.mean, np.diag(belief.cov)
        return _report(name, config, record, means, variances)

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

    def prior_sampler(p: RngStreamPlan, count: int) -> np.ndarray:
        return mvn_sample(belief0.mean, belief0.cov, p.normal_rows(0, "pf/init", 0, count, 3))

    res = pf_run(
        ys, aug.model, prior_sampler, n_particles, gamma, plan, record_at=tuple(rec_idx)
    )
    marginals = {rec_idx[k]: res.records[k] for k in res.records}
    return _report(
        name, config, record, res.means, _variances(res.covs), marginals, ess=res.ess
    )
