"""The benchmark's workloads: inputs made from a seed, one op, and its oracle.

A workload builds its inputs in ``__init__`` (the set-up that ``setup_s``
times), runs one closed-loop op in ``op()``, and judges an op's result in
``check()``, outside the timed region: ``outputs()`` reads what the op
produced and ``oracle()`` compares it with an independent reference, which is
computed once per process and cached.  The seed reaches gumkf only as
``--seed`` or ``RngStreamPlan(seed)``.

Sizes were chosen so that one op takes about 1-1.5 s on a 2-core x86 host:
long enough that the op, not the harness, is measured, short enough that a
run holds some twenty ops, whose median is steady although single ops on a
shared host vary by up to 20%.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import gumkf
import gumkf.cli
from gumkf import GaussianBelief, RngStreamPlan, TankConfig


def _read_estimate_csv(path: Path):
    """(est, u) arrays from a scenario CSV ``t,xL_est,xL_u,xs_est,xs_u[,theta_*]``."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1::2], table[:, 2::2]


def _rel_err(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300))


# Round-off allowance, relative to the EKF mean, where a bound scales with an
# EKF uncertainty that is exactly 0 (the level at step 0 is known exactly).
ROUNDOFF = 1e-12
# Oracle bounds, each checked against the seed commit on several seeds:
# Monte Carlo mean within MC_GAP_U EKF uncertainties of the EKF mean, with
# u_MC / u_EKF in MC_U_RATIO; particle filter mean within PF_GAP_U EKF
# uncertainties; filter trajectories equal to the GUM recursions to TRAJ_TOL.
MC_GAP_U = 1.0
MC_U_RATIO = (0.5, 2.0)
PF_GAP_U = 3.0
TRAJ_TOL = 1e-12


def _mean_gap_problems(est, ekf_est, ekf_u, gap_bound):
    gap = np.abs(est - ekf_est)
    excess = gap - (gap_bound * ekf_u + ROUNDOFF * np.abs(ekf_est))
    if np.any(excess > 0):
        k, i = np.unravel_index(np.argmax(excess), gap.shape)
        return [f"mean gap {gap[k, i]:.3g} > {gap_bound}*u_EKF at step {k}, column {i}"]
    return []


def _ekf_reference(config: TankConfig, seed: int):
    """EKF estimate and standard uncertainty (n+1, 3) on the seed's record."""
    report = gumkf.scenario("ekf-augmented", config, RngStreamPlan(seed))
    est = np.column_stack([report.state_est, report.theta_est])
    u = np.column_stack([report.state_u, report.theta_u])
    return est, u


# ---------------------------------------------------------------------------
# oracles: each returns a list of failure messages, empty when the result holds


def oracle_mc_vs_ekf(est, u, ekf_est, ekf_u):
    """Monte Carlo mean within MC_GAP_U EKF uncertainties of the EKF mean,
    and u_MC / u_EKF within MC_U_RATIO, at every step and component.
    Where u_EKF is 0 (an exactly known component) u_MC must be 0 up to round-off."""
    problems = []
    if est.shape != ekf_est.shape or u.shape != ekf_u.shape:
        return [f"shape {est.shape} differs from reference {ekf_est.shape}"]
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(u))):
        problems.append("non-finite Monte Carlo output")
    problems += _mean_gap_problems(est, ekf_est, ekf_u, MC_GAP_U)
    known = ekf_u == 0
    if np.any(u[known] > ROUNDOFF * np.abs(ekf_est[known])):
        problems.append("non-zero Monte Carlo uncertainty on an exactly known component")
    ratio = u[~known] / ekf_u[~known]
    lo, hi = MC_U_RATIO
    if ratio.size and not (lo <= ratio.min() and ratio.max() <= hi):
        problems.append(f"u_MC/u_EKF in [{ratio.min():.3g}, {ratio.max():.3g}], outside [{lo}, {hi}]")
    return problems


def oracle_pf(est, u, ess, n_particles, ekf_est, ekf_u):
    """ESS in [1, N] at every step, finite outputs, and the PF mean within
    PF_GAP_U EKF uncertainties of the EKF mean."""
    problems = []
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(u)) and np.all(np.isfinite(ess))):
        problems.append("non-finite particle filter output")
    if ess.min() < 1.0 or ess.max() > n_particles * (1 + 1e-12):
        problems.append(f"ESS in [{ess.min():.6g}, {ess.max():.6g}], outside [1, {n_particles}]")
    if est.shape != ekf_est.shape:
        return problems + [f"shape {est.shape} differs from reference {ekf_est.shape}"]
    return problems + _mean_gap_problems(est, ekf_est, ekf_u, PF_GAP_U)


def oracle_trajectory(name, est, u, ref_est, ref_u):
    """Filter trajectory equal to the analytic GUM recursion to relative TRAJ_TOL."""
    if est.shape != ref_est.shape or u.shape != ref_u.shape:
        return [f"{name}: shape {est.shape} differs from reference {ref_est.shape}"]
    problems = []
    for what, a, b in (("estimate", est, ref_est), ("uncertainty", u, ref_u)):
        err = _rel_err(a, b)
        if not err <= TRAJ_TOL:
            problems.append(f"{name} {what}: relative error {err:.3g} > {TRAJ_TOL}")
    return problems


def oracle_samples_equal(states, params, ref_states, ref_params):
    """Per-trial samples bit-identical to the reference run (criterion 07)."""
    problems = []
    for what, a, b in (("state", states, ref_states), ("parameter", params, ref_params)):
        if a is None or a.shape != b.shape:
            problems.append(f"{what} samples missing or misshapen")
        elif not np.array_equal(a, b):
            n = int(np.sum(a != b))
            problems.append(f"{n} {what} sample values differ from mc_sequential")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base class: ``unit_steps`` is the work of one op in (unit x step);
    ``threads`` are the thread counts the traced pass alternates between in
    its untraced half."""

    name = ""
    threads = (1,)

    def __init__(self, workdir: Path, seed: int, n_steps: int, units: int):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.units = units
        self.config = TankConfig(n_steps=n_steps)
        self.plan = RngStreamPlan(seed)
        self.unit_steps = units * n_steps
        self._reference = None

    def op(self, threads: int = 1):
        raise NotImplementedError

    def outputs(self, result):
        raise NotImplementedError

    def oracle(self, outputs):
        raise NotImplementedError

    def make_reference(self):
        raise NotImplementedError

    @property
    def reference(self):
        if self._reference is None:
            self._reference = self.make_reference()
        return self._reference

    def check(self, result):
        """Failure messages for one op's result; empty when it is correct."""
        try:
            return self.oracle(self.outputs(result))
        except Exception as exc:  # any fault reading or judging the output fails the op
            return [f"oracle raised {type(exc).__name__}: {exc}"]


class _CliWorkload(Workload):
    def __init__(self, workdir, seed, n_steps, units):
        super().__init__(workdir, seed, n_steps, units)
        self.config_path = self.workdir / "config.json"
        self.config.save(self.config_path)

    def _estimate(self, scenario, *extra):
        argv = ["estimate", scenario, "--config", str(self.config_path),
                "--seed", str(self.seed), "--out", str(self.workdir), *extra]
        return gumkf.cli.run(argv)

    def _csv(self, scenario, rc):
        if rc != 0:
            raise RuntimeError(f"gumkf estimate {scenario} exited with code {rc}")
        return _read_estimate_csv(self.workdir / f"{scenario}.csv")


class McEkf(_CliWorkload):
    name = "mc-ekf"
    threads = (1, 2)

    def __init__(self, workdir, seed, n_steps=50, trials=10_000):
        super().__init__(workdir, seed, n_steps, trials)
        self.model, self.prior = gumkf.augmented_model(self.config)

    def op(self, threads=1):
        return self._estimate("mc-ekf", "--trials", str(self.units), "--threads", str(threads))

    def outputs(self, rc):
        return self._csv("mc-ekf", rc)

    def make_reference(self):
        return _ekf_reference(self.config, self.seed)

    def oracle(self, outputs):
        est, u = outputs
        return oracle_mc_vs_ekf(est, u, *self.reference)


class Pf(_CliWorkload):
    name = "pf"
    gamma = 0.9

    def __init__(self, workdir, seed, n_steps=250, particles=10_000):
        super().__init__(workdir, seed, n_steps, particles)
        self.model, self.prior = gumkf.augmented_model(self.config)

    def op(self, threads=1):
        return self._estimate("pf", "--particles", str(self.units), "--gamma", str(self.gamma))

    def outputs(self, rc):
        return self._csv("pf", rc)

    def make_reference(self):
        # The CLI does not write the ESS, so the same deterministic run is
        # repeated in process: its ESS is checked, and the CSV must equal it.
        report = gumkf.scenario("pf", self.config, RngStreamPlan(self.seed),
                                n_particles=self.units, gamma=self.gamma)
        pf_est = np.column_stack([report.state_est, report.theta_est])
        pf_u = np.column_stack([report.state_u, report.theta_u])
        return (pf_est, pf_u, report.ess) + _ekf_reference(self.config, self.seed)

    def oracle(self, outputs):
        est, u = outputs
        pf_est, pf_u, ess, ekf_est, ekf_u = self.reference
        problems = []
        if not (np.array_equal(est, pf_est) and np.array_equal(u, pf_u)):
            problems.append("CLI output differs from the same run in process")
        return problems + oracle_pf(est, u, ess, self.units, ekf_est, ekf_u)


class Filters(_CliWorkload):
    name = "filters"

    def __init__(self, workdir, seed, n_steps=1500):
        super().__init__(workdir, seed, n_steps, 1)
        self.linear = gumkf.linear_model(self.config)
        self.model, self.prior = gumkf.augmented_model(self.config)

    def op(self, threads=1):
        return self._estimate("lkf-known"), self._estimate("ekf-augmented")

    def outputs(self, rcs):
        return self._csv("lkf-known", rcs[0]), self._csv("ekf-augmented", rcs[1])

    def make_reference(self):
        """Criteria 01 and 04: the analytic GUM recursions on the same record."""
        cfg = self.config
        ys = gumkf.simulate(cfg, RngStreamPlan(self.seed)).measurements
        r_cov = [[cfg.sigma**2]]
        theta = np.array([cfg.theta])
        runs = []
        for step, belief in (
            (lambda b, y, k: gumkf.propagate_linear_gum(b, y, self.linear, theta, k),
             gumkf.state_prior(cfg)),
            (lambda b, y, k: gumkf.propagate_nonlinear_gum_linearized(b, y, self.model.model, k),
             self.prior),
        ):
            est = [belief.mean]
            u = [np.sqrt(np.diag(belief.cov))]
            for k in range(1, cfg.n_steps + 1):
                belief = step(belief, GaussianBelief(ys[k - 1 : k], r_cov), k)
                est.append(belief.mean)
                u.append(np.sqrt(np.diag(belief.cov)))
            runs.append((np.array(est), np.array(u)))
        return runs

    def oracle(self, outputs):
        (lkf, ekf), (lkf_ref, ekf_ref) = outputs, self.reference
        return (oracle_trajectory("lkf-known", *lkf, *lkf_ref)
                + oracle_trajectory("ekf-augmented", *ekf, *ekf_ref))


class McTrialMajor(Workload):
    name = "mc-trial-major"

    def __init__(self, workdir, seed, n_steps=200, trials=20):
        super().__init__(workdir, seed, n_steps, trials)
        cfg = self.config
        self.args = (
            gumkf.simulate(cfg, self.plan).measurements,
            gumkf.linear_model(cfg),
            gumkf.state_prior(cfg),
            gumkf.frequency_knowledge(cfg),
            self.plan,
            trials,
        )

    def op(self, threads=1):
        return gumkf.mc_batch(*self.args, store_samples=True)

    def outputs(self, result):
        return result.samples_states, result.samples_params

    def make_reference(self):
        ref = gumkf.mc_sequential(*self.args, store_samples=True)
        return ref.samples_states, ref.samples_params

    def oracle(self, outputs):
        return oracle_samples_equal(*outputs, *self.reference)


WORKLOADS = {w.name: w for w in (McEkf, Pf, Filters, McTrialMajor)}
