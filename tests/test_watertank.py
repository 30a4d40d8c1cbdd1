"""Water-tank benchmark: configuration, simulation, and the five scenarios."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from gumkf import (
    ConfigError,
    McEnsemble,
    RngStreamPlan,
    SimulationRecord,
    TankConfig,
    augment,
    augmented_model,
    ekf_predict,
    finite_difference_jacobian,
    frequency_knowledge,
    kf_correct,
    kf_predict,
    linear_model,
    mc_step,
    scenario,
    simulate,
    state_prior,
)
from gumkf.core import DimensionError, _soa
from gumkf.gum_mc import mc_sequential
from gumkf.kalman import _scan
from gumkf.particle import pf_run
from gumkf.watertank import _augmented_closed_forms

from conftest import rel_err

TWO_PI = 2.0 * np.pi


class TestTankConfig:
    def test_reference_defaults(self):
        cfg = TankConfig()
        assert (cfg.L0, cfg.xs, cfg.theta) == (100.0, 0.01, 0.8)
        assert (cfg.tau, cfg.sigma) == (0.01, 1.0)
        assert cfg.u_theta == pytest.approx(0.008)
        assert cfg.alpha == pytest.approx(0.008 / 100.0)
        assert (cfg.dt, cfg.n_steps) == (0.01, 1000)

    def test_roundtrip(self, tmp_path):
        cfg = TankConfig(theta=0.9, n_steps=50, u_theta=0.02)
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert TankConfig.load(path) == cfg

    def test_schema_version_checked(self, tmp_path):
        d = TankConfig().to_dict()
        d["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            TankConfig.from_dict(d)

    def test_unknown_keys_rejected(self):
        d = TankConfig().to_dict()
        d["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            TankConfig.from_dict(d)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau=-0.1), dict(sigma=-1.0), dict(dt=0.0), dict(n_steps=0),
            dict(theta=float("inf")), dict(u_theta="0.1"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TankConfig(**kwargs)

    # each is squared to a variance; theta's default u_theta is 0.01 theta
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(tau=1e200), "tau"),
            (dict(sigma=1e200), "sigma"),
            (dict(u_theta=1e200), "u_theta"),
            (dict(alpha=1e200), "alpha"),
            (dict(theta=1e300), "u_theta"),
        ],
    )
    def test_noise_whose_variance_overflows_refused(self, kwargs, name):
        with pytest.raises(ConfigError, match=rf"^{name} is too large: its square overflows"):
            TankConfig(**kwargs)

    def test_largest_noise_whose_variance_is_finite_accepted(self):
        edge = math.sqrt(sys.float_info.max)
        cfg = TankConfig(tau=edge, sigma=edge, u_theta=edge, alpha=edge)
        assert cfg.tau**2 <= sys.float_info.max
        with pytest.raises(ConfigError, match="^tau is too large"):
            TankConfig(tau=math.nextafter(edge, math.inf))

    def test_non_numbers_refused_in_post_init(self):
        # None stands for a default only in u_theta and alpha; from_dict passes
        # every value to the constructor, whose own check refuses the bad ones,
        # an int beyond the float range too
        for name in ("L0", "xs", "theta", "tau", "sigma", "dt", "u_theta", "alpha"):
            values = ["0.5", [0.5], True, 10**400]
            values += [] if name in ("u_theta", "alpha") else [None]
            for value in values:
                with pytest.raises(ConfigError) as info:
                    TankConfig.from_dict({"schema_version": 1, name: value})
                assert str(info.value) == f"{name} must be a finite number, got {value!r}"
                assert info.traceback[-1].name == "__post_init__"
        assert TankConfig(u_theta=None, alpha=None) == TankConfig()


class TestLinearModel:
    def test_state_matrix_at_first_step(self):
        cfg = TankConfig()
        F = linear_model(cfg).F(None, None, 1)
        np.testing.assert_allclose(F, [[1.0, TWO_PI * 0.8], [0.0, 1.0]], rtol=1e-15)

    def test_observation_and_noise(self):
        cfg = TankConfig()
        model = linear_model(cfg)
        np.testing.assert_array_equal(model.H(None, None, 1), [[1.0, 0.0]])
        np.testing.assert_array_equal(model.Q(1), np.diag([0.0, cfg.tau**2]))
        np.testing.assert_array_equal(model.R(1), [[cfg.sigma**2]])

    def test_batched_theta_matrices(self):
        cfg = TankConfig()
        model = linear_model(cfg)
        thetas = np.array([[0.7], [0.8], [0.9]])
        F = model.F(None, thetas, 5)
        assert F.shape == (3, 2, 2)
        for i, th in enumerate(thetas[:, 0]):
            np.testing.assert_allclose(F[i], model.F(None, np.array([th]), 5), rtol=1e-15)

    def test_prior_and_knowledge(self):
        cfg = TankConfig()
        prior = state_prior(cfg)
        np.testing.assert_array_equal(prior.mean, [cfg.L0, cfg.xs])
        np.testing.assert_allclose(prior.cov, np.diag([0.0, cfg.tau**2]), atol=1e-18)
        pk = frequency_knowledge(cfg)
        assert pk.estimate[0] == cfg.theta
        assert pk.cov[0, 0] == pytest.approx(cfg.u_theta**2)


def counted(model):
    """The model with its state and observation matrices wrapped in callables
    that count their evaluations."""
    calls = {"state": 0, "obs": 0}

    def state_matrix(k, theta):
        calls["state"] += 1
        return model.state_matrix(k, theta)

    def obs_matrix(k, theta):
        calls["obs"] += 1
        return model.obs_matrix

    return replace(model, state_matrix=state_matrix, obs_matrix=obs_matrix), calls


class TestLinearization:
    def test_filter_step_evaluates_each_matrix_once(self):
        cfg = TankConfig()
        model, calls = counted(linear_model(cfg))
        belief, theta = state_prior(cfg), np.array([cfg.theta])
        for k in range(1, 4):
            predicted = kf_predict(belief, model, theta=theta, k=k)
            belief = kf_correct(predicted, [cfg.L0], model, theta=theta, k=k).corrected
            assert calls == {"state": k, "obs": k}

    def test_monte_carlo_step_evaluates_each_matrix_once(self):
        cfg = TankConfig()
        model, calls = counted(linear_model(cfg))
        params = cfg.theta + cfg.u_theta * np.linspace(-1.0, 1.0, 16)[:, np.newaxis]
        ensemble = McEnsemble(np.tile([cfg.L0, cfg.xs], (16, 1)), params, 0)
        covs = np.repeat(state_prior(cfg).cov[np.newaxis], 16, axis=0)
        for k in range(1, 4):
            ensemble, covs = mc_step(ensemble, [cfg.L0], model, covs, RngStreamPlan(3), k)
            assert calls == {"state": k, "obs": k}

    @pytest.mark.parametrize("trials", [None, 64])
    def test_closed_forms_equal_the_generic_augmented_model(self, trials):
        cfg = TankConfig()
        model = augmented_model(cfg)[0].model
        generic = augment(
            linear_model(cfg), state_prior(cfg), frequency_knowledge(cfg), cfg.alpha
        )[0].model
        rng = np.random.default_rng(7)
        shape = (3,) if trials is None else (trials, 3)
        z = [cfg.L0, cfg.xs, cfg.theta] + rng.standard_normal(shape) * [1.0, 0.01, 0.05]
        for k in (1, 17, 400):
            np.testing.assert_array_equal(model.f(z, None, k), generic.f(z, None, k))
            np.testing.assert_array_equal(model.h(z, None, k), generic.h(z, None, k))
            F = model.F(z, None, k)
            jac = finite_difference_jacobian(lambda v: model.f(v, None, k), z)
            assert rel_err(F, jac) < 1e-6
            assert np.shares_memory(_soa(F), F)


def tank_points(cfg, layout):
    """Augmented tank states: one vector, a C (16, 3) batch or the (16, 3)
    view of a C (3, 16) stack."""
    rng = np.random.default_rng(11)
    shape = (3,) if layout == "vector" else (16, 3)
    z = [cfg.L0, cfg.xs, cfg.theta] + rng.standard_normal(shape) * [1.0, 0.01, 0.05]
    return np.ascontiguousarray(z.T).T if layout == "stack view" else z


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestJointLinearization:
    """The tank's `linearization`, (f(x), F) in one call."""

    @pytest.mark.parametrize("layout", ["vector", "batch", "stack view"])
    @pytest.mark.parametrize("k", [1, 2, 500])
    def test_equals_state_fn_and_state_jacobian_bit_for_bit(self, layout, k):
        cfg = TankConfig()
        forms = _augmented_closed_forms(cfg)
        z = tank_points(cfg, layout)
        fx, F = forms["linearization"](z, None, k)
        assert same_bits(fx, forms["state_fn"](z, None, k))
        assert same_bits(F, forms["state_jacobian"](z, None, k))
        assert np.shares_memory(_soa(F), F)  # the trial-last transposed view

    def test_scan_and_mc_sequential_bits_without_it(self):
        cfg = TankConfig(n_steps=40)
        aug, belief = augmented_model(cfg)
        ys = simulate(cfg, RngStreamPlan(9)).measurements

        def outputs(model):
            scanned = _scan(ys, model, belief.mean[np.newaxis], belief.cov[np.newaxis], None, "ekf")
            mc = mc_sequential(ys, model, belief, None, RngStreamPlan(9), 64)
            arrays = scanned + (mc.state_means, mc.state_covs, mc.param_means, mc.param_covs)
            return b"".join(a.tobytes() for a in arrays)

        assert outputs(aug.model) == outputs(replace(aug.model, linearization=None))

    def test_particle_filter_never_calls_it(self):
        cfg = TankConfig(n_steps=10)
        aug, belief = augmented_model(cfg)
        calls = []

        def linearization(z, theta, k):
            calls.append(k)
            return aug.model.linearization(z, theta, k)

        model = replace(aug.model, linearization=linearization)
        ys = simulate(cfg, RngStreamPlan(4)).measurements
        pf_run(ys, model, belief, 200, 0.9, RngStreamPlan(4))
        assert calls == []
        model.linearize(belief.mean, None, 3)  # the wrapper counts
        assert calls == [3]

    @pytest.mark.parametrize("bad", ["f", "F"])
    def test_pair_of_the_wrong_shape_refused_naming_step_and_k(self, bad):
        cfg = TankConfig(n_steps=5)
        aug, belief = augmented_model(cfg)

        def linearization(z, theta, k):
            fx, F = aug.model.linearization(z, theta, k)
            return (fx[..., :2], F) if bad == "f" else (fx, F[..., :2, :])

        model = replace(aug.model, linearization=linearization)
        with pytest.raises(DimensionError, match=r"\(ekf_predict at k=4\)$"):
            ekf_predict(belief, model, k=4)
        ys = simulate(cfg, RngStreamPlan(4)).measurements
        with pytest.raises(DimensionError, match=r"\(ekf_predict at k=1\)$"):
            _scan(ys, model, belief.mean[np.newaxis], belief.cov[np.newaxis], None, "ekf")


def simulate_step_by_step(config, plan):
    """The simulator as a per-step loop with one single-trial draw per step
    and label: the oracle of the batched simulate."""
    n = config.n_steps
    states = np.empty((n + 1, 2))
    measurements = np.empty(n)
    states[0] = (config.L0, config.xs)
    for k in range(1, n + 1):
        t_prev = (k - 1) * config.dt
        level, amp = states[k - 1]
        level = level + amp * TWO_PI * config.theta * np.cos(TWO_PI * config.theta * t_prev)
        amp = amp + config.tau * plan.normal_rows(k, "sim/state", 0, 1, 1)[0, 0]
        states[k] = (level, amp)
        measurements[k - 1] = level + config.sigma * plan.normal_rows(k, "sim/obs", 0, 1, 1)[0, 0]
    return SimulationRecord(np.arange(n + 1) * config.dt, states, measurements)


class TestSimulate:
    @pytest.mark.parametrize("seed", [0, 42, 2**32, 2**64 - 1])
    @pytest.mark.parametrize(
        "changes", [{}, {"n_steps": 1}, {"theta": 0.0}, {"tau": 0.0, "sigma": 0.0}],
        ids=["default", "one-step", "theta0", "noise-free"],
    )
    def test_equals_step_by_step_loop(self, seed, changes):
        cfg = TankConfig(**changes)
        plan = RngStreamPlan(seed)
        rec, ref = simulate(cfg, plan), simulate_step_by_step(cfg, plan)
        for name in ("times", "states", "measurements"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_noise_free_dynamics(self):
        cfg = TankConfig(tau=0.0, sigma=0.0, n_steps=40)
        rec = simulate(cfg, RngStreamPlan(1))
        np.testing.assert_allclose(rec.states[:, 1], cfg.xs, atol=1e-15)
        for k in range(1, cfg.n_steps + 1):
            t_prev = (k - 1) * cfg.dt
            inc = cfg.xs * TWO_PI * cfg.theta * np.cos(TWO_PI * cfg.theta * t_prev)
            assert rec.states[k, 0] - rec.states[k - 1, 0] == pytest.approx(inc, abs=1e-14)
        np.testing.assert_allclose(rec.measurements, rec.states[1:, 0], atol=1e-15)

    def test_zero_frequency_freezes_level(self):
        cfg = TankConfig(theta=0.0, n_steps=30)
        rec = simulate(cfg, RngStreamPlan(1))
        np.testing.assert_allclose(rec.states[:, 0], cfg.L0, atol=1e-12)

    def test_deterministic_under_plan(self):
        cfg = TankConfig(n_steps=30)
        a = simulate(cfg, RngStreamPlan(42))
        b = simulate(cfg, RngStreamPlan(42))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.measurements, b.measurements)

    def test_times_and_shapes(self):
        cfg = TankConfig(n_steps=12)
        rec = simulate(cfg, RngStreamPlan(0))
        assert rec.states.shape == (13, 2)
        assert rec.measurements.shape == (12,)
        np.testing.assert_allclose(rec.times, np.arange(13) * cfg.dt, rtol=1e-15)


class TestScenarios:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            scenario("nope", TankConfig(n_steps=5), RngStreamPlan(1))

    def test_lkf_known_tracks_truth_at_low_noise(self):
        cfg = TankConfig(tau=0.0, sigma=1e-6, n_steps=100)
        rep = scenario("lkf-known", cfg, RngStreamPlan(42))
        err = np.abs(rep.state_est[1:, 0] - rep.record.states[1:, 0])
        assert err.max() < 1e-5
        assert rep.theta_est is None

    def test_shared_record_across_scenarios(self):
        cfg = TankConfig(n_steps=30)
        a = scenario("lkf-known", cfg, RngStreamPlan(42))
        b = scenario("ekf-augmented", cfg, RngStreamPlan(42))
        np.testing.assert_array_equal(a.record.measurements, b.record.measurements)

    def test_uncertainties_non_negative_and_shapes_uniform(self):
        cfg = TankConfig(n_steps=25)
        plan = RngStreamPlan(42)
        for name, kwargs in [
            ("lkf-known", {}),
            ("ekf-augmented", {}),
            ("mc-lkf-uncertain", dict(trials=50)),
            ("mc-ekf", dict(trials=50)),
            ("pf", dict(n_particles=200)),
        ]:
            rep = scenario(name, cfg, plan, **kwargs)
            assert rep.state_est.shape == (26, 2)
            assert rep.state_u.shape == (26, 2)
            assert np.all(rep.state_u >= 0.0)
            if name != "lkf-known":
                assert rep.theta_est.shape == (26,)
                assert np.all(rep.theta_u >= 0.0)

    def test_ekf_theta_uncertainty_decreases(self):
        cfg = TankConfig(n_steps=400)
        rep = scenario("ekf-augmented", cfg, RngStreamPlan(42))
        assert rep.theta_u[0] == pytest.approx(cfg.u_theta)
        assert rep.theta_u[-1] < rep.theta_u[0]
        # the trend is monotone up to the drift-noise floor
        assert np.all(np.diff(rep.theta_u) <= cfg.alpha)

    def test_mc_linear_amplitude_uncertainty_dominates_ekf(self):
        cfg = TankConfig(n_steps=300)
        ekf = scenario("ekf-augmented", cfg, RngStreamPlan(42))
        mc = scenario("mc-lkf-uncertain", cfg, RngStreamPlan(42), trials=2000)
        late = slice(200, None)
        assert np.mean(mc.state_u[late, 1] - ekf.state_u[late, 1]) > 0.0

    def test_lkf_known_equals_mc_with_certain_theta(self):
        cfg = TankConfig(n_steps=60, u_theta=0.0)
        lkf = scenario("lkf-known", cfg, RngStreamPlan(42))
        mc = scenario("mc-lkf-uncertain", cfg, RngStreamPlan(42), trials=5000)
        sig = np.maximum(lkf.state_u[1:], 1e-12)
        err = np.abs(mc.state_est[1:] - lkf.state_est[1:])
        assert np.all(err <= 4.0 * sig / np.sqrt(5000))

    def test_marginal_snapshots_keyed_by_seconds(self):
        cfg = TankConfig(n_steps=50)
        rep = scenario(
            "pf", cfg, RngStreamPlan(42), n_particles=300, record_at_times=(0.2, 0.5)
        )
        assert set(rep.marginals) == {0.2, 0.5}
        samples, weights = rep.marginals[0.5]
        assert samples.shape == (300, 3)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_out_of_horizon_time_rejected(self):
        cfg = TankConfig(n_steps=10)
        with pytest.raises(ConfigError, match="horizon"):
            scenario("pf", cfg, RngStreamPlan(1), n_particles=100, record_at_times=(2.0,))
