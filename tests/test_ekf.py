"""Extended Kalman filter, state augmentation and split-block updates."""

import numpy as np
import pytest

from gumkf import (
    ConfigError,
    DimensionError,
    GaussianBelief,
    LinearModel,
    NonlinearModel,
    NumericError,
    ParameterKnowledge,
    RngStreamPlan,
    TankConfig,
    assert_psd,
    augment,
    augmented_model,
    ekf_correct,
    ekf_predict,
    kf_correct,
    kf_predict,
    propagate_linear_gum,
    propagate_nonlinear_gum_linearized,
    simulate,
    split_update,
)

from conftest import rand_pd, rand_psd, rel_err

TWO_PI = 2.0 * np.pi


def linear_as_nonlinear(F, C, Q, R):
    F = np.asarray(F, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return NonlinearModel(
        state_fn=lambda x, th, k: F @ x,
        obs_fn=lambda x, th, k: C @ x,
        process_noise=np.asarray(Q, dtype=float),
        obs_noise=np.atleast_2d(np.asarray(R, dtype=float)),
        state_jacobian=lambda x, th, k: F,
        obs_jacobian=lambda x, th, k: C,
    )


def smooth_random_model(rng):
    a = rng.uniform(0.5, 1.5, size=2)
    return NonlinearModel(
        state_fn=lambda x, th, k: np.array(
            [x[0] + 0.1 * np.sin(a[0] * x[1]), 0.9 * x[1] + 0.05 * x[0] ** 2]
        ),
        obs_fn=lambda x, th, k: np.array([x[0] + 0.2 * np.cos(a[1] * x[1])]),
        process_noise=rand_psd(rng, 2, scale=0.1),
        obs_noise=rand_pd(rng, 1),
    )


class TestEkfPredict:
    def test_linear_f_matches_kf(self, rng):
        F = rng.standard_normal((2, 2))
        Q = rand_psd(rng, 2)
        nl = linear_as_nonlinear(F, [[1.0, 0.0]], Q, [[1.0]])
        lin = LinearModel(F, np.array([[1.0, 0.0]]), Q, np.array([[1.0]]))
        prev = GaussianBelief(rng.standard_normal(2), rand_psd(rng, 2))
        a = ekf_predict(prev, nl)
        b = kf_predict(prev, lin)
        assert rel_err(a.mean, b.mean) < 1e-12
        assert rel_err(a.cov, b.cov) < 1e-10

    def test_identity_no_noise(self):
        nl = linear_as_nonlinear(np.eye(2), [[1.0, 0.0]], np.zeros((2, 2)), [[1.0]])
        prev = GaussianBelief(np.array([1.0, 2.0]), np.diag([0.5, 0.25]))
        out = ekf_predict(prev, nl)
        np.testing.assert_array_equal(out.mean, prev.mean)
        np.testing.assert_allclose(out.cov, prev.cov, atol=1e-14)

    def test_tank_jacobian_first_row_at_t0(self):
        # at t = 0 the coupling derivative in theta reduces to 2*pi*x_s
        cfg = TankConfig()
        aug, belief = augmented_model(cfg)
        jac = aug.model.F(belief.mean, None, 1)
        expected = np.array([1.0, TWO_PI * cfg.theta, TWO_PI * cfg.xs])
        np.testing.assert_allclose(jac[0], expected, rtol=1e-12)
        fd = NonlinearModel(
            state_fn=aug.model.state_fn,
            obs_fn=aug.model.obs_fn,
            process_noise=aug.model.process_noise,
            obs_noise=aug.model.obs_noise,
        ).F(belief.mean, None, 1)
        np.testing.assert_allclose(jac, fd, rtol=1e-4, atol=1e-8)


class TestEkfCorrect:
    def test_linear_h_matches_kf(self, rng):
        F = rng.standard_normal((2, 2))
        C = rng.standard_normal((1, 2))
        Q = rand_psd(rng, 2)
        R = rand_pd(rng, 1)
        nl = linear_as_nonlinear(F, C, Q, R)
        lin = LinearModel(F, C, Q, R)
        pred = GaussianBelief(rng.standard_normal(2), rand_pd(rng, 2))
        y = rng.standard_normal(1)
        a = ekf_correct(pred, y, nl)
        b = kf_correct(pred, y, lin)
        assert rel_err(a.corrected.mean, b.corrected.mean) < 1e-12
        assert rel_err(a.corrected.cov, b.corrected.cov) < 1e-12

    def test_zero_innovation_keeps_mean(self, rng):
        nl = smooth_random_model(rng)
        pred = GaussianBelief(rng.standard_normal(2), rand_pd(rng, 2))
        y = nl.h(pred.mean, None, 0)
        step = ekf_correct(pred, y, nl)
        np.testing.assert_allclose(step.corrected.mean, pred.mean, rtol=1e-12)

    def test_tank_gain_proportional_to_first_cov_column(self):
        cfg = TankConfig()
        aug, belief = augmented_model(cfg)
        pred = ekf_predict(belief, aug.model, 1)
        step = ekf_correct(pred, [100.5], aug.model, 1)
        s_val = pred.cov[0, 0] + cfg.sigma**2
        np.testing.assert_allclose(step.gain[:, 0], pred.cov[:, 0] / s_val, rtol=1e-12)


class TestPsdGate:
    """A step whose covariance leaves the PSD cone fails at its one gate,
    naming the step and the time index."""

    RUNS = {
        "kf_predict": lambda lin, nl, b: kf_predict(b, lin, None, 3),
        "ekf_predict": lambda lin, nl, b: ekf_predict(b, nl, 3),
        "kf_correct": lambda lin, nl, b: kf_correct(b, [0.0], lin, None, 3),
        "ekf_correct": lambda lin, nl, b: ekf_correct(b, [0.0], nl, 3),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_failure_names_step_and_time_index(self, name):
        if name.endswith("predict"):  # indefinite Q
            Q, R, cov = np.diag([-1.0, 0.0]), [[1.0]], 0.1 * np.eye(2)
        else:  # S = 0.5 passes the gain; the Joseph covariance is diag(-1, 1)
            Q, R, cov = np.zeros((2, 2)), [[-0.5]], np.eye(2)
        C = [[1.0, 0.0]]
        lin = LinearModel(np.eye(2), np.array(C), Q, np.array(R))
        nl = linear_as_nonlinear(np.eye(2), C, Q, R)
        with pytest.raises(
            NumericError, match=rf"^covariance is not positive semidefinite \({name} at k=3\)$"
        ):
            self.RUNS[name](lin, nl, GaussianBelief(np.zeros(2), cov))


class TestNonFiniteGate:
    """A non-finite mean or covariance fails the same gate: a NaN measurement
    or an overflow never reaches an estimate."""

    RUNS = {
        "kf_predict": lambda lin, nl, b: kf_predict(b, lin, None, 3),
        "ekf_predict": lambda lin, nl, b: ekf_predict(b, nl, 3),
        "kf_correct": lambda lin, nl, b: kf_correct(b, [np.nan], lin, None, 3),
        "ekf_correct": lambda lin, nl, b: ekf_correct(b, [np.nan], nl, 3),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_failure_names_step_and_time_index(self, name):
        # the predictions overflow F P F'; the corrections see y = NaN
        F = 1e200 * np.eye(2) if name.endswith("predict") else np.eye(2)
        C, Q, R = [[1.0, 0.0]], np.zeros((2, 2)), [[1.0]]
        lin = LinearModel(F, np.array(C), Q, np.array(R))
        nl = linear_as_nonlinear(F, C, Q, R)
        with pytest.raises(
            NumericError, match=rf"^mean or covariance is not finite \({name} at k=3\)$"
        ):
            self.RUNS[name](lin, nl, GaussianBelief(np.zeros(2), np.eye(2)))

    def test_nan_measurement_belief_rejected(self):
        model = LinearModel(np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1))
        with pytest.raises(NumericError, match=r"^mean or covariance is not finite"):
            propagate_linear_gum(
                GaussianBelief([0.0], [[1.0]]), GaussianBelief([np.nan], [[1.0]]), model, None, 3
            )


class TestAugment:
    def test_tank_dimensions_and_blocks(self):
        cfg = TankConfig()
        aug, belief = augmented_model(cfg)
        assert (aug.n_x, aug.n_theta) == (2, 1)
        np.testing.assert_array_equal(belief.mean, [cfg.L0, cfg.xs, cfg.theta])
        np.testing.assert_allclose(
            belief.cov, np.diag([0.0, cfg.tau**2, cfg.u_theta**2]), atol=1e-18
        )

    def test_alpha_zero_process_noise(self):
        cfg = TankConfig(alpha=0.0)
        aug, _ = augmented_model(cfg)
        np.testing.assert_allclose(
            aug.model.Q(1), np.diag([0.0, cfg.tau**2, 0.0]), atol=1e-18
        )

    def test_no_parameters_returns_base(self, rng):
        lin = LinearModel(np.eye(2), np.array([[1.0, 0.0]]), np.eye(2), np.eye(1))
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        model, belief = augment(lin, prior, None, 0.0)
        assert model is lin
        assert belief is prior

    def test_negative_alpha_raises(self):
        lin = LinearModel(np.eye(2), np.array([[1.0, 0.0]]), np.eye(2), np.eye(1))
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        pk = ParameterKnowledge([0.8], [[1e-4]])
        with pytest.raises(ConfigError):
            augment(lin, prior, pk, -0.1)


class TestSplitUpdate:
    def test_matches_monolithic_on_tank(self):
        cfg = TankConfig(n_steps=50)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        aug, belief = augmented_model(cfg)
        for k in range(1, cfg.n_steps + 1):
            pred = ekf_predict(belief, aug.model, k)
            mono = ekf_correct(pred, record.measurements[k - 1 : k], aug.model, k)
            split = split_update(pred, record.measurements[k - 1 : k], aug, k)
            stacked = np.vstack([split.update.K1, split.update.K2])
            assert rel_err(stacked, mono.gain) < 1e-10
            assembled = split.assemble()
            assert rel_err(assembled.mean, mono.corrected.mean) < 1e-10
            assert rel_err(assembled.cov, mono.corrected.cov) < 1e-10
            belief = mono.corrected

    def test_zero_cross_and_constant_obs_gives_zero_param_gain(self):
        # block-diagonal P with a theta-independent C: K2 = 0, theta unchanged
        lin = LinearModel(
            state_matrix=lambda k, th: np.eye(2),
            obs_matrix=lambda k, th: np.array([[1.0, 0.0]]),
            process_noise=np.zeros((2, 2)),
            obs_noise=np.eye(1),
        )
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        pk = ParameterKnowledge([0.5], [[0.04]])
        model, belief = augment(lin, prior, pk, 0.0)
        split = split_update(belief, [1.0], model, 1)
        np.testing.assert_allclose(split.update.K2, 0.0, atol=1e-15)
        assert split.param_mean[0] == pytest.approx(0.5, abs=1e-15)

    def test_certain_parameter_never_updated(self):
        cfg = TankConfig(u_theta=0.0, alpha=0.0)
        aug, belief = augmented_model(cfg)
        pred = ekf_predict(belief, aug.model, 1)
        split = split_update(pred, [99.0], aug, 1)
        np.testing.assert_allclose(split.update.K2, 0.0, atol=1e-15)
        assert split.param_mean[0] == pytest.approx(cfg.theta, abs=1e-15)

    def test_requires_linear_base(self, rng):
        nl = smooth_random_model(rng)
        aug_like = augmented_model(TankConfig())[0]
        bad = type(aug_like)(base=nl, model=nl, n_x=2, n_theta=0)
        with pytest.raises(DimensionError):
            split_update(GaussianBelief(np.zeros(2), np.eye(2)), [0.0], bad, 1)


class TestLinearizedGumPropagation:
    def test_matches_ekf_on_random_smooth_models(self, rng):
        for _ in range(25):
            nl = smooth_random_model(rng)
            prev = GaussianBelief(rng.standard_normal(2), rand_pd(rng, 2, floor=0.05))
            y = rng.standard_normal(1)
            step = ekf_correct(ekf_predict(prev, nl), y, nl)
            gum = propagate_nonlinear_gum_linearized(
                prev, GaussianBelief(y, np.atleast_2d(nl.R(0))), nl
            )
            assert rel_err(gum.mean, step.corrected.mean) < 1e-12
            assert rel_err(gum.cov, step.corrected.cov) < 1e-12

    def test_linear_reduction_matches_linear_gum(self, rng):
        F = rng.standard_normal((2, 2))
        C = rng.standard_normal((1, 2))
        Q = rand_psd(rng, 2)
        R = rand_pd(rng, 1)
        prev = GaussianBelief(rng.standard_normal(2), rand_pd(rng, 2))
        y_belief = GaussianBelief(rng.standard_normal(1), R)
        a = propagate_nonlinear_gum_linearized(prev, y_belief, linear_as_nonlinear(F, C, Q, R))
        b = propagate_linear_gum(prev, y_belief, LinearModel(F, C, Q, R))
        assert rel_err(a.mean, b.mean) < 1e-12
        assert rel_err(a.cov, b.cov) < 1e-10

    def test_tank_first_step_equality(self):
        cfg = TankConfig()
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        aug, belief = augmented_model(cfg)
        step = ekf_correct(
            ekf_predict(belief, aug.model, 1), record.measurements[:1], aug.model, 1
        )
        gum = propagate_nonlinear_gum_linearized(
            belief,
            GaussianBelief(record.measurements[:1], [[cfg.sigma**2]]),
            aug.model,
            1,
        )
        assert rel_err(gum.mean, step.corrected.mean) < 1e-12
        assert rel_err(gum.cov, step.corrected.cov) < 1e-12


class TestParameterVarianceMonotone:
    def test_theta_variance_non_increasing_without_drift_noise(self):
        cfg = TankConfig(alpha=0.0, n_steps=200)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        aug, belief = augmented_model(cfg)
        prev_var = belief.cov[2, 2]
        for k in range(1, cfg.n_steps + 1):
            pred = ekf_predict(belief, aug.model, k)
            belief = ekf_correct(pred, record.measurements[k - 1 : k], aug.model, k).corrected
            assert belief.cov[2, 2] <= prev_var + 1e-15
            prev_var = belief.cov[2, 2]
