"""Extended Kalman filter, state augmentation and split-block updates."""

import re

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
    linear_model,
    propagate_linear_gum,
    propagate_nonlinear_gum_linearized,
    simulate,
    split_update,
    state_prior,
)
from gumkf import kalman
from gumkf.kalman import _scan

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
        pred = ekf_predict(belief, aug.model, k=1)
        step = ekf_correct(pred, [100.5], aug.model, k=1)
        s_val = pred.cov[0, 0] + cfg.sigma**2
        np.testing.assert_allclose(step.gain[:, 0], pred.cov[:, 0] / s_val, rtol=1e-12)


def test_ekf_of_linear_tank_is_its_kalman_filter():
    # the paper's linear case: with theta known the Jacobians are the system
    # matrices, so the EKF and the KF give the same beliefs, bit for bit
    cfg = TankConfig(n_steps=50)
    model, theta = linear_model(cfg), np.array([cfg.theta])
    ys = simulate(cfg, RngStreamPlan(11)).measurements
    kf = ekf = state_prior(cfg)
    for k in range(1, cfg.n_steps + 1):
        kf_pred = kf_predict(kf, model, theta=theta, k=k)
        ekf_pred = ekf_predict(ekf, model, k=k, theta=theta)
        kf = kf_correct(kf_pred, ys[k - 1 : k], model, theta=theta, k=k).corrected
        ekf = ekf_correct(ekf_pred, ys[k - 1 : k], model, k=k, theta=theta).corrected
        for a, b in ((kf_pred, ekf_pred), (kf, ekf)):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.cov, b.cov)


class TestPsdGate:
    """A step whose covariance leaves the PSD cone fails at its one gate,
    naming the step and the time index."""

    RUNS = {
        "kf_predict": lambda lin, nl, b: kf_predict(b, lin, k=3),
        "ekf_predict": lambda lin, nl, b: ekf_predict(b, nl, k=3),
        "kf_correct": lambda lin, nl, b: kf_correct(b, [0.0], lin, k=3),
        "ekf_correct": lambda lin, nl, b: ekf_correct(b, [0.0], nl, k=3),
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
        "kf_predict": lambda lin, nl, b: kf_predict(b, lin, k=3),
        "ekf_predict": lambda lin, nl, b: ekf_predict(b, nl, k=3),
        "kf_correct": lambda lin, nl, b: kf_correct(b, [np.nan], lin, k=3),
        "ekf_correct": lambda lin, nl, b: ekf_correct(b, [np.nan], nl, k=3),
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("bad", ["f", "F", "h", "H"])
    def test_non_finite_model_output_named(self, bad, p, value):
        # the steps run no finiteness check of their own on what the model
        # returns: GaussianBelief's gate, or for a non-finite H the kernel's
        # check of the innovation covariance, refuses it naming the time index
        C = np.eye(2)[:p]
        fns = {"f": lambda x: x, "F": lambda x: np.eye(2), "h": lambda x: C @ x, "H": lambda x: C}
        fns[bad] = lambda x, good=fns[bad]: np.full_like(good(x), value)
        model = NonlinearModel(
            lambda x, th, k: fns["f"](x),
            lambda x, th, k: fns["h"](x),
            np.eye(2),
            np.eye(p),
            state_jacobian=lambda x, th, k: fns["F"](x),
            obs_jacobian=lambda x, th, k: fns["H"](x),
        )
        belief = GaussianBelief(np.zeros(2), np.eye(2))
        if bad in ("f", "F"):
            step, match = ekf_predict, r"^mean or covariance is not finite \(ekf_predict at k=3\)$"
        else:
            step = lambda b, m, **kw: ekf_correct(b, np.zeros(p), m, **kw)
            match = r"^mean or covariance is not finite \(ekf_correct at k=3\)$"
            if bad == "H" and p == 1:
                match = r"^innovation variance nan is not finite and positive at time index 3$"
            elif bad == "H":
                match = r"^innovation covariance is not positive definite at time index 3$"
        with pytest.raises(NumericError, match=match):
            step(belief, model, k=3)

    def test_nan_measurement_belief_rejected(self):
        model = LinearModel(np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1))
        with pytest.raises(NumericError, match=r"^mean or covariance is not finite"):
            propagate_linear_gum(
                GaussianBelief([0.0], [[1.0]]), GaussianBelief([np.nan], [[1.0]]), model, None, 3
            )


class TestOneStepSignatures:
    """theta and k are keyword-only on the four one-step functions, so a
    positional time index fails at the call, not inside a model callable."""

    CALLS = {
        "kf_predict": lambda b, lin, aug: kf_predict(b, lin, None, 3),
        "kf_correct": lambda b, lin, aug: kf_correct(b, [100.0], lin, None, 3),
        "ekf_predict": lambda b, lin, aug: ekf_predict(b, aug, None, 3),
        "ekf_correct": lambda b, lin, aug: ekf_correct(b, [100.0], aug, None, 3),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_positional_theta_and_k_refused_at_the_call(self, name):
        cfg = TankConfig()
        aug, belief = augmented_model(cfg)
        lin_belief = state_prior(cfg)
        b = lin_belief if name.startswith("kf") else belief
        match = rf"^{name}\(\) takes \d positional arguments but \d were given$"
        with pytest.raises(TypeError, match=match):
            self.CALLS[name](b, linear_model(cfg), aug.model)


class TestAsymmetryNamesTheStep:
    def test_one_step_function(self):
        Q = np.array([[1.0, 1e-6], [0.0, 1.0]])
        model = LinearModel(np.eye(2), np.array([[1.0, 0.0]]), Q, np.eye(1))
        match = r"^covariance is asymmetric beyond 1e-12 relative \(kf_predict at k=3\)$"
        with pytest.raises(DimensionError, match=match):
            kf_predict(GaussianBelief(np.zeros(2), np.eye(2)), model, k=3)

    def test_gaussian_belief(self):
        match = r"^covariance is asymmetric beyond 1e-12 relative \(GaussianBelief\)$"
        with pytest.raises(DimensionError, match=match):
            GaussianBelief(np.zeros(2), np.array([[1.0, 1e-6], [0.0, 1.0]]))


def stepped_models(F=None, Q=None, R=None):
    """(LinearModel, NonlinearModel) of the filter F = I, H = [1, 0], Q = 0,
    R = 1, except that F, Q and R take the values the dicts F, Q, R give for
    their time indices."""
    F, Q, R, C = F or {}, Q or {}, R or {}, np.array([[1.0, 0.0]])
    f = lambda k: np.asarray(F.get(k, np.eye(2)), dtype=float)
    q = lambda k: np.asarray(Q.get(k, np.zeros((2, 2))), dtype=float)
    r = lambda k: np.atleast_2d(np.asarray(R.get(k, 1.0), dtype=float))
    lin = LinearModel(lambda k, th: f(k), C, q, r)
    nl = NonlinearModel(
        lambda x, th, k: x @ f(k).T,
        lambda x, th, k: x @ C.T,
        q,
        r,
        state_jacobian=lambda x, th, k: f(k),
        obs_jacobian=lambda x, th, k: C,
    )
    return lin, nl


def one_step_error(step, model, ys):
    """The error the one-step functions kf_*/ekf_* raise on the record ys
    from the prior N(0, I)."""
    predict, correct = (kf_predict, kf_correct) if step == "kf" else (ekf_predict, ekf_correct)
    belief = GaussianBelief(np.zeros(2), np.eye(2))
    with pytest.raises((NumericError, DimensionError)) as info:
        for k in range(1, len(ys) + 1):
            belief = correct(predict(belief, model, k=k), ys[k - 1 : k], model, k=k).corrected
    return info.value


class TestScanGate:
    """The scan refuses what the one-step functions refuse, GaussianBelief's
    gate on every predicted and corrected belief, with the same message:
    the TestPsdGate and TestNonFiniteGate faults, switched on at step K, in
    the first gate block, at its last step and after it, and a covariance
    that turns non-finite while the mean stays finite."""

    FAULTS = {  # (half, fault): (model changes at K, NaN measurement at K, error, message)
        ("predict", "non-finite"): (lambda K: dict(F=1e200 * np.eye(2)), False, NumericError,
                                    "mean or covariance is not finite"),
        ("predict", "non-finite-covariance"): (lambda K: dict(Q=np.diag([0.0, np.inf])), False,
                                               NumericError, "mean or covariance is not finite"),
        ("predict", "asymmetric"): (lambda K: dict(Q=[[1.0, 1e-6], [0.0, 1.0]]), False,
                                    DimensionError,
                                    "covariance is asymmetric beyond 1e-12 relative"),
        ("predict", "indefinite"): (lambda K: dict(Q=np.diag([-1.0, 0.0])), False, NumericError,
                                    "covariance is not positive semidefinite"),
        ("correct", "non-finite"): (lambda K: {}, True, NumericError,
                                    "mean or covariance is not finite"),
        # the predicted level variance is 1/K: S = 0.25/K passes the gain and
        # the Joseph variance is 9/K - 12/K < 0
        ("correct", "indefinite"): (lambda K: dict(R=-0.75 / K), False, NumericError,
                                    "covariance is not positive semidefinite"),
    }

    @pytest.mark.parametrize("K", [3, 256, 300])
    @pytest.mark.parametrize("half, fault", FAULTS)
    @pytest.mark.parametrize("step", ["kf", "ekf"])
    def test_scan_refuses_with_the_one_step_message(self, step, half, fault, K):
        changes, nan_y, error, text = self.FAULTS[half, fault]
        models = stepped_models(**{name: {K: value} for name, value in changes(K).items()})
        model = models[step == "ekf"]
        ys = np.zeros(K + 5)
        if nan_y:
            ys[K - 1] = np.nan
        expected = rf"^{text} \({step}_{half} at k={K}\)$"
        with pytest.raises(error, match=expected):
            _scan(ys, model, np.zeros((1, 2)), np.eye(2)[np.newaxis], None, step)
        reference = one_step_error(step, model, ys)
        assert type(reference) is error and re.match(expected, str(reference))

    @pytest.mark.parametrize("K", [3, 255, 300])
    @pytest.mark.parametrize("step", ["kf", "ekf"])
    def test_first_failure_reported_when_a_later_kernel_error_stops(self, step, K):
        # the corrected covariance at K is indefinite; at K + 1, S = -1.5/K,
        # before the gate block that holds K ends
        model = stepped_models(R={K: -0.75 / K, K + 1: 1.5 / K})[step == "ekf"]
        ys = np.zeros(K + 5)
        with pytest.raises(NumericError) as info:
            _scan(ys, model, np.zeros((1, 2)), np.eye(2)[np.newaxis], None, step)
        assert str(info.value) == (
            f"covariance is not positive semidefinite ({step}_correct at k={K})"
        )
        kernel_error = str(info.value.__context__)
        assert re.match(rf"^innovation variance .* at time index {K + 1}$", kernel_error)
        reference = one_step_error(step, model, ys)
        assert str(reference) == str(info.value)

    @pytest.mark.parametrize("half", ["predict", "correct"])
    def test_non_finite_values_never_reach_the_model(self, half):
        seen = []

        def state_fn(x, th, k):
            seen.append(np.isfinite(x).all())
            return np.full_like(x, np.nan) if half == "predict" and k == 3 else x

        def obs_fn(x, th, k):
            seen.append(np.isfinite(x).all())
            return x[..., :1]

        model = NonlinearModel(state_fn, obs_fn, np.zeros((2, 2)), np.eye(1))
        ys = np.zeros(10)
        ys[2] = np.nan if half == "correct" else 0.0
        with pytest.raises(NumericError, match=rf"not finite \(ekf_{half} at k=3\)$"):
            _scan(ys, model, np.zeros((1, 2)), np.eye(2)[np.newaxis], None, "ekf")
        assert seen and all(seen)

    @pytest.mark.parametrize("half", ["predict", "correct"])
    def test_model_overflow_named_not_warned(self, half):
        # a model callable that overflows at k = 3 gives a non-finite mean,
        # which the gate names, in either half, in the scan and in the
        # one-step functions alike
        def overflowing(k, value):
            return np.full_like(value, 1e200) * 1e200 if k == 3 else value

        model = NonlinearModel(
            lambda x, th, k: overflowing(k, x) if half == "predict" else x,
            lambda x, th, k: overflowing(k, x[..., :1]) if half == "correct" else x[..., :1],
            np.zeros((2, 2)),
            np.eye(1),
            state_jacobian=lambda x, th, k: np.eye(2),
            obs_jacobian=lambda x, th, k: np.array([[1.0, 0.0]]),
        )
        ys = np.zeros(10)
        expected = rf"^mean or covariance is not finite \(ekf_{half} at k=3\)$"
        with pytest.raises(NumericError, match=expected):
            _scan(ys, model, np.zeros((1, 2)), np.eye(2)[np.newaxis], None, "ekf")
        assert re.match(expected, str(one_step_error("ekf", model, ys)))

    def test_node_named_when_several(self):
        # the unobserved amplitude keeps its prior variance: 2 - 1 passes,
        # 0.5 - 1 fails
        lin, _ = stepped_models(Q={3: np.diag([0.0, -1.0])})
        x, P = np.zeros((3, 2)), np.array([np.diag([1.0, 2.0])] * 2 + [np.diag([1.0, 0.5])])
        with pytest.raises(NumericError, match=r"\(kf_predict of node 2 at k=3\)$"):
            _scan(np.zeros(5), lin, x, P, None, "kf")


class TestReferenceGainGate:
    """The analytic references name themselves and k when S is singular."""

    RUNS = {
        "propagate_linear_gum": lambda lin, nl, b, y: propagate_linear_gum(b, y, lin, None, 3),
        "propagate_nonlinear_gum_linearized":
            lambda lin, nl, b, y: propagate_nonlinear_gum_linearized(b, y, nl, 3),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_singular_innovation_names_step_and_time_index(self, name):
        # zero P, Q and measurement covariance make S = 0
        zero = np.zeros((1, 1))
        lin = LinearModel(np.eye(1), np.eye(1), zero, zero)
        nl = linear_as_nonlinear(np.eye(1), [[1.0]], zero, zero)
        belief, y = GaussianBelief([0.0], zero), GaussianBelief([1.0], zero)
        with pytest.raises(
            NumericError, match=rf"^singular innovation covariance \({name} at k=3\): "
        ):
            self.RUNS[name](lin, nl, belief, y)


class TestReferenceArgumentOrder:
    """The analytic references take theta and k in opposite orders; a
    swapped pair is refused before it reaches a model callable."""

    def test_linearized_gum_refuses_theta_in_place_of_k(self):
        cfg = TankConfig()
        aug, belief = augmented_model(cfg)
        y = GaussianBelief([cfg.L0], [[cfg.sigma**2]])
        expected = r"^propagate_nonlinear_gum_linearized\(prev, y, model, k=0, theta=None\): "
        with pytest.raises(TypeError, match=expected + "k must be an integer time index, got None$"):
            propagate_nonlinear_gum_linearized(belief, y, aug.model, None, 3)
        propagate_nonlinear_gum_linearized(belief, y, aug.model, 3, None)

    @pytest.mark.parametrize("k", [np.array([0.8]), True, 3.0])
    def test_linear_gum_refuses_a_k_that_is_not_an_integer(self, k):
        cfg = TankConfig()
        belief, y = state_prior(cfg), GaussianBelief([cfg.L0], [[cfg.sigma**2]])
        expected = r"^propagate_linear_gum\(prev, y, model, theta=None, k=0\): k must be an integer"
        with pytest.raises(TypeError, match=expected):
            propagate_linear_gum(belief, y, linear_model(cfg), 3, k)
        propagate_linear_gum(belief, y, linear_model(cfg), np.array([0.8]), np.int64(3))


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

    def test_process_noise_is_a_fresh_block_diagonal_per_step(self):
        cfg = TankConfig(alpha=3e-4)
        aug, _ = augmented_model(cfg)
        expected = np.zeros((3, 3))
        expected[:2, :2] = linear_model(cfg).Q(1)
        expected[2:, 2:] = cfg.alpha**2 * np.eye(1)
        first = aug.model.Q(1)
        assert first.tobytes() == expected.tobytes()
        first[2, 2] = -1.0  # a caller's edit reaches neither the next step nor this one again
        for k in (1, 2):
            assert aug.model.Q(k).tobytes() == expected.tobytes()

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
            pred = ekf_predict(belief, aug.model, k=k)
            mono = ekf_correct(pred, record.measurements[k - 1 : k], aug.model, k=k)
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
        pred = ekf_predict(belief, aug.model, k=1)
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
            ekf_predict(belief, aug.model, k=1), record.measurements[:1], aug.model, k=1
        )
        gum = propagate_nonlinear_gum_linearized(
            belief,
            GaussianBelief(record.measurements[:1], [[cfg.sigma**2]]),
            aug.model,
            1,
        )
        assert rel_err(gum.mean, step.corrected.mean) < 1e-12
        assert rel_err(gum.cov, step.corrected.cov) < 1e-12

    def test_independent_of_the_filter_prediction(self, monkeypatch):
        # the reference must not run the EKF's own prediction, so criterion
        # 04 checks the prediction as well as the correction
        cfg = TankConfig(n_steps=50)
        record = simulate(cfg, RngStreamPlan(42))
        aug, belief = augmented_model(cfg)
        ys = record.measurements.reshape(-1, 1)
        priors, corrected = [], []
        for k, y in enumerate(ys, start=1):
            priors.append(belief)
            belief = ekf_correct(ekf_predict(belief, aug.model, k=k), y, aug.model, k=k).corrected
            corrected.append(belief)

        def refuse(*args, **kwargs):
            raise AssertionError("the reference ran kalman._predict_stack")

        monkeypatch.setattr(kalman, "_predict_stack", refuse)
        for k, (prior, y, step) in enumerate(zip(priors, ys, corrected), start=1):
            gum = propagate_nonlinear_gum_linearized(
                prior, GaussianBelief(y, [[cfg.sigma**2]]), aug.model, k
            )
            assert rel_err(gum.mean, step.mean) < 1e-12
            assert rel_err(gum.cov, step.cov) < 1e-12


class TestParameterVarianceMonotone:
    def test_theta_variance_non_increasing_without_drift_noise(self):
        cfg = TankConfig(alpha=0.0, n_steps=200)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        aug, belief = augmented_model(cfg)
        prev_var = belief.cov[2, 2]
        for k in range(1, cfg.n_steps + 1):
            pred = ekf_predict(belief, aug.model, k=k)
            belief = ekf_correct(pred, record.measurements[k - 1 : k], aug.model, k=k).corrected
            assert belief.cov[2, 2] <= prev_var + 1e-15
            prev_var = belief.cov[2, 2]
