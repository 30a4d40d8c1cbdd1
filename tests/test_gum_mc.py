"""Monte Carlo propagation: per-step engine, batch/sequential modes, and
streaming statistics."""

import concurrent.futures
import os
import tracemalloc

import numpy as np
import pytest

from gumkf import (
    CapacityError,
    ConfigError,
    DimensionError,
    GaussianBelief,
    LinearModel,
    McEnsemble,
    NonlinearModel,
    NumericError,
    ParameterKnowledge,
    RngStreamPlan,
    RunningMoments,
    TankConfig,
    frequency_knowledge,
    kf_correct,
    kf_predict,
    linear_model,
    mc_batch,
    mc_sequential,
    mc_step,
    psd_sqrt,
    simulate,
    state_prior,
    augmented_model,
    ekf_correct,
)
from gumkf import gum_mc
from gumkf.core import _affine

from conftest import rand_pd, rand_psd, rel_err


def noiseless_scalar_model():
    return LinearModel(
        state_matrix=np.array([[0.9]]),
        obs_matrix=np.array([[1.0]]),
        process_noise=np.array([[0.0]]),
        obs_noise=np.array([[1.0]]),
    )


def einsum_step(ensemble, y_hat, model, covs, plan, k, trial_start=0):
    """Reference for mc_step: the same recursion written with one (M, ., .)
    einsum per product and a batched solve for the gain."""
    states, params = ensemble.states, ensemble.params
    m, n = states.shape
    y_hat = np.atleast_1d(y_hat)
    p = y_hat.shape[0]
    Q, R = np.atleast_2d(model.Q(k)), np.atleast_2d(model.R(k))

    def stack(a):
        a = np.atleast_2d(a)
        return np.broadcast_to(a, (m,) + a.shape[-2:])

    z = plan.normal_rows(k, "mc/process", trial_start, m, n) @ psd_sqrt(Q).T
    y = y_hat + plan.normal_rows(k, "mc/obs", trial_start, m, p) @ psd_sqrt(R).T
    theta = params if params.shape[1] else None
    x_pred = model.f(states, theta, k)
    F = stack(model.F(states, theta, k))
    cov_pred = np.einsum("mij,mjk,mlk->mil", F, covs, F) + Q
    x_tilde = x_pred + z
    H = stack(model.H(x_tilde, theta, k))
    h_val = model.h(x_tilde, theta, k)
    s_mat = np.einsum("mij,mjk,mlk->mil", H, cov_pred, H) + R
    gain = np.linalg.solve(s_mat, np.einsum("mij,mjk->mik", H, cov_pred))
    gain = gain.transpose(0, 2, 1)
    x_new = x_tilde + np.einsum("mij,mj->mi", gain, y - h_val)
    a_mat = np.eye(n) - np.einsum("mip,mpj->mij", gain, H)
    cov_new = np.einsum("mij,mjk,mlk->mil", a_mat, cov_pred, a_mat) + np.einsum(
        "mip,pq,mjq->mij", gain, R, gain
    )
    return x_new, (cov_new + cov_new.transpose(0, 2, 1)) / 2.0


class TestRunningMoments:
    def test_matches_two_pass(self, rng):
        samples = rng.standard_normal((500, 3)) * [1.0, 10.0, 0.1] + [5.0, -2.0, 100.0]
        rm = RunningMoments(3)
        rm.push_block(samples[:200])
        for row in samples[200:]:
            rm.push(row)
        assert rel_err(rm.mean(), samples.mean(axis=0)) < 1e-12
        assert rel_err(rm.cov(), np.cov(samples.T, ddof=1)) < 1e-10

    def test_permutation_robust(self, rng):
        samples = rng.standard_normal((400, 2)) + 1e6
        a = RunningMoments(2)
        b = RunningMoments(2)
        a.push_block(samples)
        b.push_block(samples[::-1])
        assert rel_err(a.mean(), b.mean()) < 1e-12
        assert rel_err(a.cov(), b.cov()) < 1e-12

    def test_empty_raises(self):
        with pytest.raises(NumericError):
            RunningMoments(2).mean()


def chunked_mean_cov(x):
    return gum_mc._mean_cov(gum_mc._chunk_moments(x))


def two_pass_reference(x):
    """Mean and unbiased covariance of trial-last x in long double."""
    xl = x.astype(np.longdouble)
    mean = xl.sum(axis=1) / x.shape[1]
    dev = xl - mean[:, np.newaxis]
    return mean, dev @ dev.T / (x.shape[1] - 1)


class TestChunkedMoments:
    @pytest.mark.parametrize(
        "trials, offset, spread",
        [(10_000, 1e8, 1e-3), (3 * gum_mc._CHUNK + 5, -3.0, 2.0), (2, 5.0, 1.0)],
        ids=["offset", "partial-last-chunk", "two-trials"],
    )
    def test_matches_long_double_two_pass(self, rng, trials, offset, spread):
        x = offset + spread * rng.standard_normal((3, trials)) * [[1.0], [0.1], [10.0]]
        x[2] += 0.5 * x[0]  # correlated coordinates
        mean, cov = chunked_mean_cov(x)
        ref_mean, ref_cov = two_pass_reference(x)
        assert rel_err(mean, np.asarray(ref_mean, dtype=float)) < 1e-10
        assert rel_err(cov, np.asarray(ref_cov, dtype=float)) < 1e-10
        np.testing.assert_array_equal(cov, cov.T)

    def test_two_scalar_samples(self):
        mean, cov = chunked_mean_cov(np.array([[0.0, 2.0]]))
        assert mean.tolist() == [1.0] and cov.tolist() == [[2.0]]

    def test_identical_samples_zero_cov(self):
        _, cov = chunked_mean_cov(np.full((2, 10), 3.0))
        np.testing.assert_allclose(cov, 0.0, atol=1e-15)

    def test_no_coordinates(self):
        mean, cov = chunked_mean_cov(np.zeros((0, 5)))
        assert mean.shape == (0,) and cov.shape == (0, 0)

    def test_memory_order_does_not_change_a_bit(self, rng):
        x = 1e3 + rng.standard_normal((3, 2 * gum_mc._CHUNK + 17))
        f_ordered = np.asfortranarray(x)
        assert f_ordered.flags.f_contiguous and not f_ordered.flags.c_contiguous
        for got, want in zip(chunked_mean_cov(f_ordered), chunked_mean_cov(x)):
            np.testing.assert_array_equal(got, want)


class TestMcEnsemble:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            McEnsemble(np.array([[np.nan]]), np.zeros((1, 0)), 0)

    def test_trial_count_mismatch_rejected(self):
        with pytest.raises(NumericError):
            McEnsemble(np.zeros((3, 1)), np.zeros((2, 1)), 0)

    def test_non_finite_names_the_first_bad_trial(self):
        # the first trial whose state or parameter row is not finite, named
        # as mc_step names it
        states, params = np.zeros((5, 2)), np.zeros((5, 1))
        states[3, 1], params[1, 0] = np.inf, np.nan
        with pytest.raises(NumericError, match=r"^non-finite sample in trial 1 at time index 4$"):
            McEnsemble(states, params, 4)
        with pytest.raises(NumericError, match=r"^non-finite sample in trial 3 at time index 4$"):
            McEnsemble(states, np.zeros((5, 0)), 4)


class TestMcStep:
    def test_trial_gain_recursion_tracks_filter_covariance(self):
        model = noiseless_scalar_model()
        plan = RngStreamPlan(5)
        ys = np.array([0.4, -0.2, 0.7])
        prior = GaussianBelief([1.0], [[0.5]])
        ens = McEnsemble(np.array([[prior.mean[0]]]), np.zeros((1, 0)), 0)
        covs = prior.cov[np.newaxis]
        belief = prior
        for k in range(1, 4):
            ens, covs = mc_step(ens, ys[k - 1 : k], model, covs, plan, k)
            pred = kf_predict(belief, model, k=k)
            belief = kf_correct(pred, ys[k - 1 : k], model, k=k).corrected
            assert rel_err(covs[0], belief.cov) < 1e-12

    def test_zero_noise_trajectory_equals_filter_mean(self):
        # Q = R = 0: the draws collapse onto the recorded measurements and the
        # lone trial reproduces the deterministic filter mean sequence.  Two
        # exact measurements pin both components, so only two steps are
        # well-posed before the innovation variance hits zero.
        zero_model = LinearModel(
            state_matrix=np.array([[1.0, 1.0], [0.0, 1.0]]),
            obs_matrix=np.array([[1.0, 0.0]]),
            process_noise=np.zeros((2, 2)),
            obs_noise=np.array([[0.0]]),
        )
        plan = RngStreamPlan(5)
        ys = np.array([0.4, -0.2])
        belief = GaussianBelief([1.0, 0.5], np.eye(2))
        ens = McEnsemble(belief.mean[np.newaxis], np.zeros((1, 0)), 0)
        covs = belief.cov[np.newaxis]
        for k in range(1, 3):
            ens, covs = mc_step(ens, ys[k - 1 : k], zero_model, covs, plan, k)
            pred = kf_predict(belief, zero_model, k=k)
            belief = kf_correct(pred, ys[k - 1 : k], zero_model, k=k).corrected
            np.testing.assert_allclose(ens.states[0], belief.mean, rtol=1e-12)

    def test_jacobian_free_nonlinear_model_matches_linear(self):
        # f and h broadcast over the trial axis and have no Jacobians, so
        # mc_step differentiates whole blocks by finite differences
        F = np.array([[1.0, 0.1], [-0.2, 0.95]])
        C = np.array([[1.0, 0.5]])
        Q = np.diag([0.01, 0.02])
        R = np.array([[0.3]])
        linear = LinearModel(F, C, Q, R)
        nonlinear = NonlinearModel(
            state_fn=lambda x, th, k: x @ F.T,
            obs_fn=lambda x, th, k: x @ C.T,
            process_noise=Q,
            obs_noise=R,
        )
        prior = GaussianBelief([1.0, -0.5], np.diag([0.2, 0.1]))
        ys = np.sin(np.arange(20) / 3.0)
        plan = RngStreamPlan(8)
        a = mc_sequential(ys, linear, prior, None, plan, 200)
        b = mc_sequential(ys, nonlinear, prior, None, plan, 200)
        assert rel_err(b.state_means, a.state_means) < 1e-9
        assert rel_err(b.state_covs, a.state_covs) < 1e-9

    @pytest.mark.parametrize("augmented", [False, True])
    def test_step_equals_einsum_reference(self, rng, augmented):
        # per-trial state-matrix (Jacobian) stacks, per-trial covariances and
        # an offset trial block
        cfg = TankConfig(n_steps=10)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        if augmented:
            aug, prior = augmented_model(cfg)
            model, knowledge = aug.model, None
        else:
            model, prior, knowledge = linear_model(cfg), state_prior(cfg), frequency_knowledge(cfg)
        m, n, k = 64, prior.dim, 6
        states = _affine(prior.mean, psd_sqrt(prior.cov), rng.standard_normal((m, n)))
        if knowledge is None:
            params = np.zeros((m, 0))
        else:
            params = _affine(
                knowledge.estimate, psd_sqrt(knowledge.cov), rng.standard_normal((m, 1))
            )
        covs = np.stack([prior.cov + rand_psd(rng, n, 1e-4) for _ in range(m)])
        ens = McEnsemble(states, params, k - 1)
        y = record.measurements[k - 1]
        got, got_covs = mc_step(ens, y, model, covs, plan, k, trial_start=128)
        want, want_covs = einsum_step(ens, y, model, covs, plan, k, trial_start=128)
        assert got_covs.shape == (m, n, n)
        assert rel_err(got.states, want) < 1e-13
        assert rel_err(got_covs, want_covs) < 1e-13

    def test_two_measurements_track_filter_covariance(self):
        # p = 2 takes the batched-solve gain; every trial's covariance
        # recursion must equal the Kalman filter's, and the samples the
        # einsum reference
        model = LinearModel(
            state_matrix=np.array([[1.0, 0.1, 0.0], [0.0, 0.9, 0.2], [0.0, 0.0, 1.0]]),
            obs_matrix=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
            process_noise=np.diag([0.01, 0.02, 0.005]),
            obs_noise=np.array([[0.5, 0.1], [0.1, 0.3]]),
        )
        plan = RngStreamPlan(5)
        ys = np.array([[0.4, 1.0], [-0.2, 0.8], [0.7, 0.5]])
        belief = GaussianBelief([1.0, -0.5, 0.2], np.diag([0.5, 0.3, 0.1]))
        m = 5
        ens = McEnsemble(np.tile(belief.mean, (m, 1)), np.zeros((m, 0)), 0)
        covs = np.repeat(belief.cov[np.newaxis], m, axis=0)
        for k in range(1, 4):
            want, _ = einsum_step(ens, ys[k - 1], model, covs, plan, k)
            ens, covs = mc_step(ens, ys[k - 1], model, covs, plan, k)
            assert rel_err(ens.states, want) < 1e-13
            pred = kf_predict(belief, model, k=k)
            belief = kf_correct(pred, ys[k - 1], model, k=k).corrected
            for trial_cov in covs:
                assert rel_err(trial_cov, belief.cov) < 1e-12

    @pytest.mark.parametrize("case", ["tank", "two_measurements"])
    def test_trial_covariance_is_filter_covariance_bit_for_bit(self, case):
        # a trial and the LKF run one Kalman step, so with the same matrices
        # their covariance recursions agree in every bit
        plan = RngStreamPlan(42)
        if case == "tank":
            cfg = TankConfig(n_steps=30)
            model, belief = linear_model(cfg), state_prior(cfg)
            ys = simulate(cfg, plan).measurements
        else:
            # the p = 2 model of test_two_measurements_track_filter_covariance
            model = LinearModel(
                state_matrix=np.array([[1.0, 0.1, 0.0], [0.0, 0.9, 0.2], [0.0, 0.0, 1.0]]),
                obs_matrix=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
                process_noise=np.diag([0.01, 0.02, 0.005]),
                obs_noise=np.array([[0.5, 0.1], [0.1, 0.3]]),
            )
            belief = GaussianBelief([1.0, -0.5, 0.2], np.diag([0.5, 0.3, 0.1]))
            ys = np.array([[0.4, 1.0], [-0.2, 0.8], [0.7, 0.5]])
        ens = McEnsemble(belief.mean[np.newaxis], np.zeros((1, 0)), 0)
        covs = belief.cov[np.newaxis]
        for k in range(1, len(ys) + 1):
            ens, covs = mc_step(ens, ys[k - 1], model, covs, plan, k)
            pred = kf_predict(belief, model, k=k)
            belief = kf_correct(pred, ys[k - 1], model, k=k).corrected
            assert np.array_equal(covs[0], belief.cov), f"time index {k}"

    @pytest.mark.parametrize(
        "R, trial_R, trial_P",
        [
            ([[-1.0]], [[0.0]], [[-0.5]]),
            ([[1.0, 3.0], [3.0, 1.0]], 0.5 * np.eye(2), np.diag([-1.0, 1.0])),
        ],
        ids=["p1", "p2"],
    )
    def test_indefinite_innovation_covariance_named(self, R, trial_R, trial_P):
        # with P = 0.5 I, S = P + R is -0.5 (p = 1) or has the eigenvalues 4.5
        # and -1.5 (p = 2): the filter refuses it at its one check.  mc_step
        # refuses an indefinite R before that, at its draw, so its trials get
        # a PSD R and an indefinite covariance, and S is -0.5 or diag(-0.5, 1.5)
        p = len(R)
        model = LinearModel(np.eye(p), np.eye(p), np.zeros((p, p)), np.array(R))
        belief = GaussianBelief(np.zeros(p), 0.5 * np.eye(p))
        match = r"^innovation (variance -0.5 is not finite and positive|covariance is not "
        match += r"positive definite) {}at time index 3$"
        with pytest.raises(NumericError, match=match.format("")):
            kf_correct(belief, np.zeros(p), model, k=3)
        model = LinearModel(np.eye(p), np.eye(p), np.zeros((p, p)), np.array(trial_R))
        ens = McEnsemble(np.zeros((4, p)), np.zeros((4, 0)), 2)
        covs = np.repeat(np.eye(p)[np.newaxis], 4, axis=0)
        covs[[1, 3]] = trial_P  # absolute trials 6 and 8: the first is named
        with pytest.raises(NumericError, match=match.format("in trial 6 ")):
            mc_step(ens, np.zeros(p), model, covs, RngStreamPlan(5), 3, trial_start=5)

    def test_non_finite_innovation_covariance_named(self):
        # H = NaN I at the states whose level is 1 makes S = H P H' + R NaN,
        # which np.linalg.cholesky factors into NaNs without raising; the
        # filter and the trials refuse it at the innovation-covariance check
        def obs_jacobian(x, th, k):
            return np.where(x[..., :1, np.newaxis] == 1.0, np.nan, 1.0) * np.eye(2)

        model = NonlinearModel(
            lambda x, th, k: x,
            lambda x, th, k: x,
            np.zeros((2, 2)),
            np.eye(2),
            state_jacobian=lambda x, th, k: np.eye(2),
            obs_jacobian=obs_jacobian,
        )
        match = r"^innovation covariance is not positive definite {}at time index 3$"
        with pytest.raises(NumericError, match=match.format("")):
            ekf_correct(GaussianBelief(np.ones(2), np.eye(2)), np.zeros(2), model, k=3)
        states = np.zeros((4, 2))
        states[2:, 0] = 1.0  # absolute trials 5 and 6: the first is named
        covs = np.repeat(np.eye(2)[np.newaxis], 4, axis=0)
        ens = McEnsemble(states, np.zeros((4, 0)), 2)
        with pytest.raises(NumericError, match=match.format("in trial 5 ")):
            mc_step(ens, np.zeros(2), model, covs, RngStreamPlan(5), 3, trial_start=3)

    @pytest.mark.parametrize(
        "state_jacobian, obs_jacobian, Q, R",
        [
            (lambda x, th, k: np.eye(3), None, np.eye(2), np.eye(1)),
            (None, lambda x, th, k: np.ones((1, 3)), np.eye(2), np.eye(1)),
            (None, None, np.eye(3), np.eye(1)),
            (None, None, np.eye(2), np.eye(2)),
        ],
        ids=["state", "obs", "Q", "R"],
    )
    def test_matrix_of_wrong_shape_named(self, state_jacobian, obs_jacobian, Q, R):
        # a 3-column Jacobian or a noise covariance of the wrong size for a
        # 2-state, 1-measurement model
        model = NonlinearModel(
            lambda x, th, k: x,
            lambda x, th, k: x[..., :1],
            Q,
            R,
            state_jacobian=state_jacobian,
            obs_jacobian=obs_jacobian,
        )
        ens = McEnsemble(np.zeros((4, 2)), np.zeros((4, 0)), 0)
        covs = np.repeat(np.eye(2)[np.newaxis], 4, axis=0)
        with pytest.raises(DimensionError, match=r"mc_step at k=1\b"):
            mc_step(ens, np.zeros(1), model, covs, RngStreamPlan(5), 1)

    @pytest.mark.parametrize(
        "Q, R", [([[0.0]], [[-0.5]]), (np.diag([1.0, -1.0]), np.eye(2))], ids=["R", "Q"]
    )
    def test_indefinite_noise_covariance_named(self, Q, R):
        # F = H = 1, Q = 0, R = -0.5 and P = 1 would give a trial covariance
        # of -1; the draws refuse an indefinite Q or R as kf_* refuse the
        # covariance it leads to
        n = len(Q)
        model = LinearModel(np.eye(n), np.eye(n), np.array(Q), np.array(R))
        ens = McEnsemble(np.zeros((4, n)), np.zeros((4, 0)), 0)
        covs = np.repeat(np.eye(n)[np.newaxis], 4, axis=0)
        with pytest.raises(
            NumericError, match=r"^covariance is not positive semidefinite \(mc_step at k=1\)$"
        ):
            mc_step(ens, np.zeros(n), model, covs, RngStreamPlan(5), 1)

    def test_non_finite_noise_covariance_named(self):
        model = LinearModel(np.eye(2), np.eye(2), np.diag([0.0, np.inf]), np.eye(2))
        ens = McEnsemble(np.zeros((4, 2)), np.zeros((4, 0)), 0)
        covs = np.repeat(np.eye(2)[np.newaxis], 4, axis=0)
        with pytest.raises(NumericError, match=r"^covariance is not finite \(mc_step at k=3\)$"):
            mc_step(ens, np.zeros(2), model, covs, RngStreamPlan(5), 3)

    def test_zero_innovation_variance_named(self):
        # zero Q, zero R and, for trials 2 and 3, a zero covariance make the
        # scalar innovation variance s = 0
        model = LinearModel(
            state_matrix=np.array([[1.0]]),
            obs_matrix=np.array([[1.0]]),
            process_noise=np.array([[0.0]]),
            obs_noise=np.array([[0.0]]),
        )
        ens = McEnsemble(np.ones((4, 1)), np.zeros((4, 0)), 1)
        covs = np.array([1.0, 1.0, 0.0, 0.0]).reshape(4, 1, 1)
        with pytest.raises(NumericError, match="innovation variance 0 .* trial 10 at time index 2"):
            mc_step(ens, [1.0], model, covs, RngStreamPlan(5), 2, trial_start=8)

    def test_non_finite_propagation_named(self):
        model = LinearModel(
            state_matrix=np.array([[1e200]]),
            obs_matrix=np.array([[1.0]]),
            process_noise=np.array([[0.0]]),
            obs_noise=np.array([[1.0]]),
        )
        plan = RngStreamPlan(5)
        ens = McEnsemble(np.array([[1e200]]), np.zeros((1, 0)), 0)
        with pytest.raises(NumericError, match="trial 0 at time index 1"):
            mc_step(ens, [0.0], model, np.array([[[1.0]]]), plan, 1)

    def test_non_finite_sample_named(self):
        # f puts inf in trial 2's amplitude, which H = [1, 0] never observes,
        # so only the step's own sample check can see it
        def state_fn(x, _theta, _k):
            out = np.array(x, dtype=float)
            out[2, 1] = np.inf
            return out

        model = NonlinearModel(
            state_fn,
            lambda x, _theta, _k: x[..., :1],
            np.zeros((2, 2)),
            np.eye(1),
            state_jacobian=lambda _x, _theta, _k: np.eye(2),
            obs_jacobian=lambda _x, _theta, _k: np.array([[1.0, 0.0]]),
        )
        ens = McEnsemble(np.zeros((4, 2)), np.zeros((4, 0)), 0)
        covs = np.repeat(np.eye(2)[np.newaxis], 4, axis=0)
        with pytest.raises(NumericError, match=r"^non-finite sample in trial 10 at time index 1$"):
            mc_step(ens, [0.0], model, covs, RngStreamPlan(5), 1, trial_start=8)


class TestThetaBehaviour:
    def test_theta_persistent_in_linear_uncertain(self):
        cfg = TankConfig(n_steps=60)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        res = mc_sequential(
            record.measurements,
            linear_model(cfg),
            state_prior(cfg),
            frequency_knowledge(cfg),
            plan,
            trials=200,
            record_at=(0, cfg.n_steps),
        )
        theta0 = res.records[0][:, 2]
        theta_n = res.records[cfg.n_steps][:, 2]
        np.testing.assert_array_equal(theta0, theta_n)

    def test_theta_evolves_in_augmented(self):
        cfg = TankConfig(n_steps=60)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        aug, belief0 = augmented_model(cfg)
        res = mc_sequential(
            record.measurements,
            aug.model,
            belief0,
            None,
            plan,
            trials=50,
            record_at=(0, cfg.n_steps),
        )
        theta0 = res.records[0][:, 2]
        theta_n = res.records[cfg.n_steps][:, 2]
        assert np.all(theta0 != theta_n)


def spy_block_starts(monkeypatch):
    """Patch gum_mc.mc_step to collect (trials, trial_start) of every block
    advanced to time index 1."""
    starts = set()

    def spy(ensemble, *args, trial_start=0):
        if args[4] == 1:
            starts.add((ensemble.trial_count, trial_start))
        return mc_step(ensemble, *args, trial_start=trial_start)

    monkeypatch.setattr(gum_mc, "mc_step", spy)
    return starts


def record_pool_sizes(monkeypatch, cpus):
    """Patch the thread pool to record its max_workers and run map in the
    calling thread, on a host of `cpus` CPUs, so a test starts no thread."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def map(self, fn, iterable):
            return list(map(fn, iterable))

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return pools


class TestBatchSequentialEquivalence:
    def test_bit_identical_trials(self):
        cfg = TankConfig(n_steps=25)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        kwargs = dict(store_samples=True)
        seq = mc_sequential(
            record.measurements,
            linear_model(cfg),
            state_prior(cfg),
            frequency_knowledge(cfg),
            plan,
            40,
            **kwargs,
        )
        bat = mc_batch(
            record.measurements,
            linear_model(cfg),
            state_prior(cfg),
            frequency_knowledge(cfg),
            plan,
            40,
            **kwargs,
        )
        np.testing.assert_array_equal(seq.samples_states, bat.samples_states)
        np.testing.assert_array_equal(seq.samples_params, bat.samples_params)

    def test_single_step_batch_equals_mc_step(self):
        cfg = TankConfig(n_steps=1)
        plan = RngStreamPlan(7)
        record = simulate(cfg, plan)
        bat = mc_batch(
            record.measurements,
            linear_model(cfg),
            state_prior(cfg),
            frequency_knowledge(cfg),
            plan,
            30,
            store_samples=True,
        )
        seq = mc_sequential(
            record.measurements,
            linear_model(cfg),
            state_prior(cfg),
            frequency_knowledge(cfg),
            plan,
            30,
            store_samples=True,
        )
        np.testing.assert_array_equal(bat.samples_states[1], seq.samples_states[1])

    def test_threaded_equals_serial(self):
        # One block, one per thread and one per trial must give the same
        # bits, for the linear model with uncertain theta and for the
        # augmented nonlinear one; 7 does not divide 20.
        self.assert_layouts_bit_identical()

    def test_chunk_spanning_layouts_bit_identical(self, monkeypatch):
        # With chunks of 8 the 20 trials span three chunks: threads=3 runs
        # the blocks [0, 7), [7, 13), [13, 20), threads=1 one block and
        # mc_batch 20, so every chunk is split across blocks.
        monkeypatch.setattr(gum_mc, "_CHUNK", 8)
        starts = spy_block_starts(monkeypatch)
        self.assert_layouts_bit_identical()
        assert {(7, 0), (6, 7), (7, 13), (20, 0), (1, 19)} <= starts

    def test_threads_split_trials_into_equal_blocks(self, monkeypatch):
        # the block bounds ignore the chunks: 10^4 trials on two threads
        # run two blocks of 5000
        cfg = TankConfig(n_steps=1)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        starts = spy_block_starts(monkeypatch)
        mc_sequential(
            record.measurements, linear_model(cfg), state_prior(cfg),
            frequency_knowledge(cfg), plan, 10_000, threads=2,
        )
        assert starts == {(5000, 0), (5000, 5000)}

    def test_more_threads_than_trials_run_one_trial_blocks(self, monkeypatch):
        cfg = TankConfig(n_steps=5)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        args = (record.measurements, linear_model(cfg), state_prior(cfg),
                frequency_knowledge(cfg), plan, 3)
        kwargs = dict(store_samples=True, record_at=(0, 2, cfg.n_steps))
        serial = mc_sequential(*args, **kwargs)
        starts = spy_block_starts(monkeypatch)
        threaded = mc_sequential(*args, threads=7, **kwargs)
        assert starts == {(1, 0), (1, 1), (1, 2)}
        for name in (
            "state_means", "state_covs", "param_means", "param_covs",
            "samples_states", "samples_params",
        ):
            np.testing.assert_array_equal(
                getattr(serial, name), getattr(threaded, name), err_msg=name
            )
        assert serial.records.keys() == threaded.records.keys()
        for k in serial.records:
            np.testing.assert_array_equal(serial.records[k], threaded.records[k])

    def test_thread_pool_holds_at_most_one_worker_per_cpu(self, monkeypatch):
        # 16 threads on a 2-CPU host: 16 blocks, one per requested thread,
        # run on a pool of 2 workers
        cfg = TankConfig(n_steps=3)
        plan = RngStreamPlan(42)
        args = (simulate(cfg, plan).measurements, linear_model(cfg), state_prior(cfg),
                frequency_knowledge(cfg), plan, 64)
        serial = mc_sequential(*args)
        pools = record_pool_sizes(monkeypatch, 2)
        starts = spy_block_starts(monkeypatch)
        capped = mc_sequential(*args, threads=16)
        assert pools == [2]
        assert starts == {(4, a) for a in range(0, 64, 4)}
        for name in ("state_means", "state_covs", "param_means", "param_covs"):
            np.testing.assert_array_equal(
                getattr(serial, name), getattr(capped, name), err_msg=name
            )

    def test_thread_count_far_above_the_trial_count(self, monkeypatch):
        # 2**62 threads for 8 trials cut 8 one-trial blocks, not 2**62
        # empty ones, and run them on one worker per CPU
        cfg = TankConfig(n_steps=5)
        plan = RngStreamPlan(42)
        aug, belief0 = augmented_model(cfg)
        args = (simulate(cfg, plan).measurements, aug.model, belief0, None, plan, 8)
        kwargs = dict(store_samples=True, record_at=(0, 2, cfg.n_steps))
        serial = mc_sequential(*args, **kwargs)
        pools = record_pool_sizes(monkeypatch, 2)
        starts = spy_block_starts(monkeypatch)
        threaded = mc_sequential(*args, threads=2**62, **kwargs)
        assert pools == [2]
        assert starts == {(1, a) for a in range(8)}
        for name in ("state_means", "state_covs", "param_means", "param_covs", "samples_states"):
            assert getattr(serial, name).tobytes() == getattr(threaded, name).tobytes(), name
        assert serial.records.keys() == threaded.records.keys()
        for k in serial.records:
            assert serial.records[k].tobytes() == threaded.records[k].tobytes()

    @staticmethod
    def assert_layouts_bit_identical():
        cfg = TankConfig(n_steps=20)
        plan = RngStreamPlan(42)
        record = simulate(cfg, plan)
        aug, belief0 = augmented_model(cfg)
        setups = (
            (linear_model(cfg), state_prior(cfg), frequency_knowledge(cfg)),
            (aug.model, belief0, None),
        )
        for model, prior, knowledge in setups:
            args = (record.measurements, model, prior, knowledge, plan, 20)
            kwargs = dict(store_samples=True, record_at=(0, 7, cfg.n_steps))
            serial = mc_sequential(*args, **kwargs)
            for other in (
                mc_batch(*args, **kwargs),
                mc_sequential(*args, threads=3, **kwargs),
                mc_sequential(*args, threads=7, **kwargs),
            ):
                for name in (
                    "state_means", "state_covs", "param_means", "param_covs",
                    "samples_states", "samples_params",
                ):
                    np.testing.assert_array_equal(
                        getattr(serial, name), getattr(other, name), err_msg=name
                    )
                assert serial.records.keys() == other.records.keys()
                for k in serial.records:
                    np.testing.assert_array_equal(serial.records[k], other.records[k])

    def test_dense_covariances_bit_identical(self):
        # criterion 07 with every covariance dense (3x3 prior, Q) and p = 2:
        # each draw and product then sums several nonzero terms, so the
        # block layout must not change their order
        model = LinearModel(
            state_matrix=np.array([[1.0, 0.1, 0.0], [-0.2, 0.9, 0.1], [0.05, 0.0, 1.0]]),
            obs_matrix=np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 1.0]]),
            process_noise=np.array(
                [[0.02, 0.01, 0.004], [0.01, 0.03, 0.006], [0.004, 0.006, 0.01]]
            ),
            obs_noise=np.array([[0.5, 0.2], [0.2, 0.3]]),
        )
        prior = GaussianBelief(
            [1.0, -0.5, 0.2], [[0.5, 0.2, 0.1], [0.2, 0.4, -0.05], [0.1, -0.05, 0.3]]
        )
        ys = np.random.default_rng(3).standard_normal((12, 2))
        args = (ys, model, prior, None, RngStreamPlan(42), 30)
        serial = mc_sequential(*args, store_samples=True)
        for other in (
            mc_batch(*args, store_samples=True),
            mc_sequential(*args, threads=3, store_samples=True),
        ):
            np.testing.assert_array_equal(serial.samples_states, other.samples_states)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_measurement_of_three_or_more_states_bit_identical(self, n):
        # criterion 07 for p = 1 and n >= 3: after one mc_step the states are
        # the (M, n) view of an (n, M) stack, while mc_batch's one-trial
        # blocks are C-ordered; the model's product sums in _mm's order on both
        rng = np.random.default_rng(n)
        model = LinearModel(
            state_matrix=np.eye(n) + 0.1 * rng.standard_normal((n, n)),
            obs_matrix=rng.standard_normal((1, n)),
            process_noise=rand_pd(rng, n, 0.01) * 0.01,
            obs_noise=np.array([[0.5]]),
        )
        prior = GaussianBelief(rng.standard_normal(n), rand_pd(rng, n))
        ys = rng.standard_normal(8)
        args = (ys, model, prior, None, RngStreamPlan(42), 300)
        serial = mc_sequential(*args, store_samples=True)
        batch = mc_batch(*args, store_samples=True)
        for name in ("samples_states", "state_means", "state_covs"):
            np.testing.assert_array_equal(getattr(serial, name), getattr(batch, name), err_msg=name)


class TestCapacityAndMemory:
    def test_store_budget_enforced(self):
        cfg = TankConfig(n_steps=10)
        plan = RngStreamPlan(1)
        record = simulate(cfg, plan)
        with pytest.raises(CapacityError):
            mc_sequential(
                record.measurements,
                linear_model(cfg),
                state_prior(cfg),
                frequency_knowledge(cfg),
                plan,
                100,
                store_samples=True,
                max_store_bytes=1024,
            )

    def test_record_budget_enforced(self):
        # two in-range steps of 100 trials x 3 columns fit 4800 bytes; the
        # steps outside [0, n_steps] are never recorded and cost nothing
        cfg = TankConfig(n_steps=10)
        plan = RngStreamPlan(1)
        args = (
            simulate(cfg, plan).measurements,
            linear_model(cfg),
            state_prior(cfg),
            frequency_knowledge(cfg),
            plan,
            100,
        )
        res = mc_sequential(*args, record_at=(0, 10, 11, 99), max_store_bytes=4800)
        assert sorted(res.records) == [0, 10]
        with pytest.raises(CapacityError, match=r"^record_at needs 7200 bytes, exceeding"):
            mc_sequential(*args, record_at=(0, 5, 10), max_store_bytes=4800)

    def test_statistics_only_memory_independent_of_horizon(self):
        plan = RngStreamPlan(1)

        def peak(n_steps):
            cfg = TankConfig(n_steps=n_steps)
            record = simulate(cfg, plan)
            tracemalloc.start()
            mc_sequential(
                record.measurements,
                linear_model(cfg),
                state_prior(cfg),
                frequency_knowledge(cfg),
                plan,
                5000,
            )
            _, top = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return top

        assert peak(80) < 1.5 * peak(20)

    def test_records_and_samples_share_one_store(self):
        cfg = TankConfig(n_steps=40)
        plan = RngStreamPlan(1)
        n = cfg.n_steps
        args = (
            simulate(cfg, plan).measurements,
            linear_model(cfg),
            state_prior(cfg),
            frequency_knowledge(cfg),
            plan,
            5000,
        )
        res = mc_sequential(*args, store_samples=True, record_at=(0, 7, n))
        assert sorted(res.records) == [0, 7, n]
        assert np.shares_memory(res.records[7], res.samples_states)
        for k in (0, 7, n):
            joined = np.hstack([res.samples_states[k], res.samples_params[k]])
            np.testing.assert_array_equal(res.records[k], joined)

        def peak(**kwargs):
            tracemalloc.start()
            mc_sequential(*args, store_samples=True, **kwargs)
            _, top = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return top

        # recording every step adds nothing to the full sample store
        assert peak(record_at=range(n + 1)) <= 1.05 * peak()


class TestMcSequentialContracts:
    @pytest.mark.parametrize("trials, threads", [(0, 1), (1, 1), (10, 0), (10, -2)])
    def test_bad_trial_or_thread_count_rejected(self, trials, threads):
        cfg = TankConfig(n_steps=5)
        plan = RngStreamPlan(1)
        args = (
            simulate(cfg, plan).measurements,
            linear_model(cfg),
            state_prior(cfg),
            frequency_knowledge(cfg),
            plan,
            trials,
        )
        with pytest.raises(ConfigError):
            mc_sequential(*args, threads=threads)
        if threads == 1:
            with pytest.raises(ConfigError):
                mc_batch(*args)

    def test_no_measurements_raises(self):
        cfg = TankConfig()
        with pytest.raises(NumericError):
            mc_sequential(
                np.zeros((0,)),
                linear_model(cfg),
                state_prior(cfg),
                frequency_knowledge(cfg),
                RngStreamPlan(1),
                10,
            )


class TestReportedMomentsChecked:
    """A mean or covariance reduced over the trials is refused where it is
    made if it is not finite, naming k, or the parameters, whose moments are
    reduced once; the overflow that made it is no warning."""

    BIG = np.finfo(float).max
    MODEL = LinearModel(np.eye(1), np.eye(1), np.zeros((1, 1)), np.eye(1))

    @pytest.mark.parametrize("run", [mc_sequential, mc_batch])
    def test_overflowing_state_moments_named(self, run):
        prior = GaussianBelief(np.zeros(1), [[self.BIG]])  # deviations up to ~1e155
        with pytest.raises(
            NumericError, match=r"^mean or covariance is not finite \(Monte Carlo moments at k=0\)$"
        ):
            run(np.zeros(3), self.MODEL, prior, None, RngStreamPlan(5), 100)

    def test_overflowing_parameter_moments_named(self):
        prior = GaussianBelief(np.zeros(1), np.eye(1))
        knowledge = ParameterKnowledge(np.zeros(1), [[self.BIG]])
        expected = r"^mean or covariance is not finite \(Monte Carlo moments of the parameters\)$"
        with pytest.raises(NumericError, match=expected):
            mc_sequential(np.zeros(3), self.MODEL, prior, knowledge, RngStreamPlan(5), 100, threads=2)
