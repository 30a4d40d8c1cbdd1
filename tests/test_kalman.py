"""Linear Kalman filter and the analytic propagation it equals."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumkf import (
    DimensionError,
    GaussianBelief,
    LinearModel,
    NonlinearModel,
    NumericError,
    RngStreamPlan,
    TankConfig,
    assert_psd,
    augmented_model,
    ekf_correct,
    ekf_predict,
    joseph_update,
    kf_correct,
    kf_gain,
    kf_predict,
    linear_model,
    propagate_linear_gum,
    simulate,
    state_prior,
    symmetrize,
)
from gumkf.kalman import _scan, _update

from conftest import rand_pd, rand_psd, rel_err


def scalar_model(q=0.0, r=1.0, f=1.0, c=1.0):
    return LinearModel(
        state_matrix=np.array([[f]]),
        obs_matrix=np.array([[c]]),
        process_noise=np.array([[q]]),
        obs_noise=np.array([[r]]),
    )


def random_instance(rng, n, p):
    model = LinearModel(
        state_matrix=rng.standard_normal((n, n)),
        obs_matrix=rng.standard_normal((p, n)),
        process_noise=rand_psd(rng, n),
        obs_noise=rand_pd(rng, p),
    )
    prev = GaussianBelief(rng.standard_normal(n), rand_psd(rng, n) + 1e-6 * np.eye(n))
    y = rng.standard_normal(p)
    return model, prev, y


def spd_stack(rng, n, m, cond):
    """(n, n, m) stack of random SPD matrices, each with eigenvalues spread
    log-uniformly over [1/cond, 1] (the ends included)."""
    q, _ = np.linalg.qr(rng.standard_normal((m, n, n)))
    w = 10.0 ** rng.uniform(-np.log10(cond), 0.0, (m, n))
    w[:, 0], w[:, -1] = 1.0, 1.0 / cond
    stack = (q * w[:, np.newaxis, :]) @ q.transpose(0, 2, 1)  # q diag(w) q'
    return np.ascontiguousarray(stack.transpose(1, 2, 0))


class TestKfPredict:
    def test_identity_dynamics(self):
        model = scalar_model(q=0.0)
        prev = GaussianBelief(np.array([2.0]), np.array([[3.0]]))
        out = kf_predict(prev, model)
        np.testing.assert_array_equal(out.mean, prev.mean)
        np.testing.assert_array_equal(out.cov, prev.cov)

    def test_scalar_arithmetic(self):
        out = kf_predict(GaussianBelief([0.0], [[1.0]]), scalar_model(q=0.5))
        assert out.cov[0, 0] == pytest.approx(1.5, abs=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kf_predict(GaussianBelief(np.zeros(2), np.eye(2)), scalar_model())


class TestKfGain:
    def test_scalar_half(self):
        assert kf_gain([[1.0]], [[1.0]], [[1.0]])[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_uninformative_measurement(self):
        assert abs(kf_gain([[1.0]], [[1.0]], [[1e12]])[0, 0]) <= 1e-11

    def test_certain_prior(self):
        np.testing.assert_array_equal(kf_gain(np.zeros((2, 2)), [[1.0, 0.0]], [[1.0]]), 0.0)

    # S = 0, S = 1 - 3 = -2, an S with eigenvalues 3 and -1, and S = inf; the
    # two indefinite ones are invertible, so only the positive-definite gate
    # refuses them
    INVALID_S = {
        "zero": (np.zeros((1, 1)), [[1.0]], [[0.0]]),
        "scalar-indefinite": ([[1.0]], [[1.0]], [[-3.0]]),
        "2x2-indefinite": (np.eye(2), np.eye(2), [[0.0, 2.0], [2.0, 0.0]]),
        "non-finite": ([[np.inf]], [[1.0]], [[1.0]]),
    }

    @pytest.mark.parametrize("case", INVALID_S)
    def test_singular_innovation_raises(self, case):
        with pytest.raises(NumericError, match=r"\(kf_gain\)"):
            kf_gain(*self.INVALID_S[case])

    def test_indefinite_innovation_names_step_and_time_index(self):
        # a negative process noise makes the predicted variance, and S, -2
        with pytest.raises(
            NumericError, match=r"^singular innovation covariance \(propagate_linear_gum at k=5\): "
        ):
            propagate_linear_gum(
                GaussianBelief([0.0], [[1.0]]), GaussianBelief([1.0], [[0.0]]),
                scalar_model(q=-3.0), None, 5,
            )


class TestKfCorrect:
    def test_scalar_conjugate(self):
        # prior N(0,1), measurement y=2 with unit noise -> posterior N(1, 0.5)
        step = kf_correct(GaussianBelief([0.0], [[1.0]]), [2.0], scalar_model())
        assert step.corrected.mean[0] == pytest.approx(1.0, abs=1e-15)
        assert step.corrected.cov[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert step.innovation[0] == pytest.approx(2.0)

    def test_zero_innovation_keeps_mean(self, rng):
        model, prev, _ = random_instance(rng, 3, 2)
        pred = kf_predict(prev, model)
        y = model.H(pred.mean, None, 0) @ pred.mean
        step = kf_correct(pred, y, model)
        np.testing.assert_allclose(step.corrected.mean, pred.mean, rtol=1e-12)

    def test_huge_noise_keeps_belief(self):
        model = scalar_model(r=1e12)
        pred = GaussianBelief([1.0], [[2.0]])
        step = kf_correct(pred, [100.0], model)
        assert rel_err(step.corrected.mean, pred.mean) < 1e-9
        assert rel_err(step.corrected.cov, pred.cov) < 1e-9

    def test_joseph_equals_simple_form(self, rng):
        # KalmanStep invariant: corrected.cov = (I - K H) predicted.cov
        model, prev, y = random_instance(rng, 3, 2)
        pred = kf_predict(prev, model)
        step = kf_correct(pred, y, model)
        simple = (np.eye(3) - step.gain @ model.H(pred.mean, None, 0)) @ pred.cov
        assert rel_err(step.corrected.cov, simple) < 1e-12

    def test_covariance_never_grows(self, rng):
        # Loewner order: predicted.cov - corrected.cov is PSD
        for _ in range(20):
            model, prev, y = random_instance(rng, 3, 2)
            step = kf_correct(kf_predict(prev, model), y, model)
            assert assert_psd(step.predicted.cov - step.corrected.cov, tol=1e-8)


class TestJosephIdentity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_identity_at_optimal_gain(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        P = rand_psd(rng, n)
        C = rng.standard_normal((p, n))
        R = rand_pd(rng, p)
        K = kf_gain(P, C, R)
        joseph = joseph_update(P, K, C, R)
        simple = (np.eye(n) - K @ C) @ P
        assert np.linalg.norm(joseph - simple) <= 1e-10 * max(np.linalg.norm(P), 1e-300)


class TestPropagateLinearGum:
    def test_matches_filter_path(self, rng):
        for _ in range(50):
            model, prev, y = random_instance(rng, 3, 2)
            step = kf_correct(kf_predict(prev, model), y, model)
            gum = propagate_linear_gum(
                prev, GaussianBelief(y, np.atleast_2d(model.R(0))), model
            )
            assert rel_err(gum.mean, step.corrected.mean) < 1e-12
            assert rel_err(gum.cov, step.corrected.cov) < 1e-12

    def test_scalar_conjugate(self):
        gum = propagate_linear_gum(
            GaussianBelief([0.0], [[1.0]]), GaussianBelief([2.0], [[1.0]]), scalar_model()
        )
        assert gum.mean[0] == pytest.approx(1.0, abs=1e-15)
        assert gum.cov[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_uninformative_limit_keeps_predicted_cov(self):
        model = scalar_model(q=0.5)
        gum = propagate_linear_gum(
            GaussianBelief([0.0], [[1.0]]), GaussianBelief([3.0], [[1e12]]), model
        )
        assert gum.cov[0, 0] == pytest.approx(1.5, rel=1e-9)


class TestBayesScalarOracle:
    def test_conjugate_normal_normal(self, rng):
        # posterior precision adds; posterior mean is the precision-weighted sum
        for _ in range(1000):
            v = float(rng.uniform(0.1, 5.0))
            r = float(rng.uniform(0.1, 5.0))
            m = float(rng.normal())
            y = float(rng.normal())
            post_var = 1.0 / (1.0 / v + 1.0 / r)
            post_mean = post_var * (m / v + y / r)
            step = kf_correct(GaussianBelief([m], [[v]]), [y], scalar_model(r=r))
            assert abs(step.corrected.mean[0] - post_mean) <= 1e-12 * max(abs(post_mean), 1.0)
            assert abs(step.corrected.cov[0, 0] - post_var) <= 1e-12 * post_var


class TestUpdateKernel:
    """`_update`, the one correction kernel, on (n, n, M) trial stacks."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_covariance_matches_matrix_form_joseph(self, p):
        rng = np.random.default_rng(20261018)
        n, m = 3, 64
        P = spd_stack(rng, n, m, 1e4)
        H = rng.standard_normal((p, n, m))
        R = np.stack([rand_pd(rng, p) for _ in range(m)], axis=-1)
        _, cov, K, _ = _update(
            np.zeros((n, m)), P, np.zeros((p, m)), np.zeros((p, m)), H, R, 1
        )
        for j in range(m):
            ref = joseph_update(P[:, :, j], K[:, :, j], H[:, :, j], R[:, :, j])
            assert np.linalg.norm(cov[:, :, j] - ref) <= 1e-12 * np.linalg.norm(P[:, :, j])
            # the matrix-form reference gain, the oracles' own solve
            gain = kf_gain(P[:, :, j], H[:, :, j], R[:, :, j])
            assert np.linalg.norm(K[:, :, j] - gain) <= 1e-12 * np.linalg.norm(gain)

    def test_corrected_covariances_stay_psd_when_ill_conditioned(self):
        # the Joseph property: at condition 1e12 and a measurement far more
        # precise than P's smallest variance, the simple form P - K H P goes
        # indefinite on some of these trials
        rng = np.random.default_rng(1968)
        n, m = 3, 20_000
        P = 1e12 * spd_stack(rng, n, m, 1e12)  # eigenvalues in [1, 1e12]
        H = rng.standard_normal((1, n, m))
        R = np.full((1, 1, 1), 1e-6)
        _, cov, _, _ = _update(
            np.zeros((n, m)), P, np.zeros((1, m)), np.zeros((1, m)), H, R, 1
        )
        bad = [j for j in range(m) if not assert_psd(cov[:, :, j], tol=1e-10)]
        assert bad == []



def cholesky_accepts(s):
    """The innovation-covariance gate `_update` had before the pivot test:
    every entry finite and np.linalg.cholesky succeeds."""
    if not np.isfinite(s).all():
        return False
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    return True


def update_with_s(s_stack, k=1, trial_start=None):
    """`_update` of a zero (2, 2) covariance, so that its innovation
    covariance S = H P H' + R is R = s_stack (M, p, p) bit for bit, under
    the error scope its callers run it in."""
    m, p = s_stack.shape[:2]
    rng = np.random.default_rng(7)
    H = rng.standard_normal((p, 2, m))
    R = np.ascontiguousarray(s_stack.transpose(1, 2, 0))
    zeros = np.zeros((p, m))
    with np.errstate(over="ignore", invalid="ignore"):
        return _update(np.zeros((2, m)), np.zeros((2, 2, m)), zeros, zeros, H, R, k, trial_start)


class TestInnovationCovarianceGate:
    """The p > 1 gate of `_update`, `core._pivots_positive` at tol 0 on S,
    against np.linalg.cholesky on seeded stacks whose seeds and sizes were
    fixed before the first run: 50 matrices per case and p = 2, 3, each
    gated alone (the one-matrix path) and as one stack."""

    @staticmethod
    def stack(case, p):
        rng = np.random.default_rng([20261021, p, len(case)])
        a = rng.standard_normal((50, p, p))
        pd = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(p)
        if case == "positive definite":
            return pd
        if case == "indefinite":  # V diag(w) V', one w in [-1, -0.1], the others in [0.1, 1]
            v = np.linalg.qr(a)[0]
            w = rng.uniform(0.1, 1.0, (50, p)) * np.where(np.arange(p) == 0, -1.0, 1.0)
            return symmetrize((v * w[:, np.newaxis, :]) @ v.transpose(0, 2, 1))
        rows = np.arange(50)
        j = rng.integers(0, p, 50)
        if case == "exactly singular":  # a zero row and column: a pivot of exactly 0
            pd[rows, j, :] = 0.0
            pd[rows, :, j] = 0.0
            return pd
        # non-finite: one diagonal entry or one symmetric pair of inf, -inf or nan
        i = (j + rng.integers(0, 2, 50)) % p
        value = rng.choice([np.inf, -np.inf, np.nan], 50)
        pd[rows, i, j] = value
        pd[rows, j, i] = value
        return pd

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "case", ["positive definite", "indefinite", "exactly singular", "non-finite"]
    )
    def test_agrees_with_cholesky(self, case, p):
        s_stack = self.stack(case, p)
        want = [cholesky_accepts(s) for s in s_stack]
        for s, accepted in zip(s_stack, want):
            if accepted:
                update_with_s(s[np.newaxis])
            else:
                with pytest.raises(NumericError, match="^innovation covariance is not positive"):
                    update_with_s(s[np.newaxis])
        if all(want):
            update_with_s(s_stack, trial_start=0)
        else:
            first = want.index(False)
            with pytest.raises(NumericError, match=rf" in trial {100 + first} at time index 5$"):
                update_with_s(s_stack, k=5, trial_start=100)
        assert want == [case == "positive definite"] * len(want)

    def test_rank_one_matrices_are_refused(self):
        # c 11' is exactly singular: its second pivot is exactly 0, where
        # Cholesky's rounding of sqrt(c) accepts some of them
        c = np.random.default_rng(20261021).uniform(0.1, 10.0, 50)
        for s in c[:, np.newaxis, np.newaxis] * np.ones((50, 2, 2)):
            with pytest.raises(NumericError, match="^innovation covariance is not positive"):
                update_with_s(s[np.newaxis])

    @pytest.mark.parametrize("p", [2, 3])
    def test_asymmetric_s_is_decided_by_its_lower_triangle(self, p):
        # the positive definite and indefinite stacks with their upper
        # triangles replaced by N(0, 3^2) draws, so that the upper triangle
        # alone, or the symmetric part, would decide otherwise for some
        rng = np.random.default_rng([20261021, p, 99])
        s_stack = np.concatenate([self.stack("positive definite", p), self.stack("indefinite", p)])
        upper = np.triu(np.ones((p, p), dtype=bool), 1)
        s_stack[:, upper] = 3.0 * rng.standard_normal((100, upper.sum()))
        want = [cholesky_accepts(s) for s in s_stack]
        for s, accepted in zip(s_stack, want):
            if accepted:
                update_with_s(s[np.newaxis])
            else:
                with pytest.raises(NumericError, match="^innovation covariance is not positive"):
                    update_with_s(s[np.newaxis])
        assert want == [True] * 50 + [False] * 50

    @pytest.mark.parametrize(
        "r", [[[1.0, 5.0], [-5.0, -1.0]], [[0.0, 0.0], [1.9, 0.0]], [[1.0, np.nan], [0.0, 1.0]]]
    )
    def test_asymmetric_r_refused_as_by_cholesky(self, r):
        # P = I, H = I: S = I + R; the first S, [[2, 5], [-5, 0]], has
        # positive elimination pivots 2 and 12.5 but an indefinite lower
        # triangle; the second's symmetric part is positive definite; the
        # third is not finite in its upper triangle only
        with pytest.raises(NumericError, match="^innovation covariance is not positive definite"):
            kf_correct(
                GaussianBelief(np.zeros(2), np.eye(2)),
                np.zeros(2),
                LinearModel(np.eye(2), np.eye(2), np.zeros((2, 2)), np.array(r)),
            )

    def test_names_the_first_failing_trial(self):
        s_stack = np.stack([np.eye(2) * (1.0 + m) for m in range(8)])
        s_stack[3] = np.diag([1.0, -1.0])
        s_stack[6, 0, 1] = s_stack[6, 1, 0] = np.nan
        with pytest.raises(NumericError, match=r" in trial 1003 at time index 4$"):
            update_with_s(s_stack, k=4, trial_start=1000)
        s_stack[3] = np.eye(2)
        with pytest.raises(NumericError, match=r" in trial 1006 at time index 4$"):
            update_with_s(s_stack, k=4, trial_start=1000)
        with pytest.raises(NumericError, match=r"^innovation covariance is not positive definite at time index 4$"):
            update_with_s(s_stack, k=4)

def tank_nodes(cfg, m):
    """m distinct frequencies and priors of the linear and augmented tank:
    (theta (m, 1), linear means (m, 2) and covariances (m, 2, 2), augmented
    means (m, 3) and covariances (m, 3, 3))."""
    rng = np.random.default_rng(20261019)
    theta = cfg.theta * (1.0 + 0.02 * np.linspace(-1.0, 1.0, m))[:, np.newaxis]
    x = np.array([cfg.L0, cfg.xs]) + rng.standard_normal((m, 2)) * [0.5, 1e-3]
    P = np.array([np.diag([v, cfg.tau**2 * (1.0 + v)]) for v in np.linspace(0.0, 0.5, m)])
    xa = np.column_stack([x, theta])
    Pa = np.zeros((m, 3, 3))
    Pa[:, :2, :2] = P
    Pa[:, 2, 2] = cfg.u_theta**2 * np.linspace(0.5, 2.0, m)
    return theta, x, P, xa, Pa


def order_sensitive_filter(rng, n, p, flavour, nonlinear):
    """A one-node filter problem, (model, prior, record of 6 steps), whose
    sums depend on their order and whose signed zeros count: states
    correlated at 1e16 that F and H difference ("cancel"), -0.0 in the
    prior, Q, F and H and zero rows ("zeros"), a state whose variance and
    noise are subnormal ("subnormal"), or values near sqrt(max float)
    ("huge").  The nonlinear model has the linear one's f and h and a state
    Jacobian that moves with x, a (1, n, n) stack for a (1, n) state."""
    F, H = rng.standard_normal((n, n)), rng.standard_normal((p, n))
    Q, R = 1e-2 * rand_psd(rng, n), rand_pd(rng, p)
    x, P, ys = rng.standard_normal(n), rand_pd(rng, n, 1e-3), rng.standard_normal((6, p))
    i = rng.integers(n)
    if flavour == "cancel":
        v = rng.choice([-1.0, 1.0], n)
        P = P + 1e16 * np.outer(v, v)
        F[0] -= (F[0] @ v) / n * v
        H[0] -= (H[0] @ v) / n * v
    elif flavour == "zeros":
        signs = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        P[i, :], P[:, i], x[i] = signs, signs, -0.0
        Q = np.where(np.eye(n, dtype=bool), Q, -0.0)
        Q[i, :] = Q[:, i] = -0.0
        F[np.abs(F) < 0.5], H[np.abs(H) < 0.5] = -0.0, -0.0
        F[rng.integers(n)] = rng.choice([-0.0, 0.0])
    elif flavour == "subnormal":
        d = np.ones(n)
        d[i] = 1e-155
        P, Q = P * np.outer(d, d), Q * np.outer(d, d)
    else:
        d = np.ones(n)
        d[i] = 1e77
        P, x, ys = P * np.outer(d, d), x * 1e153, ys * 1e153
    lin = LinearModel(F, H, Q, R)
    if not nonlinear:
        return lin, GaussianBelief(x, P), ys
    scale = rng.standard_normal(n)

    def state_jacobian(z, th, k):
        return F * (1.0 + scale * np.tanh(z))[..., np.newaxis, :]

    model = NonlinearModel(
        lin.f, lin.h, Q, R, state_jacobian=state_jacobian, obs_jacobian=lambda z, th, k: H
    )
    return model, GaussianBelief(x, P), ys


def outcome(run):
    """run()'s (means, covs) as bytes, so signed zeros count, or the type and
    message of the exception it raises."""
    try:
        means, covs = run()
    except Exception as exc:
        return type(exc), str(exc)
    return np.asarray(means).tobytes(), np.asarray(covs).tobytes()


class TestScan:
    """`_scan`, the filters' loop over a record on (n, M) stacks."""

    @pytest.mark.parametrize("tank", ["linear", "augmented"])
    def test_nodes_are_independent_scans_bit_for_bit(self, tank):
        # 300 steps cross a gate block; every node is its own one-node scan
        cfg, m = TankConfig(n_steps=300), 8
        ys = simulate(cfg, RngStreamPlan(5)).measurements
        theta, x, P, xa, Pa = tank_nodes(cfg, m)
        if tank == "linear":
            model, step, thetas = linear_model(cfg), "kf", list(theta)
        else:
            model, step, x, P, thetas = augmented_model(cfg)[0].model, "ekf", xa, Pa, [None] * m
            theta = None
        means, covs = _scan(ys, model, x, P, theta, step)
        assert means.shape == (cfg.n_steps + 1, m, x.shape[1])
        for j in range(m):
            one_means, one_covs = _scan(ys, model, x[j : j + 1], P[j : j + 1], thetas[j], step)
            np.testing.assert_array_equal(means[:, j], one_means[:, 0])
            np.testing.assert_array_equal(covs[:, j], one_covs[:, 0])

    @pytest.mark.parametrize("seed", [1, 2, 42])
    @pytest.mark.parametrize("tank", ["linear", "augmented"])
    def test_one_node_is_the_one_step_loop_bit_for_bit(self, tank, seed):
        cfg = TankConfig(n_steps=300)
        ys = simulate(cfg, RngStreamPlan(seed)).measurements
        if tank == "linear":
            model, belief, theta = linear_model(cfg), state_prior(cfg), np.array([cfg.theta])
            predict, correct, step = kf_predict, kf_correct, "kf"
        else:
            (aug, belief), theta = augmented_model(cfg), None
            model, predict, correct, step = aug.model, ekf_predict, ekf_correct, "ekf"
        means, covs = _scan(ys, model, belief.mean[np.newaxis], belief.cov[np.newaxis], theta, step)
        np.testing.assert_array_equal(means[0, 0], belief.mean)
        np.testing.assert_array_equal(covs[0, 0], belief.cov)
        for k in range(1, cfg.n_steps + 1):
            predicted = predict(belief, model, theta=theta, k=k)
            belief = correct(predicted, ys[k - 1 : k], model, theta=theta, k=k).corrected
            np.testing.assert_array_equal(means[k, 0], belief.mean)
            np.testing.assert_array_equal(covs[k, 0], belief.cov)

    @pytest.mark.parametrize("flavour", ["cancel", "zeros", "subnormal", "huge"])
    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_one_node_is_the_one_step_loop_on_order_sensitive_sums(self, flavour, nonlinear):
        # n = 1..4 and p = 1 (the scan's float step) and p = 2 (its stack step)
        rng = np.random.default_rng([20261022, nonlinear, len(flavour)])
        predict, correct, step = (ekf_predict, ekf_correct, "ekf") if nonlinear else (
            kf_predict, kf_correct, "kf")
        finished = 0
        for n in range(1, 5):
            for p in (1, 2):
                for _ in range(6):
                    model, prior, ys = order_sensitive_filter(rng, n, p, flavour, nonlinear)

                    def loop():
                        beliefs = [prior]
                        for k in range(1, ys.shape[0] + 1):
                            predicted = predict(beliefs[-1], model, k=k)
                            beliefs.append(correct(predicted, ys[k - 1], model, k=k).corrected)
                        return [b.mean for b in beliefs], [b.cov for b in beliefs]

                    def scan():
                        means, covs = _scan(
                            ys, model, prior.mean[np.newaxis], prior.cov[np.newaxis], None, step
                        )
                        return means[:, 0], covs[:, 0]

                    expected = outcome(loop)
                    assert outcome(scan) == expected, (n, p)
                    finished += isinstance(expected[0], bytes)
        assert finished >= 8

    def test_failure_named_in_a_later_gate_slice(self):
        # belief 1499 in gate order, predicted k=3 of node 299, is in the third
        # slice; the amplitude keeps its prior variance, 2 - 1 passes, 0.5 - 1 fails
        q = lambda k: np.diag([0.0, -1.0]) if k == 3 else np.zeros((2, 2))
        model = LinearModel(np.eye(2), np.array([[1.0, 0.0]]), q, np.eye(1))
        x, P = np.zeros((300, 2)), np.array([np.diag([1.0, 2.0])] * 299 + [np.diag([1.0, 0.5])])
        with pytest.raises(NumericError, match=r"\(kf_predict of node 299 at k=3\)$"):
            _scan(np.zeros(5), model, x, P, None, "kf")

    def test_failing_record_stops_within_one_gate_block(self):
        # predicted k=3 fails the gate; a full gate block, 256 steps of one
        # filter, is gated as soon as it is stored, not at the record's end
        calls = []

        def q(k):
            calls.append(k)
            return np.diag([0.0, -1.0]) if k == 3 else np.zeros((2, 2))

        model = LinearModel(np.eye(2), np.array([1.0, 0.0]), q, 1.0)
        x, P = np.zeros((1, 2)), np.diag([1.0, 0.5])[np.newaxis]
        message = r"^covariance is not positive semidefinite \(kf_predict at k=3\)$"
        with pytest.raises(NumericError, match=message):
            _scan(np.zeros(10_000), model, x, P, None, "kf")
        assert len(calls) <= 256

    def test_gate_buffers_shrink_with_the_nodes(self):
        # 2000 nodes store both halves of 6 rows, 6 * 2 * 2000 * (2 + 4) doubles,
        # 1.1 MiB, and gate 512 beliefs at a time: a gate holding 256 steps of
        # every node would hold 2 * 256 * 2000 * (2 + 4) doubles, 47 MiB
        cfg, m = TankConfig(n_steps=5), 2000
        ys = simulate(cfg, RngStreamPlan(5)).measurements
        theta, x, P, _, _ = tank_nodes(cfg, m)
        model = linear_model(cfg)
        tracemalloc.start()
        try:
            _scan(ys, model, x, P, theta, "kf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

