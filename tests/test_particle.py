"""Sequential-importance-resampling particle filter."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from gumkf import (
    GaussianBelief,
    LinearModel,
    NonlinearModel,
    NumericError,
    ParticleSet,
    RngStreamPlan,
    TankConfig,
    augmented_model,
    kf_correct,
    kf_predict,
    marginal_histogram,
    pf_ess,
    pf_propagate,
    pf_resample,
    pf_run,
    pf_weight,
    weighted_moments,
)
from gumkf import particle

from conftest import rel_err


def identity_model(n=1, q=0.0, r=1.0):
    return LinearModel(
        state_matrix=np.eye(n),
        obs_matrix=np.eye(n),
        process_noise=q * np.eye(n),
        obs_noise=r * np.eye(n),
    )


def uniform_particles(states, k=0):
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n = states.shape[0]
    return ParticleSet(states, np.full(n, 1.0 / n), k)


class TestParticleSet:
    def test_negative_weight_rejected(self):
        with pytest.raises(NumericError):
            ParticleSet(np.zeros((2, 1)), np.array([1.5, -0.5]), 0)

    def test_non_finite_state_named(self):
        states = np.array([[0.0], [np.inf]])
        with pytest.raises(NumericError, match="particle 1"):
            ParticleSet(states, np.array([0.5, 0.5]), 0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(NumericError):
            ParticleSet(np.zeros((3, 1)), np.array([0.5, 0.5]), 0)

    def test_derived_set_takes_gated_states(self):
        # pf_weight and resampling derive sets from gated states, whose
        # state gate they skip, with weights valid by construction
        base = uniform_particles(np.zeros((2, 1)))
        derived = base._derived(base.states, np.array([0.25, 0.75]), 1)
        assert derived.states is base.states and derived.k == 1


class TestPfPropagate:
    def test_zero_noise_pushforward(self):
        model = LinearModel(
            state_matrix=np.array([[2.0]]),
            obs_matrix=np.array([[1.0]]),
            process_noise=np.array([[0.0]]),
            obs_noise=np.array([[1.0]]),
        )
        p = uniform_particles([[1.0], [3.0]])
        out = pf_propagate(p, model, RngStreamPlan(1), 1)
        np.testing.assert_array_equal(out.states, [[2.0], [6.0]])
        np.testing.assert_array_equal(out.weights, p.weights)

    def test_identity_unit_noise_increment_covariance(self):
        model = identity_model(n=2, q=1.0)
        states = np.zeros((100_000, 2))
        out = pf_propagate(uniform_particles(states), model, RngStreamPlan(3), 1)
        emp = np.cov(out.states.T)
        np.testing.assert_allclose(emp, np.eye(2), atol=0.02)

    def test_tank_theta_moves_only_by_drift_noise(self):
        cfg = TankConfig()
        aug, belief0 = augmented_model(cfg)
        states = np.tile(belief0.mean, (500, 1))
        out = pf_propagate(uniform_particles(states), aug.model, RngStreamPlan(9), 1)
        dtheta = out.states[:, 2] - cfg.theta
        assert np.all(np.abs(dtheta) < 10 * cfg.alpha)
        assert np.std(dtheta) == pytest.approx(cfg.alpha, rel=0.2)

    def test_indefinite_process_noise_names_step_and_time_index(self):
        model = LinearModel(np.eye(2), np.eye(2), np.diag([1.0, -1.0]), np.eye(2))
        match = r"^covariance is not positive semidefinite \(pf_propagate at k=2\)$"
        with pytest.raises(NumericError, match=match):
            pf_propagate(uniform_particles(np.zeros((4, 2))), model, RngStreamPlan(1), 2)

    def test_non_finite_process_noise_named(self):
        # the draw's gate, not the particle gate after it, refuses the inf
        model = LinearModel(np.eye(1), np.eye(1), np.array([[np.inf]]), np.eye(1))
        with pytest.raises(NumericError, match=r"^covariance is not finite \(pf_propagate at k=3\)$"):
            pf_propagate(uniform_particles(np.zeros((4, 1))), model, RngStreamPlan(1), 3)


class TestPfWeight:
    def test_identical_states_uniform(self):
        p = uniform_particles(np.ones((5, 1)))
        out = pf_weight(p, [0.3], identity_model(), 1)
        np.testing.assert_allclose(out.weights, 0.2, atol=1e-15)

    def test_hand_evaluated_ratio(self):
        p = uniform_particles([[0.0], [1.0]])
        out = pf_weight(p, [0.0], identity_model(), 1)
        expect = np.array([1.0, np.exp(-0.5)])
        expect /= expect.sum()
        np.testing.assert_allclose(out.weights, expect, rtol=1e-12)
        assert out.weights[0] == pytest.approx(0.6225, abs=5e-5)

    def test_translation_invariance(self):
        p = uniform_particles([[0.0], [1.0], [-2.0]])
        a = pf_weight(p, [0.4], identity_model(), 1)
        shifted = uniform_particles(p.states + 7.0)
        b = pf_weight(shifted, [7.4], identity_model(), 1)
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12)

    def test_total_underflow_raises(self):
        p = uniform_particles([[1e200], [2e200]])
        with pytest.raises(NumericError, match="vanished"):
            pf_weight(p, [0.0], identity_model(), 1)

    # a singular and an indefinite observation noise covariance
    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_bad_obs_noise_names_step_and_time_index(self, r):
        p = uniform_particles([[0.0], [1.0]])
        match = r"^observation noise covariance is not positive definite \(pf_weight at k=3\)$"
        with pytest.raises(NumericError, match=match):
            pf_weight(p, [0.0], identity_model(r=r), 3)

    def test_two_dimensional_likelihood_matches_scipy(self, rng):
        R = np.array([[0.8, 0.3], [0.3, 0.5]])
        model = LinearModel(np.eye(2), np.array([[1.0, 0.4], [-0.7, 1.2]]), np.eye(2), R)
        states = rng.standard_normal((500, 2))
        w0 = rng.random(500)
        w0 /= w0.sum()
        y = np.array([0.3, -0.2])
        out = pf_weight(ParticleSet(states, w0, 4), y, model, 4)
        log_pdf = multivariate_normal(y, R).logpdf(model.h(states, None, 4))
        expect = w0 * np.exp(log_pdf - log_pdf.max())
        np.testing.assert_allclose(out.weights, expect / expect.sum(), rtol=1e-12)


class TestModelFaultsNamed:
    """pf_propagate and pf_weight each run in one error scope, so a model
    callable that overflows or returns a non-finite value ends in a
    NumericError naming the particle and k, not in a warning."""

    @staticmethod
    def model(f=None, h=None):
        return NonlinearModel(
            lambda x, th, k: x if f is None else f(x, k),
            lambda x, th, k: x[..., :1] if h is None else h(x, k),
            0.01 * np.eye(2),
            np.eye(1),
        )

    @staticmethod
    def overflowing(x, k):
        return np.full_like(x, 1e200) * 1e200 if k == 3 else x

    @staticmethod
    def bad_at_particle_7(value):
        def h(x, k):
            out = x[..., :1].copy()
            if k == 3:
                out[7] = value
            return out

        return h

    EXPECTED = {
        "propagate": r"^non-finite state in particle 0 at k=3$",
        "weight": r"^non-finite predicted observation in particle 0 \(pf_weight at k=3\)$",
    }

    @pytest.mark.parametrize("half", EXPECTED)
    def test_model_overflow_named_not_warned(self, half):
        expected = self.EXPECTED[half]
        if half == "propagate":
            model = self.model(f=self.overflowing)
        else:
            model = self.model(h=lambda x, k: self.overflowing(x[..., :1], k))
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        p = uniform_particles(np.ones((10, 2)), k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=expected):
                pf_run(np.zeros(10), model, prior, 10, 0.5, RngStreamPlan(3))
            with pytest.raises(NumericError, match=expected):
                if half == "propagate":
                    pf_propagate(p, model, RngStreamPlan(3), 3)
                else:
                    pf_weight(p, [0.0], model, 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_observation_named(self, value):
        model = self.model(h=self.bad_at_particle_7(value))
        p = uniform_particles(np.arange(20.0).reshape(10, 2), k=2)
        expected = r"^non-finite predicted observation in particle 7 \(pf_weight at k=3\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=expected):
                pf_weight(p, [0.0], model, 3)
            prior = GaussianBelief(np.zeros(2), np.eye(2))
            with pytest.raises(NumericError, match=expected):
                pf_run(np.zeros(10), model, prior, 10, 0.5, RngStreamPlan(3))


# a particle is alive (positive prior weight, squared residual finite) or dead
# (zero prior weight, or a residual whose square overflows to a -inf
# log-likelihood); alive residuals span log-likelihoods up to 1e300 apart
_ALIVE = st.tuples(st.floats(1e-300, 1.0), st.floats(-1e150, 1e150))
_DEAD = st.one_of(
    st.tuples(st.just(0.0), st.floats(-1e150, 1e150)),
    st.tuples(st.floats(1e-300, 1.0), st.sampled_from([-1e200, 1e200])),
)


class TestPfWeightProperty:
    @given(st.lists(st.one_of(_ALIVE, _DEAD), min_size=2, max_size=40))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_weights_valid_by_construction(self, particles):
        w0, x = (np.array(column) for column in zip(*particles))
        p = ParticleSet(x[:, np.newaxis], w0 / w0.sum() if w0.any() else w0, 1)
        alive = (w0 > 0) & (np.abs(x) <= 1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not alive.any():
                with pytest.raises(NumericError, match="all particle weights vanished at k=1"):
                    pf_weight(p, [0.0], identity_model(), 1)
                return
            w = pf_weight(p, [0.0], identity_model(), 1).weights
        assert np.all(np.isfinite(w)) and np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w[~alive] == 0)


class TestPfEss:
    def test_uniform(self):
        assert pf_ess(uniform_particles(np.zeros((100, 1)))) == pytest.approx(100.0)

    def test_degenerate(self):
        p = ParticleSet(np.zeros((4, 1)), np.array([1.0, 0.0, 0.0, 0.0]), 0)
        assert pf_ess(p) == pytest.approx(1.0)

    def test_half_half(self):
        p = ParticleSet(np.zeros((4, 1)), np.array([0.5, 0.5, 0.0, 0.0]), 0)
        assert pf_ess(p) == pytest.approx(2.0)

    def test_unnormalized_rejected(self):
        p = ParticleSet(np.zeros((2, 1)), np.array([0.5, 0.2]), 0)
        with pytest.raises(ValueError):
            pf_ess(p)


class TestPfResample:
    def test_uniform_untouched(self):
        p = uniform_particles(np.arange(10.0)[:, None])
        out = pf_resample(p, 0.9, RngStreamPlan(1))
        assert out is p

    def test_degenerate_collapses_to_survivor(self):
        states = np.arange(5.0)[:, None]
        p = ParticleSet(states, np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 3)
        out = pf_resample(p, 0.9, RngStreamPlan(1))
        np.testing.assert_array_equal(out.states, np.full((5, 1), 2.0))
        np.testing.assert_allclose(out.weights, 0.2)

    def test_invalid_gamma_rejected(self):
        p = uniform_particles(np.zeros((4, 1)))
        with pytest.raises(ValueError):
            pf_resample(p, 0.0, RngStreamPlan(1))

    def test_unbiased_in_expectation(self):
        rng = np.random.default_rng(11)
        states = rng.standard_normal((50, 1))
        w = rng.random(50)
        w /= w.sum()
        target = w @ states[:, 0]
        means = []
        for rep in range(1000):
            p = ParticleSet(states, w, rep)  # fresh k selects a fresh substream
            out = pf_resample(p, 1.0, RngStreamPlan(17))
            means.append(out.states[:, 0].mean())
        means = np.asarray(means)
        stderr = means.std(ddof=1) / np.sqrt(len(means))
        assert abs(means.mean() - target) < 3 * stderr


class TestMultinomialAddressing:
    """Particle i's ancestor is searchsorted(cum, u[i], side="right") over the
    cumulative weights with cum[-1] = 1 and the pf/resample uniforms u."""

    N = 1000
    K = 6

    def _check(self, weights, seed=5):
        states = np.column_stack([np.arange(self.N, dtype=float), -np.arange(self.N, dtype=float)])
        plan = RngStreamPlan(seed)
        out = pf_resample(ParticleSet(states, weights, self.K), 1.0, plan)
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        u = plan.uniform_rows(self.K, "pf/resample", 0, self.N)
        np.testing.assert_array_equal(out.states, states[np.searchsorted(cum, u, side="right")])
        assert np.all(weights[out.states[:, 0].astype(int)] > 0)  # no zero-weight ancestor
        return out

    def test_random_weights(self, rng):
        w = rng.random(self.N)
        self._check(w / w.sum())

    def test_skewed_weights(self, rng):
        w = rng.random(self.N) ** 8
        self._check(w / w.sum())

    def test_degenerate_weights(self):
        w = np.zeros(self.N)
        w[417] = 1.0
        out = self._check(w)
        np.testing.assert_array_equal(out.states[:, 0], 417.0)

    def test_cumulative_sums_equal_to_uniforms_resolve_right(self):
        u = RngStreamPlan(5).uniform_rows(self.K, "pf/resample", 0, self.N)
        # two drawn uniforms within a factor of two, so cum = a, then a + (b - a) = b
        # exactly (Sterbenz); zero weights between them repeat each cumulative sum
        a, b = np.sort(u[(u > 0.3) & (u < 0.6)])[[0, -1]]
        w = np.zeros(self.N)
        w[[100, 400, self.N - 1]] = a, b - a, 1.0 - b
        cum = np.cumsum(w)
        assert cum[150] == a and cum[500] == b  # the lookups of a and b are ties
        out = self._check(w)
        ancestors = out.states[:, 0]
        assert np.all(ancestors[u == a] == 400) and np.all(ancestors[u == b] == self.N - 1)


class TestWeightedMoments:
    def test_matches_dense_formula(self, rng):
        states = rng.standard_normal((200, 2))
        w = rng.random(200)
        w /= w.sum()
        mean, cov = weighted_moments(states, w)
        np.testing.assert_allclose(mean, w @ states, rtol=1e-12)
        dev = states - mean
        np.testing.assert_allclose(cov, (w[:, None] * dev).T @ dev, rtol=1e-10)

    def test_matches_longdouble_two_pass_at_tank_offset(self, rng):
        # the tank's level: mean 100, spread 1e-2, and correlated coordinates
        mix = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [-0.3, 0.5, 0.7]])
        states = 100.0 + 1e-2 * rng.standard_normal((10_000, 3)) @ mix.T
        w = rng.random(10_000) ** 8
        w /= w.sum()
        mean, cov = weighted_moments(states, w)
        assert np.array_equal(mean, np.add.reduce(w * np.ascontiguousarray(states.T), axis=1))
        assert np.array_equal(cov, cov.T)
        wl, xl = w.astype(np.longdouble), states.astype(np.longdouble)
        ref_mean = wl @ xl
        dev = xl - ref_mean
        ref_cov = (wl[:, None] * dev).T @ dev
        assert rel_err(mean, ref_mean.astype(float)) < 1e-10
        assert rel_err(cov, ref_cov.astype(float)) < 1e-10

    def test_memory_order_does_not_change_a_bit(self, rng):
        # the particle states are the (N, n) view of a C (n, N) stack, and
        # pdf-marginal passes one strided (N, 1) column of a C record
        states = rng.standard_normal((10_000, 3))
        w = rng.random(10_000)
        w /= w.sum()
        f_ordered = np.asfortranarray(states)
        assert f_ordered.flags.f_contiguous and not f_ordered.flags.c_contiguous
        stack_view = np.ascontiguousarray(states.T).T
        assert not stack_view.flags.c_contiguous
        column = states[:, 2:3]
        assert not column.flags.c_contiguous and not column.flags.f_contiguous
        for layout, c_copy in (
            (f_ordered, states),
            (stack_view, states),
            (column, np.ascontiguousarray(column)),
        ):
            for got, want in zip(weighted_moments(layout, w), weighted_moments(c_copy, w)):
                assert got.tobytes() == want.tobytes()


class TestMarginalHistogram:
    def test_density_integrates_to_one(self, rng):
        samples = rng.standard_normal(5000)
        w = np.full(5000, 1.0 / 5000)
        edges, density = marginal_histogram(samples, w)
        widths = np.diff(edges)
        assert density @ widths == pytest.approx(1.0, rel=1e-9)


class TestPfRun:
    def _linear_instance(self):
        F = np.array([[0.9, 0.1], [0.0, 0.95]])
        C = np.array([[1.0, 0.0]])
        Q = np.diag([0.02, 0.05])
        R = np.array([[0.5]])
        model = LinearModel(F, C, Q, R)
        prior = GaussianBelief(np.zeros(2), np.eye(2))
        rng = np.random.default_rng(7)
        x = rng.multivariate_normal(np.zeros(2), np.eye(2))
        ys = []
        for _ in range(40):
            x = F @ x + rng.multivariate_normal(np.zeros(2), Q)
            ys.append(C @ x + rng.multivariate_normal(np.zeros(1), R))
        return model, prior, np.array(ys)

    def _kf_posterior(self, model, prior, ys):
        bel = prior
        for k in range(1, ys.shape[0] + 1):
            bel = kf_correct(kf_predict(bel, model, k=k), ys[k - 1], model, k=k).corrected
        return bel

    def test_linear_gaussian_consistency(self):
        model, prior, ys = self._linear_instance()
        bel = self._kf_posterior(model, prior, ys)
        res = pf_run(ys, model, prior, 10_000, 0.9, RngStreamPlan(42))
        sig = np.sqrt(np.diag(bel.cov))
        assert np.all(np.abs(res.means[-1] - bel.mean) <= 3 * sig / np.sqrt(10_000) * 3)
        assert np.all(res.ess >= 1.0)
        assert np.all(res.ess <= 10_000 + 1e-6)

    def test_gamma_one_resamples_every_step(self):
        model, prior, ys = self._linear_instance()
        res = pf_run(ys[:10], model, prior, 2000, 1.0, RngStreamPlan(42))
        assert res.resampled[1:].all()
        bel = self._kf_posterior(model, prior, ys[:10])
        sig = np.sqrt(np.diag(bel.cov))
        assert np.all(np.abs(res.means[-1] - bel.mean) <= 5 * sig / np.sqrt(2000) * 3)

    def test_ess_computed_once_per_weight_set(self, monkeypatch):
        # once for the prior, once per weighted set, once per resampled set
        calls = []

        def counting_ess(particles):
            calls.append(particles.k)
            return pf_ess(particles)

        monkeypatch.setattr(particle, "pf_ess", counting_ess)
        model, prior, ys = self._linear_instance()
        res = pf_run(ys[:20], model, prior, 500, 0.9, RngStreamPlan(3))
        assert 0 < res.resampled.sum() < 20
        assert len(calls) == 1 + 20 + res.resampled.sum()

    def test_reproducible(self):
        model, prior, ys = self._linear_instance()
        a = pf_run(ys[:5], model, prior, 500, 0.9, RngStreamPlan(3))
        b = pf_run(ys[:5], model, prior, 500, 0.9, RngStreamPlan(3))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.resampled, b.resampled)

    def test_record_snapshots(self):
        model, prior, ys = self._linear_instance()
        res = pf_run(ys[:5], model, prior, 300, 0.9, RngStreamPlan(3), record_at=(0, 5))
        assert set(res.records) == {0, 5}
        states, weights = res.records[5]
        assert states.shape == (300, 2)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_too_few_particles_rejected(self):
        model, prior, ys = self._linear_instance()
        with pytest.raises(ValueError):
            pf_run(ys[:2], model, prior, 1, 0.9, RngStreamPlan(3))

    def test_empty_measurement_record_rejected(self):
        # as mc_sequential does; a one-row result would hold the prior only
        model, prior, _ = self._linear_instance()
        with pytest.raises(NumericError, match="need at least one measurement"):
            pf_run(np.zeros(0), model, prior, 10, 0.9, RngStreamPlan(3))
