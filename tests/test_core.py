"""Covariance utilities, domain value objects, and the random-stream plan."""

import itertools

import numpy as np
import pytest
from numpy.random import SeedSequence
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

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
    augmented_model,
    finite_difference_jacobian,
    frequency_knowledge,
    linear_model,
    mc_batch,
    mc_sequential,
    pf_run,
    psd_sqrt,
    simulate,
    state_prior,
    symmetrize,
)
from gumkf.cli import run as cli_run
from gumkf.kalman import _scan
from gumkf.watertank import SCENARIOS

from gumkf import core, gum_mc, particle
from gumkf.core import (
    _affine,
    _label_id,
    _mm,
    _mv,
    _pivots_positive,
    _require_beliefs,
    _soa,
    _stream_keys,
    _t,
    require_psd,
)

from conftest import rand_pd, rand_psd

SEEDS = [0, 42, 2**32, 2**64 - 1]


class TestSymmetrize:
    def test_identity_fixed_point(self):
        np.testing.assert_array_equal(symmetrize(np.eye(2)), np.eye(2))

    def test_forced_arithmetic(self):
        out = symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(out, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            symmetrize(np.zeros((2, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_result_symmetric_and_residual_antisymmetric(self, seed):
        a = np.random.default_rng(seed).standard_normal((3, 3))
        r = symmetrize(a)
        np.testing.assert_array_equal(r, r.T)
        np.testing.assert_allclose(r - a, (a.T - a) / 2.0, atol=1e-15)


BIG = np.finfo(float).max


class TestOverflowSafeSymmetricPart:
    """symmetrize is A / 2 + A' / 2, for a matrix or an (N, d, d) stack, and
    the gates that symmetrize call it, so a finite covariance never
    overflows there (a RuntimeWarning is an error in this suite)."""

    @pytest.mark.parametrize(
        "cov", [np.diag([0.0, BIG]), np.array([[BIG]])], ids=["diag(0, max)", "[[max]]"]
    )
    def test_largest_finite_variance_passes_every_gate(self, cov):
        np.testing.assert_array_equal(symmetrize(cov), cov)
        assert assert_psd(cov) is True
        factor = psd_sqrt(cov)
        assert np.isfinite(factor).all()
        np.testing.assert_allclose(factor @ factor.T, cov, rtol=1e-15, atol=0.0)
        belief = GaussianBelief(np.zeros(cov.shape[0]), cov)
        np.testing.assert_array_equal(belief.cov, cov)
        _require_beliefs(np.zeros((2,) + cov.shape[:1]), np.stack([cov, cov]), str)

    def test_stack_equals_each_matrix(self, rng):
        scales = np.array([1.0, 1e-300, 1e300, BIG, 1e-310, 3.0])[:, np.newaxis, np.newaxis]
        stack = rng.uniform(-1.0, 1.0, (6, 3, 3)) * scales
        out = symmetrize(stack)
        assert out.shape == stack.shape and np.isfinite(out).all()
        assert out.tobytes() == np.stack([symmetrize(a) for a in stack]).tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_bits_as_the_sum_halved(self, seed):
        # halving first is exact wherever (A + A') / 2 neither overflows nor underflows
        a = np.random.default_rng(seed).standard_normal((4, 4))
        assert symmetrize(a).tobytes() == ((a + a.T) / 2.0).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3), (2, 2, 2, 2)])
    def test_not_a_matrix_or_stack_raises(self, shape):
        with pytest.raises(DimensionError):
            symmetrize(np.zeros(shape))

    @pytest.mark.parametrize(
        "gate, message",
        [
            (lambda a: GaussianBelief(np.zeros(2), a), r"asymmetric beyond 1e-12 relative"),
            (psd_sqrt, "matrix is asymmetric beyond tolerance"),
            (assert_psd, "matrix is asymmetric beyond tolerance"),
        ],
        ids=["GaussianBelief", "psd_sqrt", "assert_psd"],
    )
    def test_asymmetry_that_overflows_the_difference_raises(self, gate, message):
        # max - (-max) overflows to inf, which still exceeds the tolerance
        with pytest.raises(DimensionError, match=message):
            gate(np.array([[1.0, BIG], [-BIG, 1.0]]))


class TestAssertPsd:
    def test_identity_true(self):
        assert assert_psd(np.eye(3)) is True

    def test_negative_eigenvalue_false(self):
        assert assert_psd(np.diag([1.0, -1.0]), tol=1e-10) is False

    def test_hand_eigenvalues(self):
        # eigenvalues 1 and 3
        assert assert_psd(np.array([[2.0, 1.0], [1.0, 2.0]])) is True

    def test_asymmetric_raises(self):
        with pytest.raises(DimensionError):
            assert_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestPsdSqrt:
    def test_reconstructs(self, rng):
        cov = rand_psd(rng, 4)
        l_fac = psd_sqrt(cov)
        np.testing.assert_allclose(l_fac @ l_fac.T, cov, atol=1e-12)

    def test_handles_zero_rows(self):
        cov = np.diag([0.0, 0.25])
        l_fac = psd_sqrt(cov)
        np.testing.assert_allclose(l_fac @ l_fac.T, cov, atol=1e-15)

    def test_gates_like_require_psd(self):
        # require_psd's gate runs before the factor: no clamped indefinite cov
        with pytest.raises(NumericError, match=r"not positive semidefinite \(psd_sqrt\)"):
            psd_sqrt(np.diag([1.0, -1.0]))
        with pytest.raises(DimensionError, match="asymmetric"):
            psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))
        psd_sqrt(np.diag([1.0, -1e-12]))  # within the 1e-10 relative tolerance
        # a non-finite cov is refused before its symmetry test, without a warning
        for cov in ([[np.inf]], np.diag([0.0, np.inf]), [[np.nan]]):
            with pytest.raises(NumericError, match=r"^covariance is not finite \(psd_sqrt\)$"):
                psd_sqrt(cov)
            assert assert_psd(cov) is False


class TestEmptyProduct:
    """_mm's ordered reduce is also the empty product (l = 0): the empty sum,
    -0.0, so _mv and the gated draws need no branch for a factor with no
    columns."""

    def test_mv_with_no_terms_is_negative_zero(self):
        out = _mv(np.zeros((3, 0, 5)), np.zeros((0, 5)))
        assert out.shape == (3, 5)
        assert out.tobytes() == np.full((3, 5), -0.0).tobytes()

    @pytest.mark.parametrize("mean_kind", ["prior", "zero"])
    def test_zero_process_noise_draws_the_mean(self, mean_kind):
        aug, belief = augmented_model(TankConfig(tau=0.0, alpha=0.0))
        q = aug.model.Q(1)
        assert q.shape == (3, 3) and not q.any()
        mean = belief.mean if mean_kind == "prior" else np.zeros(3)
        expected = np.tile(mean, (7, 1)).tobytes()
        plan = RngStreamPlan(3)
        rows = plan.mvn_rows(1, "t", 0, 7, mean, q)
        assert np.ascontiguousarray(rows).tobytes() == expected
        draws = _affine(mean, psd_sqrt(q), plan.normal_rows(1, "t", 0, 7, 3))
        assert np.ascontiguousarray(draws).tobytes() == expected


def gated_draw_case(seed, n, rank, zeros, mean_kind):
    """A PSD covariance of width n and rank at most `rank`, its rows and
    columns `zeros` set to zero, and a mean that is zero or nonzero (never
    -0.0, whose sign mvn_rows may not keep where a noise entry is 0)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, rank))
    cov = a @ a.T
    cov = (cov + cov.T) / 2.0
    cov[list(zeros), :] = 0.0
    cov[:, list(zeros)] = 0.0
    mean = np.zeros(n) if mean_kind == "zero" else rng.standard_normal(n)
    return mean, cov


class TestMvnRows:
    """RngStreamPlan.mvn_rows, the gated draw: psd_sqrt's factor cached per
    distinct covariance and kept to its nonzero columns, whose variates
    alone are drawn.  It equals _affine of psd_sqrt's whole factor over
    normal_rows bit for bit."""

    def test_zero_cov_returns_mean(self):
        mean = np.array([3.0, -1.0])
        out = RngStreamPlan(7).mvn_rows(0, "t", 0, 1, mean, np.zeros((2, 2)))
        np.testing.assert_array_equal(out, mean[np.newaxis])

    def test_scalar_moments(self):
        draws = RngStreamPlan(11).mvn_rows(0, "t", 0, 100_000, [0.0], [[1.0]])[:, 0]
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03

    def test_bivariate_covariance(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        draws = RngStreamPlan(13).mvn_rows(0, "t", 0, 100_000, np.zeros(2), cov)
        emp = np.cov(draws.T)
        np.testing.assert_allclose(emp, cov, atol=0.02)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            RngStreamPlan(1).mvn_rows(0, "t", 0, 1, np.zeros(2), np.eye(3))

    def test_non_psd_raises(self):
        with pytest.raises(NumericError):
            RngStreamPlan(1).mvn_rows(0, "t", 0, 1, np.zeros(2), np.diag([1.0, -1.0]))

    def test_c_ordered_rows(self):
        # the draws are the (M, n) view of a C (n, M) stack, as the block
        # from normal_rows is, with the values of L z + mean row by row
        plan = RngStreamPlan(2)
        z = plan.normal_rows(0, "t", 0, 5, 3)
        mean = np.array([1.0, -2.0, 0.5])
        cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]])
        draws = plan.mvn_rows(0, "t", 0, 5, mean, cov)
        assert z.T.flags["C_CONTIGUOUS"] and draws.T.flags["C_CONTIGUOUS"]
        factor = psd_sqrt(cov)
        expected = np.add(_mv(_soa(factor), z.T).T, mean, order="C")
        assert draws.tobytes() == expected.tobytes()

    def test_zero_dimensional_draw(self):
        draws = RngStreamPlan(1).mvn_rows(0, "t", 0, 4, np.zeros(0), np.zeros((0, 0)))
        assert draws.shape == (4, 0)

    def test_reproducible(self):
        a = RngStreamPlan(5).mvn_rows(9, "x", 3, 1, np.zeros(2), np.eye(2))
        b = RngStreamPlan(5).mvn_rows(9, "x", 3, 1, np.zeros(2), np.eye(2))
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def assert_matches_affine(seed, n, rank, zeros, mean_kind, k, start, trials):
        mean, cov = gated_draw_case(seed, n, rank, zeros, mean_kind)
        plan = RngStreamPlan(seed)
        draws = plan.mvn_rows(k, "lbl", start, trials, mean, cov)
        expected = _affine(mean, psd_sqrt(cov), plan.normal_rows(k, "lbl", start, trials, n))
        assert draws.shape == expected.shape == (trials, n)
        assert draws.T.flags["C_CONTIGUOUS"]
        assert np.ascontiguousarray(draws).tobytes() == np.ascontiguousarray(expected).tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5).flatmap(lambda n: st.tuples(
            st.just(n), st.integers(0, n), st.sets(st.integers(0, n - 1), max_size=n))),
        st.sampled_from(["zero", "nonzero"]),
        st.integers(0, 1000),
        st.integers(0, 50),
        st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_affine_of_normal_rows(self, seed, shape, mean_kind, k, start, trials):
        n, rank, zeros = shape
        self.assert_matches_affine(seed, n, rank, zeros, mean_kind, k, start, trials)

    @pytest.mark.parametrize(
        "seed, n, rank, zeros",
        [
            (11, 3, 3, {0}),  # the tank's Q = diag(0, tau^2, alpha^2) in shape
            (12, 4, 2, set()),  # rank deficient, no zero row
            (13, 5, 3, {1, 4}),
            (14, 2, 0, set()),  # the zero matrix
            (15, 1, 1, {0}),  # a zero 1 x 1 covariance
            (16, 5, 5, set()),  # full rank: every column used
        ],
    )
    @pytest.mark.parametrize("mean_kind", ["zero", "nonzero"])
    def test_seeded_cases_equal_affine_of_normal_rows(self, seed, n, rank, zeros, mean_kind):
        self.assert_matches_affine(seed, n, rank, zeros, mean_kind, 7, 13, 300)

    def test_zero_columns_are_not_drawn(self):
        # Q = diag(0, tau^2, alpha^2): the level's column of the factor is 0,
        # so only the variates of columns 1 and 2 are drawn
        cov = np.diag([0.0, 1e-4, 6.4e-9])
        factor, used = core._factor_columns(cov.tobytes(), cov.shape)
        assert used == (1, 2) and factor.shape == (3, 2)
        assert not factor.flags.writeable
        zero = np.zeros((3, 3))
        factor, used = core._factor_columns(zero.tobytes(), zero.shape)
        assert used == () and factor.shape == (3, 0)
        draws = RngStreamPlan(1).mvn_rows(0, "lbl", 0, 4, np.array([1.0, -2.0, 0.5]), zero)
        assert draws.tolist() == [[1.0, -2.0, 0.5]] * 4

    @given(
        st.integers(1, 5).flatmap(lambda w: st.tuples(
            st.just(w), st.lists(st.integers(0, w - 1), max_size=6))),
        st.integers(0, 30),
        st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_normal_rows_columns_select_the_full_block(self, width_columns, start, trials):
        width, columns = width_columns
        plan = RngStreamPlan(4242)
        block = plan.normal_rows(3, "lbl", start, trials, width, columns=columns)
        full = plan.normal_rows(3, "lbl", start, trials, width)
        assert block.shape == (trials, len(columns))
        assert block.T.flags["C_CONTIGUOUS"]
        expected = np.ascontiguousarray(full[:, columns])
        assert np.ascontiguousarray(block).tobytes() == expected.tobytes()

    def test_normal_quantiles(self):
        draws = RngStreamPlan(3).normal_rows(0, "q", 0, 100_000, 1)
        lo, hi = np.quantile(draws[:, 0], (0.025, 0.975))
        assert lo == pytest.approx(-1.96, abs=0.02)
        assert hi == pytest.approx(1.96, abs=0.02)

    @pytest.mark.parametrize("columns", [[3], [-1], [0, 5]])
    def test_columns_outside_the_width_refused(self, columns):
        with pytest.raises(DimensionError, match="outside width 3"):
            RngStreamPlan(1).normal_rows(0, "lbl", 0, 4, 3, columns=columns)

    def test_psd_sqrt_runs_once_per_distinct_covariance_over_a_pf_run(self, monkeypatch):
        factored = []

        def counted(cov):
            factored.append(np.asarray(cov).tobytes())
            return psd_sqrt(cov)

        core._factor_columns.cache_clear()
        monkeypatch.setattr(core, "psd_sqrt", counted)
        cfg = TankConfig(n_steps=30)
        aug, prior = augmented_model(cfg)
        ys = simulate(cfg, RngStreamPlan(42)).measurements
        pf_run(ys, aug.model, prior, 500, 0.9, RngStreamPlan(42))
        # the prior covariance once, the process noise Q once for 30 steps
        assert len(factored) == len(set(factored)) == 2

    def test_indefinite_noise_raises_on_every_call(self):
        model = LinearModel(np.eye(2), np.eye(2), np.diag([1.0, -1.0]), np.eye(2))
        particles = particle.ParticleSet(np.zeros((4, 2)), np.full(4, 0.25), 0)
        ens = gum_mc.McEnsemble(np.zeros((4, 2)), np.zeros((4, 0)), 0)
        covs = np.repeat(np.eye(2)[np.newaxis], 4, axis=0)
        message = r"^covariance is not positive semidefinite \({}\)$"
        for k in (2, 2, 5):
            with pytest.raises(NumericError, match=message.format(f"pf_propagate at k={k}")):
                particle.pf_propagate(particles, model, RngStreamPlan(1), k)
            with pytest.raises(NumericError, match=message.format(f"mc_step at k={k}")):
                gum_mc.mc_step(ens, np.zeros(2), model, covs, RngStreamPlan(1), k)
        for _ in range(2):
            with pytest.raises(NumericError, match=message.format("mvn_rows")):
                RngStreamPlan(1).mvn_rows(0, "lbl", 0, 4, np.zeros(2), np.diag([1.0, -1.0]))

    def test_shape_mismatch_refused(self):
        with pytest.raises(DimensionError, match="^mvn_rows: cov shape does not match mean$"):
            RngStreamPlan(1).mvn_rows(0, "lbl", 0, 4, np.zeros(2), np.eye(3))


class TestSamplingLayout:
    """The draws, the particle set and the Monte Carlo states are (M, n)
    views of (n, M) stacks.  No bit may depend on that: with normal_rows and
    the gated draw mvn_rows returning C-ordered (M, n) copies, the old
    layout, the particle filter and every Monte Carlo mode give the same
    bytes."""

    @staticmethod
    def problem(name):
        if name == "augmented-tank":
            cfg = TankConfig(n_steps=10)
            aug, prior = augmented_model(cfg)
            return simulate(cfg, RngStreamPlan(42)).measurements, aug.model, prior
        rng = np.random.default_rng(3)
        model = LinearModel(
            state_matrix=np.eye(3) + 0.1 * rng.standard_normal((3, 3)),
            obs_matrix=rng.standard_normal((1, 3)),
            process_noise=0.01 * rand_pd(rng, 3, 0.01),
            obs_noise=np.array([[0.5]]),
        )
        prior = GaussianBelief(rng.standard_normal(3), rand_pd(rng, 3))
        return rng.standard_normal(10), model, prior

    @staticmethod
    def outputs(ys, model, prior):
        plan = RngStreamPlan(42)
        pf = pf_run(ys, model, prior, 2000, 0.9, plan, record_at=(4,))
        assert pf.resampled.any()
        out = [pf.means, pf.covs, pf.ess, pf.ess_pre_resample, pf.resampled, *pf.records[4]]
        args = (ys, model, prior, None, plan, 20)
        kwargs = dict(store_samples=True, record_at=(4,))
        for res in (
            mc_sequential(*args, **kwargs),
            mc_sequential(*args, threads=3, **kwargs),
            mc_batch(*args, **kwargs),
        ):
            out += [res.state_means, res.state_covs, res.samples_states, res.records[4]]
        return [a.tobytes() for a in out]

    @pytest.mark.parametrize("name", ["augmented-tank", "linear-three-states"])
    def test_c_ordered_draws_give_the_same_bytes(self, monkeypatch, name):
        monkeypatch.setattr(gum_mc, "_CHUNK", 8)  # chunks span the blocks of threads=3
        ys, model, prior = self.problem(name)
        default = self.outputs(ys, model, prior)

        def c_ordered(fn):
            return lambda *args, **kwargs: np.ascontiguousarray(fn(*args, **kwargs))

        for name in ("normal_rows", "mvn_rows"):  # mvn_rows passes `columns` by keyword
            monkeypatch.setattr(RngStreamPlan, name, c_ordered(getattr(RngStreamPlan, name)))
        assert self.outputs(ys, model, prior) == default


class TestLinearModelProduct:
    """A LinearModel's f(x) and h(x) are `_mv`'s ordered sums on trial-last
    stacks, bit for bit, whatever the layout of the batch: from n = 3 on an
    einsum's sums followed the layout, and from n = 8 on a reduce over the
    row's terms would sum them pairwise."""

    @staticmethod
    def batches(rng, n, m=64):
        stack = rng.standard_normal((n, m))  # C (n, M), as a Monte Carlo block's states
        return {
            "C (M, n)": np.ascontiguousarray(stack.T),
            "F-ordered (M, n)": np.asfortranarray(stack.T),
            "(M, n) view of C (n, M)": stack.T,
        }

    @pytest.mark.parametrize("n", [3, 4, 8, 9])
    def test_shared_matrices_sum_in_mv_order(self, n):
        rng = np.random.default_rng(20261020 + n)
        F, H = rng.standard_normal((n, n)), rng.standard_normal((2, n))
        F[0, :2], H[:, 0] = (4.0, -0.0), (4.0, 0.0)  # 4 x 1e308 overflows
        model = LinearModel(F, H, np.eye(n), np.eye(2))
        for matrix, linearize in ((F, model.linearize), (H, model.linearize_obs)):
            x = rng.standard_normal(n)
            assert linearize(x, None, 0)[1] is matrix
            for layout, batch in self.batches(rng, n).items():
                # rows of +-0 entries, and one whose products overflow
                batch[:3] = -0.0
                batch[1, ::2] = batch[2, 1::2] = 0.0
                batch[2, 0] = 1e308
                with np.errstate(over="ignore", invalid="ignore"):
                    fx, _ = linearize(batch, None, 0)
                    want = _mv(_soa(matrix), np.ascontiguousarray(batch.T)).T
                    assert fx.shape == want.shape and fx.tobytes() == want.tobytes(), layout
                    # one state, (n,) or a filter's (1, n), sums as its row of the batch
                    for i in range(8):
                        for one, row in ((batch[i], i), (batch[i : i + 1], slice(i, i + 1))):
                            got = linearize(one, None, 0)[0]
                            assert got.shape == fx[row].shape and got.tobytes() == fx[row].tobytes()

    @pytest.mark.parametrize("n", [3, 4, 8, 9])
    def test_per_trial_matrices_reach_the_kernel_with_one_copy(self, n):
        # the returned stack is the (M, n, n) view of the trial-last copy the
        # product used, which _soa takes as it is
        rng = np.random.default_rng(20261021 + n)
        stacks = {"F": rng.standard_normal((64, n, n)), "H": rng.standard_normal((64, 2, n))}
        model = LinearModel(lambda k, th: stacks["F"], lambda k, th: stacks["H"], np.eye(n),
                            np.eye(2))
        theta = np.zeros((64, 1))
        for name, linearize in (("F", model.linearize), ("H", model.linearize_obs)):
            for layout, batch in self.batches(rng, n).items():
                fx, back = linearize(batch, theta, 0)
                want = _mv(_soa(stacks[name]), np.ascontiguousarray(batch.T)).T
                assert fx.shape == want.shape and fx.tobytes() == want.tobytes(), layout
                np.testing.assert_array_equal(back, stacks[name])
                trial_last = _soa(back)
                assert trial_last.flags.c_contiguous and np.shares_memory(trial_last, back)


class TestGaussianBelief:
    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            GaussianBelief(np.zeros(2), np.eye(3))

    def test_asymmetric_raises(self):
        with pytest.raises(DimensionError):
            GaussianBelief(np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_non_psd_raises(self):
        with pytest.raises(NumericError):
            GaussianBelief(np.zeros(2), np.diag([1.0, -1.0]))

    def test_immutable_arrays(self):
        b = GaussianBelief(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            b.mean[0] = 1.0


class TestBeliefGate:
    """`_require_beliefs`, GaussianBelief's gate on stacks: the first belief
    that fails is named, with the message of its first failing check."""

    GOOD = (np.zeros(2), np.eye(2))
    BAD = {
        "finite": ((np.array([np.nan, 0.0]), np.eye(2)), NumericError,
                   "mean or covariance is not finite"),
        "symmetric": ((np.zeros(2), np.array([[1.0, 1e-6], [0.0, 1.0]])), DimensionError,
                      "covariance is asymmetric beyond 1e-12 relative"),
        "psd": ((np.zeros(2), np.diag([1.0, -1.0])), NumericError,
                "covariance is not positive semidefinite"),
    }

    @staticmethod
    def gate(beliefs):
        means, covs = (np.array(a) for a in zip(*beliefs))
        _require_beliefs(means, covs, lambda i: f"belief {i}")

    @pytest.mark.parametrize("first", BAD)
    @pytest.mark.parametrize("later", BAD)
    def test_first_failing_belief_is_named(self, first, later):
        # e.g. an asymmetric corrected belief (index 3) after a good
        # prediction, with any failure after it
        (bad, error, text), (worse, _, _) = self.BAD[first], self.BAD[later]
        with pytest.raises(error, match=rf"^{text} \(belief 3\)$"):
            self.gate([self.GOOD] * 3 + [bad, self.GOOD, worse])

    def test_checks_in_order_within_a_belief(self):
        # an asymmetric indefinite covariance is reported as asymmetric, and
        # a non-finite mean before anything about its covariance
        asym_indefinite = np.array([[1.0, 1e-6], [0.0, -1.0]])
        with pytest.raises(DimensionError, match=r"\(belief 0\)$"):
            self.gate([(np.zeros(2), asym_indefinite)])
        with pytest.raises(NumericError, match=r"^mean or covariance is not finite \(belief 0\)$"):
            self.gate([(np.array([np.inf, 0.0]), asym_indefinite)])

    def test_good_stacks_pass(self):
        within_tol, zero = np.diag([1.0, -1e-12]), np.zeros((2, 2))
        self.gate([self.GOOD, (np.zeros(2), within_tol), (np.zeros(2), zero)])
        _require_beliefs(np.zeros((2, 0)), np.zeros((2, 0, 0)), str)


class TestPivotGate:
    """The belief gate's shifted LDL' pivot test, `_pivots_positive`, against
    the eigenvalue test it replaced, eigvalsh(symmetrize(P)) >= -1e-10
    max(scale, 1e-300) with scale P's largest absolute entry, on seeded
    stacks whose seeds and sizes were fixed before the first run.

    Per dimension n = 1..4: random PSD matrices A A', rank-deficient ones,
    random symmetric (mostly indefinite) ones, and rotated matrices V diag(w)
    V' whose largest eigenvalue is 1 and whose smallest sits at 0, +-1e-10
    or +-2e-10, relative to that largest eigenvalue, which bounds the
    largest entry from above.  Each stack is normalized to a largest entry
    of 1 and scaled by 1, subnormal 1e-310 and 1e-320, 1e300 and sqrt(max);
    ten zero matrices are added: 280 040 matrices in all.  The first 50 of
    each stack are also tested alone, on the one-matrix path in Python
    floats, and by the one-matrix gates assert_psd, require_psd and
    psd_sqrt, which decide by the same test."""

    SCALES = (1.0, 1e-310, 1e-320, 1e300, np.sqrt(BIG))
    CASES = {"psd": 2000, "rank-deficient": 1000, "symmetric": 1000}
    CASES |= {k: 2000 for k in (0, 1, -1, 2, -2)}  # the smallest eigenvalue, in 1e-10

    @classmethod
    def stacks(cls, n):
        rng = np.random.default_rng([20261021, n])
        for case, m in cls.CASES.items():
            if case in ("psd", "rank-deficient"):
                a = rng.standard_normal((m, n, n if case == "psd" else max(n - 1, 1)))
                p = a @ a.transpose(0, 2, 1)
            elif case == "symmetric":
                p = symmetrize(rng.standard_normal((m, n, n)))
            else:  # eigenvalues 1, uniform ones in (0, 1), and case * 1e-10
                v = np.linalg.qr(rng.standard_normal((m, n, n)))[0]
                middle = rng.uniform(0.0, 1.0, (m, max(n - 2, 0)))
                w = np.hstack([np.ones((m, 1)), middle, np.full((m, 1), case * 1e-10)])
                w = w[:, -n:]  # n = 1 keeps the smallest only
                p = (v * w[:, np.newaxis, :]) @ v.transpose(0, 2, 1)
            peak = np.abs(p).max(axis=(1, 2))  # 0 for n = 1 at case 0
            p = p / np.where(peak > 0.0, peak, 1.0)[:, np.newaxis, np.newaxis]
            for scale in cls.SCALES:
                yield case, scale, p * scale
        yield "zero", 0.0, np.zeros((10, n, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_the_eigenvalue_test(self, n):
        outcomes = []
        for case, factor, p in self.stacks(n):
            sym, scale = symmetrize(p), np.abs(p).max(axis=(1, 2))
            want = np.linalg.eigvalsh(sym).min(axis=1) >= -1e-10 * np.maximum(scale, 1e-300)
            got = _pivots_positive(sym, scale, 1e-10)
            wrong = np.flatnonzero(got != want)
            where = f"{case} at scale {factor:g}"
            assert wrong.size == 0, f"{where}: {wrong.size} disagree, first {wrong[:5]}"
            first = range(min(50, len(p)))
            alone = [_pivots_positive(sym[i : i + 1], scale[i : i + 1], 1e-10)[0] for i in first]
            assert alone == list(want[:50]), f"one matrix at a time: {where}"
            gates = [self.one_matrix_gates(p[i]) for i in first]
            assert gates == [[w] * 3 for w in want[:50]], f"one-matrix gates: {where}"
            outcomes.append(want)
        outcomes = np.concatenate(outcomes)
        assert outcomes.any() and not outcomes.all()  # both answers occur

    @staticmethod
    def one_matrix_gates(p):
        """The decisions of assert_psd, require_psd and psd_sqrt on p; a
        refusal must name p as not positive semidefinite and an accepted
        p's factor must be finite."""
        decisions = [assert_psd(p)]
        for gate in (require_psd, psd_sqrt):
            try:
                out = gate(p)
            except NumericError as exc:
                assert str(exc).startswith("covariance is not positive semidefinite"), exc
                decisions.append(False)
            else:
                assert np.isfinite(out).all()
                decisions.append(True)
        return decisions


class TestParameterKnowledge:
    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ParameterKnowledge(np.zeros(2), np.eye(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_estimate_raises(self, value):
        with pytest.raises(NumericError, match=r"^estimate is not finite \(ParameterKnowledge\)$"):
            ParameterKnowledge(np.array([value]), np.array([[1e-4]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cov_raises_as_not_finite(self, value):
        match = r"^covariance is not finite \(ParameterKnowledge\)$"
        with pytest.raises(NumericError, match=match):
            ParameterKnowledge([0.8], [[value]])
        with pytest.raises(NumericError, match=match):
            ParameterKnowledge([0.8, 0.1], [[1.0, value], [value, 1.0]])
        with pytest.raises(NumericError, match=r"^covariance is not finite$"):
            require_psd(np.array([[value]]))

    def test_indefinite_cov_raises(self):
        match = r"^covariance is not positive semidefinite \(ParameterKnowledge\)$"
        with pytest.raises(NumericError, match=match):
            ParameterKnowledge([0.8], [[-1e-4]])

    def test_scalar_accepted(self):
        pk = ParameterKnowledge(np.array([0.8]), np.array([[1e-4]]))
        assert pk.dim == 1


class TestFiniteDifferenceJacobian:
    def test_quadratic(self):
        fn = lambda x: np.array([x[0] ** 2 + x[1], 3.0 * x[1]])
        jac = finite_difference_jacobian(fn, np.array([2.0, -1.0]))
        np.testing.assert_allclose(jac, [[4.0, 1.0], [0.0, 3.0]], rtol=1e-8)

    def test_batch_equals_single_vector_calls(self, rng):
        fn = lambda x: np.stack(
            [np.sin(x[..., 0]) + x[..., 1], x[..., 1] ** 2, x[..., 0] * x[..., 1]], axis=-1
        )
        xs = rng.standard_normal((7, 2)) * 10.0
        batch = finite_difference_jacobian(fn, xs)
        assert batch.shape == (7, 3, 2)
        for m in range(7):
            np.testing.assert_array_equal(batch[m], finite_difference_jacobian(fn, xs[m]))

    def test_nonlinear_model_fallback_matches_analytic(self):
        model = NonlinearModel(
            state_fn=lambda x, th, k: np.array([np.sin(x[0]) + x[1], x[1] ** 2]),
            obs_fn=lambda x, th, k: np.array([x[0] * x[1]]),
            process_noise=np.zeros((2, 2)),
            obs_noise=np.eye(1),
        )
        x = np.array([0.3, 1.2])
        f_jac = np.array([[np.cos(0.3), 1.0], [0.0, 2.4]])
        h_jac = np.array([[1.2, 0.3]])
        np.testing.assert_allclose(model.F(x, None, 0), f_jac, rtol=1e-5)
        np.testing.assert_allclose(model.H(x, None, 0), h_jac, rtol=1e-5)


class TestRngStreamPlan:
    def test_seed_range_validated(self):
        with pytest.raises(ConfigError):
            RngStreamPlan(-1)
        with pytest.raises(ConfigError):
            RngStreamPlan(2**64)

    @pytest.mark.parametrize("seed", [0.5, 1.0, True, "7"])
    def test_non_integer_seed_rejected(self, seed):
        # int() would alias 0.5 to seed 0 and True to seed 1
        with pytest.raises(ConfigError, match="master_seed"):
            RngStreamPlan(seed)

    def test_numpy_integer_seed_accepted(self):
        a = RngStreamPlan(np.uint64(2**64 - 1)).normal_rows(5, "lbl", 0, 4, 3)
        b = RngStreamPlan(2**64 - 1).normal_rows(5, "lbl", 0, 4, 3)
        assert a.tobytes() == b.tobytes()

    def test_bit_identical_across_instances(self):
        a = RngStreamPlan(99).normal_rows(5, "lbl", 0, 4, 3)
        b = RngStreamPlan(99).normal_rows(5, "lbl", 0, 4, 3)
        np.testing.assert_array_equal(a, b)

    def test_labels_and_times_separate_streams(self):
        plan = RngStreamPlan(99)
        a = plan.normal_rows(5, "a", 0, 4, 3)
        b = plan.normal_rows(5, "b", 0, 4, 3)
        c = plan.normal_rows(6, "a", 0, 4, 3)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("width", [1, 3, 4, 5])
    def test_block_rows_match_offset_draws(self, width):
        # row m of a block draw equals the single-trial draw at offset m
        plan = RngStreamPlan(4242)
        block = plan.normal_rows(2, "lbl", 0, 8, width)
        for m in range(8):
            row = plan.normal_rows(2, "lbl", m, 1, width)[0]
            np.testing.assert_array_equal(block[m], row)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_normal_rows_are_inverse_cdf_of_the_returned_uniform_columns(self, width):
        # only the first `width` uniforms of each counter-aligned trial row
        # are transformed; the padding columns are drawn but never returned
        plan = RngStreamPlan(4242)
        stride = ((width + 3) // 4) * 4
        u = plan.uniform_rows(2, "lbl", 8 * stride, 6 * stride).reshape(6, stride)
        expected = ndtri(np.maximum(u[:, :width], np.nextafter(0.0, 1.0)))
        np.testing.assert_array_equal(plan.normal_rows(2, "lbl", 8, 6, width), expected)

    def test_unaligned_uniform_offset_raises(self):
        with pytest.raises(ConfigError):
            RngStreamPlan(1).uniform_rows(0, "lbl", 2, 4)

    def test_uniforms_in_unit_interval(self):
        u = RngStreamPlan(1).uniform_rows(0, "lbl", 0, 1000)
        assert np.all((u >= 0.0) & (u < 1.0))


class TestStepNormals:
    """The batched draw of one variate per time index equals the single-trial
    draws of numpy's SeedSequence and Philox bit for bit."""

    KS = [0, 1, 2**32 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("label", ["sim/state", "mc/obs"])
    def test_keys_are_seed_sequence_state(self, seed, label):
        expected = [
            SeedSequence([seed, 1, k, _label_id(label)]).generate_state(2, np.uint64)
            for k in self.KS
        ]
        keys = _stream_keys(seed, self.KS, label)
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("label", ["sim/state", "mc/obs"])
    def test_equals_single_trial_draws(self, seed, label):
        plan = RngStreamPlan(seed)
        expected = [plan.normal_rows(k, label, 0, 1, 1)[0, 0] for k in self.KS]
        np.testing.assert_array_equal(plan.step_normals(self.KS, label), expected)

    @pytest.mark.parametrize("k", [-1, 2**32])
    def test_time_index_outside_one_word_rejected(self, k):
        with pytest.raises(ConfigError):
            RngStreamPlan(1).step_normals([0, k], "lbl")


def mm_operands(rng, r, c, m):
    """(r, c, m) stacks of one kind each: C-ordered, a `_t` view, a trial-first
    (m, r, c) view as the tank's Jacobian gives, and one shared (r, c, 1)
    matrix; their entries mix +-0, +-inf and magnitudes 1e-300..1e300, most
    of them within 1e-4..1e4, where the order of the sum shows in its bits."""

    def entries(shape):
        exponent = np.where(rng.random(shape) < 0.8, rng.integers(-4, 5, shape),
                            rng.integers(-300, 301, shape))
        v = rng.choice([-1.0, 1.0], shape) * rng.random(shape) * 10.0**exponent
        u = rng.random(shape)
        v[u < 0.06] = rng.choice([0.0, -0.0], (u < 0.06).sum())
        v[u > 0.98] = rng.choice([np.inf, -np.inf], (u > 0.98).sum())
        return v

    return [
        entries((r, c, m)),
        _t(entries((c, r, m))),
        entries((m, r, c)).transpose(1, 2, 0),
        entries((r, c, 1)),
    ]


class TestMmForms:
    """`_mm`'s one-reduce form for small stacks and its term loop for large
    ones are the same sum in the same order, bit for bit."""

    @staticmethod
    def forms(monkeypatch, a, b):
        with np.errstate(all="ignore"):
            monkeypatch.setattr(core, "_SMALL_PRODUCT", 0)
            loop = _mm(a, b)
            monkeypatch.setattr(core, "_SMALL_PRODUCT", 2**62)
            return loop, _mm(a, b)

    @pytest.mark.parametrize("l", range(1, 18))
    def test_forms_agree_bit_for_bit(self, monkeypatch, l):
        rng = np.random.default_rng(20261019 + l)
        for i, j, m in itertools.product(range(1, 5), range(1, 5), (1, 2, 5)):
            operands = itertools.product(mm_operands(rng, i, l, m), mm_operands(rng, l, j, m))
            for a, b in operands:
                loop, small = self.forms(monkeypatch, a, b)
                assert loop.shape == small.shape == (i, j, max(a.shape[2], b.shape[2]))
                # every gate refuses non-finite values, so a NaN need only be
                # where the other form has one
                nan = np.isnan(loop)
                np.testing.assert_array_equal(nan, np.isnan(small))
                loop[nan] = small[nan] = 0.0
                assert loop.tobytes() == small.tobytes()

    def test_signed_zeros_kept(self, monkeypatch):
        a, b = np.full((2, 3, 1), -0.0), np.ones((3, 2, 1))
        for out in self.forms(monkeypatch, a, b):
            assert np.signbit(out).all() and not out.any()

    @staticmethod
    def outputs(tmp_path):
        """Both tank scans on 300 nodes, mc_sequential and mc_batch records and
        the --deterministic files of every scenario, at 40 steps."""
        cfg = TankConfig(n_steps=40)
        plan = RngStreamPlan(42)
        ys = simulate(cfg, plan).measurements
        prior, (aug, aug_prior) = state_prior(cfg), augmented_model(cfg)
        spread = np.linspace(0.98, 1.02, 300)[:, np.newaxis]
        out = {
            "kf": _scan(ys, linear_model(cfg), np.tile(prior.mean, (300, 1)),
                        np.tile(prior.cov, (300, 1, 1)), cfg.theta * spread, "kf"),
            "ekf": _scan(ys, aug.model, aug_prior.mean * spread,
                         np.tile(aug_prior.cov, (300, 1, 1)), None, "ekf"),
        }
        for run in (mc_sequential, mc_batch):
            res = run(ys, linear_model(cfg), prior, frequency_knowledge(cfg), plan, 64,
                      store_samples=True, record_at=(20,))
            out[run.__name__] = (res.state_means, res.state_covs, res.param_means,
                                 res.param_covs, res.samples_states, res.samples_params,
                                 res.records[20])
        cfg_path = tmp_path / "config.json"
        cfg.save(cfg_path)
        outdir = tmp_path / "out"
        for name in SCENARIOS:
            argv = ["estimate", name, "--config", str(cfg_path), "--out", str(outdir),
                    "--deterministic", "--trials", "200", "--particles", "500"]
            assert cli_run(argv) == 0
        for path in sorted(outdir.iterdir()):
            out[path.name] = path.read_bytes()
            path.unlink()
        return out

    def test_outputs_do_not_depend_on_the_form(self, monkeypatch, tmp_path):
        runs = []
        for small in (0, 2**62):  # every product in the loop, then all it can in one reduce
            monkeypatch.setattr(core, "_SMALL_PRODUCT", small)
            runs.append(self.outputs(tmp_path))
        loop, reduced = runs
        assert loop.keys() == reduced.keys() and len(loop) == 4 + 2 * len(SCENARIOS)
        for name, value in loop.items():
            if isinstance(value, bytes):
                assert reduced[name] == value, name
            else:
                for x, y in zip(value, reduced[name]):
                    assert x.tobytes() == y.tobytes(), name
