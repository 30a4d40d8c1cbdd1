"""Checks of the benchmark itself, at small sizes (a few seconds in all):

    python3 -m pytest perfbench/test_perfbench.py -q

Each oracle must accept the program's output and reject a perturbed copy,
and a rejected op must count as failed; the tracer must find and restore
every patched call site; BENCHMARK.json must name what run.py reports.
"""

import json

import numpy as np
import pytest

import run
import tracing
from paths import ROOT
from workloads import WORKLOADS, Filters, McEkf, McTrialMajor, Pf, oracle_pf

import gumkf

SEED = 42
# Per-layer metrics that run.py reports but BENCHMARK.json does not list:
# only the ungated mc-trial-major workload reaches mc_batch and RunningMoments,
# so they read 0 on every gated workload.
ONLY_ON_MC_TRIAL_MAJOR = {"gum_mc.mc_batch.self_s", "gum_mc.RunningMoments.push_block.calls",
                          "gum_mc.RunningMoments.push_block.self_s"}


def _small(cls, tmp_path):
    sizes = {
        McEkf: dict(n_steps=30, trials=2000),
        Pf: dict(n_steps=50, particles=2000),
        Filters: dict(n_steps=50),
        McTrialMajor: dict(n_steps=20, trials=5),
    }[cls]
    return cls(tmp_path / cls.name, SEED, **sizes)


def _scale_u(factor):
    return lambda out: (out[0], out[1] * factor)


def _flip_one_sample(out):
    states = out[0].copy()
    states[5, 2, 1] = -states[5, 2, 1]
    return states, out[1]


def _shift_ekf_estimate(out):
    lkf, (est, u) = out
    return lkf, (est * (1 + 1e-9), u)


PERTURBATIONS = [
    (McEkf, "u_MC times 3", _scale_u(3.0)),
    (Pf, "u times 3", _scale_u(3.0)),
    (Filters, "EKF estimate off by 1e-9 relative", _shift_ekf_estimate),
    (Filters, "LKF u times 3", lambda out: (_scale_u(3.0)(out[0]), out[1])),
    (McTrialMajor, "one sample flipped", _flip_one_sample),
]


@pytest.mark.parametrize("cls, what, perturb", PERTURBATIONS, ids=[p[1] for p in PERTURBATIONS])
def test_oracle_rejects_perturbed_result(tmp_path, cls, what, perturb):
    workload = _small(cls, tmp_path)
    result = workload.op()
    assert workload.check(result) == []

    outputs = workload.outputs
    workload.outputs = lambda r: perturb(outputs(r))
    assert workload.check(result), f"oracle accepted {what}"
    ops, failures = run.closed_loop(workload, 0.0, min_ops=2)
    fail_ratio = len(failures) / len(ops)
    assert fail_ratio == 1.0


def test_pf_oracle_rejects_mean_gap_and_bad_ess(tmp_path):
    workload = _small(Pf, tmp_path)
    est, u = workload.outputs(workload.op())
    _, _, ess, ekf_est, ekf_u = workload.reference
    n = workload.units
    assert oracle_pf(est, u, ess, n, ekf_est, ekf_u) == []
    shifted = est.copy()
    shifted[10, 1] = ekf_est[10, 1] + 4 * ekf_u[10, 1]
    assert oracle_pf(shifted, u, ess, n, ekf_est, ekf_u)
    bad_ess = ess.copy()
    bad_ess[3] = 0.5
    assert oracle_pf(est, u, bad_ess, n, ekf_est, ekf_u)
    assert oracle_pf(est, u, np.full_like(ess, n + 1.0), n, ekf_est, ekf_u)


def test_raising_op_counts_as_failed(tmp_path):
    workload = _small(McTrialMajor, tmp_path)
    workload.args = workload.args[:-1] + (-1,)  # negative trial count
    ops, failures = run.closed_loop(workload, 0.0, min_ops=1)
    assert len(ops) == 1 and len(failures) == 1


def test_tracer_patches_every_call_site_and_restores_it(tmp_path):
    workload = _small(McTrialMajor, tmp_path)
    originals = (gumkf.watertank.mc_sequential, gumkf.cli.scenario, gumkf.ekf.kf_gain,
                 gumkf.RngStreamPlan.__dict__["normal_rows"], gumkf.mc_batch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gumkf.watertank.mc_sequential is not originals[0]
        assert gumkf.cli.scenario is not originals[1]
        assert gumkf.ekf.kf_gain is gumkf.kalman.kf_gain is not originals[2]
        ops, failures = run.closed_loop(workload, 0.0, min_ops=2, tracer=tracer)
    finally:
        tracer.uninstall()
    restored = (gumkf.watertank.mc_sequential, gumkf.cli.scenario, gumkf.ekf.kf_gain,
                gumkf.RngStreamPlan.__dict__["normal_rows"], gumkf.mc_batch)
    assert all(a is b for a, b in zip(restored, originals))
    assert failures == []

    per_op = tracer.layer_stats()
    assert len(per_op) == 2
    stats = per_op[0]
    assert stats["gum_mc.mc_step.calls"] == 5 * 20
    assert stats["gum_mc.mc_step.trial_steps"] == 5 * 20
    assert stats["kalman.kf_predict.calls"] == 0
    assert all(v >= 0 for k, v in stats.items() if k.endswith(".self_s"))
    span_total = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    assert span_total <= ops[0].wall


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(100)))[0] == 90
    assert run.tail_percentile(list(range(1000))) == (99, 989)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = tracing.layer_metric_units()
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed.items() <= reported.items()
    assert set(reported) - set(listed) == ONLY_ON_MC_TRIAL_MAJOR
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
