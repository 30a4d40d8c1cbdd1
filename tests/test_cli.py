"""Command-line interface: outputs, manifests, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gumkf
from gumkf import RngStreamPlan, TankConfig, scenario
from gumkf.cli import run


def small_config(tmp_path, **kwargs):
    kwargs.setdefault("n_steps", 20)
    path = tmp_path / "config.json"
    TankConfig(**kwargs).save(path)
    return str(path)


def subprocess_env():
    """The environment of a fresh interpreter importing this checkout's gumkf."""
    src = str(Path(gumkf.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_writes_csv_and_manifest(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "simulation.csv")
        assert rows[0] == ["t", "xL_true", "xs_true", "y"]
        assert len(rows) == 22  # header + n_steps + 1
        manifest = json.loads((out / "simulation_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"] == ["simulation.csv"]
        assert manifest["master_seed"] == 42

    def test_outdir_from_env(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        monkeypatch.setenv("GUMKF_OUTDIR", str(tmp_path / "envout"))
        assert run(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "simulation.csv").exists()


class TestEstimate:
    def test_lkf_columns(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run(["estimate", "lkf-known", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "lkf-known.csv")
        assert rows[0] == ["t", "xL_est", "xL_u", "xs_est", "xs_u"]

    def test_theta_columns_and_manifest_trials(self, tmp_path):
        cfg = small_config(tmp_path)
        code = run(
            ["estimate", "mc-ekf", "--config", cfg, "--out", str(tmp_path), "--trials", "64"]
        )
        assert code == 0
        rows = read_csv(tmp_path / "mc-ekf.csv")
        assert rows[0] == ["t", "xL_est", "xL_u", "xs_est", "xs_u", "theta_est", "theta_u"]
        manifest = json.loads((tmp_path / "mc-ekf_manifest.json").read_text())
        assert manifest["trials"] == 64
        assert manifest["scenario"] == "mc-ekf"

    def test_pf_manifest_records_filter_health(self, tmp_path):
        cfg = small_config(tmp_path)
        argv = ["estimate", "pf", "--config", cfg, "--out", str(tmp_path), "--particles", "128"]
        assert run(argv) == 0
        manifest = json.loads((tmp_path / "pf_manifest.json").read_text())
        report = scenario("pf", TankConfig(n_steps=20), RngStreamPlan(42), n_particles=128)
        assert report.resampled.shape == (21,) and not report.resampled[0]
        assert manifest["ess_min"] == report.ess.min()
        assert manifest["resample_events"] == report.resampled.sum()
        # the ESS after each step's resampling decision: a step left below
        # gamma * particles would have resampled
        assert 0.9 * 128 <= manifest["ess_min"] < 128
        assert 0 < manifest["resample_events"] <= 20
        # the ESS each decision was made on: a step resampled exactly when it
        # fell below gamma * particles, and kept its ESS when it did not
        pre = report.ess_pre_resample
        assert manifest["ess_pre_resample_min"] == pre.min()
        assert np.array_equal(report.resampled, pre < 0.9 * 128)
        assert np.array_equal(pre[~report.resampled], report.ess[~report.resampled])
        assert manifest["ess_pre_resample_min"] < 0.9 * 128

    def test_seventeen_digit_roundtrip(self, tmp_path):
        cfg = small_config(tmp_path)
        run(["estimate", "lkf-known", "--config", cfg, "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "lkf-known.csv")
        value = float(rows[5][1])
        assert f"{value:.17g}" == rows[5][1]

    def test_repeat_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        for d in ("a", "b"):
            run(
                [
                    "estimate", "pf", "--config", cfg, "--out", str(tmp_path / d),
                    "--particles", "128", "--deterministic",
                ]
            )
        a = (tmp_path / "a" / "pf.csv").read_bytes()
        b = (tmp_path / "b" / "pf.csv").read_bytes()
        assert a == b
        am = (tmp_path / "a" / "pf_manifest.json").read_bytes()
        bm = (tmp_path / "b" / "pf_manifest.json").read_bytes()
        assert am == bm


class TestCompare:
    def test_joins_on_time(self, tmp_path):
        cfg = small_config(tmp_path)
        run(["estimate", "lkf-known", "--config", cfg, "--out", str(tmp_path)])
        run(["estimate", "ekf-augmented", "--config", cfg, "--out", str(tmp_path)])
        code = run(
            [
                "compare",
                str(tmp_path / "lkf-known.csv"),
                str(tmp_path / "ekf-augmented.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "compare.csv")
        assert rows[0][0] == "t"
        assert "lkf-known__xL_est" in rows[0]
        assert "ekf-augmented__theta_u" in rows[0]
        assert len(rows) == 22

    def test_mismatched_time_axes_rejected(self, tmp_path, capsys):
        cfg_a = small_config(tmp_path, n_steps=20)
        run(["estimate", "lkf-known", "--config", cfg_a, "--out", str(tmp_path / "a")])
        cfg_b = small_config(tmp_path, n_steps=10)
        run(["estimate", "lkf-known", "--config", cfg_b, "--out", str(tmp_path / "b")])
        capsys.readouterr()
        code = run(
            [
                "compare",
                str(tmp_path / "a" / "lkf-known.csv"),
                str(tmp_path / "b" / "lkf-known.csv"),
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "time column differs" in capsys.readouterr().err

    def test_same_stem_columns_named_by_path(self, tmp_path):
        cfg = small_config(tmp_path)
        a, b = tmp_path / "a" / "lkf-known.csv", tmp_path / "b" / "lkf-known.csv"
        for path in (a, b):
            run(["estimate", "lkf-known", "--config", cfg, "--out", str(path.parent)])
        assert run(["compare", str(a), str(b), "--out", str(tmp_path)]) == 0
        header = read_csv(tmp_path / "compare.csv")[0]
        assert len(set(header)) == len(header)
        assert f"{tmp_path / 'a' / 'lkf-known'}__xL_est" in header

    def test_same_path_twice_rejected(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        path.write_text("t,a\n0,1\n")
        assert run(["compare", str(path), str(path), "--out", str(tmp_path)]) == 1
        assert f"{path}: given twice" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()

    def test_blank_first_line_rejected(self, tmp_path, capsys):
        bad = tmp_path / "blank.csv"
        bad.write_text("\nt,a\n0,1\n")
        good = tmp_path / "good.csv"
        good.write_text("t,b\n0,2\n")
        assert run(["compare", str(bad), str(good), "--out", str(tmp_path)]) == 1
        assert f"{bad}: line 1: " in capsys.readouterr().err

    def test_row_length_differing_from_header_rejected(self, tmp_path, capsys):
        # joined, A's short last row would put B's 3 under A__a
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("t,a\n0,1\n0.01\n")
        b.write_text("t,b\n0,2\n0.01,3\n")
        assert run(["compare", str(a), str(b), "--out", str(tmp_path)]) == 1
        assert f"{a}: line 3: 1 fields where the header has 2" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()


class TestImportFootprint:
    def test_import_loads_no_scipy_linalg(self):
        # a fresh interpreter: this one has loaded scipy.stats for other tests
        code = "import sys, gumkf, gumkf.cli; print('scipy.linalg' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_import_loads_no_scipy_special_package(self):
        # core takes ndtri from the extension module scipy.special._ufuncs
        # without running scipy/special/__init__.py and its array-API layer
        code = (
            "import sys, gumkf, gumkf.cli; "
            "print('scipy.special' in sys.modules, 'scipy._lib._array_api' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False False"

    @pytest.mark.parametrize("first", ["gumkf", "scipy.special"])
    def test_ndtri_is_scipy_special_ndtri(self, first):
        # either import order gives the one ufunc object, leaves every
        # scipy.special module file-backed (no stand-in package) and keeps
        # scipy.stats working in the same process
        code = "\n".join([
            "import sys",
            f"import {first}",
            "import gumkf, scipy.special, scipy.stats",
            "assert gumkf.core.ndtri is scipy.special.ndtri",
            "assert all(getattr(m, '__file__', None) for name, m in sys.modules.items()",
            "           if name.startswith('scipy.special'))",
            "assert scipy.stats.norm.ppf(0.975) == gumkf.core.ndtri(0.975)",
        ])
        subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True)


class TestMain:
    def test_exit_status_is_run_return_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "bogus": 3}))
        for config, code in ((small_config(tmp_path), 0), (str(bad), 1)):
            argv = ["simulate", "--config", config, "--out", str(tmp_path / "out")]
            assert run(argv) == code
            proc = subprocess.run(
                [sys.executable, "-m", "gumkf.cli", *argv], env=subprocess_env(),
                capture_output=True,
            )
            assert proc.returncode == code


class TestPdfMarginal:
    def test_two_histogram_files(self, tmp_path):
        cfg = small_config(tmp_path, n_steps=30)
        code = run(
            [
                "pdf-marginal", "--scenario", "pf", "--component", "theta",
                "--at", "0.1,0.3", "--config", cfg, "--out", str(tmp_path),
                "--particles", "256",
            ]
        )
        assert code == 0
        for t in ("0.1", "0.3"):
            rows = read_csv(tmp_path / f"pf_theta_t{t}s.csv")
            assert rows[0] == ["bin_lo", "bin_hi", "density"]
            assert len(rows) > 2
        manifest = json.loads((tmp_path / "pf_theta_marginal_manifest.json").read_text())
        assert manifest["component"] == "theta"
        assert manifest["times_s"] == [0.1, 0.3]
        assert "t=0.1" in manifest["summaries"]

    def test_histogram_density_integrates_to_one(self, tmp_path):
        cfg = small_config(tmp_path, n_steps=30)
        run(
            [
                "pdf-marginal", "--scenario", "mc-lkf-uncertain", "--component", "theta",
                "--at", "0.2", "--config", cfg, "--out", str(tmp_path),
                "--trials", "256",
            ]
        )
        rows = read_csv(tmp_path / "mc-lkf-uncertain_theta_t0.2s.csv")
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        total = np.sum((data[:, 1] - data[:, 0]) * data[:, 2])
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_summary_independent_of_sample_layout(self, tmp_path, monkeypatch):
        # the same samples, handed to the summary F- and C-ordered, give the
        # same manifest: weighted_moments of the recorded column
        cfg = small_config(tmp_path, n_steps=40)
        manifests, reports = {}, {}
        for layout in (np.asfortranarray, np.ascontiguousarray):

            def relaid(*args, **kwargs):
                report = scenario(*args, **kwargs)
                for t, (samples, weights) in report.marginals.items():
                    report.marginals[t] = (layout(samples), weights)
                reports[layout] = report
                return report

            monkeypatch.setattr(gumkf.cli, "scenario", relaid)
            out = tmp_path / layout.__name__
            code = run(
                [
                    "pdf-marginal", "--scenario", "mc-lkf-uncertain", "--component", "theta",
                    "--at", "0.1,0.4", "--config", cfg, "--out", str(out),
                    "--trials", "2000", "--deterministic",
                ]
            )
            assert code == 0
            manifests[layout] = (out / "mc-lkf-uncertain_theta_marginal_manifest.json").read_bytes()
        assert manifests[np.asfortranarray] == manifests[np.ascontiguousarray]
        summaries = json.loads(manifests[np.ascontiguousarray])["summaries"]
        for t, (samples, weights) in reports[np.asfortranarray].marginals.items():
            mean, var = gumkf.weighted_moments(samples[:, 2:3], weights)
            assert summaries[f"t={t:g}"] == {
                "weighted_mean": float(mean[0]), "weighted_std": float(np.sqrt(var[0, 0]))
            }

    # a malformed list, two times on one step, a non-finite time, one time
    # twice, a negative time that rounds to step 0
    @pytest.mark.parametrize("at", ["2;8", "0.1,0.101", "nan", "0.1,0.1", "-0.004"])
    def test_bad_time_list_is_config_error(self, tmp_path, capsys, at):
        cfg = small_config(tmp_path)
        code = run(
            ["pdf-marginal", "--at", at, "--config", cfg, "--out", str(tmp_path)]
        )
        assert code == 1
        assert "gumkf: config error" in capsys.readouterr().err

    def test_times_sharing_an_output_name_refused(self, tmp_path, capsys):
        # steps 250000 and 250001 at dt = 4e-7, both "0.1" under %g
        cfg = small_config(tmp_path, dt=4e-7, n_steps=250_010)
        argv = ["pdf-marginal", "--at", "0.1,0.1000004", "--config", cfg, "--out", str(tmp_path)]
        assert run(argv + ["--particles", "16"]) == 1  # few particles, should the check fail
        err = capsys.readouterr().err
        assert "gumkf: config error" in err and "0.1 and 0.1000004" in err
        assert not list(tmp_path.glob("*.csv"))


class TestThreadsByteIdentical:
    HEADERS = {
        "mc-ekf.csv": b"t,xL_est,xL_u,xs_est,xs_u,theta_est,theta_u",
        "mc-lkf-uncertain.csv": b"t,xL_est,xL_u,xs_est,xs_u,theta_est,theta_u",
    }

    def test_outputs_independent_of_thread_count(self, tmp_path):
        cfg = small_config(tmp_path, n_steps=30)
        outputs = {}
        for threads in ("1", "3"):
            out = tmp_path / f"threads{threads}"
            common = [
                "--config", cfg, "--out", str(out), "--deterministic",
                "--trials", "300", "--threads", threads,
            ]
            for name in ("mc-ekf", "mc-lkf-uncertain"):
                assert run(["estimate", name, *common]) == 0
                assert run(
                    ["pdf-marginal", "--scenario", name, "--at", "0.1,0.3", *common]
                ) == 0
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert sorted(outputs["1"]) == sorted(outputs["3"])
        assert len(outputs["1"]) == 10
        for name, blob in outputs["1"].items():
            assert outputs["3"][name] == blob, f"{name} differs between 1 and 3 threads"
            if name.endswith(".csv"):
                lines = blob.split(b"\r\n")
                assert lines[-1] == b"" and not any(b"\n" in line for line in lines)
                assert lines[0] == self.HEADERS.get(name, b"bin_lo,bin_hi,density")


class TestExitCodes:
    def test_unknown_scenario_is_config_error(self, tmp_path):
        assert run(["estimate", "nope", "--out", str(tmp_path)]) == 1

    def test_bad_config_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "bogus": 3}))
        assert run(["estimate", "lkf-known", "--config", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "entry", [{"n_steps": 20.5}, {"n_steps": True}, {"dt": float("nan")}]
    )
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, **entry}))
        assert run(["estimate", "lkf-known", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "gumkf: config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "count", [["--trials", "0"], ["--trials", "1"], ["--threads", "0"]]
    )
    def test_bad_trial_or_thread_count_is_config_error(self, tmp_path, count):
        cfg = small_config(tmp_path, n_steps=5)
        argv = ["estimate", "mc-ekf", "--config", cfg, "--out", str(tmp_path), "--trials", "8"]
        assert run(argv + count) == 1
        assert not (tmp_path / "mc-ekf.csv").exists()

    @pytest.mark.parametrize("option", [["--particles", "1"], ["--gamma", "0"]])
    def test_bad_particle_count_or_gamma_is_config_error(self, tmp_path, capsys, option):
        cfg = small_config(tmp_path, n_steps=5)
        argv = ["estimate", "pf", "--config", cfg, "--out", str(tmp_path), "--particles", "50"]
        assert run(argv + option) == 1
        assert "gumkf: config error" in capsys.readouterr().err
        assert not (tmp_path / "pf.csv").exists()

    # each flag on a scenario that does not use it
    @pytest.mark.parametrize(
        "name, option",
        [
            ("lkf-known", ["--trials", "1"]),
            ("lkf-known", ["--particles", "1"]),
            ("lkf-known", ["--gamma", "5"]),
            ("pf", ["--threads", "0"]),
        ],
        ids=["trials", "particles", "gamma", "threads"],
    )
    def test_every_flag_is_checked_for_every_scenario(self, tmp_path, capsys, name, option):
        cfg = small_config(tmp_path, n_steps=5)
        argv = ["estimate", name, "--config", cfg, "--out", str(tmp_path), "--particles", "50"]
        assert run(argv + option) == 1
        assert "gumkf: config error" in capsys.readouterr().err
        assert not (tmp_path / f"{name}.csv").exists()
        assert not (tmp_path / f"{name}_manifest.json").exists()

    def test_null_number_in_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "L0": None}))
        assert run(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "gumkf: config error: L0 must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "simulation.csv").exists()

    @pytest.mark.parametrize(
        "text", ["[1]", '"abc"', '{"schema_version": 1, "L0": 1' + "0" * 400 + "}", "{bad"],
        ids=["list", "string", "integer-beyond-float", "malformed"],
    )
    def test_unusable_config_file_is_config_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "gumkf: config error" in capsys.readouterr().err
        assert not (tmp_path / "simulation.csv").exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["estimate", "lkf-known", "--trials", "1"], 1),
            (["pdf-marginal", "--at", "abc"], 1),
            (["compare", "missing.csv"], 3),
        ],
        ids=["estimate", "pdf-marginal", "compare"],
    )
    def test_refused_run_creates_no_output_directory(self, tmp_path, monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)
        assert run(argv + ["--out", "d"]) == code
        assert not (tmp_path / "d").exists()

    def test_nested_output_directory_created_on_success(self, tmp_path):
        cfg = small_config(tmp_path, n_steps=5)
        out = tmp_path / "a" / "b"
        assert run(["estimate", "lkf-known", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["lkf-known.csv", "lkf-known_manifest.json"]
        joined = tmp_path / "c" / "d"
        assert run(["compare", str(out / "lkf-known.csv"), "--out", str(joined)]) == 0
        assert [p.name for p in joined.iterdir()] == ["compare.csv"]

    @pytest.mark.parametrize("out", ["blocked", "blocked/sub", "blocked/sub/deeper"])
    def test_unwritable_output_refused_before_the_run(self, tmp_path, monkeypatch, out):
        # an --out under a file fails at once: the scenario never runs and
        # nothing is created
        def never(*args, **kwargs):
            raise AssertionError("scenario ran")

        monkeypatch.setattr(gumkf.cli, "scenario", never)
        cfg = small_config(tmp_path)
        (tmp_path / "blocked").write_text("not a directory")
        before = sorted(tmp_path.rglob("*"))
        argv = ["estimate", "mc-ekf", "--trials", "2000", "--config", cfg]
        assert run(argv + ["--out", str(tmp_path / out)]) == 3
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "blocked").read_text() == "not a directory"

    def test_noise_whose_variance_overflows_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "sigma": 1e200}))
        assert run(["estimate", "pf", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "gumkf: config error: sigma is too large" in capsys.readouterr().err
        assert not (tmp_path / "pf.csv").exists()

    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(gumkf.cli, "scenario", exhausted)
        out = tmp_path / "d"
        assert run(["estimate", "ekf-augmented", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "gumkf: out of memory: Unable to allocate 745. GiB\n"
        assert not out.exists()

    def test_numeric_failure_exit_code(self, tmp_path):
        # zero process and measurement noise make the innovation covariance
        # exactly singular
        cfg = small_config(tmp_path, tau=0.0, sigma=0.0)
        assert run(["estimate", "lkf-known", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_io_failure_exit_code(self, tmp_path):
        cfg = small_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert run(["simulate", "--config", cfg, "--out", str(blocker)]) == 3
