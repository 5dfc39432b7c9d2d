"""Command-line interface: commands, exit codes, provenance, idempotence."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import cyclosense as cs
from cyclosense import cli, harness, io
from cyclosense.cli import main
from cyclosense.harness import STREAM_EXPORT_NOISE, STREAM_EXPORT_SIGNAL, derived_seed

# SHA-256 over the mini-plan roc output files, each file's name, a NUL and its
# bytes in name order; a change that is meant to keep the roc outputs must
# keep these bits, and one that moves them re-pins it
ROC_DIGEST = "b9f76f301d286e55fc0bf9f122436fe9f2c9020b0f27dde35f5e3ee7c346e81a"


@pytest.fixture
def plan_path(tmp_path, mini_plan):
    path = tmp_path / "plan.json"
    io.write_plan_json(path, mini_plan)
    return path


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture
def unconverged_fit(monkeypatch):
    fit = cli.fit_gev_mle
    monkeypatch.setattr(cli, "fit_gev_mle", lambda samples: replace(fit(samples), converged=False))


class TestGen:
    def test_writes_signal_and_plan(self, tmp_path, plan_path):
        out = tmp_path / "g"
        assert main(["gen", "--plan", str(plan_path), "--out", str(out)]) == 0
        assert (out / "signal.f64").exists()
        assert (out / "signal.json").exists()
        assert (out / "plan.json").exists()
        samples = np.frombuffer((out / "signal.f64").read_bytes(), dtype="<f8")
        assert samples.size == 2048
        assert json.loads((out / "signal.json").read_text())["length"] == 2048

    def test_idempotent(self, tmp_path, plan_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--plan", str(plan_path), "--out", str(out_a)])
        main(["gen", "--plan", str(plan_path), "--out", str(out_b)])
        assert tree_bytes(out_a) == tree_bytes(out_b)


class TestScdCommand:
    def test_writes_matrix(self, tmp_path, plan_path):
        out = tmp_path / "s"
        assert main(["scd", "--plan", str(plan_path), "--out", str(out)]) == 0
        header = json.loads((out / "scd.json").read_text())
        assert header["shape"] == [1024, 1]
        payload = (out / "scd.c64").read_bytes()
        assert len(payload) == 1024 * 1 * 8

    def test_matrix_is_first_window_of_export_mix(self, tmp_path, plan_path, mini_plan):
        out = tmp_path / "s"
        assert main(["scd", "--plan", str(plan_path), "--out", str(out)]) == 0
        spec, k = mini_plan.signal_spec, mini_plan.scd_cfg.window_length_k
        signal = cs.generate_am(spec, derived_seed(mini_plan.master_seed, STREAM_EXPORT_SIGNAL))
        noise = cs.generate_awgn(
            spec.duration_samples,
            cs.NoiseSpec(1.0, derived_seed(mini_plan.master_seed, STREAM_EXPORT_NOISE)),
            spec.sample_rate_hz,
        )
        mixed = cs.mix_at_snr(signal, noise, mini_plan.snr_db_list[0])
        expected = cs.estimate_scd(cs.SampleBuffer(mixed.samples[:k], spec.sample_rate_hz),
                                   mini_plan.scd_cfg).values.astype(np.complex64)
        written = np.frombuffer((out / "scd.c64").read_bytes(), dtype="<c8")
        assert np.array_equal(written.reshape(expected.shape), expected)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("snr_db", [2900, 3075])
    def test_non_finite_cells_exit_numeric_and_write_no_scd_file(self, tmp_path, plan_path,
                                                                 snr_db, capsys):
        # both SNRs pass the plan's power-ratio check; at 2900 dB every cell is
        # finite in float64 but overflows complex64, at 3075 dB the cyclic
        # product already overflows float64 and the smoother makes nan cells
        out = tmp_path / "s"
        assert main(["scd", "--plan", str(plan_path), "--out", str(out),
                     "--set", f"snr_db=[{snr_db}]"]) == 3
        assert "SCD cells are not finite in complex64" in capsys.readouterr().err
        assert not list(out.iterdir())


class TestCollect:
    def test_writes_profile_csv(self, tmp_path, plan_path, mini_plan):
        out = tmp_path / "c"
        assert main(["collect", "--plan", str(plan_path), "--out", str(out)]) == 0
        samples = io.read_profile_samples(out / "profile.csv")
        assert samples.size == mini_plan.noise_windows_l
        # CSV carries 9 significant digits of the in-memory values
        exact = cs.collect_noise_profile(mini_plan)
        np.testing.assert_allclose(samples, exact, rtol=1e-8)


class TestFit:
    def test_fit_outputs(self, tmp_path, plan_path):
        collect_dir, fit_dir = tmp_path / "c", tmp_path / "f"
        main(["collect", "--plan", str(plan_path), "--out", str(collect_dir)])
        code = main(["fit", "--samples", str(collect_dir / "profile.csv"),
                     "--out", str(fit_dir)])
        assert code == 0
        report = io.read_fit_json(fit_dir / "fit.json")
        assert report.converged
        assert (fit_dir / "histogram.csv").exists()

    def test_constant_samples_exit_numeric_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("alpha_hz,max_magnitude,window_index\n"
                       + "".join(f"2e6,0.5,{i}\n" for i in range(200)))
        code = main(["fit", "--samples", str(bad), "--out", str(tmp_path / "f")])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, constant, code", [(25, False, 2), (50, False, 2),
                                                      (200, True, 3)])
    def test_exit_code_by_sample_count_writes_no_file(self, tmp_path, rows, constant, code):
        samples = np.full(rows, 0.5) if constant else 0.5 + 0.001 * np.arange(rows)
        io.write_profile_csv(tmp_path / "p.csv", 2.0e6, samples)
        out = tmp_path / "f"
        assert main(["fit", "--samples", str(tmp_path / "p.csv"), "--out", str(out)]) == code
        assert list(out.iterdir()) == []

    def test_samples_too_large_for_a_finite_start_point_exit_numeric(self, tmp_path, capsys):
        # np.var of these overflows float64, so the fit has no finite start point
        samples = np.random.default_rng(0).standard_normal(200) * 1e160
        io.write_profile_csv(tmp_path / "p.csv", 2.0e6, samples)
        out = tmp_path / "f"
        assert main(["fit", "--samples", str(tmp_path / "p.csv"), "--out", str(out)]) == 3
        assert "degenerate data" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unconverged_fit_writes_model_and_exits_numeric(self, tmp_path, unconverged_fit,
                                                            capsys):
        samples = cs.sample_gev(cs.GevParams(0.0, 1.0, 0.5), 500, seed=3)
        io.write_profile_csv(tmp_path / "p.csv", 2.0e6, samples)
        fit_dir = tmp_path / "f"
        assert main(["fit", "--samples", str(tmp_path / "p.csv"), "--out", str(fit_dir)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert sorted(p.name for p in fit_dir.iterdir()) == ["fit.json", "histogram.csv"]
        assert json.loads((fit_dir / "fit.json").read_text())["converged"] is False


class TestThreshold:
    def test_prints_gumbel_quantile(self, tmp_path, capsys):
        fit = cs.FitReport(cs.GevParams(0.0, 0.0, 1.0), -1.0, 5, True, 1000, 1e-9)
        io.write_fit_json(tmp_path / "fit.json", fit)
        code = main(["threshold", "--pf", "0.05", "--fit", str(tmp_path / "fit.json")])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(2.9701952490421646, abs=1e-6)
        assert round(printed, 5) == 2.97020

    def test_unconverged_fit_exits_numeric_and_prints_no_threshold(self, tmp_path, capsys):
        fit = cs.FitReport(cs.GevParams(0.0, 0.0, 1.0), -1.0, 200, False, 1000, 1e-9)
        io.write_fit_json(tmp_path / "fit.json", fit)
        assert main(["threshold", "--pf", "0.05", "--fit", str(tmp_path / "fit.json")]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: noise-model fit did not converge\n"
        assert captured.out == ""

    def test_missing_fit_file_is_io_error(self, tmp_path, capsys):
        code = main(["threshold", "--pf", "0.05", "--fit", str(tmp_path / "nope.json")])
        assert code == 4

    @pytest.mark.parametrize("change, message", [
        (lambda text: text[:-3], "Expecting"),                        # truncated JSON
        (lambda text: text.replace('"mu"', '"location"'), "'mu'"),    # missing key
        (lambda text: text.replace('"sigma": 1.0', '"sigma": 0.0'), "sigma must be positive"),
        (lambda text: text.replace('"sigma": 1.0', '"sigma": -1.0'), "sigma must be positive"),
        (lambda text: text.replace('"kappa": 0.0', '"kappa": NaN'), "kappa must be finite"),
        (lambda text: text.replace('"kappa": 0.0', '"kappa": Infinity'), "kappa must be finite"),
        (lambda text: text.replace('"kappa": 0.0', '"kappa": -Infinity'), "kappa must be finite"),
        (lambda text: text.replace('"converged": true', '"converged": "false"'),
         "converged must be true or false"),
        (lambda text: text.replace('"converged": true', '"converged": 1'),
         "converged must be true or false"),
        (lambda text: text.replace('"kappa": 0.0', '"kappa": true'), "kappa must be finite"),
        (lambda text: text.replace('"log_likelihood": -1.0', '"log_likelihood": "-1.0"'),
         "log_likelihood must be finite"),
        (lambda text: text.replace('"sample_count": 1000', '"sample_count": 1000.0'),
         "sample_count must be a JSON integer"),
        (lambda text: text.replace('"iterations": 5', '"iterations": false'),
         "solver.iterations must be a JSON integer"),
        (lambda text: text.replace('"tol": 1e-09', '"tol": NaN'), "solver.tol must be finite"),
        (lambda text: text.replace('"mu": 0.0', '"mu": 1' + '0' * 400), "mu must be finite"),
        (lambda text: json.dumps({**json.loads(text), "solver": None}),
         "solver must be a JSON object"),
        (lambda text: json.dumps({**json.loads(text), "seed": 7}), "unknown ['seed']"),
        (lambda text: text.replace('"tol"', '"max_iter": 200, "tol"'), "unknown ['max_iter']"),
        (lambda text: text.replace('"iterations": 5,', ''), "missing ['iterations']"),
        (lambda text: "[]", "top level must be a JSON object"),
    ], ids=["bad-json", "missing-key", "sigma-zero", "sigma-negative", "kappa-nan",
            "kappa-inf", "kappa-minus-inf", "converged-string", "converged-integer",
            "kappa-bool", "log-likelihood-string", "sample-count-float", "iterations-bool",
            "tol-nan", "mu-beyond-float", "solver-null", "extra-key", "extra-solver-key",
            "missing-solver-key", "not-an-object"])
    def test_malformed_fit_json_is_config_error(self, tmp_path, change, message, capsys):
        path = tmp_path / "fit.json"
        io.write_fit_json(path, cs.FitReport(cs.GevParams(0.0, 0.0, 1.0), -1.0, 5, True, 1000, 1e-9))
        text = path.read_text()
        path.write_text(change(text))
        assert path.read_text() != text
        assert main(["threshold", "--pf", "0.05", "--fit", str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out


class TestRoc:
    def test_emits_curves_fit_histogram_plan(self, tmp_path, plan_path, mini_plan):
        out = tmp_path / "r"
        assert main(["roc", "--plan", str(plan_path), "--out", str(out)]) == 0
        for snr in mini_plan.snr_db_list:
            assert (out / f"roc_{snr:g}.csv").exists()
        assert (out / "fit.json").exists()
        assert (out / "histogram.csv").exists()
        resolved = io.read_plan_json(out / "plan.json")
        assert resolved == mini_plan

    def test_unconverged_fit_writes_model_and_no_curves(self, tmp_path, plan_path,
                                                        unconverged_fit, capsys):
        out = tmp_path / "r"
        assert main(["roc", "--plan", str(plan_path), "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["fit.json", "histogram.csv"]
        assert json.loads((out / "fit.json").read_text())["converged"] is False

    def test_byte_identical_across_runs_and_jobs(self, tmp_path, plan_path):
        out_a, out_b = tmp_path / "r1", tmp_path / "r2"
        main(["roc", "--plan", str(plan_path), "--out", str(out_a), "--jobs", "1"])
        main(["roc", "--plan", str(plan_path), "--out", str(out_b), "--jobs", "2"])
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_one_runner_call_and_no_threshold_of_its_own(self, tmp_path, plan_path,
                                                          monkeypatch):
        calls, run = [], harness._run
        monkeypatch.setattr(harness, "_run",
                            lambda tasks, jobs: calls.append(len(tasks)) or run(tasks, jobs))
        for name in ("threshold_for_pf", "collect_noise_profile"):  # other commands' helpers
            monkeypatch.delattr(cli, name)
        assert main(["roc", "--plan", str(plan_path), "--out", str(tmp_path / "r")]) == 0
        assert calls == [6]  # fit, H0 and 2 SNRs x 2 H1 batches, one block each

    def test_outputs_are_pinned_bit_for_bit(self, tmp_path, plan_path):
        out = tmp_path / "r"
        assert main(["roc", "--plan", str(plan_path), "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for name, data in tree_bytes(out).items():
            digest.update(name.encode() + b"\0" + data)
        assert digest.hexdigest() == ROC_DIGEST

    def test_snrs_sharing_a_file_name_are_config_error(self, tmp_path, mini_plan, capsys):
        bad = io.write_plan_json(tmp_path / "plan.json",
                                 replace(mini_plan, snr_db_list=(-10.00001, -10.00002)))
        out = tmp_path / "r"
        assert main(["roc", "--plan", str(bad), "--out", str(out)]) == 2
        assert "roc_<snr>.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_matches_run_roc_values(self, tmp_path, plan_path, mini_plan):
        out = tmp_path / "r"
        main(["roc", "--plan", str(plan_path), "--out", str(out)])
        curves = cs.run_roc(mini_plan, cs.fit_gev_mle(cs.collect_noise_profile(mini_plan)))
        lines = (out / f"roc_{mini_plan.snr_db_list[0]:g}.csv").read_text().splitlines()
        theoretical, empirical = curves[0]
        for line, preset, (pf_e, pd_e), (_, pd_t) in zip(
                lines[1:], mini_plan.pf_grid, empirical.points, theoretical.points):
            cells = line.split(",")
            assert float(cells[0]) == pytest.approx(preset, rel=1e-8)
            assert float(cells[1]) == pytest.approx(pf_e, rel=1e-8)
            assert float(cells[2]) == pytest.approx(pd_t, rel=1e-8)
            assert float(cells[3]) == pytest.approx(pd_e, rel=1e-8)
            assert int(cells[5]) == mini_plan.signal_windows_m


class TestOverridesAndErrors:
    def test_set_override_reflected_in_plan(self, tmp_path, plan_path):
        out = tmp_path / "g"
        code = main(["gen", "--plan", str(plan_path), "--out", str(out),
                     "--set", "master_seed=123", "--set", "signal.modulation_index=0.25"])
        assert code == 0
        resolved = json.loads((out / "plan.json").read_text())
        assert resolved["master_seed"] == 123
        assert resolved["signal"]["modulation_index"] == 0.25

    def test_unknown_override_key_is_config_error(self, tmp_path, plan_path, capsys):
        code = main(["gen", "--plan", str(plan_path), "--out", str(tmp_path / "g"),
                     "--set", "signal.carier=1"])
        assert code == 2

    def test_invalid_plan_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps({"signal": {}}))
        code = main(["collect", "--plan", str(bad), "--out", str(tmp_path / "c")])
        assert code == 2

    def test_missing_plan_file_is_io_error(self, tmp_path):
        code = main(["collect", "--plan", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "c")])
        assert code == 4

    @pytest.mark.parametrize("command", ["gen", "scd", "collect", "roc"])
    @pytest.mark.parametrize("section, key", [("signal", "modulaton_index"), ("scd", "tapr")])
    def test_unknown_plan_key_is_config_error_and_writes_no_file(self, tmp_path, mini_plan,
                                                                 command, section, key, capsys):
        payload = io.plan_to_dict(mini_plan)
        payload[section][key] = 0.9
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main([command, "--plan", str(bad), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_plan_invariant_is_config_error(self, tmp_path, plan_path, capsys):
        code = main(["collect", "--plan", str(plan_path), "--out", str(tmp_path / "c"),
                     "--set", "noise_windows=10"])
        assert code == 2

    @pytest.mark.parametrize("key, value", [("noise_windowz", 5),
                                            ("conventions", {"noise_variance": 2.0})])
    def test_unknown_top_level_key_or_conventions_is_config_error(self, tmp_path, mini_plan,
                                                                 key, value, capsys):
        payload = io.plan_to_dict(mini_plan)
        payload[key] = value
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "g"
        assert main(["gen", "--plan", str(bad), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", ["noise_windowz=5", "conventions.noise_variance=2"])
    def test_override_outside_the_plan_schema_is_config_error(self, tmp_path, plan_path,
                                                              override):
        out = tmp_path / "g"
        assert main(["gen", "--plan", str(plan_path), "--out", str(out), "--set", override]) == 2
        assert not out.exists()

    def test_override_may_set_an_optional_key_the_file_omits(self, tmp_path, mini_plan):
        payload = io.plan_to_dict(mini_plan)
        del payload["scd"]["taper"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "g"
        assert main(["gen", "--plan", str(path), "--out", str(out),
                     "--set", "scd.taper=rectangular"]) == 0
        assert json.loads((out / "plan.json").read_text())["scd"]["taper"] == "rectangular"

    def test_feature_column_shorter_than_smoothing_is_config_error(self, tmp_path, plan_path,
                                                                   capsys):
        # K=1024: a 1.45 MHz carrier puts the feature at bin 990, 34 cells against L=301
        out = tmp_path / "c"
        assert main(["collect", "--plan", str(plan_path), "--out", str(out),
                     "--set", "signal.carrier_freq_hz=1.45e6"]) == 2
        assert "34 valid cells" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scd", "roc"])
    def test_overflowing_snr_is_config_error_and_creates_no_out(self, tmp_path, plan_path,
                                                                command, capsys):
        out = tmp_path / "out"
        assert main([command, "--plan", str(plan_path), "--out", str(out),
                     "--set", "snr_db=[4000]"]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_finite_statistic_is_config_error_and_writes_no_curves(self, tmp_path, plan_path,
                                                                       jobs, capsys):
        # 3075 dB passes the plan's power-ratio check, but the cyclic product
        # of every H1 window overflows; roc writes nothing, not even the noise
        # model, until the last window has run
        out = tmp_path / "out"
        assert main(["roc", "--plan", str(plan_path), "--out", str(out), "--jobs", jobs,
                     "--set", "snr_db=[3075]"]) == 2
        assert "h1 window statistic at 3075 dB is nan" in capsys.readouterr().err
        assert not [p for p in out.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("command, override", [("collect", "noise_windows=150.5"),
                                                   ("roc", "signal_windows=120.5"),
                                                   ("gen", "master_seed=7.5"),
                                                   ("scd", "scd.window_length_k=1e400"),
                                                   ("scd", "scd.smoothing_length=1e400"),
                                                   ("scd", "signal.duration_samples=1e400"),
                                                   ("scd", "scd.alpha_bins=[1e400]"),
                                                   ("scd", "scd.smoothing_length=301.5"),
                                                   ("scd", "scd.alpha_bins=[682.5]"),
                                                   ("scd", "signal.duration_samples=2048.5")])
    def test_non_integer_count_or_seed_is_config_error_and_creates_no_out(
            self, tmp_path, plan_path, command, override, capsys):
        # JSON reads 1e400 as inf, which int() cannot convert
        out = tmp_path / "out"
        assert main([command, "--plan", str(plan_path), "--out", str(out),
                     "--set", override]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()

    # no plan key takes true or false, which Python would read as 1 and 0
    @pytest.mark.parametrize("override, key", [
        ("scd.smoothing_length=true", "scd.smoothing_length"),
        ("master_seed=true", "master_seed"),
        ("master_seed=false", "master_seed"),
        ("scd.alpha_bins=[false, 2]", "scd.alpha_bins[0]"),
        ("snr_db=[true]", "snr_db[0]"),
        ("signal.modulation_index=true", "signal.modulation_index"),
        ("scd.taper=false", "scd.taper"),
        ("conventions.noise_variance=true", "conventions.noise_variance"),
        ("scd.alpha_bins=abc", "scd.alpha_bins"),
        ("scd.alpha_bins=[2, \"abc\"]", "scd.alpha_bins[1]"),
        ("noise_windows=null", "noise_windows")])
    def test_boolean_or_non_number_is_config_error_naming_the_key(self, tmp_path, plan_path,
                                                                  override, key, capsys):
        out = tmp_path / "out"
        assert main(["scd", "--plan", str(plan_path), "--out", str(out), "--set", override]) == 2
        assert f"plan {key} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    @pytest.mark.parametrize("field", ["sample_rate_hz", "carrier_freq_hz",
                                       "baseband_bandwidth_hz"])
    @pytest.mark.parametrize("command", ["gen", "scd", "collect", "roc"])
    def test_non_finite_rate_or_frequency_is_config_error_and_creates_no_out(
            self, tmp_path, plan_path, command, field, value, capsys):
        out = tmp_path / "out"
        assert main([command, "--plan", str(plan_path), "--out", str(out),
                     "--set", f"signal.{field}={value}"]) == 2
        assert f"{field} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_seed_writes_the_int_plan(self, tmp_path, plan_path):
        for name, seed in (("int", "7"), ("float", "7.0")):
            assert main(["gen", "--plan", str(plan_path), "--out", str(tmp_path / name),
                         "--set", f"master_seed={seed}"]) == 0
        assert tree_bytes(tmp_path / "float") == tree_bytes(tmp_path / "int")
        assert json.loads((tmp_path / "int" / "plan.json").read_text())["master_seed"] == 7

    @pytest.mark.parametrize("command", ["gen", "scd", "collect", "roc"])
    def test_zero_jobs_is_config_error_and_creates_no_out(self, tmp_path, plan_path, command,
                                                          capsys):
        out = tmp_path / "out"
        assert main([command, "--plan", str(plan_path), "--out", str(out), "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "scd"])
    def test_plan_too_large_for_memory_is_config_error_and_creates_no_out(
            self, tmp_path, plan_path, command, capsys):
        # 8e15 bytes of float64 samples exceed the user address space, so the
        # first allocation fails at once without touching memory
        out = tmp_path / "out"
        assert main([command, "--plan", str(plan_path), "--out", str(out),
                     "--set", "signal.duration_samples=1e15"]) == 2
        assert "Unable to allocate" in capsys.readouterr().err
        assert not out.exists()
