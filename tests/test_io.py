"""File format round trips and schema pins."""

import json

import numpy as np
import pytest

import cyclosense as cs
from cyclosense import io


@pytest.fixture
def fit_report():
    return cs.fit_gumbel_mle(cs.sample_gev(cs.GevParams(0.0, 5.0, 2.0), 500, seed=1))


class TestSignalFiles:
    def test_round_trip_preserves_samples_exactly(self, tmp_path, rng):
        spec = cs.SignalSpec(1.0e6, 1.0e4, 3.0e6, 2048)
        buf = cs.generate_am(spec, seed=9)
        data_path, meta_path = io.write_signal(tmp_path / "sig", buf, spec, seed=9)
        assert data_path.suffix == ".f64"
        back = np.frombuffer(data_path.read_bytes(), dtype="<f8")
        assert np.array_equal(back, buf.samples)
        assert json.loads(meta_path.read_text())["sample_rate_hz"] == buf.sample_rate_hz

    def test_sidecar_records_rate_seed_spec_power(self, tmp_path):
        spec = cs.SignalSpec(1.0e6, 1.0e4, 3.0e6, 2048)
        buf = cs.generate_am(spec, seed=4)
        _, meta_path = io.write_signal(tmp_path / "sig", buf, spec, seed=4)
        sidecar = json.loads(meta_path.read_text())
        assert sidecar["sample_rate_hz"] == 3.0e6
        assert sidecar["seed"] == 4
        assert sidecar["spec"]["carrier_freq_hz"] == 1.0e6
        assert sidecar["power"] == buf.power

    def test_payload_is_little_endian_float64(self, tmp_path):
        buf = cs.SampleBuffer(np.array([1.0, -2.5, 3.25]), 8.0)
        data_path, _ = io.write_signal(tmp_path / "x", buf, cs.SignalSpec(2.0, 1.0, 8.0, 3), 0)
        raw = np.frombuffer(data_path.read_bytes(), dtype="<f8")
        assert np.array_equal(raw, buf.samples)


class TestScdFiles:
    def test_matrix_export(self, tmp_path, rng):
        cfg = cs.ScdConfig(256, 31, (0, 84))
        buf = cs.SampleBuffer(rng.standard_normal(256), 3.0e6)
        mat = cs.estimate_scd(buf, cfg)
        data_path, meta_path = io.write_scd_matrix(tmp_path / "scd", mat, cfg)
        header = json.loads(meta_path.read_text())
        assert header["shape"] == [256, 2]
        assert header["dtype"] == "complex64"
        assert header["alpha_bins"] == [0, 84]
        assert header["valid_runs"][1] == [42, 256 - 1 - 42]
        raw = np.frombuffer(data_path.read_bytes(), dtype="<c8").reshape(256, 2)
        np.testing.assert_allclose(raw, mat.values.astype(np.complex64), rtol=0, atol=0)
        assert header["config"]["smoothing_length"] == cfg.smoothing_length


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        maxima = np.array([0.5 + 0.001 * i for i in range(4)])
        path = io.write_profile_csv(tmp_path / "p.csv", 2.0e6, maxima)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha_hz,max_magnitude,window_index"
        assert lines[1:] == [f"2000000,{v:.9g},{i}" for i, v in enumerate(maxima)]
        samples = io.read_profile_samples(path)
        np.testing.assert_allclose(samples, [0.5, 0.501, 0.502, 0.503], rtol=1e-9)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            io.read_profile_samples(path)


class TestFitJson:
    def test_schema_and_round_trip(self, tmp_path, fit_report):
        path = io.write_fit_json(tmp_path / "fit.json", fit_report)
        payload = json.loads(path.read_text())
        assert set(payload) == {"kappa", "mu", "sigma", "log_likelihood",
                                "converged", "sample_count", "solver"}
        assert set(payload["solver"]) == {"tol", "iterations"}
        back = io.read_fit_json(path)
        assert back.params == fit_report.params
        assert back.log_likelihood == fit_report.log_likelihood
        assert back.iterations == fit_report.iterations


class TestHistogramCsv:
    def test_densities_integrate_to_one(self, tmp_path):
        samples = cs.sample_gev(cs.GevParams(0.0, 1.0, 0.5), 1000, seed=3)
        path = io.write_histogram_csv(tmp_path / "h.csv", samples, bins=20)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 20
        total = sum(float(density) * (float(hi) - float(lo)) for lo, hi, _, density in rows)
        assert total == pytest.approx(1.0, rel=1e-6)
        assert sum(int(count) for _, _, count, _ in rows) == 1000


class TestRocCsv:
    def test_format_and_precision(self, tmp_path):
        path = io.write_roc_csv(
            tmp_path / "roc.csv",
            theoretical=cs.RocCurve(((0.01, 0.7771234567891), (0.5, 0.999)), -10.0),
            empirical=cs.RocCurve(((0.012, 0.75), (0.498, 1.0)), -10.0),
            thresholds=[0.123456789123, 0.05],
            trials=1000,
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "pf_preset,pf_empirical,pd_theoretical_curve,pd_empirical,threshold,trials"
        first = lines[1].split(",")
        assert first[2] == "0.777123457"  # 9 significant digits
        assert first[5] == "1000"
        assert lines[1:] == ["0.01,0.012,0.777123457,0.75,0.123456789,1000",
                             "0.5,0.498,0.999,1,0.05,1000"]


class TestPlanJson:
    def test_round_trip_is_exact(self, tmp_path, mini_plan):
        path = io.write_plan_json(tmp_path / "plan.json", mini_plan)
        back = io.read_plan_json(path)
        assert back == mini_plan

    def test_rewrite_is_byte_identical(self, tmp_path, mini_plan):
        a = io.write_plan_json(tmp_path / "a.json", mini_plan)
        b = io.write_plan_json(tmp_path / "b.json", mini_plan)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_key_is_config_error(self, tmp_path):
        with pytest.raises(ValueError, match="missing required key"):
            io.plan_from_dict({"signal": {}})

    def test_unknown_signal_key_is_config_error(self, mini_plan):
        payload = io.plan_to_dict(mini_plan)
        payload["signal"]["modulaton_index"] = 0.9
        with pytest.raises(ValueError, match="modulaton_index"):
            io.plan_from_dict(payload)

    def test_missing_alpha_bins_is_config_error(self, mini_plan):
        payload = io.plan_to_dict(mini_plan)
        del payload["scd"]["alpha_bins"]
        with pytest.raises(ValueError, match="alpha_bins"):
            io.plan_from_dict(payload)

    def test_optional_fields_take_dataclass_defaults(self, mini_plan):
        payload = io.plan_to_dict(mini_plan)
        del payload["signal"]["modulation_index"], payload["scd"]["taper"]
        assert io.plan_from_dict(payload) == mini_plan  # mini_plan uses both defaults
