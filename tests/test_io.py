"""File format round trips and schema pins."""

import hashlib
import json
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cyclosense as cs
from cyclosense import cli, harness, io
from cyclosense.scd import TAPERS


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
        data_path, meta_path = io.write_scd_matrix(tmp_path / "scd", mat)
        header = json.loads(meta_path.read_text())
        assert header["shape"] == [256, 2]
        assert header["dtype"] == "complex64"
        assert header["alpha_bins"] == [0, 84]
        assert header["valid_runs"][1] == [42, 256 - 1 - 42]
        raw = np.frombuffer(data_path.read_bytes(), dtype="<c8").reshape(256, 2)
        np.testing.assert_allclose(raw, mat.values.astype(np.complex64), rtol=0, atol=0)
        assert header["config"]["smoothing_length"] == cfg.smoothing_length

    def test_header_alpha_bins_are_the_config_grid(self, tmp_path, rng):
        cfg = cs.ScdConfig(256, 31, (84, -20, 0), taper="rectangular")
        mat = cs.estimate_scd(cs.SampleBuffer(rng.standard_normal(256), 3.0e6), cfg)
        assert mat.config == cfg
        _, meta_path = io.write_scd_matrix(tmp_path / "scd", mat)
        header = json.loads(meta_path.read_text())
        assert header["alpha_bins"] == header["config"]["alpha_bins"] == [84, -20, 0]
        assert header["config"]["taper"] == "rectangular"

    def test_desk_export_digests(self, tmp_path):
        # what `cyclosense scd` writes for the desk plan, header included
        plan = cs.desk_plan()
        mat = cs.estimate_scd(harness.export_window(plan), plan.scd_cfg)
        paths = io.write_scd_matrix(tmp_path / "scd", mat)
        assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths] == [
            "317699a932e530afa4fba62107d41460ded056c7434e277b038799c8debf09bb",
            "be2e1b97c1d6b725de142d7da1beb358f55aba91f574a8009fab7f310b055e93"]

    def test_desk_export_digests_through_the_command(self, tmp_path):
        # the command estimates into the file's complex64 layout; the same bits
        # as test_desk_export_digests, which casts a complex128 matrix
        io.write_plan_json(tmp_path / "plan.json", cs.desk_plan())
        out = tmp_path / "out"
        assert cli.main(["scd", "--plan", str(tmp_path / "plan.json"), "--out", str(out)]) == 0
        paths = [out / "scd.c64", out / "scd.json"]
        assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths] == [
            "317699a932e530afa4fba62107d41460ded056c7434e277b038799c8debf09bb",
            "be2e1b97c1d6b725de142d7da1beb358f55aba91f574a8009fab7f310b055e93"]

    @pytest.mark.parametrize("cell", [np.nan, np.inf, complex(0.0, -1e39)])
    def test_a_cell_not_finite_in_complex64_writes_no_file(self, tmp_path, cell):
        cfg = cs.ScdConfig(64, 5, (0, 4, -8))
        values = np.ones((64, 3), dtype=np.complex128)
        values[40, 1] = cell
        with pytest.raises(FloatingPointError, match="^1 of 192 SCD cells are not finite"):
            io.write_scd_matrix(tmp_path / "scd", cs.ScdMatrix(values, cfg, 3.0e6))
        assert list(tmp_path.iterdir()) == []

    def test_finite_cells_whose_float32_sum_overflows_are_written(self, tmp_path):
        cfg = cs.ScdConfig(64, 5, (0, 4, -8))
        big = float(np.finfo(np.float32).max)
        values = np.full((64, 3), complex(big, -big) * 0.75, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(values.astype("<c8").view("<f4").sum())
        data_path, _ = io.write_scd_matrix(tmp_path / "scd", cs.ScdMatrix(values, cfg, 3.0e6))
        assert data_path.read_bytes() == values.astype("<c8").tobytes()


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

    @pytest.mark.parametrize("samples", [[], [1 + 1j, 2.0], np.ones((3, 3)), [0.5, np.nan]],
                             ids=["empty", "complex", "2-D", "nan"])
    def test_samples_pass_the_one_sample_check(self, tmp_path, samples):
        with pytest.raises(ValueError, match="^samples must"):
            io.write_histogram_csv(tmp_path / "h.csv", samples)
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("bins", [2.5, True, "3", 0, -1, np.inf, np.nan, 1j], ids=repr)
    def test_bins_pass_the_one_integer_check(self, tmp_path, bins):
        with pytest.raises(ValueError, match=f"^bins must be an integer of at least 1, got "
                                             f"{re.escape(repr(bins))}$"):
            io.write_histogram_csv(tmp_path / "h.csv", np.arange(8.0), bins)
        assert not (tmp_path / "h.csv").exists()

    # None is the Sturges count, ceil(log2(8)) + 1 for 8 samples
    @pytest.mark.parametrize("bins, rows", [(None, 4), (1, 1), (3, 3), (np.int64(3), 3),
                                            (3.0, 3)], ids=repr)
    def test_whole_number_bins_write_that_many_rows(self, tmp_path, bins, rows):
        path = io.write_histogram_csv(tmp_path / "h.csv", np.arange(8.0), bins)
        assert len(path.read_text().splitlines()) == 1 + rows


class TestRocCsv:
    def test_format_and_precision(self, tmp_path, mini_plan):
        plan = replace(mini_plan, pf_grid=(0.01, 0.5), noise_windows_l=1000, signal_windows_m=999)
        path = io.write_roc_csv(
            tmp_path / "roc.csv", plan,
            thresholds=np.array([0.123456789123, 0.05]),
            h0_counts=np.array([12, 498]),
            h1_counts=np.array([[777, 998], [749, 999]]),  # (theoretical, empirical) x pf
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "pf_preset,pf_empirical,pd_theoretical_curve,pd_empirical,threshold,trials"
        first = lines[1].split(",")
        assert first[2] == "0.777777778"  # 777 / 999 to 9 significant digits
        assert first[5] == "999"
        assert lines[1:] == ["0.01,0.012,0.777777778,0.74974975,0.123456789,999",
                             "0.5,0.498,0.998998999,1,0.05,999"]


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
        with pytest.raises(ValueError, match=re.escape(
                "plan top level must have exactly the keys ['conventions', 'master_seed', "
                "'noise_windows', 'pf_grid', 'scd', 'signal', 'signal_windows', 'snr_db']: "
                "missing ['master_seed', 'noise_windows', 'pf_grid', 'scd', 'signal_windows', "
                "'snr_db']")):
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

    def test_unknown_top_level_key_is_config_error(self, mini_plan):
        payload = io.plan_to_dict(mini_plan)
        payload["noise_windowz"] = 5
        with pytest.raises(ValueError, match="noise_windowz"):
            io.plan_from_dict(payload)

    @pytest.mark.parametrize("change", [{"noise_variance": 2.0},
                                        {"snr_bandwidth": "occupied bandwidth"},
                                        {"noise_figure_db": 0.0}])
    def test_conventions_may_be_omitted_but_not_changed(self, mini_plan, change):
        payload = io.plan_to_dict(mini_plan)
        del payload["conventions"]
        assert io.plan_from_dict(payload) == mini_plan
        payload["conventions"] = {**io.plan_to_dict(mini_plan)["conventions"], **change}
        with pytest.raises(ValueError, match="conventions"):
            io.plan_from_dict(payload)

    @pytest.mark.parametrize("section, key, value, message", [
        ("scd", "window_length_k", True, "plan scd.window_length_k must be a number, got True"),
        (None, "pf_grid", [0.01, False], "plan pf_grid[1] must be a number, got False"),
        ("signal", "modulation", True, "plan signal.modulation must be a string, got True"),
        ("signal", "sample_rate_hz", "3e6", "plan signal.sample_rate_hz must be a number"),
        (None, "snr_db", -10.0, "plan snr_db must be a list of numbers, got -10.0")])
    def test_value_of_the_wrong_json_type_is_config_error(self, mini_plan, section, key, value,
                                                          message):
        payload = io.plan_to_dict(mini_plan)
        (payload[section] if section else payload)[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            io.plan_from_dict(payload)


def test_plan_schema_matches_the_plan_and_its_dataclasses():
    def assert_same_keys(schema, payload, path):
        assert schema.keys() == payload.keys(), path
        for key, kind in schema.items():
            if isinstance(kind, dict):
                assert_same_keys(kind, payload[key], f"{path}.{key}")

    assert_same_keys(io._PLAN_SCHEMA, io.plan_to_dict(cs.desk_plan()), "plan")
    defaults = {f"{section}.{field.name}"
                for section, spec in (("signal", cs.SignalSpec), ("scd", cs.ScdConfig))
                for field in fields(spec) if field.default is not MISSING}
    assert io._PLAN_OPTIONAL == defaults | {"conventions"}


@st.composite
def plans(draw):
    """Valid plans: the feature bin leaves at least smoothing_length cells."""
    k = 2 ** draw(st.integers(4, 12))
    length = draw(st.integers(1, k // 2)) | 1
    fs = draw(st.floats(1.0, 1e9))
    fc = fs / 2 * draw(st.floats(1e-3, (k - length - 2) / k))
    signal = cs.SignalSpec(fc, fc * draw(st.floats(1e-3, 0.999)), fs,
                           draw(st.integers(2 * k, 4 * k)),
                           modulation_index=draw(st.floats(0.0, 1.0)))
    bins = st.integers(1 - k // 2, k // 2 - 1).map(lambda half: 2 * half)
    scd = cs.ScdConfig(k, length, tuple(draw(st.lists(bins, min_size=1, max_size=4, unique=True))),
                       draw(st.sampled_from(TAPERS)))
    pfs = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return cs.ExperimentPlan(
        signal, scd, draw(st.integers(100, 10**6)), draw(st.integers(100, 10**6)),
        tuple(draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=4))),
        tuple(sorted(draw(st.lists(pfs, min_size=1, max_size=7, unique=True)))),
        draw(st.integers(0, 2**63)),
    )


@settings(deadline=None, derandomize=True, database=None)
@given(plans())
def test_plan_dict_round_trip_through_json(plan):
    assert io.plan_from_dict(json.loads(json.dumps(io.plan_to_dict(plan)))) == plan
