"""Monte Carlo harness: plan validation, determinism, curve structure, and
statistical sanity of the ROC protocol at reduced scale."""

import concurrent.futures
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cyclosense as cs
from cyclosense import harness, io
from cyclosense.cli import main
from cyclosense.harness import (STREAM_H0_TRIAL, STREAM_H1_TRIAL, STREAM_NOISE_FIT,
                                _block_task, _derived_seeds, _generator, _pcg64_states,
                                _statistic_task, derived_seed, exceedances)

STREAMS = [STREAM_NOISE_FIT, STREAM_H0_TRIAL, STREAM_H1_TRIAL, harness.STREAM_EXPORT_SIGNAL,
           harness.STREAM_EXPORT_NOISE]
MASTER_SEEDS = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**96)
WINDOW_INDICES = st.lists(st.integers(0, 10**6), min_size=1, max_size=16)


class TestPlanValidation:
    def test_desk_plan_is_valid(self):
        plan = cs.desk_plan()
        assert plan.alpha0_bin == 2730
        assert plan.scd_cfg.smoothing_length == 1301

    def test_full_plan_scales_noise_windows(self):
        assert cs.full_plan().noise_windows_l == 10000

    def test_pf_grid_must_increase(self, mini_plan):
        with pytest.raises(ValueError):
            replace(mini_plan, pf_grid=(0.1, 0.05))
        with pytest.raises(ValueError):
            replace(mini_plan, pf_grid=(0.0, 0.5))

    def test_minimum_trial_counts(self, mini_plan):
        with pytest.raises(ValueError):
            replace(mini_plan, noise_windows_l=50)
        with pytest.raises(ValueError):
            replace(mini_plan, signal_windows_m=99)

    @pytest.mark.parametrize("field, value", [("pf_grid", ("0.05", 0.1)), ("pf_grid", (True,)),
                                              ("snr_db_list", ("-5",))])
    def test_pf_and_snr_entries_must_be_numbers(self, mini_plan, field, value):
        # float() would read a string, and a bool as 0 or 1
        with pytest.raises(ValueError, match=rf"^{field} entry must be (in \(0, 1\)|finite), "
                                             rf"got {value[0]!r}$"):
            replace(mini_plan, **{field: value})

    def test_signal_must_cover_two_windows(self, mini_plan):
        short = cs.SignalSpec(1.0e6, 1.0e4, 3.0e6, 1024)
        with pytest.raises(ValueError, match="two analysis windows"):
            replace(mini_plan, signal_spec=short)

    def test_feature_column_must_cover_smoothing_length(self, mini_plan):
        desk = cs.desk_plan()
        with pytest.raises(ValueError, match="3960 leaves 136 valid cells"):
            replace(desk, signal_spec=replace(desk.signal_spec, carrier_freq_hz=1.45e6))
        # mini_plan's feature bin 682 of K=1024 leaves 342 cells
        replace(mini_plan, scd_cfg=replace(mini_plan.scd_cfg, smoothing_length=341))
        with pytest.raises(ValueError, match="342 valid cells"):
            replace(mini_plan, scd_cfg=replace(mini_plan.scd_cfg, smoothing_length=343))

    def test_master_seed_nonnegative(self, mini_plan):
        with pytest.raises(ValueError):
            replace(mini_plan, master_seed=-1)

    @pytest.mark.parametrize("field, value", [("noise_windows_l", 150.5),
                                              ("signal_windows_m", 120.5),
                                              ("noise_windows_l", "150"),
                                              ("master_seed", 7.5),
                                              ("master_seed", float("inf"))])
    def test_counts_and_seed_must_be_whole_numbers(self, mini_plan, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            replace(mini_plan, **{field: value})

    def test_integral_counts_and_seed_are_stored_as_int(self, mini_plan):
        plan = replace(mini_plan, noise_windows_l=150.0, signal_windows_m=np.int64(120),
                       master_seed=7.0)
        values = (plan.noise_windows_l, plan.signal_windows_m, plan.master_seed)
        assert values == (150, 120, 7) and all(type(v) is int for v in values)

    def test_window_counts_fit_the_32_bit_seed_index(self, mini_plan):
        replace(mini_plan, noise_windows_l=2**32, signal_windows_m=2**32)
        for field in ("noise_windows_l", "signal_windows_m"):
            with pytest.raises(ValueError, match="32-bit index"):
                replace(mini_plan, **{field: 2**32 + 1})

    def test_snr_power_ratio_must_fit_float64(self, mini_plan):
        replace(mini_plan, snr_db_list=(3000.0, -4000.0))
        with pytest.raises(ValueError, match="overflows"):
            replace(mini_plan, snr_db_list=(0.0, 4000.0))


class TestSeedFanOut:
    def test_derived_seeds_are_stable_and_distinct(self):
        a = derived_seed(42, 0, 7)
        assert a == derived_seed(42, 0, 7)
        assert a != derived_seed(42, 0, 8)
        assert a != derived_seed(42, 1, 7)
        assert a != derived_seed(43, 0, 7)

    def test_generator_from_state_words_draws_like_default_rng(self):
        for seed in (0, 7, 2**32 - 1, 2**32, derived_seed(42, STREAM_H1_TRIAL, 1, 0, 7, 1)):
            words = _pcg64_states(np.array([seed], np.uint64))[0]
            assert np.array_equal(_generator(words).standard_normal(4096),
                                  np.random.default_rng(seed).standard_normal(4096))


@settings(deadline=None, derandomize=True, database=None)
@given(master=MASTER_SEEDS, stream=st.sampled_from(STREAMS), indices=WINDOW_INDICES)
def test_vectorized_seeds_equal_seed_sequence(master, stream, indices):
    seeds = _derived_seeds(master, stream, np.array(indices, np.uint64))
    assert seeds.dtype == np.uint64
    assert [int(s) for s in seeds] == [derived_seed(master, stream, i) for i in indices]


@settings(deadline=None, derandomize=True, database=None)
@given(master=MASTER_SEEDS, snr_index=st.integers(0, 9), batch=st.integers(0, 1),
       indices=WINDOW_INDICES)
def test_vectorized_h1_seed_pairs_equal_seed_sequence(master, snr_index, batch, indices):
    seeds = _derived_seeds(master, STREAM_H1_TRIAL, snr_index, batch,
                           np.array(indices, np.uint64)[:, None], np.arange(2))
    assert seeds.tolist() == [[derived_seed(master, STREAM_H1_TRIAL, snr_index, batch, i, k)
                               for k in (0, 1)] for i in indices]


@settings(deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1),
                      min_size=1, max_size=16))
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_pcg64_state_words_equal_seed_sequence(seeds):
    words = _pcg64_states(np.array(seeds, np.uint64))
    expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    assert words.dtype == np.uint64 and np.array_equal(words, expected)


def scalar_statistic(plan, kind, snr_index, batch, index):
    """A window's statistic from integer derived_seed seeds, each drawn through
    np.random.default_rng: the recipe the block tasks must reproduce."""
    spec = replace(plan.signal_spec, duration_samples=plan.scd_cfg.window_length_k)

    def noise(seed):
        return cs.generate_awgn(spec.duration_samples, cs.NoiseSpec(1.0, seed),
                                spec.sample_rate_hz)

    if kind == "noise":
        stream = STREAM_NOISE_FIT if batch == 0 else STREAM_H0_TRIAL
        window = noise(derived_seed(plan.master_seed, stream, index))
    else:
        tags = (plan.master_seed, STREAM_H1_TRIAL, snr_index, batch, index)
        window = cs.mix_at_snr(cs.generate_am(spec, derived_seed(*tags, 0)),
                               noise(derived_seed(*tags, 1)), plan.snr_db_list[snr_index])
    column = replace(plan.scd_cfg, alpha_grid=(plan.alpha0_bin,))
    return float(cs.alpha_maxima(window.samples, column)[0])


SPLIT_WINDOWS = 24
SPLIT_BATCHES = [("noise", 0, 0), ("noise", 0, 1), ("h1", 1, 1)]


@pytest.fixture(scope="module")
def scalar_batches(mini_plan):
    return {batch: [scalar_statistic(mini_plan, *batch, i) for i in range(SPLIT_WINDOWS)]
            for batch in SPLIT_BATCHES}


@pytest.mark.parametrize("batch", SPLIT_BATCHES)
@settings(deadline=None, derandomize=True, database=None, max_examples=20)
@given(cuts=st.sets(st.integers(1, SPLIT_WINDOWS - 1), max_size=8))
@example(cuts=set(range(1, SPLIT_WINDOWS)))
def test_any_split_into_blocks_gives_the_same_statistics(mini_plan, scalar_batches, batch, cuts):
    bounds = [0, *sorted(cuts), SPLIT_WINDOWS]
    statistics = np.concatenate([_block_task((mini_plan, *batch, start, stop))
                                 for start, stop in zip(bounds, bounds[1:])])
    assert statistics.tolist() == scalar_batches[batch]


@pytest.mark.parametrize("batch", SPLIT_BATCHES)
@settings(deadline=None, derandomize=True, database=None, max_examples=15)
@given(start=st.integers(0, 40),
       length=st.integers(1, 3 * harness.ROWS).filter(lambda n: n % harness.ROWS))
def test_block_with_a_partial_sub_block_equals_each_window_alone(mini_plan, batch, start,
                                                                  length):
    statistics = _block_task((mini_plan, *batch, start, start + length))
    assert statistics.tolist() == [_statistic_task((mini_plan, *batch, i))
                                   for i in range(start, start + length)]


def all_statistics(plan, jobs=1):
    """run_windows' record as one array: the fit, H0 and H1 batches in order."""
    record = harness.run_windows(plan, jobs)
    return np.concatenate([record.fit, record.h0, record.h1.ravel()])


# a plan's windows as collect runs them and as roc runs them
WINDOW_RUNS = {"collect": cs.collect_noise_profile, "record": all_statistics}


class TestCollect:
    def test_values_positive_finite(self, mini_plan):
        samples = cs.collect_noise_profile(mini_plan)
        assert samples.shape == (mini_plan.noise_windows_l,)
        assert np.all(np.isfinite(samples)) and np.all(samples > 0)

    @pytest.mark.parametrize("windows", WINDOW_RUNS.values(), ids=WINDOW_RUNS.keys())
    def test_determinism(self, mini_plan, windows):
        statistics = windows(mini_plan)
        assert windows(mini_plan).tobytes() == statistics.tobytes()
        # the noise-fit batch comes first, bit for bit the collected profile
        profile = cs.collect_noise_profile(mini_plan)
        assert statistics[:mini_plan.noise_windows_l].tobytes() == profile.tobytes()

    def test_first_value_matches_direct_single_window_computation(self, mini_plan):
        samples = cs.collect_noise_profile(mini_plan)
        seed = derived_seed(mini_plan.master_seed, STREAM_NOISE_FIT, 0)
        window = cs.generate_awgn(mini_plan.scd_cfg.window_length_k,
                                  cs.NoiseSpec(1.0, seed),
                                  mini_plan.signal_spec.sample_rate_hz)
        column = replace(mini_plan.scd_cfg, alpha_grid=(mini_plan.alpha0_bin,))
        scd = cs.estimate_scd(window, column)
        direct = np.max(np.abs(scd.values[scd.valid_mask[:, 0], 0]))
        assert samples[0] == direct

    @pytest.mark.parametrize("windows", WINDOW_RUNS.values(), ids=WINDOW_RUNS.keys())
    def test_parallel_equals_serial(self, mini_plan, windows):
        expected = windows(mini_plan, 1)
        for jobs in (2, 3):  # 150 noise or 120 signal windows: one block per batch
            assert windows(mini_plan, jobs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("windows", WINDOW_RUNS.values(), ids=WINDOW_RUNS.keys())
    def test_block_size_and_jobs_do_not_change_results(self, mini_plan, monkeypatch, windows):
        expected = windows(mini_plan)
        for block in (16, 7):
            monkeypatch.setattr(harness, "BLOCK_WINDOWS", block)
            assert len(harness._blocks(mini_plan, "noise", 0, 0, 150)) == -(-150 // block)
            for jobs in (1, 2):
                assert windows(mini_plan, jobs).tobytes() == expected.tobytes()


def histogram_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def write_samples(path, samples):
    io.write_profile_csv(path, 2.0e6, samples)
    return str(path)


class TestFitAndHistogram:
    """The noise model's outputs: its KS distance, the histogram.csv binning
    and the sample checks of `cyclosense fit`."""

    def test_counts_and_ks(self, mini_plan, tmp_path):
        samples = cs.collect_noise_profile(mini_plan)
        fitted = cs.fit_gev_mle(samples).params
        rows = histogram_rows(io.write_histogram_csv(tmp_path / "h.csv", samples))
        assert sum(int(count) for _, _, count, _ in rows) == samples.size
        # independent KS computation
        xs = np.sort(samples)
        n = xs.size
        model = cs.cdf(xs, fitted)
        expected = max(np.max(np.arange(1, n + 1) / n - model),
                       np.max(model - np.arange(n) / n))
        assert cs.ks_statistic(samples, fitted) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 999, 10_000])
    @pytest.mark.parametrize("kappa", [-0.3, 0.0, 0.4])
    def test_ks_equals_the_two_arange_formula_bit_for_bit(self, n, kappa):
        samples = np.round(cs.sample_gev(cs.GevParams(kappa, 0.0427, 0.0183), n, seed=5), 4)
        fitted = cs.GevParams(kappa + 0.01, 0.043, 0.018)  # ties, and a model off the draws
        model = cs.cdf(np.sort(samples), fitted)
        expected = max(np.max(np.arange(1, n + 1) / n - model),
                       np.max(model - np.arange(0, n) / n))
        assert cs.ks_statistic(samples, fitted).hex() == float(expected).hex()

    def test_synthetic_gev_recovery(self, tmp_path):
        truth = cs.GevParams(0.1, 3.0, 0.5)
        samples = cs.sample_gev(truth, 10000, seed=77)
        fitted = cs.fit_gev_mle(samples).params
        assert len(histogram_rows(io.write_histogram_csv(tmp_path / "h.csv", samples, 40))) == 40
        assert abs(fitted.kappa - truth.kappa) <= 0.05
        assert abs(fitted.mu - truth.mu) <= 0.05
        assert abs(fitted.sigma - truth.sigma) <= 0.05

    def test_degenerate_samples_surface_fit_error(self, tmp_path, capsys):
        path = write_samples(tmp_path / "p.csv", np.full(150, 2.0))
        assert main(["fit", "--samples", path, "--out", str(tmp_path / "f")]) == 3
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [20, 50])
    def test_requires_hundred_samples(self, tmp_path, capsys, count):
        path = write_samples(tmp_path / "p.csv", np.arange(float(count)))
        assert main(["fit", "--samples", path, "--out", str(tmp_path / "f")]) == 2
        assert "at least 100 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("bins, code", [(0, 2), (-1, 2), (151, 2), (10**15, 2), (150, 0)])
    def test_bins_lie_between_one_and_the_sample_count(self, tmp_path, capsys, bins, code):
        path = write_samples(tmp_path / "p.csv", cs.sample_gev(cs.GevParams(0.0, 1.0, 0.5), 150,
                                                               seed=3))
        out = tmp_path / "f"
        assert main(["fit", "--samples", path, "--out", str(out), f"--bins={bins}"]) == code
        if code:
            assert "bins" in capsys.readouterr().err and list(out.iterdir()) == []
        else:
            assert len(histogram_rows(out / "histogram.csv")) == 150

    def test_sturges_default_bins(self, mini_plan, tmp_path):
        samples = cs.collect_noise_profile(mini_plan)
        rows = histogram_rows(io.write_histogram_csv(tmp_path / "h.csv", samples))
        assert len(rows) == int(np.ceil(np.log2(samples.size))) + 1


def fitted_roc(plan, jobs=1):
    """run_roc with the noise model fitted to the plan's noise maxima, both
    collected and swept on jobs worker processes."""
    return cs.run_roc(plan, cs.fit_gev_mle(cs.collect_noise_profile(plan, jobs)), jobs=jobs)


@pytest.fixture(scope="module")
def curves(mini_plan):
    return fitted_roc(mini_plan)


class TestRunRoc:
    def test_one_pair_per_snr(self, curves, mini_plan):
        assert len(curves) == len(mini_plan.snr_db_list)
        for snr_db, (theoretical, empirical) in zip(mini_plan.snr_db_list, curves):
            assert theoretical.snr_db == empirical.snr_db == snr_db
            assert len(theoretical.points) == len(mini_plan.pf_grid)
            assert len(empirical.points) == len(mini_plan.pf_grid)

    def test_rates_are_exceedance_counts_over_batch_sizes(self, curves, mini_plan):
        record = harness.run_windows(mini_plan)
        assert not record.h1.flags.writeable
        fit = cs.fit_gev_mle(record.fit)
        _, h0, h1 = harness.exceedances(record.h0, record.h1, fit.params, mini_plan.pf_grid)
        pf_empirical = [float(c) / mini_plan.noise_windows_l for c in h0]
        for (theoretical, empirical), (theory, signal) in zip(curves, h1):
            pd_theory, pd_empirical = ([float(c) / mini_plan.signal_windows_m for c in batch]
                                       for batch in (theory, signal))
            assert theoretical.points == tuple(zip(mini_plan.pf_grid, pd_theory))
            assert empirical.points == tuple(zip(pf_empirical, pd_empirical))

    def test_runs_the_h0_and_h1_blocks_of_run_windows_and_no_noise_fit_block(
            self, curves, mini_plan, monkeypatch):
        fit = cs.fit_gev_mle(cs.collect_noise_profile(mini_plan))
        logged, run = [], harness._run

        def logging(tasks, jobs):
            logged.append(list(tasks))
            return run(tasks, jobs)

        monkeypatch.setattr(harness, "_run", logging)
        roc = cs.run_roc(mini_plan, fit)
        harness.run_windows(mini_plan)
        roc_tasks, window_tasks = logged
        fit_block = (mini_plan, "noise", 0, 0)
        assert all(task[:4] != fit_block for task in roc_tasks)
        assert roc_tasks == [task for task in window_tasks if task[:4] != fit_block]
        # the curves of test_rates_are_exceedance_counts_over_batch_sizes
        assert roc == curves

    def test_theoretical_pf_coordinates_are_presets(self, curves, mini_plan):
        for theoretical, _ in curves:
            assert tuple(pf for pf, _ in theoretical.points) == mini_plan.pf_grid

    def test_pd_nondecreasing_in_pf(self, curves, mini_plan):
        slack = 2.0 / np.sqrt(mini_plan.signal_windows_m)
        for theoretical, empirical in curves:
            for curve in (theoretical, empirical):
                pds = [pd for _, pd in curve.points]
                assert all(b >= a - slack for a, b in zip(pds, pds[1:]))

    def test_pd_dominates_pf(self, curves, mini_plan):
        slack = 2.0 / np.sqrt(mini_plan.signal_windows_m)
        for _, empirical in curves:
            for pf, pd in empirical.points:
                assert pd >= pf - slack

    def test_empirical_pf_calibrated(self, curves, mini_plan):
        for _, empirical in curves:
            for preset, (pf_emp, _) in zip(mini_plan.pf_grid, empirical.points):
                bound = 3.0 * np.sqrt(preset * (1 - preset) / mini_plan.noise_windows_l)
                assert abs(pf_emp - preset) <= bound

    def test_high_snr_saturates(self, curves, mini_plan):
        idx = mini_plan.snr_db_list.index(0.0)
        theoretical, empirical = curves[idx]
        assert all(pd >= 0.99 for _, pd in theoretical.points)
        assert all(pd >= 0.99 for _, pd in empirical.points)

    def test_pure_function_of_plan(self, curves, mini_plan):
        again = fitted_roc(mini_plan)
        assert again == curves

    def test_worker_count_does_not_change_results(self, curves, mini_plan):
        for jobs in (2, 3):
            assert fitted_roc(mini_plan, jobs) == curves

    def test_block_size_does_not_change_results(self, curves, mini_plan, monkeypatch):
        monkeypatch.setattr(harness, "BLOCK_WINDOWS", 16)
        assert fitted_roc(mini_plan, 2) == curves

    def test_rejects_zero_jobs(self, mini_plan):
        fit = cs.fit_gumbel_mle(cs.sample_gev(cs.GevParams(0.0, 1.0, 0.5), 100, seed=1))
        for windows in (cs.collect_noise_profile, harness.run_windows,
                        lambda plan, jobs: cs.run_roc(plan, fit, jobs)):
            with pytest.raises(ValueError, match="at least 1"):
                windows(mini_plan, 0)

    # (CPUs this process may run on, jobs, workers the pool starts); a count
    # of 1 runs in process, and None is a platform without sched_getaffinity
    # whose os.cpu_count() is None
    @pytest.mark.parametrize("cpus, jobs, started", [(4, 100000, [4]), (4, 2, [2]),
                                                     (1, 3, []), (None, 8, [])])
    def test_pool_has_at_most_one_worker_per_cpu(self, mini_plan, monkeypatch, cpus, jobs,
                                                  started):
        workers = []

        class RecordingPool:  # maps in this process, so that no process starts
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        if cpus is None:
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        else:  # more CPUs in the machine than this process may use
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        # _run imports the pool class from concurrent.futures when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        tasks = harness._blocks(mini_plan, "noise", 0, 0, 8)
        statistics = harness._run(tasks, jobs)
        assert workers == started
        assert statistics.tobytes() == np.concatenate([_block_task(t) for t in tasks]).tobytes()


FS, K = 3.0e6, 1024
A0 = cs.snap_alpha_to_even_bin(2.0e6, FS, K)


def noise_statistic(seed):
    """Detection statistic of K unit-variance normals drawn from default_rng(seed)."""
    samples = np.random.default_rng(seed).standard_normal(K)
    return cs.alpha_maxima(samples, cs.ScdConfig(K, 301, (A0,)))[0]


class TestExceedances:
    """The strict T > threshold rule and the counts of harness.exceedances."""

    def test_threshold_monotonicity(self, counts_above):
        t = noise_statistic(5)
        assert counts_above([t], [t * 0.9, t * 1.1]) == [1, 0]

    def test_tie_decides_unoccupied(self, counts_above):
        t = noise_statistic(6)
        assert counts_above([t], [t]) == [0]

    def test_degenerate_minus_inf_threshold_always_occupied(self, counts_above):
        # Pd = Pf = 1 when the threshold is forced to -inf
        statistics = [noise_statistic(s) for s in range(20)]
        assert counts_above(statistics, [-np.inf]) == [20]

    def test_zero_window_is_unoccupied(self, counts_above):
        statistic = cs.alpha_maxima(np.zeros(K), cs.ScdConfig(K, 301, (A0,)))[0]
        assert statistic == 0.0
        assert counts_above([statistic], [1e-6]) == [0]

    def test_counts_per_snr_batch_and_pf(self):
        rng = np.random.default_rng(8)
        h0_batch, h1_batch = rng.gumbel(0.09, 0.04, 60), rng.gumbel(0.12, 0.04, (3, 2, 40))
        model, pfs = cs.GevParams(0.0, 0.09, 0.04), (0.01, 0.1, 0.3, 0.5)
        thresholds, h0, h1 = exceedances(h0_batch, h1_batch, model, pfs)
        assert thresholds.tolist() == [cs.threshold_for_pf(pf, model) for pf in pfs]
        assert h0.shape == (4,) and h1.shape == (3, 2, 4)  # (snr, batch, pf)
        assert h0.tolist() == [sum(t > lam for t in h0_batch) for lam in thresholds]
        for snr, batch in np.ndindex(3, 2):
            assert h1[snr, batch].tolist() == [sum(t > lam for t in h1_batch[snr, batch])
                                               for lam in thresholds]


class TestFittedThresholds:
    """Window statistics against the thresholds of a mini_plan noise fit."""

    @pytest.fixture(scope="class")
    def noise_fit(self, mini_plan):
        return cs.fit_gev_mle(cs.collect_noise_profile(mini_plan))

    @staticmethod
    def statistic(plan, samples):
        return cs.alpha_maxima(samples, replace(plan.scd_cfg, alpha_grid=(plan.alpha0_bin,)))[0]

    def test_strong_am_detected_at_one_percent_pf(self, mini_plan, noise_fit):
        threshold = cs.threshold_for_pf(0.01, noise_fit.params)
        spec = cs.SignalSpec(1.0e6, 1.0e4, FS, K)
        trials = 200
        hits = 0
        for i in range(trials):
            noise = cs.SampleBuffer(np.random.default_rng(2000 + i).standard_normal(K), FS)
            mixed = cs.mix_at_snr(cs.generate_am(spec, seed=1000 + i), noise, 0.0)
            hits += self.statistic(mini_plan, mixed.samples) > threshold
        assert hits >= 0.99 * trials

    def test_noise_only_false_alarm_rate_tracks_preset(self, mini_plan, noise_fit):
        threshold = cs.threshold_for_pf(0.2, noise_fit.params)
        trials = 300
        hits = sum(self.statistic(mini_plan, np.random.default_rng(5000 + i).standard_normal(K))
                   > threshold for i in range(trials))
        assert abs(hits / trials - 0.2) <= 3.0 * np.sqrt(0.2 * 0.8 / trials)


class TestRocCurveInvariants:
    def test_pf_must_ascend(self):
        with pytest.raises(ValueError):
            cs.RocCurve(((0.2, 0.5), (0.1, 0.6)), -10.0)

    def test_probabilities_bounded(self):
        with pytest.raises(ValueError):
            cs.RocCurve(((0.1, 1.2),), -10.0)


def ulps_apart(a: float, b: float) -> int:
    """Distance in units in the last place between two positive floats."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


class TestWindowBits:
    """float.hex of single desk windows, pinned so that a faster window path
    keeps every bit of the statistic. The pins are those of the real-FFT
    spectrum kernel; `parent` holds each window's value under the full
    complex-FFT kernel it replaced, which moved the statistics by 0-4 ulp."""

    PINNED = {
        ("noise", 0, 0): "0x1.025d82eac04c2p-5",
        ("noise", 0, 1): "0x1.caf3998dcf7bbp-5",
        ("h1", 0, 0): "0x1.a2a570d63ca52p-4",
        ("h1", 1, 0): "0x1.156a62d7e2012p-3",
        ("h1", 2, 0): "0x1.d3e43989efc6bp-2",
        ("h1", 3, 0): "0x1.49f2dcb699841p+0",
    }

    @pytest.mark.parametrize("kind, snr_index, batch, parent", [
        ("noise", 0, 0, "0x1.025d82eac04c3p-5"),   # noise-fit window
        ("noise", 0, 1, "0x1.caf3998dcf7bep-5"),   # H0 trial window
        ("h1", 0, 0, "0x1.a2a570d63ca56p-4"),      # -15 dB
        ("h1", 1, 0, "0x1.156a62d7e2012p-3"),      # -10 dB
        ("h1", 2, 0, "0x1.d3e43989efc6dp-2"),      # -5 dB
        ("h1", 3, 0, "0x1.49f2dcb699841p+0"),      # 0 dB
    ])
    def test_desk_window_statistic_bits(self, kind, snr_index, batch, parent):
        plan = cs.desk_plan()
        statistic = _statistic_task((plan, kind, snr_index, batch, 0))
        assert statistic.hex() == self.PINNED[kind, snr_index, batch]
        assert ulps_apart(statistic, float.fromhex(parent)) <= 8

    def test_desk_window_batch_digest(self):
        # 5 H1 windows per SNR and batch, then 10 noise-fit and 10 H0 windows
        plan = cs.desk_plan()
        tasks = ([(plan, "h1", s, b, i) for s in range(4) for b in (0, 1) for i in range(5)]
                 + [(plan, "noise", 0, b, i) for b in (0, 1) for i in range(10)])
        digest = hashlib.sha256(np.array([_statistic_task(t) for t in tasks]).tobytes())
        assert digest.hexdigest() == (
            "c7449aa3c3b47351708017106a5088c28490e3f4d3d7c83d96168f9e5bf50423")

    def test_desk_export_sample_digests(self):
        plan = cs.desk_plan()
        signal, seed = harness.export_signal(plan)
        assert seed == 18141372322412330060
        assert hashlib.sha256(signal.samples.tobytes()).hexdigest() == (
            "d4e836d4381f8eae5cfb553c3171d78a03a886800ae5efcca00b0762a0733753")
        assert hashlib.sha256(harness.export_window(plan).samples.tobytes()).hexdigest() == (
            "cbd05c41fcdc6950c712e55568639c7ef014a4bbc5e3335a4a00969d68b2bd8c")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_statistic_is_an_error(self, mini_plan):
        plan = replace(mini_plan, snr_db_list=(3075.0,))
        with pytest.raises(ValueError, match="h1 window statistic at 3075 dB is nan"):
            _statistic_task((plan, "h1", 0, 0, 0))


class TestWindowSource:
    """harness._window_rows, the one window source: a reduction written over
    its windows gets _block_task's statistics bit for bit without writing
    them, and the same windows reduced a second time, without a copy, get
    those of another plan. The source takes no consumer's buffers, so a
    kernel of any row count reduces its windows."""

    # (kind, snr_index, batch, start, stop) of the desk plan: a noise-fit and an
    # H0 block, H1 blocks at -15 and 0 dB, 7 windows (a short last sub-block)
    # and one window
    BLOCKS = [("noise", 0, 0, 0, 8), ("noise", 0, 1, 3, 11), ("h1", 0, 0, 0, 8),
              ("h1", 3, 1, 4, 12), ("h1", 1, 0, 5, 12), ("noise", 0, 1, 9, 10)]

    @staticmethod
    def buffers(plan, block):
        """The kernel buffers _block_task builds for block of plan."""
        cfg = replace(plan.scd_cfg, alpha_grid=(plan.alpha0_bin,))
        return cs.scd._KernelBuffers(min(harness.ROWS, block[4] - block[3]), cfg)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_a_reduction_over_the_source_equals_the_block_task(self, block):
        plan = cs.desk_plan()
        work = self.buffers(plan, block)
        statistics = np.empty(block[4] - block[3])
        for first, windows in harness._window_rows(plan, *block):
            before = windows.tobytes()
            statistics[first:first + len(windows)] = cs.scd._maxima(windows, work)[:, 0]
            assert windows.tobytes() == before  # the kernel only reads its input
        assert statistics.tobytes() == _block_task((plan, *block)).tobytes()

    @pytest.mark.parametrize("block", BLOCKS)
    def test_the_same_windows_reduce_at_a_second_smoothing_length(self, block):
        plan = cs.desk_plan()
        other = replace(plan, scd_cfg=replace(plan.scd_cfg, smoothing_length=301))
        work, other_work = self.buffers(plan, block), self.buffers(other, block)
        first_pass, second_pass = [], []
        for _, windows in harness._window_rows(plan, *block):
            first_pass.append(cs.scd._maxima(windows, work)[:, 0])
            second_pass.append(cs.scd._maxima(windows, other_work)[:, 0])
        assert np.concatenate(first_pass).tobytes() == _block_task((plan, *block)).tobytes()
        assert np.concatenate(second_pass).tobytes() == _block_task((other, *block)).tobytes()

    @pytest.mark.parametrize("block", [b for b in BLOCKS if b[0] == "h1"])
    def test_a_one_row_kernel_reduces_an_h1_block(self, block):
        plan = cs.desk_plan()
        cfg = replace(plan.scd_cfg, alpha_grid=(plan.alpha0_bin,))
        work = cs.scd._KernelBuffers(1, cfg)
        statistics = [cs.scd._maxima(window[None], work)[0, 0]
                      for _, windows in harness._window_rows(plan, *block) for window in windows]
        assert np.array(statistics).tobytes() == _block_task((plan, *block)).tobytes()


class TestH1Statistics:
    def test_h1_batches_differ_but_are_deterministic(self, mini_plan):
        a0 = [_statistic_task((mini_plan, "h1", 0, 0, i)) for i in range(5)]
        b0 = [_statistic_task((mini_plan, "h1", 0, 1, i)) for i in range(5)]
        assert a0 == [_statistic_task((mini_plan, "h1", 0, 0, i)) for i in range(5)]
        assert a0 != b0
