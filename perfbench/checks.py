"""Output checks for the benchmark workloads.

Each check reads the files one workload operation wrote and returns a list
of problems (empty when the outputs are correct). The checks use no timing,
host name or temporary path. Numbers printed with 9 significant digits are
compared with a tolerance of half a unit in the ninth digit, so last-bit
float changes in the program pass. Fitted values are checked by properties
that any correct maximum likelihood fit has, not by this version's digits,
so a better solver passes too.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ROC_HEADER = ["pf_preset", "pf_empirical", "pd_theoretical_curve",
              "pd_empirical", "threshold", "trials"]
PROFILE_HEADER = ["alpha_hz", "max_magnitude", "window_index"]

# Each empirical Pf may differ from its preset by PF_Z standard errors of
# the two sources of spread (the H0 count and the threshold fitted on
# another batch of the same size), plus PF_BIAS for the known misfit of the
# GEV model to the noise maxima (KS 0.02 at L=10,000). perfbench/README.md
# gives the study behind these values.
PF_Z = 4.5
PF_BIAS = 0.01

ORACLE_WINDOWS = 20
LL_REL_TOL = 1e-6
ROUND_TRIP_TOL = 1e-10
COMPLEX64_REL_TOL = 1e-6


def matches_printed(printed: float, reference: float) -> bool:
    """True when `printed` is `reference` rounded to 9 significant digits."""
    if reference == 0.0:
        return printed == 0.0
    exponent = math.floor(math.log10(abs(reference)))
    return abs(printed - reference) <= 0.51 * 10.0 ** (exponent - 8) + 1e-12 * abs(reference)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def pf_bound(pf: float, windows: int) -> float:
    """Largest |pf_empirical - pf| a correct program shows (see PF_Z)."""
    return PF_Z * math.sqrt(2.0 * pf * (1.0 - pf) / windows) + PF_BIAS


# ---------------------------------------------------------------- roc_desk

def check_roc(out_dir: Path, plan: dict) -> list[str]:
    """`cyclosense roc` outputs against the plan that produced them."""
    from cyclosense.gev import GevParams, threshold_for_pf

    problems: list[str] = []
    try:
        fit = json.loads((out_dir / "fit.json").read_text(encoding="utf-8"))
        params = GevParams(fit["kappa"], fit["mu"], fit["sigma"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"fit.json unreadable: {exc}"]
    if fit.get("converged") is not True:
        problems.append("fit.json: converged is not true")

    pf_grid = plan["pf_grid"]
    trials = plan["signal_windows"]
    noise_windows = plan["noise_windows"]
    first_pf_column = None
    for snr in plan["snr_db"]:
        name = f"roc_{snr:g}.csv"
        try:
            header, rows = _read_csv(out_dir / name)
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if header != ROC_HEADER:
            problems.append(f"{name}: header {header}")
            continue
        if len(rows) != len(pf_grid):
            problems.append(f"{name}: {len(rows)} rows, expected {len(pf_grid)}")
            continue
        try:
            table = np.array([[float(v) for v in row] for row in rows])
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        preset, pf_emp, pd_theory, pd_emp, threshold, trial_col = table.T
        pf_cells = [row[1] for row in rows]
        if first_pf_column is None:
            first_pf_column = pf_cells
        elif pf_cells != first_pf_column:
            problems.append(f"{name}: pf_empirical differs from the first SNR file")
        if np.any(trial_col != trials):
            problems.append(f"{name}: trials column is not {trials}")
        for pf, printed_pf, lam, observed in zip(pf_grid, preset, threshold, pf_emp):
            if not matches_printed(printed_pf, pf):
                problems.append(f"{name}: pf_preset {printed_pf} is not {pf}")
            if not matches_printed(lam, threshold_for_pf(pf, params)):
                problems.append(f"{name}: threshold {lam} at pf {pf} disagrees with fit.json")
            if abs(observed - pf) > pf_bound(pf, noise_windows):
                problems.append(f"{name}: pf_empirical {observed} at preset {pf} is "
                                f"outside +/-{pf_bound(pf, noise_windows):.4f}")
        for label, column, count in (("pf_empirical", pf_emp, noise_windows),
                                     ("pd_theoretical_curve", pd_theory, trials),
                                     ("pd_empirical", pd_emp, trials)):
            if np.any((column < 0) | (column > 1)):
                problems.append(f"{name}: {label} outside [0, 1]")
            if np.any(np.abs(column * count - np.round(column * count)) > 1e-6):
                problems.append(f"{name}: {label} is not a count over {count} windows")
        if np.any(np.diff(threshold) >= 0):
            problems.append(f"{name}: thresholds do not fall as pf rises")
        for label, column in (("pf_empirical", pf_emp), ("pd_theoretical_curve", pd_theory),
                              ("pd_empirical", pd_emp)):
            if np.any(np.diff(column) < 0):
                problems.append(f"{name}: {label} rises with the threshold")
    return problems


def max_abs_dpd(out_dir: Path, plan: dict) -> float:
    """Largest |pd_theoretical_curve - pd_empirical| over all ROC files."""
    worst = 0.0
    for snr in plan["snr_db"]:
        _, rows = _read_csv(out_dir / f"roc_{snr:g}.csv")
        for row in rows:
            worst = max(worst, abs(float(row[2]) - float(row[3])))
    return worst


# ------------------------------------------------------------ collect_full

def oracle_window_statistic(samples: np.ndarray, alpha_bin: int, smoothing_length: int) -> float:
    """Feature-bin maximum of one window, written out in plain numpy.

    Hamming taper, FFT, cyclic product at even offset `alpha_bin`, centered
    moving average by cumulative sums with fixed 1/L and implicit zeros past
    the ends of the valid run, then the maximum magnitude.
    """
    k = samples.size
    j = np.arange(k)
    taper = 0.54 - 0.46 * np.cos(2.0 * np.pi * j / (k - 1))
    spectrum = np.fft.fftshift(np.fft.fft(taper * samples))
    half = alpha_bin // 2
    lo, hi = abs(half), k - 1 - abs(half)
    raw = (spectrum[lo + half:hi + half + 1] * np.conj(spectrum[lo - half:hi - half + 1])
           / (k * np.mean(taper * taper)))
    pad = np.zeros((smoothing_length - 1) // 2, dtype=raw.dtype)
    sums = np.concatenate(([0.0], np.cumsum(np.concatenate((pad, raw, pad)))))
    smoothed = (sums[smoothing_length:] - sums[:-smoothing_length]) / smoothing_length
    return float(np.max(np.abs(smoothed)))


def oracle_indices(seed: int, windows: int) -> np.ndarray:
    return np.sort(np.random.default_rng(seed).choice(windows, ORACLE_WINDOWS, replace=False))


def check_collect(out_dir: Path, plan: dict, seed: int) -> list[str]:
    """`cyclosense collect` + `cyclosense fit` outputs, with an independent
    recomputation of ORACLE_WINDOWS rows."""
    from cyclosense.harness import STREAM_NOISE_FIT, derived_seed
    from cyclosense.siggen import NoiseSpec, generate_awgn

    problems: list[str] = []
    windows = plan["noise_windows"]
    try:
        header, rows = _read_csv(out_dir / "profile.csv")
    except OSError as exc:
        return [f"profile.csv: {exc}"]
    if header != PROFILE_HEADER:
        return [f"profile.csv: header {header}"]
    if len(rows) != windows:
        return [f"profile.csv: {len(rows)} rows, expected {windows}"]
    try:
        alpha_hz = np.array([float(r[0]) for r in rows])
        values = np.array([float(r[1]) for r in rows])
        indices = [int(r[2]) for r in rows]
    except (ValueError, IndexError) as exc:
        return [f"profile.csv: {exc}"]
    if indices != list(range(windows)):
        problems.append(f"profile.csv: window indices are not 0..{windows - 1}")
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        problems.append("profile.csv: max_magnitude not finite and positive")

    scd, signal = plan["scd"], plan["signal"]
    k = scd["window_length_k"]
    fs = signal["sample_rate_hz"]
    alpha_bin = 2 * round(2.0 * signal["carrier_freq_hz"] * k / fs / 2.0)
    if not all(matches_printed(a, alpha_bin * fs / k) for a in alpha_hz):
        problems.append(f"profile.csv: alpha_hz is not {alpha_bin * fs / k}")
    if scd["taper"] != "hamming":
        problems.append(f"plan taper {scd['taper']!r}: the oracle covers hamming only")
        return problems
    for index in oracle_indices(seed, windows):
        window = generate_awgn(
            k, NoiseSpec(1.0, derived_seed(plan["master_seed"], STREAM_NOISE_FIT, int(index))), fs)
        expected = oracle_window_statistic(window.samples, alpha_bin, scd["smoothing_length"] | 1)
        if not matches_printed(values[index], expected):
            problems.append(f"profile.csv row {index}: {values[index]} but the oracle "
                            f"gives {expected:.9g}")

    try:
        fit = json.loads((out_dir / "fit.json").read_text(encoding="utf-8"))
        _, hist_rows = _read_csv(out_dir / "histogram.csv")
    except (OSError, ValueError) as exc:
        problems.append(f"fit outputs unreadable: {exc}")
        return problems
    if fit.get("converged") is not True:
        problems.append("fit.json: converged is not true")
    if fit.get("sample_count") != windows:
        problems.append(f"fit.json: sample_count {fit.get('sample_count')}, expected {windows}")
    if sum(int(r[2]) for r in hist_rows) != windows:
        problems.append("histogram.csv: counts do not add up to the window count")
    return problems


def noise_fit_ks(out_dir: Path) -> float:
    """KS distance between profile.csv and the GEV law in fit.json."""
    from cyclosense.gev import GevParams
    from cyclosense.harness import ks_statistic

    fit = json.loads((out_dir / "fit.json").read_text(encoding="utf-8"))
    _, rows = _read_csv(out_dir / "profile.csv")
    return ks_statistic([float(r[1]) for r in rows],
                        GevParams(fit["kappa"], fit["mu"], fit["sigma"]))


# ---------------------------------------------------------------- fit_sweep

def check_fit_sweep(out_dir: Path) -> list[str]:
    """Fits in sweep.json against the draws they were fitted to.

    The likelihood and CDF come from cyclosense.gev, so the Gumbel branch
    it takes near kappa = 0 is the same on both sides of each comparison.
    """
    from cyclosense.gev import GevParams, cdf, log_likelihood

    problems: list[str] = []
    try:
        sweep = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"sweep.json unreadable: {exc}"]
    for case in sweep["cases"]:
        label = f"kappa={case['true']['kappa']}"
        try:
            x = np.load(out_dir / case["draws"])
        except (OSError, ValueError) as exc:
            problems.append(f"{label}: draws unreadable: {exc}")
            continue
        if x.size != sweep["n"]:
            problems.append(f"{label}: {x.size} draws, expected {sweep['n']}")
        ll = {}
        for name in ("true", "staged", "joint"):
            p = case[name]
            ll[name] = log_likelihood(x, GevParams(p["kappa"], p["mu"], p["sigma"]))
            if name != "true" and abs(p["log_likelihood"] - ll[name]) > 1e-9 * abs(ll[name]) + 1e-6:
                problems.append(f"{label}: {name} log_likelihood {p['log_likelihood']} does "
                                f"not match its parameters ({ll[name]})")
        slack = LL_REL_TOL * abs(ll["true"])
        if not ll["joint"] >= ll["true"] - slack:
            problems.append(f"{label}: joint fit log likelihood {ll['joint']:.6f} is below "
                            f"the true law's {ll['true']:.6f}")
        if not ll["joint"] >= ll["staged"] - slack:
            problems.append(f"{label}: joint fit log likelihood {ll['joint']:.6f} is below "
                            f"the staged fit's {ll['staged']:.6f}")
        for name in ("staged", "joint"):
            p = case[name]
            params = GevParams(p["kappa"], p["mu"], p["sigma"])
            for pf, lam in zip(sweep["pf_grid"], p["thresholds"]):
                err = abs(1.0 - cdf(lam, params) - pf)
                if not err <= ROUND_TRIP_TOL:
                    problems.append(f"{label}: {name} threshold at pf {pf} round-trips "
                                    f"with error {err:.2e}")
    return problems


# ----------------------------------------------------------------- scd_scan

def check_scd(out_dir: Path, alpha_bins: list[int], k: int) -> list[str]:
    """`cyclosense scd` matrix export over a symmetric alpha grid."""
    problems: list[str] = []
    try:
        header = json.loads((out_dir / "scd.json").read_text(encoding="utf-8"))
        raw = (out_dir / "scd.c64").read_bytes()
    except (OSError, ValueError) as exc:
        return [f"scd export unreadable: {exc}"]
    n = len(alpha_bins)
    if header.get("dtype") != "complex64" or header.get("order") != "row-major":
        problems.append("scd.json: dtype/order is not complex64 row-major")
    if header.get("shape") != [k, n]:
        return problems + [f"scd.json: shape {header.get('shape')}, expected {[k, n]}"]
    if header.get("alpha_bins") != alpha_bins:
        return problems + ["scd.json: alpha_bins differ from the requested grid"]
    if len(raw) != 8 * k * n:
        return problems + [f"scd.c64: {len(raw)} bytes, expected {8 * k * n}"]
    expected_runs = [[abs(a) // 2, k - 1 - abs(a) // 2] for a in alpha_bins]
    if header.get("valid_runs") != expected_runs:
        problems.append("scd.json: valid_runs do not match K and the alpha bins")
    if sorted(alpha_bins) != sorted(-a for a in alpha_bins) or 0 not in alpha_bins:
        return problems + ["requested alpha grid is not symmetric with 0"]
    values = np.frombuffer(raw, dtype="<c8").reshape(k, n)
    column = {a: c for c, a in enumerate(alpha_bins)}

    def cells(a: int) -> np.ndarray:
        lo, hi = abs(a) // 2, k - 1 - abs(a) // 2
        return values[lo:hi + 1, column[a]].astype(np.complex128)

    for a in alpha_bins:
        peak = float(np.max(np.abs(cells(a))))
        if not (math.isfinite(peak) and peak > 0.0):
            problems.append(f"alpha bin {a}: column is zero or not finite")
    zero = cells(0)
    scale = float(np.max(np.abs(zero)))
    if np.any(np.abs(zero.imag) > COMPLEX64_REL_TOL * scale):
        problems.append("alpha bin 0: column is not real")
    if np.any(zero.real < -COMPLEX64_REL_TOL * scale):
        problems.append("alpha bin 0: smoothed periodogram has negative cells")
    for a in alpha_bins:
        if a <= 0:
            continue
        pos, neg = cells(a), cells(-a)
        err = float(np.max(np.abs(neg - np.conj(pos))))
        if err > COMPLEX64_REL_TOL * float(np.max(np.abs(pos))):
            problems.append(f"alpha bins +/-{a}: not conjugate-symmetric (max error {err:.3g})")
    return problems


def scan_bins(limit: int, step: int) -> list[int]:
    """Symmetric alpha grid -limit..limit in steps of `step`, including 0."""
    return list(range(-limit, limit + 1, step))
