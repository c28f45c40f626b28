"""End-to-end acceptance gate.

Each test exercises one headline property of the library at its stated
tolerance and prints a single PASS/FAIL line with the measured numbers,
so a bare ``pytest tests/test_acceptance.py -s`` reads as a checklist.
The tests are intentionally heavier than the unit suites; the whole file
still runs in well under a minute on a laptop.
"""

import datetime
import math
import time

import numpy as np

from tailica.cli import main
from tailica.entropy import correa_entropy, ebrahimi_entropy, vasicek_entropy
from tailica.evaluate import (
    SyntheticMarketSpec,
    generate_market,
    run_experiment_artifacts,
    scatter_moment_entropy,
)
from tailica.ica import ContrastSpec, amari_index, fit_ica, transform
from tailica.moments import extremes, root_moment
from tailica.panel import SamplePanel
from tailica.tailcov import tail_covariance
from tailica.whiten import apply_whitening, fit_whitening


def _verdict(label, ok, detail):
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


def panel_from(data, start="1990-01-01"):
    data = np.asarray(data, dtype=float)
    first = datetime.date.fromisoformat(start)
    dates = tuple(
        (first + datetime.timedelta(days=i)).isoformat() for i in range(data.shape[0])
    )
    ids = tuple(f"s{j:04d}" for j in range(data.shape[1]))
    return SamplePanel(data, ids, dates)


def test_root_moment_approaches_the_extreme():
    # 100 seeded heavy-tailed samples; whenever the largest |x| beats the
    # runner-up by at least 1.1x, the order-128 root moment must sit within
    # 1% of that extreme, and odd-order roots must carry the sign of the
    # dominant side.  Budget: 5 s.
    t0 = time.monotonic()
    qualifying = 0
    within_1pct = 0
    errors = []
    signs_ok = 0
    signs_total = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x = rng.standard_t(df=3, size=500)
        ext = extremes(x)
        runner_up = np.partition(np.abs(x), -2)[-2]
        if ext.x_inf >= 1.1 * runner_up:
            qualifying += 1
            rel = abs(root_moment(x, 128) - ext.x_inf) / ext.x_inf
            errors.append(rel)
            if rel < 0.01:
                within_1pct += 1
        if ext.x_max != -ext.x_min:
            signs_total += 1
            want = 1.0 if ext.x_max > -ext.x_min else -1.0
            if math.copysign(1.0, root_moment(x, 127)) == want:
                signs_ok += 1
    elapsed = time.monotonic() - t0

    magnitude_ok = qualifying > 0 and within_1pct == qualifying
    sign_ok = signs_total > 0 and signs_ok == signs_total
    timing_ok = elapsed < 5.0
    detail = (
        f"{within_1pct}/{qualifying} dominated samples within 1%, "
        f"rel err range [{min(errors):.4%}, {max(errors):.4%}]; "
        f"odd-root signs {signs_ok}/{signs_total}; {elapsed:.2f}s"
    )
    line = _verdict("order-128 root moment within 1% of max", magnitude_ok and sign_ok and timing_ok, detail)
    assert magnitude_ok and sign_ok and timing_ok, line


def test_tail_covariance_reduces_to_covariance():
    # k=1 must agree with a longhand covariance on 50 random panels, and the
    # k=2 asymmetry example must come out exactly.
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(20, 120))
        n = int(rng.integers(2, 8))
        raw = rng.standard_t(df=4, size=(m, n)) * rng.uniform(0.5, 3.0, size=n)
        data = raw - raw.mean(axis=0)
        tc = tail_covariance(panel_from(data), k=1).values
        mean = data.mean(axis=0)
        brute = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                brute[i, j] = sum(
                    (data[t, i] - mean[i]) * (data[t, j] - mean[j]) for t in range(m)
                ) / m
        scale = np.max(np.abs(brute))
        worst = max(worst, np.max(np.abs(tc - brute)) / scale)
    reduced_ok = worst < 1e-10

    pair = panel_from(np.array([[1.0, 2.0], [2.0, 1.0], [-3.0, 1.0]]))
    t2 = tail_covariance(pair, k=2).values
    exact_ok = t2[0, 1] == 7.0 / 3.0 and t2[1, 0] == -17.0 / 3.0

    detail = f"max rel deviation {worst:.2e}; asymmetry pair ({t2[0, 1]}, {t2[1, 0]})"
    line = _verdict("tail covariance at k=1 equals covariance", reduced_ok and exact_ok, detail)
    assert reduced_ok and exact_ok, line


def test_entropy_estimators_match_closed_forms():
    # All three spacing estimators within 0.05 nats of the closed-form
    # entropy for three textbook densities at m=1e5.  Budget: 30 s.
    t0 = time.monotonic()
    m = 100_000
    n = math.isqrt(m)
    rng = np.random.default_rng(42)
    cases = [
        ("gaussian", rng.standard_normal(m), 0.5 * math.log(2.0 * math.pi * math.e)),
        ("uniform", rng.uniform(0.0, 1.0, size=m), 0.0),
        ("laplace", rng.laplace(0.0, 1.0, size=m), 1.0 + math.log(2.0)),
    ]
    worst = 0.0
    for _, x, truth in cases:
        for estimator in (vasicek_entropy, ebrahimi_entropy, correa_entropy):
            worst = max(worst, abs(estimator(x, n).value - truth))
    elapsed = time.monotonic() - t0

    ok = worst < 0.05 and elapsed < 30.0
    detail = f"worst |error| {worst:.4f} nats over 9 estimates; {elapsed:.2f}s"
    line = _verdict("spacing entropies match closed forms", ok, detail)
    assert ok, line


def test_entropy_tracks_log_root_moment():
    # Across 200 Student-t columns with spread-out scales, Correa entropy
    # and ln(tenth-root of the tenth moment) must correlate above +0.8.
    rng = np.random.default_rng(2024)
    m, n_cols = 2000, 200
    cols = np.empty((m, n_cols))
    for j in range(n_cols):
        nu = rng.uniform(3.0, 8.0)
        vol = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
        cols[:, j] = vol * rng.standard_t(nu, m)
    records = scatter_moment_entropy(panel_from(cols, start="2014-01-01"), "in")
    log_roots = np.array([math.log(r.root_moment_10) for r in records])
    entropies = np.array([r.entropy for r in records])
    corr = float(np.corrcoef(log_roots, entropies)[0, 1])

    ok = len(records) == n_cols and corr > 0.8
    detail = f"Pearson corr {corr:.4f} over {len(records)} columns"
    line = _verdict("entropy rises with the tail moment", ok, detail)
    assert ok, line


def test_blind_source_recovery():
    # Two mixing setups, ten seeds each: a 30-degree rotation of two Laplace
    # sources (Amari < 0.1) and a random orthogonal mix of four t(5) sources
    # (Amari < 0.15).  At least 8 of 10 seeds must pass each.  Budget: 60 s.
    t0 = time.monotonic()

    def recover(sources, mixing, seed):
        p = panel_from(sources @ mixing.T)
        t = fit_whitening(p, d=sources.shape[1])
        w = fit_ica(apply_whitening(t, p), ContrastSpec(k=2), seed=seed)
        return amari_index(w.w, t.projection @ mixing)

    theta = math.radians(30.0)
    rotation = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    laplace_ok = t5_ok = 0
    worst_a = worst_b = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pair = rng.laplace(0.0, 1.0, size=(100_000, 2))
        a = recover(pair, rotation, seed)
        worst_a = max(worst_a, a)
        laplace_ok += a < 0.1

        quad = rng.standard_t(df=5, size=(200_000, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        b = recover(quad, q, seed)
        worst_b = max(worst_b, b)
        t5_ok += b < 0.15
    elapsed = time.monotonic() - t0

    ok = laplace_ok >= 8 and t5_ok >= 8 and elapsed < 60.0
    detail = (
        f"laplace pair {laplace_ok}/10 (worst {worst_a:.4f}), "
        f"t(5) quad {t5_ok}/10 (worst {worst_b:.4f}); {elapsed:.1f}s"
    )
    line = _verdict("mixed sources recovered by tail contrast", ok, detail)
    assert ok, line


def test_converged_fit_decorrelates_tails():
    # After a converged fit the unmixing must be orthonormal to 1e-8 and
    # every off-diagonal tail covariance of the recovered components must
    # sit within 5 bootstrap standard errors of zero.
    seed, m, d, k = 0, 20_000, 3, 2
    rng = np.random.default_rng(seed)
    sources = rng.laplace(0.0, 1.0, size=(m, d))
    mixing = rng.standard_normal((d, d))
    p = panel_from(sources @ mixing.T)
    t = fit_whitening(p, d=d)
    z = apply_whitening(t, p)
    w = fit_ica(z, ContrastSpec(k=k), seed=seed)
    comp = transform(w, z)

    orth = float(np.max(np.abs(w.w.T @ w.w - np.eye(d))))
    tails = tail_covariance(comp, k=k).values

    boot = np.random.default_rng(987)
    reps = 400
    stats = np.empty((reps, d, d))
    c = comp.data
    for b in range(reps):
        rows = boot.integers(0, m, size=m)
        cb = c[rows]
        stats[b] = (cb.T @ cb ** (2 * k - 1)) / m
    se = stats.std(axis=0, ddof=1)
    off = ~np.eye(d, dtype=bool)
    sigmas = float(np.max(np.abs(tails)[off] / se[off]))

    ok = w.converged and orth < 1e-8 and sigmas < 5.0
    detail = f"converged={w.converged}, max|W'W-I| {orth:.2e}, worst off-diagonal {sigmas:.2f} SEs"
    line = _verdict("fit leaves no off-diagonal tail covariance", ok, detail)
    assert ok, line


def test_out_of_sample_tail_compression():
    # On the default synthetic market with the crash regime out of sample,
    # raising the contrast order from k=2 to k=10 must shrink the pooled
    # 99.9% absolute quantile of out-of-sample components while moving the
    # central mass fraction by less than 5%.  Budget: 2 min.
    t0 = time.monotonic()
    market = generate_market(SyntheticMarketSpec())
    boundary = market.row_ids[len(market.row_ids) // 2]
    reports = run_experiment_artifacts(market, boundary, d=30, k_list=[2, 10], seed=0).reports
    by = {(r.k, r.bucket): r for r in reports}
    q2 = by[(2, "out")].pooled_abs_q999
    q10 = by[(10, "out")].pooled_abs_q999
    c2 = by[(2, "out")].central_mass
    c10 = by[(10, "out")].central_mass
    shift = abs(c10 - c2) / c2
    elapsed = time.monotonic() - t0

    ok = q10 < q2 and shift < 0.05 and elapsed < 120.0
    detail = (
        f"out-of-sample q999 {q2:.3f} -> {q10:.3f} (ratio {q10 / q2:.3f}), "
        f"central mass {c2:.4f} -> {c10:.4f} ({shift:.2%}); {elapsed:.1f}s"
    )
    line = _verdict("higher order compresses out-of-sample tails", ok, detail)
    assert ok, line


def _tree_bytes(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def test_repeated_runs_are_bitwise_identical(tmp_path):
    # The same fit/eval invocation into two fresh directories must produce
    # byte-identical artifacts, manifest included.
    market_csv = tmp_path / "market.csv"
    assert main(["synth", "--assets", "10", "--samples", "400", "--seed", "5",
                 "--out", str(market_csv)]) == 0

    midpoint = (datetime.date(2014, 1, 1) + datetime.timedelta(days=200)).isoformat()
    fit_args = ["fit", "--input", str(market_csv), "--d", "5", "--k", "2,3",
                "--seed", "1", "--max-iter", "200", "--boundary", midpoint]
    eval_args = ["eval", "--assets", "10", "--samples", "400", "--market-seed", "5",
                 "--d", "5", "--k", "2,10", "--seed", "1", "--max-iter", "200"]
    runs = {}
    for name, args in (("fit", fit_args), ("eval", eval_args)):
        first, second = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        left, right = _tree_bytes(first), _tree_bytes(second)
        runs[name] = (sorted(left), left == right, len(left))

    fit_same = runs["fit"][1] and runs["fit"][2] > 0
    eval_same = runs["eval"][1] and runs["eval"][2] > 0
    ok = fit_same and eval_same
    detail = (
        f"fit rerun identical={runs['fit'][1]} over {runs['fit'][2]} files, "
        f"eval rerun identical={runs['eval'][1]} over {runs['eval'][2]} files"
    )
    line = _verdict("fit and eval reruns are bitwise identical", ok, detail)
    assert ok, line
