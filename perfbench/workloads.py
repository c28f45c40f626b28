"""The benchmark's workloads: inputs, one timed pass, its check and a traced replay.

Every workload is built from the run's ``--seed``.  A run goes through
whole rounds of the workload's sub-problems (``subs``); each sub-problem
has its own seed derived from the run seed, so one run covers several
inputs and a seed whose solver needs more iterations than usual moves the
run's median less.

``run`` is the pass the end-to-end metrics time: what a user of tailica
does, through its public entry points.  ``replay`` performs the same work
serially, calling the public functions of each module from here with a
span around each call, for the per-layer metrics.
"""

from __future__ import annotations

import datetime
import json
import os

import numpy as np

import tailica.cli
from tailica import entropy, evaluate, ica, panel, whiten

import checks
from spans import NullTracer

K_LIST = (2, 10)

# module globals that tailica's own functions call through; the traced
# replay wraps them so nested calls get spans too
NESTED = (
    (panel.SamplePanel, "__post_init__", "panel.construct"),
    (evaluate, "root_moment", "moments.root_moment"),
    (evaluate, "estimate_entropy", "entropy.estimate_entropy"),
    (ica, "tail_covariance", "tailcov.tail_covariance"),
)

# spans whose work run_experiment_artifacts does itself (its serial sum)
EXPERIMENT_PARTS = (
    "panel.split_buckets",
    "whiten.fit_whitening",
    "whiten.apply_whitening",
    "ica.fit_ica.k2",
    "ica.fit_ica.k10",
    "ica.transform",
    "evaluate.build_tail_report",
    "ica.kkt_residual",
    "evaluate.scatter_moment_entropy",
)


def sub_seeds(seed, count):
    return [int(seed) * count + j for j in range(count)]


def iso_dates(start, m):
    first = datetime.date.fromisoformat(start)
    return tuple((first + datetime.timedelta(days=i)).isoformat() for i in range(m))


def _write(path, text):
    with open(path, "w", newline="") as handle:
        handle.write(text)
    return len(text.encode())


def replay_pipeline(tr, market, boundary, d, seed, out):
    """Serial replay of ``tailica fit``/``eval`` after the panel is loaded.

    Mirrors the CLI: split, whiten, fit one unmixing per k, tail reports,
    KKT residuals, entropy scatters, then the same files in ``out``.
    Returns {k: iterations}.
    """
    with tr.patched(NESTED):
        with tr.span("panel.split_buckets"):
            split = panel.split_buckets(market, boundary)
        with tr.span("whiten.fit_whitening"):
            white = whiten.fit_whitening(split.in_sample, d)
        with tr.span("whiten.apply_whitening"):
            z_in = whiten.apply_whitening(white, split.in_sample)
        with tr.span("whiten.apply_whitening"):
            z_out = whiten.apply_whitening(white, split.out_sample)
        identity = ica.UnmixingMatrix(np.eye(white.d), k=1, seed=seed, iterations=0, converged=True)
        fits, reports, kkt = {}, [], {}
        for k in K_LIST:
            with tr.span(f"ica.fit_ica.k{k}"):
                fits[k] = ica.fit_ica(z_in, ica.ContrastSpec(k), seed=seed)
            with tr.span("ica.transform"):
                u_in = ica.transform(fits[k], z_in)
            with tr.span("ica.transform"):
                u_out = ica.transform(fits[k], z_out)
            for components, bucket in ((u_in, "in"), (u_out, "out")):
                with tr.span("evaluate.build_tail_report"):
                    reports.append(evaluate.build_tail_report(components, k, bucket))
            with tr.span("ica.kkt_residual"):
                fitted = ica.kkt_residual(z_in, fits[k], k)
            with tr.span("ica.kkt_residual"):
                kkt[k] = (fitted, ica.kkt_residual(z_in, identity, k))
        config = entropy.EntropyEstimatorConfig()
        with tr.span("evaluate.scatter_moment_entropy"):
            scatter_in = evaluate.scatter_moment_entropy(split.in_sample, "in", config)
        with tr.span("evaluate.scatter_moment_entropy"):
            scatter_out = evaluate.scatter_moment_entropy(split.out_sample, "out", config)
    with tr.span("cli.serialize") as span:
        written = _write(os.path.join(out, "whitening.csv"), whiten.whitening_to_csv(white))
        diagnostics = {}
        for k, w in fits.items():
            written += _write(os.path.join(out, f"W_k{k}.csv"), ica.unmixing_to_csv(w))
            diagnostics[str(k)] = {
                "iterations": w.iterations,
                "converged": w.converged,
                "kkt_off_diagonal_max": kkt[k][0].off_diagonal_max,
                "kkt_orthonormality_max": kkt[k][0].orthonormality_max,
                "identity_off_diagonal_max": kkt[k][1].off_diagonal_max,
            }
        for report in reports:
            stem = f"k{report.k}_{report.bucket}"
            text = json.dumps(evaluate.report_to_dict(report), indent=2, sort_keys=True) + "\n"
            written += _write(os.path.join(out, f"report_{stem}.json"), text)
            written += _write(
                os.path.join(out, f"hist_{stem}.csv"),
                evaluate.histogram_to_csv(report.bin_edges, report.counts),
            )
            written += _write(
                os.path.join(out, f"hist_portfolio_{stem}.csv"),
                evaluate.histogram_to_csv(report.portfolio_bin_edges, report.portfolio_counts),
            )
        written += _write(os.path.join(out, "scatter_in.csv"), evaluate.scatter_to_csv(scatter_in))
        written += _write(os.path.join(out, "scatter_out.csv"), evaluate.scatter_to_csv(scatter_out))
        written += _write(
            os.path.join(out, "diagnostics.json"), json.dumps(diagnostics, indent=2, sort_keys=True) + "\n"
        )
        if span is not None:
            span["bytes"] = written
    return {k: w.iterations for k, w in fits.items()}


def time_whole_experiment(tr, market, boundary, d, seed):
    """run_experiment_artifacts as shipped (its k-level pool included)."""
    with tr.span("evaluate.run_experiment_artifacts"):
        return evaluate.run_experiment_artifacts(
            market, boundary, d, K_LIST, entropy.EntropyEstimatorConfig(), seed=seed
        )


class EvalMarket:
    """``tailica eval`` with its defaults: the default market, d=30, k=2,10.

    The solver seed is the sub-problem's seed.  The market stays at the
    CLI's default (market seed 0): on other markets the k=10 fit can run
    to its 1000-iteration cap, which swings one pass from 1 s to 12 s.
    """

    name = "eval_market"
    subs_per_round = 12
    d = 30

    def __init__(self, seed, work_dir):
        self.subs = sub_seeds(seed, self.subs_per_round)
        self._market = None

    def prepare(self, sub):
        if self._market is None:  # reference for the lossless-CSV check
            self._market = evaluate.generate_market(evaluate.SyntheticMarketSpec())

    def run(self, sub, out):
        if tailica.cli.main(["eval", "--seed", str(sub), "--out", out]) != 0:
            raise checks.CheckFailed(f"tailica eval exited non-zero for seed {sub}")

    def check(self, sub, out, result=None):
        market = self._market
        checks.check_market_csv(out, market.row_ids, market.data)
        checks.check_fit_dir(out, market.data, market.column_ids, market.m // 2, K_LIST, q999_falls=True)

    def replay(self, sub, out, tr):
        with tr.span("evaluate.generate_market"):
            market = evaluate.generate_market(evaluate.SyntheticMarketSpec())
        boundary = market.row_ids[market.m // 2]
        os.makedirs(out, exist_ok=True)
        with tr.span("panel.write_wide_csv"):
            panel.write_wide_csv(market, os.path.join(out, "market.csv"))
        iterations = replay_pipeline(tr, market, boundary, self.d, sub, out)
        return iterations, None, (market, boundary, self.d, sub)


class RecoveryTall:
    """Blind recovery of 200,000 x 4 mixed sources through the public API.

    Sources are Laplace under a seeded random orthogonal mix.  A pass builds
    the panel, splits it 3:1 at a date, whitens on the first bucket, fits
    k=2 there and transforms both buckets.  There is no k=10 fit: on these
    panels it raises its own orthonormality DataError on some seeds (one
    sub-problem seed, 252, in about 250 tried), so no run could rely on it.
    """

    name = "recovery_tall"
    subs_per_round = 16
    ks = (2,)
    m, n, n_in = 200_000, 4, 150_000

    def __init__(self, seed, work_dir):
        self.subs = sub_seeds(seed, self.subs_per_round)
        self.dates = iso_dates("1800-01-01", self.m)
        self.columns = tuple(f"X{j + 1}" for j in range(self.n))
        self.inputs = None

    def prepare(self, sub):
        """Mixed sources of one sub-problem, made before its pass is timed."""
        rng = np.random.default_rng(sub)
        sources = rng.laplace(0.0, 1.0, size=(self.m, self.n))
        mixing, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        self.inputs = (sub, sources @ mixing.T, mixing)

    def run(self, sub, out, tr=None):
        tr = tr or NullTracer()
        _, x, _ = self.inputs
        full = panel.SamplePanel(x, self.columns, self.dates)
        with tr.span("panel.split_buckets"):
            split = panel.split_buckets(full, self.dates[self.n_in])
        with tr.span("whiten.fit_whitening"):
            white = whiten.fit_whitening(split.in_sample, self.n)
        with tr.span("whiten.apply_whitening"):
            z_in = whiten.apply_whitening(white, split.in_sample)
        with tr.span("whiten.apply_whitening"):
            z_out = whiten.apply_whitening(white, split.out_sample)
        fits, components = {}, {}
        for k in self.ks:
            with tr.span(f"ica.fit_ica.k{k}"):
                fits[k] = ica.fit_ica(z_in, ica.ContrastSpec(k), seed=sub)
            with tr.span("ica.transform"):
                components[k] = ica.transform(fits[k], z_in)
            with tr.span("ica.transform"):
                ica.transform(fits[k], z_out)
        return white, fits, components

    def check(self, sub, out, result):
        white, fits, components = result
        _, _, mixing = self.inputs
        checks.check_recovery(
            white.projection,
            mixing,
            {k: w.w for k, w in fits.items()},
            {k: c.data for k, c in components.items()},
        )

    def replay(self, sub, out, tr):
        with tr.patched(NESTED):
            result = self.run(sub, out, tr)
        return {k: w.iterations for k, w in result[1].items()}, result, None


class IngestFit:
    """``tailica fit`` on a long-format CSV of a synthetic market.

    The market is made here, not by tailica: one Student-t(8) factor with a
    crash regime in the second half, idiosyncratic Student-t noise with a
    per-asset tail exponent in [3, 8], percent returns.  Its seed is fixed
    (on other markets the k=2 fit needs 38 to 205 iterations, which moves
    a pass by a fifth); the solver seed is the sub-problem's seed.
    """

    name = "ingest_fit"
    subs_per_round = 5
    market_seed = 0
    m, n, d = 5000, 100, 40

    def __init__(self, seed, work_dir):
        self.subs = sub_seeds(seed, self.subs_per_round)
        rng = np.random.default_rng(self.market_seed)
        m, n = self.m, self.n
        nus = rng.uniform(3.0, 8.0, n)
        betas = rng.uniform(0.3, 0.8, n)
        vols = rng.uniform(0.7, 1.4, n)
        factor = rng.standard_t(8.0, m) / np.sqrt(8.0 / 6.0)
        crash = (rng.random(m) < 0.05) & (np.arange(m) >= m // 2)
        factor = np.where(crash, 4.5 * factor, factor)
        idio = rng.standard_t(nus, (m, n)) / np.sqrt(nus / (nus - 2.0))
        self.x = vols * (betas * factor[:, np.newaxis] + np.sqrt(1.0 - betas**2) * idio)
        self.dates = iso_dates("2000-01-03", m)
        self.columns = tuple(f"A{j:03d}" for j in range(n))
        self.boundary = self.dates[m // 2]
        self.path = os.path.join(work_dir, "returns_long.csv")
        with open(self.path, "w") as handle:
            handle.write("date,symbol,return\n")
            for date, row in zip(self.dates, self.x.tolist()):
                handle.write("".join(f"{date},{sym},{v!r}\n" for sym, v in zip(self.columns, row)))

    def prepare(self, sub):
        pass

    def run(self, sub, out):
        argv = [
            "fit", "--input", self.path, "--boundary", self.boundary,
            "--d", str(self.d), "--k", ",".join(map(str, K_LIST)),
            "--seed", str(sub), "--out", out,
        ]  # fmt: skip
        if tailica.cli.main(argv) != 0:
            raise checks.CheckFailed(f"tailica fit exited non-zero for seed {sub}")

    def check(self, sub, out, result=None):
        checks.check_fit_dir(out, self.x, self.columns, self.m // 2, K_LIST)

    def replay(self, sub, out, tr):
        with tr.span("panel.ingest_csv"):
            market = panel.ingest_csv(self.path)
        os.makedirs(out, exist_ok=True)
        iterations = replay_pipeline(tr, market, self.boundary, self.d, sub, out)
        return iterations, None, (market, self.boundary, self.d, sub)


WORKLOADS = {w.name: w for w in (EvalMarket, RecoveryTall, IngestFit)}
