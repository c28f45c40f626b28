"""One benchmark process: import tailica, build a workload's inputs, run it.

Started by ``run.py`` with the BLAS thread variables already pinned in its
environment.  Roles:

- ``warm``: import tailica and exit (fills the bytecode and file caches);
- ``probe``: import, build the inputs, report set-up time and exit;
- ``main``: as ``probe``, then one checked warm-up pass and whole rounds of
  checked passes until ``--seconds`` have gone by.  With ``--trace 1``
  every round runs each sub-problem untraced and then as a traced replay.

Prints one JSON object as its last line of standard output.  Modules that
load numpy are imported only after tailica's import has been timed.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import spans


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("warm", "probe", "main"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    return parser.parse_args(argv)


def environment(workloads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    worker_count = getattr(workloads.evaluate, "_worker_count", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TAILICA_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "k_pool_workers": worker_count(len(workloads.K_LIST)) if worker_count else None,
    }


class Passes:
    """Runs checked passes in fresh output directories and counts them."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0

    def _fail(self, what, sub):
        self.failed += 1
        print(f"perfbench: {self.workload.name} seed {sub}: {what} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def timed(self, sub):
        """One pass with tracing off; returns its wall time (None if it failed)."""
        out = os.path.join(self.work_dir, "pass")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        try:
            self.workload.prepare(sub)
            gc.collect()
            start = time.perf_counter()
            result = self.workload.run(sub, out)
            elapsed = time.perf_counter() - start
            self.workload.check(sub, out, result)
        except Exception:  # a failed pass is counted, not fatal
            self._fail("pass", sub)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def traced(self, sub, tracer):
        """Traced replay plus the whole-experiment call; returns its metrics."""
        import checks
        import workloads

        out = os.path.join(self.work_dir, "replay")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        try:
            self.workload.prepare(sub)
            gc.collect()
            root = len(tracer.spans)
            with tracer.span("replay"):
                iterations, result, experiment = self.workload.replay(sub, out, tracer)
            self.workload.check(sub, out, result)
            whole = None
            if experiment is not None:
                whole = len(tracer.spans)
                artifacts = workloads.time_whole_experiment(tracer, *experiment)
                checks.check_same_unmixings(out, {k: w.w for k, w in artifacts.unmixings.items()})
        except Exception:  # a failed pass is counted, not fatal
            self._fail("traced replay", sub)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return layer_metrics(tracer.spans, root, whole, iterations)


def layer_metrics(spans_list, root, whole, iterations):
    """Per-layer figures of one traced replay (see README for the map)."""
    import workloads

    per_name = spans.durations(spans_list, root)

    def total(name):
        return per_name.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return per_name.get(name, (0.0, 0.0, 0))[1]

    serialize = [s for s in spans_list[root:] if s["name"] == "cli.serialize"]
    metrics = {
        "cli.serialize_s": total("cli.serialize"),
        "cli.bytes_written": sum(s.get("bytes", 0) for s in serialize),
        "panel.write_wide_csv_s": total("panel.write_wide_csv"),
        "panel.ingest_csv_s": total("panel.ingest_csv"),
        "panel.construct_s": total("panel.construct"),
        "panel.split_buckets_s": total("panel.split_buckets"),
        "whiten.fit_whitening_s": total("whiten.fit_whitening"),
        "whiten.apply_whitening_s": total("whiten.apply_whitening"),
        "ica.transform_s": total("ica.transform"),
        "ica.kkt_residual_s": total("ica.kkt_residual"),
        "ica.kkt_residual_self_s": own("ica.kkt_residual"),
        "tailcov.tail_covariance_s": total("tailcov.tail_covariance"),
        "evaluate.build_tail_report_s": total("evaluate.build_tail_report"),
        "evaluate.build_tail_report_self_s": own("evaluate.build_tail_report"),
        "moments.root_moment_s": total("moments.root_moment"),
        "entropy.estimate_entropy_s": total("entropy.estimate_entropy"),
        "evaluate.scatter_moment_entropy_s": total("evaluate.scatter_moment_entropy"),
        "evaluate.scatter_moment_entropy_self_s": own("evaluate.scatter_moment_entropy"),
        "evaluate.generate_market_s": total("evaluate.generate_market"),
        "evaluate.run_experiment_artifacts_s": 0.0,
        "evaluate.run_experiment_artifacts_serial_s": 0.0,
        "trace.replay_s": total("replay"),
    }
    for k in workloads.K_LIST:
        fit = total(f"ica.fit_ica.k{k}")
        metrics[f"ica.fit_ica_s.k{k}"] = fit
        metrics[f"ica.iterations.k{k}"] = iterations.get(k, 0)
        metrics[f"ica.s_per_iter.k{k}"] = fit / iterations[k] if k in iterations else 0.0
    if whole is not None:
        s = spans_list[whole]
        metrics["evaluate.run_experiment_artifacts_s"] = s["end"] - s["start"]
        metrics["evaluate.run_experiment_artifacts_serial_s"] = sum(
            total(name) for name in workloads.EXPERIMENT_PARTS
        )
    return metrics


def run_main(args, workload, result):
    passes = Passes(workload, args.work_dir)
    # a traced round costs about three untraced ones, so it visits every
    # third sub-problem
    subs = workload.subs[:: 3 if args.trace else 1]
    passes.timed(subs[0])  # warm-up: checked, not timed into the figures
    deadline = time.monotonic() + args.seconds
    times = []
    per_sub = {sub: [] for sub in subs}
    tracer = spans.Tracer() if args.trace else None
    while True:  # whole rounds: at least one, and no round that would overrun
        round_start = time.monotonic()
        for sub in subs:
            elapsed = passes.timed(sub)
            if elapsed is not None:
                times.append(elapsed)
            if tracer is not None:
                metrics = passes.traced(sub, tracer)
                if metrics is not None and elapsed is not None:
                    metrics["trace.overhead_s"] = metrics["trace.replay_s"] - elapsed
                    per_sub[sub].append(metrics)
        now = time.monotonic()
        if now + (now - round_start) > deadline:
            break
    result.update(
        attempted=passes.attempted,
        failed=passes.failed,
        pass_times=times,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        # per metric: median over repeats of a sub-problem, mean over sub-problems
        done = [rows for rows in per_sub.values() if rows]
        names = done[0][0].keys() if done else ()
        result["layers"] = {
            name: statistics.fmean(statistics.median(row[name] for row in rows) for rows in done)
            for name in names
        }
        if args.spans:
            spans.write_spans(tracer.spans, args.spans)


def main(argv=None):
    args = _parse_args(argv)
    start = time.perf_counter()
    import tailica.cli  # noqa: F401  (numpy comes in with it)

    import_s = time.perf_counter() - start
    result = {"role": args.role, "import_s": import_s}
    if args.role != "warm":
        import workloads

        os.makedirs(args.work_dir, exist_ok=True)
        workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
        result["setup_s"] = time.monotonic() - args.spawned_at
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["setup_cpu_s"] = usage.ru_utime + usage.ru_stime
        if args.role == "main":
            result["environment"] = environment(workloads)
            run_main(args, workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
