"""tailica benchmark: one command, three workloads, pinned BLAS threads.

    python3 perfbench/run.py --workload eval_market --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout that holds ``src/tailica``.  Every
measurement runs in a fresh child process whose BLAS is pinned to one
thread; the program's own k-level pool keeps its shipped default.  With
``--trace 0`` the last line of standard output is the end-to-end result
(``pass_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it is the
per-layer result of a separate traced run.  The line before it records the
environment.  Outputs go under ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("eval_market", "recovery_tall", "ingest_fit")
PROBES = 6  # set-up-only processes per run, besides the main one
CHILD_TIMEOUT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAYER_METRICS = (
    "cli.import_s", "cli.serialize_s", "cli.bytes_written",
    "panel.write_wide_csv_s", "panel.ingest_csv_s", "panel.construct_s", "panel.split_buckets_s",
    "whiten.fit_whitening_s", "whiten.apply_whitening_s",
    "ica.fit_ica_s.k2", "ica.fit_ica_s.k10", "ica.iterations.k2", "ica.iterations.k10",
    "ica.s_per_iter.k2", "ica.s_per_iter.k10", "ica.transform_s",
    "ica.kkt_residual_s", "ica.kkt_residual_self_s", "tailcov.tail_covariance_s",
    "evaluate.build_tail_report_s", "evaluate.build_tail_report_self_s", "moments.root_moment_s",
    "entropy.estimate_entropy_s", "evaluate.scatter_moment_entropy_s",
    "evaluate.scatter_moment_entropy_self_s", "evaluate.generate_market_s",
    "evaluate.run_experiment_artifacts_s", "evaluate.run_experiment_artifacts_serial_s",
    "trace.replay_s", "trace.overhead_s",
)  # fmt: skip


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(pinned=True):
    """This process's environment with BLAS pinned and the k-pool at its default."""
    env = dict(os.environ)
    env.pop("TAILICA_THREADS", None)
    # let the warm-up process write tailica's bytecode cache for the others
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if pinned:
        env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _threads(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def spawn(args, role, work_dir, env, spans_path=None):
    """Run one worker to completion; returns its JSON result and peak thread count."""
    os.makedirs(work_dir, exist_ok=True)
    log = os.path.join(work_dir, f"{role}.out")
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--work-dir", work_dir,
    ]  # fmt: skip
    if spans_path:
        argv += ["--spans", spans_path]
    with open(log, "w") as stdout:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)], stdout=stdout, env=env, cwd=ROOT)
        peak = 0
        try:
            while proc.poll() is None:
                peak = max(peak, _threads(proc.pid))
                if time.monotonic() - spawned_at > CHILD_TIMEOUT_S:
                    raise BenchError(f"{role} process exceeded {CHILD_TIMEOUT_S:.0f} s")
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    with open(log) as handle:
        lines = handle.read().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["peak_threads"] = peak
    return result


def measure(args, pinned=True):
    """Warm-up, set-up probes and the main process; returns (children, main)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "tailica", "__init__.py")):
        raise BenchError(f"no tailica package under {os.path.join(ROOT, 'src')}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = os.path.join(OUT, "work", tag)
    env = child_env(pinned)
    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        spans_path = os.path.join(OUT, "spans", f"{tag}.jsonl")
    try:
        spawn(args, "warm", work, env)
        children = [spawn(args, "probe", work, env) for _ in range(PROBES)]
        main = spawn(args, "main", work, env, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return children + [main], main


def summarize(args, children, main):
    env = dict(main["environment"])
    env["peak_threads"] = max(c["peak_threads"] for c in children)
    # the main thread waits while the pool's workers compute
    env["threads_started"] = main["peak_threads"] - 1
    if args.trace:
        layers = dict(main["layers"])
        layers["cli.import_s"] = statistics.median(c["import_s"] for c in children)
        metrics = {name: {"value": layers[name], "unit": _unit(name)} for name in LAYER_METRICS}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(main["pass_times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(c["setup_s"] for c in children), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    return env, result


def _unit(name):
    if name.startswith("ica.iterations."):
        return "count"
    if name == "cli.bytes_written":
        return "bytes"
    return "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unpinned", action="store_true", help="leave BLAS threads at their default")
    args = parser.parse_args(argv)
    try:
        children, main_result = measure(args, pinned=not args.unpinned)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env, result = summarize(args, children, main_result)
    children = [{k: c.get(k) for k in ("role", "import_s", "setup_s", "setup_cpu_s", "peak_threads")} for c in children]
    if env["threads_started"] > env["nproc"]:
        print(f"perfbench: {env['threads_started']} threads started on {env['nproc']} cores", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-unpinned' if args.unpinned else ''}.json"
    with open(os.path.join(OUT, "results", name), "w") as handle:
        json.dump(dict(record, result=result, main=main_result, children=children), handle, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
