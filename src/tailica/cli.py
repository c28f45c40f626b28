"""Command-line interface.

Subcommands: ingest, synth, fit, transform, entropy, tailcov, scatter,
eval.  Every flag can also be supplied through a ``key=value`` config
file (``--config``); explicit command-line values win over the config,
which wins over built-in defaults.  Each run writes a manifest with every
effective parameter, so rerunning from the manifest reproduces the
outputs byte for byte.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .entropy import EntropyEstimatorConfig, estimate_entropy
from .errors import DataError, NumericalError
from .evaluate import (
    SyntheticMarketSpec,
    generate_market,
    histogram_to_csv,
    report_to_dict,
    run_experiment_artifacts,
    scatter_moment_entropy,
    scatter_to_csv,
)
from .ica import transform as unmix_transform
from .ica import unmixing_from_csv, unmixing_to_csv
from .panel import SamplePanel, _csv_text, _is_long_header, _open_text, center, ingest_csv
from .panel import read_wide_csv, write_wide_csv
from .tailcov import tail_covariance, tail_covariance_to_csv
from .whiten import apply_whitening, whitening_from_csv, whitening_to_csv


class UsageError(Exception):
    """Bad flags, bad config keys or invalid parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit(2)
        raise UsageError(message)


@dataclass(frozen=True)
class Opt:
    """One CLI option: flag spelling, value converter and its real default."""

    flag: str
    type: object  # converts a flag or config string to the value
    default: object = None
    help: str = ""
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> list:
    try:
        return [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _parse_window(text: str):
    if str(text).strip().lower() == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}") from None


_MARKET_DEFAULTS = SyntheticMarketSpec()

_MARKET_OPTS = [
    Opt("--assets", int, _MARKET_DEFAULTS.n_assets, "number of assets"),
    Opt("--samples", int, _MARKET_DEFAULTS.m_samples, "number of daily observations"),
    Opt("--nu-min", float, _MARKET_DEFAULTS.nu_range[0], "smallest idiosyncratic Student-t degrees of freedom"),
    Opt("--nu-max", float, _MARKET_DEFAULTS.nu_range[1], "largest idiosyncratic Student-t degrees of freedom"),
    Opt("--nu-factor", float, _MARKET_DEFAULTS.nu_factor, "factor Student-t degrees of freedom"),
    Opt("--loading-min", float, _MARKET_DEFAULTS.loading_range[0], "smallest factor loading"),
    Opt("--loading-max", float, _MARKET_DEFAULTS.loading_range[1], "largest factor loading"),
    Opt("--vol-min", float, _MARKET_DEFAULTS.vol_range[0], "smallest per-asset volatility (percent)"),
    Opt("--vol-max", float, _MARKET_DEFAULTS.vol_range[1], "largest per-asset volatility (percent)"),
    Opt("--tremor-prob", float, _MARKET_DEFAULTS.tremor_prob, "daily probability of a fixed-size factor shock"),
    Opt("--tremor-scale", float, _MARKET_DEFAULTS.tremor_scale, "size of factor tremor days"),
    Opt("--crash-prob", float, _MARKET_DEFAULTS.crash_prob, "daily crash probability inside the crash regime"),
    Opt("--crash-scale", float, _MARKET_DEFAULTS.crash_scale, "factor amplification on crash days"),
    Opt("--crash-start", float, _MARKET_DEFAULTS.crash_start, "fraction of the sample where the crash regime starts"),
    Opt("--start-date", str, _MARKET_DEFAULTS.start_date, "first row date (ISO)"),
]

_D_HELP = "number of whitened dimensions to keep"
_K_HELP = "contrast order(s); repeatable or comma-separated"

# fit's and eval's options after --d and --k, the two whose defaults differ
_SOLVER_OPTS = [
    Opt("--seed", int, 0, "random seed for the solver initialization"),
    Opt("--tol", float, 1e-8, "solver convergence tolerance"),
    Opt("--max-iter", int, 1000, "solver iteration cap"),
    Opt("--eig-floor", float, 1e-10, "whitening eigenvalue floor relative to the largest, in (0, 1]"),
    Opt("--standardize", _parse_bool, False, "scale columns to unit variance before PCA"),
    Opt("--entropy-method", str, "correa", "entropy estimator: vasicek, ebrahimi or correa"),
    Opt("--entropy-window", _parse_window, None, "spacing window; 'auto' means floor(sqrt(m))"),
]

_INPUT_OPTS = [
    Opt("--input", str, None, "input CSV path", required=True),
    Opt("--format", str, "auto", "input layout: auto, long or wide"),
    Opt("--fill-missing", _parse_bool, True, "fill absent (date,symbol) cells with 0.0 (long format)"),
]

_METHOD = Opt("--method", str, "correa", "entropy estimator")
_WINDOW = Opt("--window", _parse_window, None, "spacing window; 'auto' means floor(sqrt(m))")
_OUT_CSV = Opt("--out", str, None, "output wide-format CSV path", required=True)
_OUT_STDOUT = Opt("--out", str, None, "output CSV path (stdout when omitted)")
_OUT_DIR = Opt("--out", str, None, "output directory", required=True)


def _load_config(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return values


def _effective_params(args, opts) -> dict:
    """Each option's value: the flag if given, else the config's, else the default."""
    config = _load_config(args.config) if args.config else {}
    known = {opt.dest for opt in opts}
    unknown = set(config) - known
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    params = {}
    for opt in opts:
        if hasattr(args, opt.dest):  # flags left out never reach the namespace
            value = getattr(args, opt.dest)
        elif opt.dest in config:
            try:
                value = opt.type(config[opt.dest])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"bad config value for {opt.flag}: {exc}") from None
        else:
            value = opt.default
            if value is None and opt.required:
                raise UsageError(f"{opt.flag} is required (flag or config)")
        params[opt.dest] = value
    return params


def _write_file(path: str, content) -> None:
    """Write text as is, or stream a panel as wide CSV."""
    if isinstance(content, SamplePanel):
        write_wide_csv(content, path)
        return
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(content)


def _load_panel(params: dict) -> SamplePanel:
    path, layout = params["input"], params["format"]
    if layout == "auto":
        try:  # the header as csv.reader splits it, which is how both readers see it
            with open(path, newline="", encoding="utf-8-sig") as handle:
                header = next(csv.reader(handle), [])
        except (UnicodeDecodeError, csv.Error):
            header = []  # read_wide_csv reports the fault as a DataError
        layout = "long" if _is_long_header(header) else "wide"
    if layout == "long":
        return ingest_csv(path, params["fill_missing"])
    if layout == "wide":
        return read_wide_csv(path)
    raise UsageError(f"--format must be auto, long or wide, got {layout!r}")


def _market_spec(params: dict, seed_key: str) -> SyntheticMarketSpec:
    return SyntheticMarketSpec(
        n_assets=params["assets"],
        m_samples=params["samples"],
        nu_range=(params["nu_min"], params["nu_max"]),
        nu_factor=params["nu_factor"],
        loading_range=(params["loading_min"], params["loading_max"]),
        vol_range=(params["vol_min"], params["vol_max"]),
        tremor_prob=params["tremor_prob"],
        tremor_scale=params["tremor_scale"],
        crash_prob=params["crash_prob"],
        crash_scale=params["crash_scale"],
        crash_start=params["crash_start"],
        start_date=params["start_date"],
        seed=params[seed_key],
    )


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _run_pipeline(panel, params: dict) -> dict:
    """Fit every contrast order and return its artifacts by file name."""
    entropy_config = EntropyEstimatorConfig(params["entropy_method"], params["entropy_window"])
    solver = {key: params[key] for key in ("seed", "tol", "max_iter", "eig_floor", "standardize")}
    artifacts = run_experiment_artifacts(
        panel, params["boundary"], params["d"], params["k"], entropy_config, **solver
    )
    files = {"whitening.csv": whitening_to_csv(artifacts.whitening)}
    diagnostics = {}
    for k, unmixing in artifacts.unmixings.items():
        files[f"W_k{k}.csv"] = unmixing_to_csv(unmixing)
        diagnostics[str(k)] = {
            "iterations": unmixing.iterations,
            "converged": unmixing.converged,
            "kkt_off_diagonal_max": artifacts.kkt[k].off_diagonal_max,
            "kkt_orthonormality_max": artifacts.kkt[k].orthonormality_max,
            "identity_off_diagonal_max": artifacts.identity_kkt[k].off_diagonal_max,
        }
    for r in artifacts.reports:
        stem = f"k{r.k}_{r.bucket}"
        files[f"report_{stem}.json"] = _json(report_to_dict(r))
        files[f"hist_{stem}.csv"] = histogram_to_csv(r.bin_edges, r.counts)
        files[f"hist_portfolio_{stem}.csv"] = histogram_to_csv(r.portfolio_bin_edges, r.portfolio_counts)
    files["scatter_in.csv"] = scatter_to_csv(artifacts.scatter_in)
    files["scatter_out.csv"] = scatter_to_csv(artifacts.scatter_out)
    files["diagnostics.json"] = _json(diagnostics)
    return files


def _cmd_synth(params: dict) -> SamplePanel:
    return generate_market(_market_spec(params, "seed"))


def _cmd_fit(params: dict) -> dict:
    return _run_pipeline(_load_panel(params), params)


def _cmd_transform(params: dict) -> SamplePanel:
    panel = read_wide_csv(params["input"])
    with _open_text(params["whitening"]) as handle:
        transform_w = whitening_from_csv(handle.read())
    result = apply_whitening(transform_w, panel)
    if params["unmixing"]:
        with _open_text(params["unmixing"]) as handle:
            unmixing = unmixing_from_csv(handle.read())
        result = unmix_transform(unmixing, result)
    return result


def _cmd_entropy(params: dict) -> str:
    panel = _load_panel(params)
    config = EntropyEstimatorConfig(params["method"], params["window"])
    rows = [("symbol", "entropy", "method", "window_n", "m")]
    for j, cid in enumerate(panel.column_ids):
        try:
            estimate = estimate_entropy(panel.data[:, j], config)
        except DataError as exc:
            raise DataError(f"column {cid!r}: {exc}") from None
        rows.append((cid, estimate.value, estimate.method, estimate.window_n, estimate.m))
    return _csv_text(rows)


def _cmd_tailcov(params: dict) -> str:
    panel = _load_panel(params)
    if params["center"]:
        panel = center(panel)
    return tail_covariance_to_csv(tail_covariance(panel, params["k"]))


def _cmd_scatter(params: dict) -> str:
    config = EntropyEstimatorConfig(params["method"], params["window"])
    return scatter_to_csv(scatter_moment_entropy(_load_panel(params), "all", config))


def _cmd_eval(params: dict) -> dict:
    panel = generate_market(_market_spec(params, "market_seed"))
    if params["boundary"] is None:
        params["boundary"] = panel.row_ids[panel.m // 2]  # recorded for reruns
    return {"market.csv": panel, **_run_pipeline(panel, params)}


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, its runner and its options in help order.

    The runner computes and returns its result without writing anything:
    text for --out or stdout, a panel for the --out CSV, or a dict from
    file name to text or panel for the --out directory.
    """

    help: str
    run: object
    opts: list


_COMMANDS = {
    "ingest": Command(
        "read a long- or wide-format CSV and write a clean wide panel",
        _load_panel,
        [*_INPUT_OPTS, _OUT_CSV],
    ),
    "synth": Command(
        "generate a synthetic fat-tailed market panel",
        _cmd_synth,
        [*_MARKET_OPTS, Opt("--seed", int, 0, "market generation seed"), _OUT_CSV],
    ),
    "fit": Command(
        "split at a boundary date, whiten, fit unmixings and write tail reports",
        _cmd_fit,
        [
            *_INPUT_OPTS,
            Opt("--d", int, None, _D_HELP, required=True),
            Opt("--k", _parse_int_list, [2], _K_HELP),
            *_SOLVER_OPTS,
            Opt("--boundary", str, None, "bucket boundary date (ISO)", required=True),
            _OUT_DIR,
        ],
    ),
    "transform": Command(
        "apply a saved whitening (and optionally an unmixing) to a panel",
        _cmd_transform,
        [
            Opt("--input", str, None, "wide-format panel CSV", required=True),
            Opt("--whitening", str, None, "whitening transform CSV", required=True),
            Opt("--unmixing", str, None, "unmixing matrix CSV (optional: whiten only)"),
            _OUT_CSV,
        ],
    ),
    "entropy": Command(
        "estimate differential entropy per column",
        _cmd_entropy,
        [*_INPUT_OPTS, _METHOD, _WINDOW, _OUT_STDOUT],
    ),
    "tailcov": Command(
        "compute an order-k tail covariance matrix",
        _cmd_tailcov,
        [
            *_INPUT_OPTS,
            Opt("--k", int, 1, "tail covariance order"),
            Opt("--center", _parse_bool, True, "center columns before computing"),
            _OUT_STDOUT,
        ],
    ),
    "scatter": Command(
        "write per-symbol (root moment, entropy) records",
        _cmd_scatter,
        [
            *_INPUT_OPTS,
            _METHOD,
            _WINDOW,
            Opt("--out", str, None, "output CSV path", required=True),
        ],
    ),
    "eval": Command(
        "synthesize the default market and run the full experiment",
        _cmd_eval,
        [
            *_MARKET_OPTS,
            Opt("--d", int, 30, _D_HELP),
            Opt("--k", _parse_int_list, [2, 10], _K_HELP),
            *_SOLVER_OPTS,
            Opt("--market-seed", int, 0, "market generation seed"),
            Opt("--boundary", str, None, "bucket boundary date (ISO); default: sample midpoint"),
            _OUT_DIR,
        ],
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tailica", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"tailica {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help, description=command.help)
        sub.add_argument("--config", help="key=value file supplying defaults for any flag")
        for opt in command.opts:
            if opt.type is _parse_bool:
                how = {"action": argparse.BooleanOptionalAction}
            else:  # with "extend", repeated --k flags flatten into one list
                how = {"type": opt.type, "action": "extend" if opt.type is _parse_int_list else "store"}
            shown = ",".join(map(str, opt.default)) if opt.type is _parse_int_list else opt.default
            note = "" if shown is None else f" (default: {shown})"
            sub.add_argument(
                opt.flag, dest=opt.dest, default=argparse.SUPPRESS, help=opt.help + note, **how
            )
    return parser


def _write_outputs(name: str, params: dict, result) -> None:
    """Write a runner's result to --out or stdout, then the manifest of a saved run.

    The only code that writes under --out, and it runs after the runner
    returns, so a failed run writes nothing.  The manifest goes inside an
    output directory as ``manifest.json`` and beside an output file as
    ``<out>.manifest.json``; stdout gets none.
    """
    out = params["out"]
    if not out:
        sys.stdout.write(result)
        return
    if isinstance(result, dict):
        os.makedirs(out, exist_ok=True)
        for filename, content in result.items():
            _write_file(os.path.join(out, filename), content)
        path = os.path.join(out, "manifest.json")
    else:
        _write_file(out, result)
        path = out + ".manifest.json"
    parameters = {key: value for key, value in params.items() if key != "out"}
    _write_file(path, _json({"command": name, "package_version": __version__, "parameters": parameters}))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        command = _COMMANDS[args.command]
        params = _effective_params(args, command.opts)
        _write_outputs(args.command, params, command.run(params))
        return 0
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except (UsageError, ValueError) as exc:
        print(f"tailica: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"tailica: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"tailica: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
