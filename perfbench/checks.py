"""Independent checks of tailica's outputs, in plain numpy.

Nothing here imports tailica: the files the program wrote are parsed with
``csv``/``json`` and ``float``, and every expected value is recomputed from
the benchmark's own inputs.  Each ``check_*`` function raises
:class:`CheckFailed` with a reason when an output is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

WHITE_TOL = 1e-8  # |mean|, |cov - I| of whitened data and |W'W - I|
KKT_REL_TOL = 1e-12  # reported vs recomputed off-diagonal tail covariance
MEAN_REL_TOL = 1e-12  # whitening mean vs the benchmark's column means
AMARI_MAX = 0.05  # k=2 separation error on the recovery workload
# Spacing entropy estimates sit below the Gaussian bound up to sampling
# error; the largest excess seen on the benchmark's markets is 0.034 nats.
ENTROPY_SLACK = 0.1


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- independent numerics ----------------------------------------------------


def amari(gain):
    """Amari separation error of a square gain matrix: 0 iff a scaled signed
    permutation, 1 when every entry has the same magnitude."""
    p = np.abs(np.asarray(gain, dtype=np.float64))
    d = p.shape[0]
    rows = (p.sum(axis=1) / p.max(axis=1) - 1.0).sum()
    cols = (p.sum(axis=0) / p.max(axis=0) - 1.0).sum()
    return float((rows + cols) / (2.0 * d * (d - 1.0)))


def tail_cov_direct(s, k):
    """T^(k)[i, j] = mean(s_i * s_j^(2k-1)), evaluated directly."""
    return s.T @ s ** (2 * k - 1) / s.shape[0]


def off_diagonal_max(matrix):
    off = np.abs(matrix - np.diag(np.diag(matrix)))
    return float(off.max()) if matrix.shape[0] > 1 else 0.0


def whiteness_error(z):
    """max(|column mean|, |cov - I|) with the 1/m covariance convention."""
    mean_err = float(np.abs(z.mean(axis=0)).max())
    cov = z.T @ z / z.shape[0]
    return max(mean_err, float(np.abs(cov - np.eye(z.shape[1])).max()))


def orthonormality_error(w):
    return float(np.abs(w.T @ w - np.eye(w.shape[1])).max())


def check_white(z, what):
    err = whiteness_error(z)
    require(err <= WHITE_TOL, f"{what} is not white: error {err:.3e}")


def check_orthonormal(w, what):
    err = orthonormality_error(w)
    require(err <= WHITE_TOL, f"{what} is not orthonormal: |W'W - I| = {err:.3e}")


def gaussian_entropy_bound(column):
    """Largest differential entropy of any law with this column's variance."""
    var = float(np.mean((column - column.mean()) ** 2))
    return 0.5 * math.log(2.0 * math.pi * math.e * var)


# -- readers for the files tailica writes --------------------------------------


def read_wide(path, shape):
    """Wide CSV of the given (m, n) shape -> (dates, column ids, float array).

    Rows are parsed one at a time into a preallocated array, so the check
    adds little to the process's peak memory.
    """
    data = np.empty(shape, dtype=np.float64)
    dates = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        require(header[0] == "date" and len(header) == shape[1] + 1, f"{path}: bad header")
        for i, row in enumerate(reader):
            require(i < shape[0], f"{path}: more than {shape[0]} rows")
            dates.append(row[0])
            data[i] = [float(v) for v in row[1:]]
    require(len(dates) == shape[0], f"{path}: {len(dates)} rows, expected {shape[0]}")
    return dates, header[1:], data


def read_whitening(path):
    """whitening.csv -> (mean, projection)."""
    with open(path) as handle:
        lines = [ln for ln in handle.read().splitlines() if ln.strip()]
    require(lines[0] == "tailica-whiten v1", f"{path}: unknown header {lines[0]!r}")
    blocks = {}
    for i, line in enumerate(lines[1:], start=1):
        key, _, rest = line.partition(",")
        if key == "projection":
            d, n = (int(v) for v in rest.split(","))
            proj = np.array([[float(v) for v in r.split(",")] for r in lines[i + 1 : i + 1 + d]])
            require(proj.shape == (d, n), f"{path}: projection is {proj.shape}, header says {(d, n)}")
            break
        blocks[key] = rest.split(",")
    mean = np.array([float(v) for v in blocks["mean"]])
    return mean, proj


def read_unmixing(path):
    """W_k*.csv -> W (components are columns)."""
    with open(path) as handle:
        lines = [ln for ln in handle.read().splitlines() if ln.strip()]
    require(lines[0].startswith("tailica-W v1"), f"{path}: unknown header")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def histogram_total(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    require(rows[0] == ["bin_left", "bin_right", "count"], f"{path}: bad header")
    return sum(int(r[2]) for r in rows[1:])


def read_scatter(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return {r[0]: float(r[2]) for r in rows[1:]}


# -- per-workload checks ----------------------------------------------------------


def check_fit_dir(out, x, column_ids, n_in, ks, q999_falls=False):
    """Check a ``tailica fit``/``eval`` output directory against the panel.

    ``x`` is the benchmark's own (m, n) panel, ``n_in`` the number of
    in-sample rows.
    """
    x_in, x_out = x[:n_in], x[n_in:]
    mean, proj = read_whitening(os.path.join(out, "whitening.csv"))
    own_mean = x_in.mean(axis=0)
    rel = np.abs(mean - own_mean) / np.maximum(np.abs(own_mean), np.finfo(float).tiny)
    require(float(rel.max()) <= MEAN_REL_TOL, f"whitening mean off by {rel.max():.3e} relative")
    z_in = (x_in - mean) @ proj.T
    z_out = (x_out - mean) @ proj.T
    check_white(z_in, "whitened in-sample bucket")
    d = proj.shape[0]
    with open(os.path.join(out, "diagnostics.json")) as handle:
        diagnostics = json.load(handle)
    q999 = {}
    for k in ks:
        w = read_unmixing(os.path.join(out, f"W_k{k}.csv"))
        check_orthonormal(w, f"W_k{k}")
        direct = off_diagonal_max(tail_cov_direct(z_in @ w, k))
        reported = float(diagnostics[str(k)]["kkt_off_diagonal_max"])
        require(
            abs(reported - direct) <= KKT_REL_TOL * abs(direct),
            f"k={k}: kkt_off_diagonal_max {reported!r} vs direct {direct!r}",
        )
        for bucket, rows in (("in", n_in), ("out", x.shape[0] - n_in)):
            stem = f"k{k}_{bucket}"
            total = histogram_total(os.path.join(out, f"hist_{stem}.csv"))
            require(total == rows * d, f"hist_{stem}: counts sum to {total}, expected {rows * d}")
            total = histogram_total(os.path.join(out, f"hist_portfolio_{stem}.csv"))
            require(total == rows, f"hist_portfolio_{stem}: counts sum to {total}, expected {rows}")
            with open(os.path.join(out, f"report_{stem}.json")) as handle:
                report = json.load(handle)
            quantiles = np.array(report["quantiles"])
            require(bool(np.all(np.diff(quantiles, axis=0) >= 0.0)), f"report_{stem}: quantiles not monotone")
        q999[k] = float(np.quantile(np.abs(z_out @ w).ravel(), 0.999))
        with open(os.path.join(out, f"report_k{k}_out.json")) as handle:
            reported_q = float(json.load(handle)["pooled_abs_q999"])
        require(
            abs(reported_q - q999[k]) <= 1e-9 * q999[k],
            f"k={k}: pooled_abs_q999 {reported_q!r} vs recomputed {q999[k]!r}",
        )
    if q999_falls:
        lo, hi = min(ks), max(ks)
        require(
            q999[hi] < q999[lo],
            f"out-of-sample q999 does not fall from k={lo} ({q999[lo]:.4f}) to k={hi} ({q999[hi]:.4f})",
        )
    for bucket, rows in (("in", x_in), ("out", x_out)):
        entropies = read_scatter(os.path.join(out, f"scatter_{bucket}.csv"))
        require(len(entropies) == len(column_ids), f"scatter_{bucket}: {len(entropies)} records")
        for j, cid in enumerate(column_ids):
            excess = entropies[cid] - gaussian_entropy_bound(rows[:, j])
            require(
                excess <= ENTROPY_SLACK,
                f"scatter_{bucket} {cid}: entropy exceeds the Gaussian bound by {excess:.4f} nats",
            )


def check_market_csv(out, dates, data):
    """market.csv must hold the generator's array bitwise (lossless writer)."""
    got_dates, _, got = read_wide(os.path.join(out, "market.csv"), data.shape)
    require(got_dates == list(dates), "market.csv dates differ from the generator's")
    require(bool(np.all(got == data)), "market.csv is not bitwise the generated market")


def check_recovery(projection, mixing, unmixings, z_in_components):
    """Recovery workload: W orthonormal, components white, k=2 separates.

    ``unmixings`` maps k -> W; ``z_in_components`` maps k -> the in-sample
    component array the program returned.
    """
    for k, w in unmixings.items():
        check_orthonormal(w, f"W (k={k})")
        check_white(z_in_components[k], f"in-sample components (k={k})")
    index = amari(unmixings[2].T @ projection @ mixing)
    require(index < AMARI_MAX, f"Amari index at k=2 is {index:.4f} (limit {AMARI_MAX})")


def check_same_unmixings(out, unmixings):
    """Unmixings from another schedule of the same fit equal the files in ``out`` bitwise."""
    for k, w in unmixings.items():
        written = read_unmixing(os.path.join(out, f"W_k{k}.csv"))
        require(bool(np.array_equal(written, w)), f"k={k}: unmixing differs from the serial replay's")
