"""Tests of the benchmark's independent checkers on cases with known answers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math
import os

import numpy as np
import pytest

import checks
import spans


def test_amari_is_zero_for_a_signed_permutation():
    gain = np.array([[0.0, -2.0, 0.0], [0.0, 0.0, 0.5], [3.0, 0.0, 0.0]])
    assert checks.amari(gain) == 0.0


def test_amari_is_one_for_the_all_equal_matrix():
    assert checks.amari(np.full((4, 4), 0.7)) == pytest.approx(1.0, abs=1e-15)


def test_direct_tail_covariance_of_order_one_is_the_covariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((500, 3)) @ rng.standard_normal((3, 3))
    x = x - x.mean(axis=0)
    np.testing.assert_allclose(checks.tail_cov_direct(x, 1), np.cov(x, rowvar=False, bias=True), rtol=1e-12)


def test_direct_tail_covariance_matches_its_definition():
    s = np.array([[1.0, 2.0], [-1.0, 0.5], [0.0, -2.0]])
    # T^(2)[0, 1] = mean(s_0 * s_1^3)
    assert checks.tail_cov_direct(s, 2)[0, 1] == pytest.approx((8.0 - 0.125 + 0.0) / 3.0)


def _white(m, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.laplace(size=(m, d))
    x = x - x.mean(axis=0)
    evals, evecs = np.linalg.eigh(x.T @ x / m)
    return x @ evecs / np.sqrt(evals)


def test_rotation_of_white_data_stays_white():
    z = _white(2000, 4, 2)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    checks.check_white(z, "white data")
    checks.check_white(z @ q, "rotated white data")
    checks.check_orthonormal(q, "rotation")


def test_a_shear_of_white_data_is_not_white():
    z = _white(2000, 3, 4)
    shear = np.eye(3)
    shear[0, 1] = 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_white(z @ shear, "sheared data")
    with pytest.raises(checks.CheckFailed):
        checks.check_orthonormal(shear, "shear")


def test_gaussian_entropy_bound_of_a_two_point_column():
    # variance 1 -> 0.5 * ln(2 pi e)
    column = np.array([-1.0, 1.0, -1.0, 1.0])
    assert checks.gaussian_entropy_bound(column) == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e))


def test_readers_parse_the_whitening_and_unmixing_layouts(tmp_path):
    text = "\n".join(
        [
            "tailica-whiten v1",
            "columns,A,B",
            "mean,0.5,-0.25",
            "eigenvalues,2.0,1.0",
            "projection,2,2",
            "0.1,0.2",
            "0.3,0.4",
        ]
    )
    path = os.path.join(tmp_path, "whitening.csv")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    mean, projection = checks.read_whitening(path)
    assert mean.tolist() == [0.5, -0.25]
    assert projection.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    path = os.path.join(tmp_path, "W_k2.csv")
    with open(path, "w") as handle:
        handle.write("tailica-W v1, k=2, seed=0, converged=true, iterations=3\n0.0,1.0\n1.0,0.0\n")
    assert checks.read_unmixing(path).tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_self_time_subtracts_direct_children_only():
    rows = [
        {"name": "pass", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "fit", "start": 1.0, "end": 5.0, "parent": 0},
        {"name": "kernel", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "fit", "start": 6.0, "end": 8.0, "parent": 0},
        {"name": "other", "start": 11.0, "end": 12.0, "parent": None},
    ]
    got = spans.durations(rows, 0)
    assert got["pass"] == [10.0, 4.0, 1]
    assert got["fit"] == [6.0, 5.0, 2]
    assert got["kernel"] == [1.0, 1.0, 1]
    assert "other" not in got
