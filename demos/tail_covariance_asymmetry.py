"""Tail covariance matrices and why they are asymmetric for k > 1.

T^(k)[i, j] averages s_i * s_j^(2k-1): row i asks "how does asset i move
on asset j's tail days".  At k=1 this is the plain covariance; at higher
orders the cube (and beyond) of one side breaks the symmetry.
"""

import datetime
import math

import numpy as np

from tailica.panel import SamplePanel
from tailica.tailcov import tail_covariance


def panel_from(data, columns):
    data = np.asarray(data, dtype=float)
    start = datetime.date(2020, 1, 1)
    dates = tuple(
        (start + datetime.timedelta(days=i)).isoformat() for i in range(len(data))
    )
    return SamplePanel(data, columns, dates)


# the classic three-day example: x crashes once, y never does
pair = panel_from([[1.0, 2.0], [2.0, 1.0], [-3.0, 1.0]], ("x", "y"))
t2 = tail_covariance(pair, k=2)
print("k=2 tail covariance of x=[1,2,-3], y=[2,1,1]:")
print(t2.values)
print(f"T_xy = {t2.values[0, 1]:.4f} (x on y's tail days)")
print(f"T_yx = {t2.values[1, 0]:.4f} (y on x's tail days)\n")

# at k=1 the matrix is the biased covariance, symmetric as usual
rng = np.random.default_rng(3)
raw = rng.standard_t(df=4, size=(600, 3))
raw -= raw.mean(axis=0)
centered = panel_from(raw, ("a", "b", "c"))
t1 = tail_covariance(centered, k=1)
print("max |T^(1) - cov|:", np.max(np.abs(t1.values - np.cov(raw.T, bias=True))))

# asymmetry grows with the order
for k in (1, 2, 4, 8):
    tk = tail_covariance(centered, k=k)
    gap = np.max(np.abs(tk.values - tk.values.T))
    print(f"k={k}: max |T - T'| = {gap:.6f}")

# columns on wildly different scales underflow a naive average to zero;
# the scaled accumulator keeps the cross terms exact
big = np.array([math.ldexp(3, 60), -math.ldexp(1, 60)])
tiny = np.array([math.ldexp(5, -220), math.ldexp(1, -220)])
mixed = panel_from(np.column_stack([big, tiny]), ("big", "tiny"))
with np.errstate(under="ignore"):
    naive = np.mean(big * tiny**5)
safe = tail_covariance(mixed, k=3)
print(f"\ncross term, naive average : {naive}")
print(f"cross term, tail_covariance: {safe.values[0, 1]}")
