"""The unit suites' dated panel: one row per calendar day from a first date."""

import datetime

import numpy as np

from tailica.panel import SamplePanel


def dated_panel(data, columns=None, *, start, names="S{:04d}"):
    """``data`` as a panel dated daily from ``start`` (``YYYY-MM-DD``), its
    columns ``columns`` or ``names`` formatted with each column's index."""
    data = np.asarray(data, dtype=float)
    if columns is None:
        columns = tuple(names.format(j) for j in range(data.shape[1]))
    first = datetime.date.fromisoformat(start)
    dates = tuple((first + datetime.timedelta(days=i)).isoformat() for i in range(data.shape[0]))
    return SamplePanel(data, columns, dates)
