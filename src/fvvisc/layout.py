"""Per-variable storage behind variables-last face arrays.

The face kernels of ``recon`` and ``physics`` take arrays whose last axis
holds the variables (the last two, for gradients) and broadcast over the
leading axes.  Inside, they work on per-variable rows, (n, ...) or
(n, m, ...), so that every step runs over one contiguous axis of faces, and
they return their results as variables-last views of such rows.  An input
that is already such a view is taken without a copy, so a chain of kernels
copies the data only where it enters the chain.
"""

from __future__ import annotations

import numpy as np


def rows(a, lead=None, axes=1):
    """Per-variable rows of a variables-last array: (*lead, n) -> (n, *lead),
    or with axes=2, (*lead, n, m) -> (n, m, *lead).

    a broadcasts to lead (default: its own leading shape).  The rows are a
    contiguous copy, unless a is the variables-last view of contiguous rows,
    which are then returned as they are.
    """
    a = np.asarray(a, dtype=float)
    if lead is not None:
        a = np.broadcast_to(a, lead + a.shape[a.ndim - axes:])
    return np.ascontiguousarray(
        np.moveaxis(a, tuple(range(-axes, 0)), tuple(range(axes))))


def variables_last(r, axes=1):
    """The variables-last view of per-variable rows: (n, ...) -> (..., n),
    or with axes=2, (n, m, ...) -> (..., n, m)."""
    return np.moveaxis(r, tuple(range(axes)), tuple(range(-axes, 0)))


def gather(a, indices, axes=1):
    """a[i] for each index array i in indices, where a is a variables-last
    array with one leading axis: variables-last views of per-variable rows."""
    r = rows(a, axes=axes)
    return tuple(variables_last(r.take(i, axis=-1), axes) for i in indices)
