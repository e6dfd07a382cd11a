"""SafetyTracker: the safe-for-all test (Sec. 4.1/4.2), counting form.

A point is a *safe inlier* for query ``q`` once enough of its succeeding
neighbors guarantee inlier status for the rest of its lifetime; it is
*fully safe* (safe for all) when that holds for every member query, at
which point the detector drops its evidence and never evaluates it again.

The literal test reads the ``k_j``-th smallest layer among a point's
*succeeding* skyband entries and asks whether it is at or below sub-group
``j``'s smallest member layer ``d_j``.  That is the same as counting: at
least ``k_j`` successors sit at layers ``<= d_j``.  Counting needs no
sort, so the refresh stage decides every refreshed row of a boundary at
once from one per-row cumulative layer histogram (:func:`layer_counts`);
DESIGN.md section 15 carries the argument, and
``repro.testing.reference`` keeps the literal per-row test as the oracle
the lockstep suites hold this one to.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SafetyTracker", "layer_counts"]


def layer_counts(rows: np.ndarray, layers: np.ndarray, n_rows: int,
                 n_layers: int) -> np.ndarray:
    """``out[r, m]``: how many of the entries ``(rows, layers)`` belong to
    row ``r`` at a layer ``<= m`` (int32, ``n_rows x n_layers``)."""
    flat = np.bincount(rows * n_layers + layers, minlength=n_rows * n_layers)
    return np.cumsum(flat.reshape(n_rows, n_layers), axis=1, dtype=np.int32)


class SafetyTracker:
    """Vectorized safe-for-all decisions against one skyband plan."""

    def __init__(self, plan):
        self.plan = plan

    def safe_rows(self, rows: np.ndarray, layers: np.ndarray,
                  n_rows: int) -> np.ndarray:
        """Which of ``n_rows`` rows are fully safe, given every row's
        succeeding skyband entries as ``(row, layer)`` pairs."""
        plan = self.plan
        have = layer_counts(rows, layers, n_rows, plan.n_layers)
        return (have[:, plan.subgroup_min_layers]
                >= plan.subgroup_ks).all(axis=1)
