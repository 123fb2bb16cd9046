"""Order-statistic HDR estimation from neighborhood-measure scores.

The estimated region is a score threshold: the alpha-quantile of the
in-sample scores for concentration measures, the (1-alpha)-quantile for
sparsity measures.  Membership of any point reduces to one inclusive
comparison of its score against the threshold.

Labels are boolean arrays throughout, with ``True`` meaning *inside* the
region (a highest-density point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Orientation, ScoreVector, threshold_index

__all__ = ["HdrRegion", "estimate_hdr", "classify", "density_quantile_hdr", "measure_average"]


@dataclass(frozen=True)
class HdrRegion:
    threshold: float
    orientation: Orientation
    alpha: float


def estimate_hdr(scores: ScoreVector, alpha: float) -> HdrRegion:
    """Threshold the score sample at its order statistic.

    The returned region keeps scores >= threshold (concentration) or
    <= threshold (sparsity); comparisons are inclusive so the training
    coverage guarantee survives ties.
    """
    rank = threshold_index(scores.n, alpha, scores.orientation)
    # partial selection puts the rank-th smallest value where a full sort would
    threshold = np.partition(scores.scores, rank - 1)[rank - 1]
    return HdrRegion(float(threshold), scores.orientation, float(alpha))


def classify(region: HdrRegion, scores) -> np.ndarray:
    """Boolean inside-labels for raw scores under the region's threshold."""
    s = np.asarray(scores, dtype=float)
    if region.orientation is Orientation.CONCENTRATION:
        return s >= region.threshold
    return s <= region.threshold


def density_quantile_hdr(density_values, alpha: float) -> HdrRegion:
    """Classical density-quantile rule: the special case where the measure
    is a density estimate (always a concentration measure)."""
    vals = np.asarray(density_values, dtype=float)
    if np.any(vals < 0):
        raise ValueError("density values must be nonnegative")
    return estimate_hdr(ScoreVector(vals, Orientation.CONCENTRATION), alpha)


def measure_average(label_matrix) -> np.ndarray:
    """Consensus labels: inside iff strictly more than half the rows agree.

    ``label_matrix`` is a sequence of equal-length boolean label vectors;
    an exact half split counts as outside.
    """
    rows = [np.asarray(r, dtype=bool) for r in label_matrix]
    if not rows:
        raise ValueError("need at least one label vector")
    length = rows[0].size
    if any(r.size != length for r in rows):
        raise ValueError("label vectors differ in length")
    votes = np.sum(rows, axis=0)
    return votes * 2 > len(rows)
