"""Analysis toolkit: normality testing, rank correlation, difficulty
histogram and Q-Q exports, extreme-episode tracking, and weighted-loss
dispersion.

The Shapiro-Wilk statistic and p-value follow Royston's 1995 algorithm
(the one behind mainstream statistical packages). Normal quantiles come from
``statistics.NormalDist.inv_cdf``; ``norm_cdf`` stays erfc-based, not
``NormalDist.cdf``, so the sampler's curriculum mass, which reads it, keeps its bits.
"""

from __future__ import annotations

import functools
import logging
import math
from statistics import NormalDist

import numpy as np

logger = logging.getLogger(__name__)

# Significance level of each Shapiro-Wilk test in normality_rejection_rate.
NORMALITY_ALPHA = 0.05


class StatsError(Exception):
    pass


_STANDARD_NORMAL = NormalDist()


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def norm_ppf(p: float) -> float:
    """Standard normal quantile for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise StatsError(f"norm_ppf: p must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def average_ranks(values) -> np.ndarray:
    """1-based ranks with ties assigned their average rank."""
    _, inverse, counts = np.unique(np.asarray(values, float), return_inverse=True, return_counts=True)
    # A tie group of `count` values ending at rank `end` spans ranks end - count + 1 .. end.
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(xs, ys) -> float:
    """Spearman rank-order correlation: Pearson correlation of average
    ranks."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise StatsError(f"spearman: mismatched shapes {xs.shape} and {ys.shape}")
    if xs.size < 2:
        raise StatsError("spearman: need at least 2 observations")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    vx = float(rx @ rx)
    vy = float(ry @ ry)
    if vx == 0.0 or vy == 0.0:
        raise StatsError("spearman: zero rank variance, correlation undefined")
    return float((rx @ ry) / math.sqrt(vx * vy))


@functools.lru_cache
def _shapiro_weights(n: int) -> np.ndarray:
    """Royston's weights ``a`` for samples of size ``n``, read-only; they
    and the Blom quantiles ``m`` they come from depend on ``n`` alone."""
    m = np.array([norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    ss = float(m @ m)
    u = 1.0 / math.sqrt(n)
    a = np.empty(n)
    a_n = (
        -2.706056 * u**5
        + 4.434685 * u**4
        - 2.071190 * u**3
        - 0.147981 * u**2
        + 0.221157 * u
        + m[-1] / math.sqrt(ss)
    )
    if n == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    elif n > 5:
        a_n1 = (
            -3.582633 * u**5
            + 5.682633 * u**4
            - 1.752461 * u**3
            - 0.293762 * u**2
            + 0.042981 * u
            + m[-2] / math.sqrt(ss)
        )
        phi = (ss - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2)
        a[2:-2] = m[2:-2] / math.sqrt(phi)
        a[-1], a[-2], a[0], a[1] = a_n, a_n1, -a_n, -a_n1
    else:
        phi = (ss - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2)
        a[1:-1] = m[1:-1] / math.sqrt(phi)
        a[-1], a[0] = a_n, -a_n
    a.setflags(write=False)
    return a


def shapiro_wilk(sample) -> tuple[float, float]:
    """Shapiro-Wilk W and its p-value under the normality null.

    Valid for 3 <= n <= 5000; a constant sample is rejected as degenerate.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = x.size
    if n < 3 or n > 5000:
        raise StatsError(f"shapiro_wilk: sample size {n} outside [3, 5000]")
    if x[0] == x[-1]:
        raise StatsError("shapiro_wilk: constant sample")
    a = _shapiro_weights(n)
    centered = x - x.mean()
    w = min(float((a @ x) ** 2 / (centered @ centered)), 1.0)
    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, min(max(p, 0.0), 1.0)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
        arg = gamma - math.log1p(-w) if w < 1.0 else gamma
        z = (-math.log(arg) - mu) / sigma
    else:
        ln = math.log(n)
        mu = -1.5861 - 0.31082 * ln - 0.083751 * ln**2 + 0.0038915 * ln**3
        sigma = math.exp(-0.4803 - 0.082676 * ln + 0.0030302 * ln**2)
        lw = math.log1p(-w) if w < 1.0 else -745.0
        z = (lw - mu) / sigma
    return w, min(max(1.0 - norm_cdf(z), 0.0), 1.0)


def normality_rejection_rate(
    omegas,
    rng: np.random.Generator,
    subsample_size: int = 50,
    repetitions: int = 100,
) -> float:
    """Average Shapiro-Wilk rejection rate at level ``NORMALITY_ALPHA`` over
    repeated subsamples drawn without replacement (the large-sample-safe
    normality protocol)."""
    omegas = np.asarray(omegas, dtype=np.float64)
    if repetitions <= 0:
        raise StatsError("normality_rejection_rate: repetitions must be positive")
    if not 3 <= subsample_size <= 5000:
        # shapiro_wilk's range: a subsample outside it would count as a non-rejection.
        raise StatsError(
            f"normality_rejection_rate: subsample_size {subsample_size} outside [3, 5000]"
        )
    if omegas.size < subsample_size:
        raise StatsError(
            f"normality_rejection_rate: need at least {subsample_size} values, got {omegas.size}"
        )
    rejections = 0
    for _ in range(repetitions):
        sub = omegas[rng.choice(omegas.size, size=subsample_size, replace=False)]
        try:
            _, p = shapiro_wilk(sub)
        except StatsError as exc:
            logger.warning("degenerate subsample counted as non-rejection: %s", exc)
            continue
        if p < NORMALITY_ALPHA:
            rejections += 1
    return rejections / repetitions


def export_density_and_qq(
    omegas, bins: int
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Histogram rows (bin left edge, normalized density) and Q-Q rows
    (normal quantile at plotting position (i-0.5)/N, sorted sample value).

    The reference normal has the sample's own mean and (ddof=1) standard
    deviation.
    """
    omegas = np.asarray(omegas, dtype=np.float64)
    if omegas.size < 2:
        raise StatsError("export_density_and_qq: need at least 2 values")
    if bins < 1:
        raise StatsError("export_density_and_qq: bins must be at least 1")
    density, edges = np.histogram(omegas, bins=bins, density=True)
    hist_rows = [(float(edges[i]), float(density[i])) for i in range(bins)]
    loc = float(omegas.mean())
    scale = float(omegas.std(ddof=1))
    n = omegas.size
    sorted_vals = np.sort(omegas)
    qq_rows = [
        (loc + scale * norm_ppf((i - 0.5) / n), float(sorted_vals[i - 1]))
        for i in range(1, n + 1)
    ]
    return hist_rows, qq_rows


def track_extremes(
    initial_omegas,
    checkpoint_omegas,
    m: int = 50,
) -> list[tuple[str, float, float]]:
    """Mean difficulty trajectories of the m easiest and m hardest
    episodes, selected once from ``initial_omegas`` and then followed
    through ``checkpoint_omegas`` (sequence of (checkpoint id, omegas over
    the identical episode pool))."""
    initial = np.asarray(initial_omegas, dtype=np.float64)
    if m < 1:
        raise StatsError(f"track_extremes: m must be at least 1, got {m}")
    if initial.size < 2 * m:
        raise StatsError(f"track_extremes: pool of {initial.size} episodes cannot supply 2x{m}")
    order = np.argsort(initial, kind="stable")
    easy_idx = order[:m]
    hard_idx = order[-m:]
    rows = []
    for checkpoint_id, omegas in checkpoint_omegas:
        omegas = np.asarray(omegas, dtype=np.float64)
        if omegas.size != initial.size:
            raise StatsError(
                "track_extremes: checkpoint scored on a different episode pool"
            )
        rows.append(
            (str(checkpoint_id), float(omegas[easy_idx].mean()), float(omegas[hard_idx].mean()))
        )
    return rows


def weighted_loss_std(batches) -> float:
    """Mean over iterations of the per-batch sample standard deviation of
    the weighted per-episode losses w * NLL.

    ``batches`` is an iterable of per-iteration sequences of
    ``(weight, nll)`` pairs.
    """
    stds = []
    for batch in batches:
        products = np.array([w * nll for w, nll in batch], dtype=np.float64)
        if products.size < 2:
            raise StatsError("weighted_loss_std: batch size 1 has undefined std")
        stds.append(float(products.std(ddof=1)))
    if not stds:
        raise StatsError("weighted_loss_std: no batches")
    return float(np.mean(stds))
