"""Importance sampling over episode difficulty.

The proposal distribution (episodes drawn uniformly) is modeled through
the normal distribution it induces over difficulty, with parameters
estimated either offline (from a pool of pre-scored episodes) or online
(exponential moving average seeded by a warm-up phase). Target densities
reshape that distribution: EASY and HARD are uniform on the lower/upper
half of the truncated support, UNIFORM covers the whole of it, and
CURRICULUM is a normal whose center sweeps the support as training
progresses. Importance weights are the target/proposal density ratio and
batches are normalized by the effective sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .stats import norm_cdf

TRUNCATION_SIGMAS = 2.58  # ~99% coverage of the proposal normal
VARIANCE_FLOOR = 1e-8
WEIGHT_CAP = 1e6

SCHEME_KINDS = ("baseline", "easy", "hard", "curriculum", "uniform")
MODES = ("online", "offline")


class SamplerError(Exception):
    pass


@dataclass
class SamplingScheme:
    """Which target density to mimic, and how the proposal is estimated."""

    kind: str
    mode: str = "online"

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise SamplerError(f"unknown scheme kind {self.kind!r}")
        if self.mode not in MODES:
            raise SamplerError(f"unknown mode {self.mode!r}")


@dataclass
class DifficultyModel:
    """Running normal model of the proposal's difficulty distribution."""

    mu: float = 0.0
    var: float = 1.0
    lam: float = 0.9
    warmup_remaining: int = 100
    warmup_buffer: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise SamplerError(f"lambda {self.lam} outside [0, 1]")
        if self.warmup_remaining < 0:
            raise SamplerError("warmup_remaining must be non-negative")

    @property
    def ready(self) -> bool:
        return self.warmup_remaining == 0

    @property
    def sigma(self) -> float:
        return math.sqrt(self.var)

    def support_bounds(self) -> tuple[float, float]:
        if not self.ready:
            raise SamplerError("difficulty model still warming up")
        s = self.sigma
        return (self.mu - TRUNCATION_SIGMAS * s, self.mu + TRUNCATION_SIGMAS * s)


def _check_variance(where: str, var: float) -> None:
    """Reject a variance whose normal density cannot be evaluated: one that
    is NaN or infinite, or so large that 2*pi*var overflows (the density
    would round to 0.0 inside the support)."""
    if not math.isfinite(2.0 * math.pi * var):
        raise SamplerError(f"{where}: variance {var} is not finite or 2*pi*var overflows")


def _fit_normal(where: str, values: np.ndarray) -> tuple[float, float]:
    """Sample mean and ddof-1 variance (0.0 for one value), floored and checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(values.mean())
        var = max(float(values.var(ddof=1)) if values.size > 1 else 0.0, VARIANCE_FLOOR)
    _check_variance(where, var)
    return mu, var


def normal_pdf(x: float, mu: float, var: float) -> float:
    if var <= 0.0:
        raise SamplerError(f"normal_pdf: variance must be positive, got {var}")
    _check_variance("normal_pdf", var)
    return math.exp(-((x - mu) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def target_density(
    omega: float, scheme: SamplingScheme, model: DifficultyModel, progress: float
) -> float:
    """Density of the scheme's target distribution at difficulty ``omega``.

    All non-baseline targets are proper densities on the truncated support
    (zero outside); baseline returns the proposal density itself so the
    weight ratio is identically one. ``progress`` in [0, 1] (iteration over
    total) places the curriculum's center; the other kinds ignore it.
    """
    if scheme.kind == "baseline":
        return normal_pdf(omega, model.mu, max(model.var, VARIANCE_FLOOR))
    lo, hi = model.support_bounds()
    sigma = model.sigma
    if scheme.kind == "easy":
        return 1.0 / (TRUNCATION_SIGMAS * sigma) if lo <= omega <= model.mu else 0.0
    if scheme.kind == "hard":
        return 1.0 / (TRUNCATION_SIGMAS * sigma) if model.mu <= omega <= hi else 0.0
    if scheme.kind == "uniform":
        return 1.0 / (hi - lo) if lo <= omega <= hi else 0.0
    # curriculum: normal centered at mu_t, truncated to [lo, hi] and
    # renormalized by the retained mass.
    if not 0.0 <= progress <= 1.0:
        raise SamplerError(f"progress {progress} outside [0, 1]")
    if not lo <= omega <= hi:
        return 0.0
    mu_t = lo + progress * (hi - lo)
    mass = norm_cdf((hi - mu_t) / sigma) - norm_cdf((lo - mu_t) / sigma)
    return normal_pdf(omega, mu_t, model.var) / mass


def importance_weight(
    omega: float, scheme: SamplingScheme, model: DifficultyModel, progress: float
) -> float:
    """w = target density / proposal density, with the proposal evaluated
    as the un-truncated normal; ``progress`` is passed to ``target_density``.

    During warm-up the weight is exactly 1 (baseline behavior). No floor on
    the proposal is needed: every non-baseline target is zero outside
    mu +- 2.58 sigma, and inside it the proposal is at least
    exp(-2.58**2 / 2) / sqrt(2 pi var), about 1.4e-152 even at var = 1e300,
    so a proposal that rounds to 0.0 always meets a zero target, which
    returns 0.0 before the division. ``normal_pdf`` rejects the variances
    above about 2.8e307, where 2 pi var overflows and this bound fails.
    Weights are capped at ``WEIGHT_CAP``.
    """
    if scheme.kind == "baseline" or not model.ready:
        return 1.0
    proposal = normal_pdf(omega, model.mu, model.var)
    target = target_density(omega, scheme, model, progress)
    if target == 0.0:
        return 0.0
    return min(target / proposal, WEIGHT_CAP)


def effective_sample_size(weights) -> float:
    """ESS = (sum w)^2 / sum w^2; |B| when all weights are equal, down to 1
    when a single weight dominates."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise SamplerError("effective_sample_size: empty weight vector")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise SamplerError("effective_sample_size: weights must be finite and non-negative")
    if not w.any():
        raise SamplerError("effective_sample_size: all weights are zero")
    # Scaling by a power of two is exact in the normal range, so no ESS
    # changes; with the largest weight in [0.5, 1) neither sum can
    # overflow, and neither can underflow to zero.
    w = np.ldexp(w, -np.frexp(w.max())[1])
    total = w.sum()
    return float(total * total / np.dot(w, w))


def update_online(model: DifficultyModel, omega: float) -> DifficultyModel:
    """One EMA step: mu first, then the variance using the updated mu.

    During warm-up observations are buffered; when the warm-up ends the
    model is seeded with the buffer's sample mean and unbiased variance.
    A variance that is not finite, or whose 2*pi*var overflows, raises
    ``SamplerError`` before ``mu`` and ``var`` change.
    """
    if not math.isfinite(omega):
        raise SamplerError(f"update_online: non-finite difficulty {omega}")
    if model.warmup_remaining > 0:
        model.warmup_buffer.append(float(omega))
        if model.warmup_remaining > 1:
            model.warmup_remaining -= 1
            return model
        model.mu, model.var = _fit_normal("update_online", np.asarray(model.warmup_buffer))
        model.warmup_remaining = 0
        model.warmup_buffer = []
        return model
    lam = model.lam
    mu = lam * model.mu + (1.0 - lam) * omega
    try:
        spread = (omega - mu) ** 2
    except OverflowError:
        spread = math.inf
    var = max(lam * model.var + (1.0 - lam) * spread, VARIANCE_FLOOR)
    _check_variance("update_online", var)
    model.mu, model.var = mu, var
    return model


def estimate_offline(difficulties, lam: float = 0.9) -> DifficultyModel:
    """Difficulty model from a pre-scored pool, ready immediately (no warm-up):
    its sample mean and unbiased variance, fitted and checked by ``_fit_normal``."""
    values = np.asarray(list(difficulties), dtype=np.float64)
    if values.size < 2:
        raise SamplerError("estimate_offline: need at least 2 difficulty values")
    if not np.all(np.isfinite(values)):
        raise SamplerError("estimate_offline: non-finite difficulty values")
    mu, var = _fit_normal("estimate_offline", values)
    return DifficultyModel(mu=mu, var=var, lam=lam, warmup_remaining=0)
