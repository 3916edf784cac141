"""Laplace-mechanism count simulator and ratio-inference Monte Carlo.

A differentially private count release adds Laplace(0, 1/epsilon) noise to
every count.  When an analyst divides two noisy counts Y/X to estimate a
proportion, second-order analysis predicts a small multiplicative bias
(1 + 2b^2/x^2) and a variance (2b^2/x^2)(1 + (y/x)^2) that both vanish as
the true count x grows.  This module samples the mechanism exactly (inverse
CDF) and verifies those predictions empirically.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError

__all__ = [
    "LaplaceMech",
    "InferenceEstimate",
    "noisy_count",
    "inference_experiment",
    "convergence_sweep",
    "laplace_pdf",
    "laplace_cdf",
]

_CHUNK = 1 << 18  # draws per SeedSequence child, so it fixes the samples too
_TINY = 1e-300  # clamp for log() at the closed end of the uniform draw


def laplace_pdf(value, loc: float = 0.0, scale: float = 1.0):
    """Closed-form Laplace density, vectorized over value."""
    v = np.asarray(value, dtype=np.float64)
    return np.exp(-np.abs(v - loc) / scale) / (2.0 * scale)


def laplace_cdf(value, loc: float = 0.0, scale: float = 1.0):
    """Closed-form Laplace CDF, vectorized over value."""
    v = np.asarray(value, dtype=np.float64)
    z = (v - loc) / scale
    return np.where(z < 0, 0.5 * np.exp(z), 1.0 - 0.5 * np.exp(-z))


def _draw(rng: np.random.Generator, scale: float, n: int) -> np.ndarray:
    # inverse CDF keeps the sampler exact and seed-deterministic
    u = rng.random(n) - 0.5
    return -scale * np.sign(u) * np.log(np.clip(1.0 - 2.0 * np.abs(u),
                                                _TINY, None))


@dataclass(frozen=True)
class LaplaceMech:
    """Count-release mechanism adding Laplace(0, 1/epsilon) noise."""

    epsilon: float
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ConfigError(
                f"epsilon must be finite and positive, got {self.epsilon}")

    @property
    def scale(self) -> float:
        return 1.0 / self.epsilon

    def sample(self, n: int) -> np.ndarray:
        """n noise draws; a fresh call with the same mech repeats them."""
        if n < 1:
            raise ConfigError(f"sample count must be positive, got {n}")
        return _draw(np.random.default_rng(self.seed), self.scale, n)


def noisy_count(true_count: float, mech: LaplaceMech) -> float:
    """One private release of a nonnegative count."""
    if true_count < 0:
        raise ConfigError(f"count must be nonnegative, got {true_count}")
    return float(true_count + mech.sample(1)[0])


@dataclass(frozen=True)
class InferenceEstimate:
    """Empirical vs predicted moments of the noisy ratio Y/X."""

    x: float
    y: float
    sample_mean: float
    sample_var: float
    predicted_mean: float
    predicted_var: float
    sample_count: int
    rejected: int = 0

    def __post_init__(self):
        if self.x < 1:
            raise ConfigError(f"x must be at least 1, got {self.x}")
        if not 0 <= self.y <= self.x:
            raise ConfigError(f"need 0 <= y <= x, got y={self.y} x={self.x}")

    def to_dict(self) -> dict:
        return asdict(self)


def predicted_moments(x: float, y: float, scale: float) -> tuple[float, float]:
    """Second-order mean and variance of Y/X under Laplace(0, scale) noise."""
    r = y / x
    excess = 2.0 * scale / x * scale / x
    return r * (1.0 + excess), excess * (1.0 + r * r)


def inference_experiment(x: float, y: float, mech: LaplaceMech,
                         n_samples: int) -> InferenceEstimate:
    """Monte-Carlo moments of Y/X from independently noised counts.

    The ratio is heavy-tailed when X wanders near zero, so the experiment
    requires x >= 10 * scale and drops (but counts) draws with X <= x/2;
    in that regime the rejection rate is about exp(-x/(2b))/2 and the
    surviving moments are finite and comparable to the predictions.
    """
    if x < 1:
        raise ConfigError(f"x must be at least 1, got {x}")
    if not 0 <= y <= x:
        raise ConfigError(f"need 0 <= y <= x, got y={y} x={x}")
    if n_samples < 1:
        raise ConfigError(f"need at least 1 sample, got {n_samples}")
    if x < 10.0 * mech.scale:
        raise ConfigError(
            f"x={x} is below the stability gate 10*scale={10 * mech.scale}")
    n_chunks = -(-n_samples // _CHUNK)
    children = np.random.SeedSequence(mech.seed).spawn(n_chunks)
    count = 0
    total = 0.0
    total_sq = 0.0
    rejected = 0
    remaining = n_samples
    for child in children:
        size = min(_CHUNK, remaining)
        remaining -= size
        rng = np.random.default_rng(child)
        xs = x + _draw(rng, mech.scale, size)
        ys = y + _draw(rng, mech.scale, size)
        keep = xs > x / 2.0
        rejected += size - int(keep.sum())
        ratios = ys[keep] / xs[keep]
        count += ratios.size
        total += float(ratios.sum())
        total_sq += float(np.square(ratios).sum())
    if count == 0:
        raise ConfigError("every sample fell below the stability cutoff")
    mean = total / count
    var = (total_sq - total * total / count) / (count - 1) if count > 1 else 0.0
    pred_mean, pred_var = predicted_moments(x, y, mech.scale)
    return InferenceEstimate(
        x=x, y=y, sample_mean=mean, sample_var=var,
        predicted_mean=pred_mean, predicted_var=pred_var,
        sample_count=count, rejected=rejected)


def convergence_sweep(y_over_x: float, mech: LaplaceMech,
                      x_values: Sequence[float], n_samples: int = 100_000,
                      ) -> list[InferenceEstimate]:
    """Run the ratio experiment at each x, demonstrating moment shrinkage."""
    if not 0 <= y_over_x <= 1:
        raise ConfigError(f"ratio must be in [0, 1], got {y_over_x}")
    if not x_values:
        raise ConfigError("need at least one x value")
    if any(b <= a for a, b in zip(x_values, x_values[1:])):
        raise ConfigError("x values must be strictly ascending")
    return [inference_experiment(float(x), y_over_x * float(x), mech,
                                 n_samples)
            for x in x_values]
