"""Moment algebra for the SPSTA moment engine (paper Sec. 3.4, Eq. 13).

A TOP function abstracted to moments is a triple (weight, mean, variance):
the weight is the transition occurrence probability (integral of the TOP),
and mean/variance describe the conditional arrival-time distribution.  The
WEIGHTED SUM of TOPs then mixes conditional distributions with weights

    w_y       = sum_i  p_i w_i
    E[t_y]    = sum_i  p_i w_i E[t_i]            / w_y
    E[t_y^2]  = sum_i  p_i w_i (E[t_i]^2 + V_i)  / w_y

which is exactly the mixture-moment form of Eq. 13 (the paper states the
unconditional linear-combination form; conditioning on occurrence makes the
bookkeeping explicit and is what the evaluation reports).
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Iterable, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class WeightedMoments:
    """(weight, mean, var) abstraction of a TOP function."""

    weight: float
    mean: float
    var: float

    def __post_init__(self) -> None:
        if self.weight < 0.0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        if self.var < -1e-12:
            raise ValueError(f"variance must be >= 0, got {self.var}")

    @property
    def std(self) -> float:
        return math.sqrt(max(self.var, 0.0))

    @property
    def raw2(self) -> float:
        """Second raw moment E[t^2] of the conditional distribution."""
        return self.mean * self.mean + self.var

    def shifted(self, delay_mean: float,
                delay_var: float = 0.0) -> "WeightedMoments":
        """SUM with an independent delay (Eq. 2)."""
        return WeightedMoments(self.weight, self.mean + delay_mean,
                               self.var + delay_var)

    @classmethod
    def absent(cls) -> "WeightedMoments":
        """A never-occurring transition."""
        return cls(0.0, 0.0, 0.0)

    @property
    def occurs(self) -> bool:
        return self.weight > 0.0


def weighted_sum_moments(
        terms: Sequence[Tuple[float, WeightedMoments]]) -> WeightedMoments:
    """WEIGHTED SUM (Eq. 8/13) over (probability, moments) terms.

    Terms whose moments carry zero weight contribute nothing.  The result's
    weight is sum(p_i * w_i); the conditional mean/variance are the mixture
    moments.
    """
    return mix_moments([(p, m.weight, m.mean, m.raw2) for p, m in terms])


def mix_moments(terms: Iterable[Tuple[float, float, float, float]]
                ) -> WeightedMoments:
    """:func:`weighted_sum_moments` over plain ``(probability, weight,
    mean, raw2)`` tuples, for callers that hold the moments unboxed."""
    total_w = 0.0
    acc_mean = 0.0
    acc_raw2 = 0.0
    for p, weight, mean, raw2 in terms:
        if p < 0.0:
            raise ValueError(f"term probability must be >= 0, got {p}")
        w = p * weight
        if w <= 0.0:
            continue
        total_w += w
        acc_mean += w * mean
        acc_raw2 += w * raw2
    if total_w <= 0.0:
        return WeightedMoments.absent()
    mean = acc_mean / total_w
    var = max(acc_raw2 / total_w - mean * mean, 0.0)
    return WeightedMoments(total_w, mean, var)


def empirical_moments(samples: Sequence[float]) -> Tuple[float, float]:
    """(mean, population std) of a sample set — the Monte Carlo estimator
    used in Table 2 (population normalization, matching a 10K-run census)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empirical moments of an empty sample are undefined")
    return float(arr.mean()), float(arr.std())


def skewness_from_moments(mean: float, var: float,
                          third_central: float) -> float:
    """Standardized skewness from central moments; 0 for zero variance."""
    if var <= 0.0:
        return 0.0
    return third_central / var ** 1.5
