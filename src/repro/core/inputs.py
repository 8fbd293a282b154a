"""Cycle-level input statistics (what SSTA ignores and SPSTA propagates).

A :class:`Prob4` is the four-value probability vector (P0, P1, Pr, Pf) of a
net over one clock cycle (paper Sec. 3.3).  An :class:`InputStats` bundles
the Prob4 asserted at every launch point with the arrival-time distributions
of its rising and falling transitions.

The paper's two experimental configurations are provided as constants:

- ``CONFIG_I``  — equiprobable four values: signal probability 0.5, mean
  toggling rate 0.5, toggling-rate variance 0.25;
- ``CONFIG_II`` — 75% zero / 15% one / 2% rise / 8% fall: signal probability
  0.2, mean toggling rate 0.1, toggling-rate variance 0.09.

("Signal probability" here is the time-average probability of being at logic
one, i.e. P1 plus half of each transition value's dwell.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

from repro.logic.fourvalue import Logic4
from repro.stats.normal import Normal


@dataclass(frozen=True)
class Prob4:
    """Four-value probability vector (P0, P1, Pr, Pf); sums to one."""

    p_zero: float
    p_one: float
    p_rise: float
    p_fall: float

    def __post_init__(self) -> None:
        values = (self.p_zero, self.p_one, self.p_rise, self.p_fall)
        for v in values:
            if v < -1e-9 or v > 1.0 + 1e-9:
                raise ValueError(f"probability {v} outside [0, 1]")
        total = sum(values)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"four-value probabilities sum to {total}, not 1")

    def __getitem__(self, value: Logic4) -> float:
        # Logic4 codes: ZERO 0, RISE 1, FALL 2, ONE 3.
        return (self.p_zero, self.p_rise, self.p_fall, self.p_one)[value]

    @property
    def signal_probability(self) -> float:
        """Time-average probability of logic one (paper Def. 1): a
        transitioning net spends on average half the cycle at one."""
        return self.p_one + 0.5 * (self.p_rise + self.p_fall)

    @property
    def initial_one_probability(self) -> float:
        """P(value at cycle start is 1) = P1 + Pf."""
        return self.p_one + self.p_fall

    @property
    def final_one_probability(self) -> float:
        """P(value at cycle end is 1) = P1 + Pr."""
        return self.p_one + self.p_rise

    @property
    def toggling_rate(self) -> float:
        """Expected transitions per cycle (paper Def. 2) = Pr + Pf."""
        return self.p_rise + self.p_fall

    @property
    def toggling_variance(self) -> float:
        """Variance of the per-cycle toggle indicator (Bernoulli)."""
        rate = self.toggling_rate
        return rate * (1.0 - rate)

    def inverted(self) -> "Prob4":
        """The vector seen through an inverter: 0<->1, r<->f."""
        return Prob4(self.p_one, self.p_zero, self.p_fall, self.p_rise)

    @classmethod
    def uniform(cls) -> "Prob4":
        return cls(0.25, 0.25, 0.25, 0.25)

    @classmethod
    def static(cls, one_probability: float) -> "Prob4":
        """A never-toggling net that is 1 with the given probability."""
        return cls(1.0 - one_probability, one_probability, 0.0, 0.0)


@dataclass(frozen=True)
class InputStats:
    """Statistics asserted at every launch point (PI and DFF output)."""

    prob4: Prob4
    rise_arrival: Normal = field(default_factory=lambda: Normal(0.0, 1.0))
    fall_arrival: Normal = field(default_factory=lambda: Normal(0.0, 1.0))

    @property
    def signal_probability(self) -> float:
        return self.prob4.signal_probability

    @property
    def toggling_rate(self) -> float:
        return self.prob4.toggling_rate


#: Paper experiment part (I): equiprobable {0, 1, r, f}, arrivals N(0, 1).
CONFIG_I = InputStats(Prob4(0.25, 0.25, 0.25, 0.25))

#: Paper experiment part (II): 75% 0, 15% 1, 2% r, 8% f, arrivals N(0, 1).
CONFIG_II = InputStats(Prob4(0.75, 0.15, 0.02, 0.08))


def _self_check() -> None:
    """Assert the headline statistics the paper states for both configs."""
    assert math.isclose(CONFIG_I.signal_probability, 0.5)
    assert math.isclose(CONFIG_I.toggling_rate, 0.5)
    assert math.isclose(CONFIG_I.prob4.toggling_variance, 0.25)
    assert math.isclose(CONFIG_II.signal_probability, 0.2)
    assert math.isclose(CONFIG_II.toggling_rate, 0.1)
    assert math.isclose(CONFIG_II.prob4.toggling_variance, 0.09)


_self_check()
