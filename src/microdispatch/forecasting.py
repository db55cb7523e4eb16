"""Hour-of-day exponential moving average forecasting with a local scaling factor.

One forecaster tracks a single series (load or PV) through 24 rolling
averages, one per clock hour, each updated once per day from that day's
observation. A horizon forecast multiplies the per-hour averages by a single
scaling factor derived from how the last few same-hour predictions compared
to what actually happened, which lets the forecast adapt to the current day
(a cloudy morning drags the whole remaining horizon down).

Forecasters are immutable; `observe` returns the advanced instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from microdispatch.domain import HOURS_PER_DAY

HISTORY_DEPTH = 3


class ColdForecasterError(ValueError):
    """Raised when forecasting from a slot that has never been observed."""


def ema_update(average: float, observed: float, theta: float) -> float:
    """Advance an exponential moving average one step."""
    return theta * average + (1.0 - theta) * observed


def scaling_factor(history, kappa: float) -> float:
    """Recency-weighted mean of prediction-to-actual ratios.

    `history` holds up to 3 (predicted, actual) pairs, newest first; missing
    entries and non-positive predictions count as ratio 1.
    """
    num = 0.0
    den = 0.0
    for j in range(HISTORY_DEPTH):
        weight = kappa ** (j + 1)
        if j < len(history) and history[j][0] > 0.0:
            ratio = history[j][1] / history[j][0]
        else:
            ratio = 1.0
        num += weight * ratio
        den += weight
    return num / den


@dataclass(frozen=True)
class EmaForecaster:
    """Per-hour EMA state for one series."""

    theta: float
    kappa: float
    averages: tuple = tuple(0.0 for _ in range(HOURS_PER_DAY))
    history: tuple = tuple(() for _ in range(HOURS_PER_DAY))
    observations: tuple = tuple(0 for _ in range(HOURS_PER_DAY))

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("theta must be in (0, 1]")
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must be in (0, 1]")

    def observe(self, hour: int, actual: float) -> "EmaForecaster":
        """Fold one day's observation at `hour` into that hour's average."""
        hour = hour % HOURS_PER_DAY
        prior = self.averages[hour]
        count = self.observations[hour]
        updated = actual if count == 0 else ema_update(prior, actual, self.theta)
        pair = (prior if count > 0 else 0.0, actual)
        slot_history = ((pair,) + self.history[hour])[:HISTORY_DEPTH]

        averages = list(self.averages)
        histories = list(self.history)
        counts = list(self.observations)
        averages[hour] = updated
        histories[hour] = slot_history
        counts[hour] = count + 1
        return replace(self, averages=tuple(averages), history=tuple(histories),
                       observations=tuple(counts))

    def forecast(self, start_hour: int, length: int) -> np.ndarray:
        """Forecast `length` hours from `start_hour` (wrapping at midnight).

        The scaling factor comes from the start hour's recent history, so a
        fresh same-day observation there bends the whole horizon.
        """
        hours = [(start_hour + k) % HOURS_PER_DAY for k in range(length)]
        if any(self.observations[h] == 0 for h in hours + [start_hour % HOURS_PER_DAY]):
            raise ColdForecasterError(
                "forecaster has unobserved hours; warm it up on at least one full day")
        sf = scaling_factor(self.history[start_hour % HOURS_PER_DAY], self.kappa)
        return np.array([max(0.0, self.averages[h] * sf) for h in hours])


@dataclass(frozen=True)
class LoadPvForecaster:
    """Independent load and PV forecasters advanced in lockstep."""

    load: EmaForecaster
    pv: EmaForecaster

    @classmethod
    def fresh(cls, theta: float, kappa: float) -> "LoadPvForecaster":
        return cls(load=EmaForecaster(theta=theta, kappa=kappa),
                   pv=EmaForecaster(theta=theta, kappa=kappa))

    def observe(self, hour: int, load_kw: float, pv_kw: float) -> "LoadPvForecaster":
        return LoadPvForecaster(load=self.load.observe(hour, load_kw),
                                pv=self.pv.observe(hour, pv_kw))

    def warm_up(self, days) -> "LoadPvForecaster":
        """Feed whole days (oldest first), one observation per hour."""
        current = self
        for day in days:
            for hour in range(HOURS_PER_DAY):
                current = current.observe(hour, float(day.load_kw[hour]),
                                          float(day.pv_kw[hour]))
        return current

    def forecast_profile(self, start_hour: int,
                         length: int) -> tuple[np.ndarray, np.ndarray]:
        """(load, pv) horizon forecasts as arrays of `length` hours."""
        return (self.load.forecast(start_hour, length),
                self.pv.forecast(start_hour, length))
