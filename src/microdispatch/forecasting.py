"""Hour-of-day exponential moving average forecasting with a local scaling factor.

`LoadPvForecaster` tracks load and PV together. Each series keeps 24 rolling
averages, one per clock hour, each updated once per day from that day's
observation: the first observation seeds the average, later ones blend in
as `theta * average + (1 - theta) * observed`. A horizon forecast multiplies
the per-hour averages by one scaling factor per series, the recency-weighted
mean of the last `HISTORY_DEPTH` same-hour actual-to-predicted ratios at the
start hour (weights `kappa**1`, `kappa**2`, ...). That lets the forecast adapt
to the current day: a cloudy morning drags the whole remaining horizon down.

The state is a handful of read-only arrays, load in row 0 and PV in row 1.
The ratio history is newest first: each observation over the average it
was predicted from, or 1 where that average was not positive or nothing has
been observed yet. Forecasters are immutable; `observe` and `warm_up` return
the advanced instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from microdispatch.domain import HOURS_PER_DAY

HISTORY_DEPTH = 3


class ColdForecasterError(ValueError):
    """Raised when forecasting from a slot that has never been observed."""


@dataclass(frozen=True, eq=False)
class LoadPvForecaster:
    """Per-hour EMA state of the load and PV series, observed together."""

    theta: float
    kappa: float
    averages: np.ndarray      # (2, 24)
    ratios: np.ndarray        # (2, 24, HISTORY_DEPTH), observed over predicted
    observations: np.ndarray  # (24,), days observed per hour

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("theta must be in (0, 1]")
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must be in (0, 1]")
        for array in (self.averages, self.ratios, self.observations):
            array.setflags(write=False)

    @classmethod
    def fresh(cls, theta: float, kappa: float) -> "LoadPvForecaster":
        return cls(theta=theta, kappa=kappa, averages=np.zeros((2, HOURS_PER_DAY)),
                   ratios=np.ones((2, HOURS_PER_DAY, HISTORY_DEPTH)),
                   observations=np.zeros(HOURS_PER_DAY, dtype=int))

    def _fold(self, hours: slice, observed: np.ndarray) -> "LoadPvForecaster":
        """Fold one observation per hour in `hours` into copies of the state.

        An observation at hour h touches only slot h, so folding a whole day
        at once equals observing its hours one by one.
        """
        prior = self.averages[:, hours]
        averages = self.averages.copy()
        averages[:, hours] = np.where(self.observations[hours] == 0, observed,
                                      self.theta * prior + (1.0 - self.theta) * observed)
        ratios = self.ratios.copy()
        ratios[:, hours, 1:] = self.ratios[:, hours, :-1]
        ratios[:, hours, 0] = np.divide(observed, prior, out=np.ones_like(prior),
                                        where=prior > 0.0)
        observations = self.observations.copy()
        observations[hours] += 1
        return replace(self, averages=averages, ratios=ratios, observations=observations)

    def observe(self, hour: int, load_kw: float, pv_kw: float) -> "LoadPvForecaster":
        """Fold one day's observation at `hour` into that hour's averages."""
        hour = hour % HOURS_PER_DAY
        return self._fold(slice(hour, hour + 1), np.array([[load_kw], [pv_kw]], dtype=float))

    def warm_up(self, days) -> "LoadPvForecaster":
        """Feed whole days (oldest first), one observation per hour."""
        current = self
        for day in days:
            current = current._fold(slice(None), np.array([day.load_kw, day.pv_kw],
                                                          dtype=float))
        return current

    def forecast_profile(self, start_hour: int,
                         length: int) -> tuple[np.ndarray, np.ndarray]:
        """(load, pv) forecasts of `length` hours from `start_hour`, wrapping at
        midnight, as new arrays.

        The scaling factor comes from the start hour's recent history, so a
        fresh same-day observation there bends the whole horizon.
        """
        start = start_hour % HOURS_PER_DAY
        hours = np.arange(start, start + length) % HOURS_PER_DAY
        if self.observations[start] == 0 or not self.observations[hours].all():
            raise ColdForecasterError(
                "forecaster has unobserved hours; warm it up on at least one full day")
        factors = []
        for ratios in self.ratios[:, start].tolist():
            num = den = 0.0
            for j in range(HISTORY_DEPTH):
                weight = self.kappa ** (j + 1)
                num += weight * ratios[j]
                den += weight
            factors.append(num / den)
        values = self.averages[:, hours] * np.array(factors)[:, None]
        load, pv = np.where(values > 0.0, values, 0.0)
        return load, pv
