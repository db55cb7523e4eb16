"""Scenario construction: K-means profile clustering and pointwise statistics.

The day-ahead program works from three pointwise extreme profiles (max, mean,
min over the training days), the real-time stochastic program from the five
K-means cluster heads of the training year. Load and PV are clustered
independently and their heads paired by daily-energy rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from microdispatch.domain import HOURS_PER_DAY, DayProfile

DAY_AHEAD_SCENARIOS = 3
REAL_TIME_SCENARIOS = 5
DEFAULT_KMEANS_ITERATIONS = 300


@dataclass(frozen=True)
class ScenarioSet:
    """Paired load/PV day profiles with occurrence probabilities."""

    profiles: tuple[DayProfile, ...]
    probabilities: np.ndarray
    role: str  # "day-ahead" or "real-time"

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (len(self.profiles),):
            raise ValueError("one probability per scenario required")
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    def __len__(self) -> int:
        return len(self.profiles)


@dataclass(frozen=True)
class ClusterModel:
    """K-means result over daily 24-vectors."""

    k: int
    heads: np.ndarray        # (k, 24)
    assignments: np.ndarray  # (n_days,)
    inertia: float
    seed: int

    def __post_init__(self):
        heads = np.asarray(self.heads, dtype=float)
        if heads.shape != (self.k, HOURS_PER_DAY):
            raise ValueError("each cluster head needs 24 slots")
        heads.setflags(write=False)
        object.__setattr__(self, "heads", heads)
        assign = np.asarray(self.assignments, dtype=int)
        assign.setflags(write=False)
        object.__setattr__(self, "assignments", assign)


def _plus_plus_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding: spread initial heads by squared distance."""
    n = points.shape[0]
    heads = np.empty((k, points.shape[1]))
    heads[0] = points[rng.integers(n)]
    d2 = np.sum((points - heads[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            heads[i] = points[rng.integers(n)]
        else:
            heads[i] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - heads[i]) ** 2, axis=1))
    return heads


def kmeans(days, k: int, seed: int,
           max_iterations: int = DEFAULT_KMEANS_ITERATIONS) -> ClusterModel:
    """Lloyd's algorithm over daily 24-vectors, deterministic for a seed.

    Empty clusters are re-seeded to the point farthest from its head.
    """
    points = np.asarray([np.asarray(d, dtype=float) for d in days])
    if points.ndim != 2 or points.shape[1] != HOURS_PER_DAY:
        raise ValueError("each day must be a 24-vector")
    if k < 1:
        raise ValueError("k must be at least 1")
    distinct = np.unique(points, axis=0)
    if distinct.shape[0] < k:
        raise ValueError(f"need at least {k} distinct days, got {distinct.shape[0]}")

    rng = np.random.default_rng(seed)
    heads = _plus_plus_seeds(points, k, rng)
    assignments = np.full(points.shape[0], -1)
    for _ in range(max_iterations):
        d2 = ((points[:, None, :] - heads[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            members = new_assign == c
            if members.any():
                heads[c] = points[members].mean(axis=0)
            else:
                farthest = int(np.argmax(d2[np.arange(len(points)), new_assign]))
                heads[c] = points[farthest]
                new_assign[farthest] = c
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
    d2 = ((points - heads[assignments]) ** 2).sum(axis=1)
    return ClusterModel(k=k, heads=heads, assignments=assignments,
                        inertia=float(d2.sum()), seed=seed)


def _stack(days, attr):
    return np.asarray([getattr(d, attr) for d in days])


def build_dayahead_scenarios(training_days) -> ScenarioSet:
    """Pointwise (max, mean, min) profiles over the training days, p = 1/3.

    The max scenario pairs the per-hour load maximum with the per-hour PV
    maximum, and likewise for mean and min.
    """
    if len(training_days) == 0:
        raise ValueError("training set is empty")
    loads = _stack(training_days, "load_kw")
    pvs = _stack(training_days, "pv_kw")
    profiles = tuple(
        DayProfile(load_kw=stat(loads, axis=0), pv_kw=stat(pvs, axis=0))
        for stat in (np.max, np.mean, np.min))
    probs = np.full(DAY_AHEAD_SCENARIOS, 1.0 / DAY_AHEAD_SCENARIOS)
    return ScenarioSet(profiles=profiles, probabilities=probs, role="day-ahead")


def build_realtime_scenarios(load_model: ClusterModel,
                             pv_model: ClusterModel) -> ScenarioSet:
    """Pair the five PV cluster heads with load heads of matching energy rank."""
    if load_model.k != REAL_TIME_SCENARIOS or pv_model.k != REAL_TIME_SCENARIOS:
        raise ValueError(f"real-time scenarios need k={REAL_TIME_SCENARIOS} cluster models")
    pv_order = np.argsort(pv_model.heads.sum(axis=1), kind="stable")
    load_order = np.argsort(load_model.heads.sum(axis=1), kind="stable")
    profiles = tuple(
        DayProfile(load_kw=load_model.heads[load_order[i]],
                   pv_kw=np.maximum(pv_model.heads[pv_order[i]], 0.0))
        for i in range(REAL_TIME_SCENARIOS))
    probs = np.full(REAL_TIME_SCENARIOS, 1.0 / REAL_TIME_SCENARIOS)
    return ScenarioSet(profiles=profiles, probabilities=probs, role="real-time")


def recompute_inertia(model: ClusterModel, days) -> float:
    """Sum of squared distances of each day to its assigned head."""
    points = np.asarray([np.asarray(d, dtype=float) for d in days])
    return float(((points - model.heads[model.assignments]) ** 2).sum())

