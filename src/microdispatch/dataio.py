"""Synthetic dataset generation, CSV interchange, and config/report files.

The generator emulates a tropical island's year: load follows a smooth
daytime-peaked diurnal curve inside its band, PV follows a clear-sky bell
(strictly zero outside 06-19h) scaled per day type and punched down by
per-hour cloud dropouts, which produce the heavy hour-to-hour variance the
real data shows. Everything is deterministic per seed.

Interchange formats:
* profiles CSV: header ``day,hour,load_kw,pv_kw``, one row per hour, days
  0-indexed, hours 0-23 in order;
* config JSON: ``{"microgrid": {...}, "tariff": {"hourly_price": [...]}}``
  mirroring the dataclass field names;
* report JSON: the dict produced by `report_to_dict` (ledger rows keyed by
  day/hour plus the aggregate block);
* commitment JSON: four 24-value schedules plus the per-hour buy flag. It is
  an output for inspection: `day-ahead` and `compare` write it, and no
  command reads it back.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from microdispatch.controllers import MPC_PERFECT, SimulationReport
from microdispatch.domain import (
    HOURS_PER_DAY,
    Commitment,
    DayProfile,
    MicrogridConfig,
    TariffSchedule,
)

MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
TRAIN_MONTHS = 11      # months of a dataset that train; the rest test
PV_DAWN_HOUR = 6       # first hour with any generation
PV_DUSK_HOUR = 19      # last hour with any generation


class DataFormatError(ValueError):
    """Malformed interchange file; the message carries the location."""


LOAD_BAND_KW = (5000.0, 10000.0)  # hourly load stays inside this band
PV_NAMEPLATE_KW = 15000.0
SUNNY_WEIGHT = 0.55          # share of sunny days; the rest are cloudy
CLOUD_RATE_SUNNY = 0.12      # chance that a daylight hour loses irradiance
CLOUD_RATE_CLOUDY = 0.45
CLOUD_DEPTH = (0.15, 0.85)   # range of the irradiance share a dropout removes


@dataclass(frozen=True)
class SyntheticParams:
    seed: int = 0
    days: int = 365


def _clear_sky(hours: np.ndarray) -> np.ndarray:
    """Unit-height irradiance bell, exactly zero outside daylight."""
    shape = np.sin(np.pi * (hours + 0.5 - PV_DAWN_HOUR) / (PV_DUSK_HOUR + 1 - PV_DAWN_HOUR))
    shape[(hours < PV_DAWN_HOUR) | (hours > PV_DUSK_HOUR)] = 0.0
    return np.clip(shape, 0.0, None)


def generate_dataset(params: SyntheticParams) -> list[DayProfile]:
    """Seeded synthetic year of paired daily load/PV profiles."""
    rng = np.random.default_rng(params.seed)
    hours = np.arange(HOURS_PER_DAY, dtype=float)
    lo, hi = LOAD_BAND_KW
    band = hi - lo
    diurnal = np.exp(-((hours - 13.5) / 4.8) ** 2)
    clear = _clear_sky(hours)
    daylight = clear > 0

    days = []
    for _ in range(params.days):
        day_scale = rng.uniform(0.97, 1.03)
        load = (lo + 0.06 * band
                + 0.78 * band * diurnal * day_scale
                + rng.normal(0.0, 0.02 * band, size=HOURS_PER_DAY))
        load = np.clip(load, lo, hi)

        sunny = rng.random() < SUNNY_WEIGHT
        pv_scale = rng.uniform(0.75, 1.0) if sunny else rng.uniform(0.25, 0.60)
        cloud_rate = CLOUD_RATE_SUNNY if sunny else CLOUD_RATE_CLOUDY
        dropout = np.ones(HOURS_PER_DAY)
        hit = daylight & (rng.random(HOURS_PER_DAY) < cloud_rate)
        dropout[hit] = 1.0 - rng.uniform(*CLOUD_DEPTH, size=int(hit.sum()))
        pv = np.clip(PV_NAMEPLATE_KW * pv_scale * clear * dropout, 0.0, PV_NAMEPLATE_KW)
        days.append(DayProfile(load_kw=load, pv_kw=pv))
    return days


def _month_cut(n_days: int, months: int) -> int:
    """Days in the first `months` months: calendar months of a 365-day year,
    twelfths (rounded to whole days) of any other length."""
    if n_days == 365:
        return sum(MONTH_LENGTHS[:months])
    return round(n_days * months / 12)


def split_train_test(days):
    """The first `TRAIN_MONTHS` months train, the rest tests; each side keeps
    a day."""
    cut = max(1, min(len(days) - 1, _month_cut(len(days), TRAIN_MONTHS)))
    return list(days[:cut]), list(days[cut:])


def trailing_train_months(days, months: int):
    """The last `months` months of `split_train_test`'s training span, and at
    least its last day."""
    if not (1 <= months <= TRAIN_MONTHS):
        raise ValueError(f"months must be in 1..{TRAIN_MONTHS}")
    end = len(split_train_test(days)[0])
    start = min(_month_cut(len(days), TRAIN_MONTHS - months), end - 1)
    return list(days[start:end])


# ---------------------------------------------------------------------------
# profiles CSV

PROFILE_HEADER = ["day", "hour", "load_kw", "pv_kw"]


def write_profiles(days, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_HEADER)
        for d, day in enumerate(days):
            for h in range(HOURS_PER_DAY):
                writer.writerow([d, h, repr(float(day.load_kw[h])),
                                 repr(float(day.pv_kw[h]))])


def read_profiles(path) -> list[DayProfile]:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: empty file") from None
            if [c.strip() for c in header] != PROFILE_HEADER:
                raise DataFormatError(f"{path}: expected header {','.join(PROFILE_HEADER)}")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    day, hour = int(row[0]), int(row[1])
                    load, pv = float(row[2]), float(row[3])
                except (ValueError, IndexError) as exc:
                    raise DataFormatError(f"{path}:{lineno}: unparseable row {row!r}") from exc
                if not (math.isfinite(load) and math.isfinite(pv)):
                    raise DataFormatError(f"{path}:{lineno}: non-finite power")
                if load < 0 or pv < 0:
                    raise DataFormatError(f"{path}:{lineno}: negative power")
                rows.append((day, hour, load, pv, lineno))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows (header only)")

    days: list[DayProfile] = []
    by_day: dict[int, list] = {}
    for day, hour, load, pv, lineno in rows:
        by_day.setdefault(day, []).append((hour, load, pv, lineno))
    for day in range(len(by_day)):
        if day not in by_day:
            raise DataFormatError(f"{path}: day indices must be consecutive, missing {day}")
        entries = by_day[day]
        if len(entries) != HOURS_PER_DAY:
            raise DataFormatError(
                f"{path}: day {day} has {len(entries)} rows, expected {HOURS_PER_DAY}")
        entries.sort(key=lambda e: e[0])
        if [e[0] for e in entries] != list(range(HOURS_PER_DAY)):
            raise DataFormatError(f"{path}: day {day} does not cover hours 0..23")
        days.append(DayProfile(load_kw=np.array([e[1] for e in entries]),
                               pv_kw=np.array([e[2] for e in entries])))
    return days


# ---------------------------------------------------------------------------
# config JSON


def load_config(path) -> tuple[MicrogridConfig, TariffSchedule]:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise DataFormatError(f"{path}: {exc}") from None
    try:
        grid_fields = payload["microgrid"]
        tariff_fields = payload["tariff"]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: config needs 'microgrid' and 'tariff' blocks") from exc
    known = {f.name for f in dataclasses.fields(MicrogridConfig)}
    unknown = set(grid_fields) - known
    if unknown:
        raise DataFormatError(f"{path}: unknown microgrid fields {sorted(unknown)}")
    try:
        config = MicrogridConfig(**grid_fields)
        tariff = TariffSchedule(hourly_price=tuple(tariff_fields["hourly_price"]))
    except (TypeError, ValueError, KeyError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return config, tariff


# ---------------------------------------------------------------------------
# commitment JSON


def save_commitment(commitment: Commitment, path) -> None:
    payload = {
        "grid_buy_kw": commitment.grid_buy_kw.tolist(),
        "grid_sell_kw": commitment.grid_sell_kw.tolist(),
        "reserve_down_kw": commitment.reserve_down_kw.tolist(),
        "reserve_up_kw": commitment.reserve_up_kw.tolist(),
        "buying": [bool(b) for b in commitment.buying],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


# ---------------------------------------------------------------------------
# report serialization


def report_to_dict(report: SimulationReport) -> dict:
    ledger = []
    for r in report.records:
        led = r.outcome.ledger
        ledger.append({
            "day": r.day_index,
            "hour": r.state.hour_of_day,
            "soc_kwh": r.state.soc_kwh,
            "soc_end_kwh": r.outcome.soc_kwh,
            "load_kw": led.load_kw,
            "pv_kw": led.pv_kw,
            "grid_buy_kw": led.grid_buy_kw,
            "grid_sell_kw": led.grid_sell_kw,
            "reserve_down_kw": led.reserve_down_kw,
            "reserve_up_kw": led.reserve_up_kw,
            "dg_kw": led.dg_kw,
            "ess_charge_kw": led.ess_charge_kw,
            "ess_discharge_kw": led.ess_discharge_kw,
            "step_cost": r.outcome.step_cost,
            "curtailed_kw": r.outcome.curtailed_kw,
            "blackout": r.outcome.blackout,
            "decision_seconds": r.decision_seconds,
        })
    return {
        "controller": report.controller,
        "hours": report.hours,
        "total_cost": report.total_cost,
        "average_hourly_cost": report.average_hourly_cost,
        "average_hourly_dg_cost": report.average_hourly_dg_cost,
        "daily_costs": report.daily_costs.tolist(),
        "blackout_count": report.blackout_count,
        "curtailed_kwh": report.curtailed_kwh,
        "mean_decision_seconds": report.mean_decision_seconds,
        "ledger": ledger,
    }


def write_report_json(report: SimulationReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh)


def write_trace_csv(report: SimulationReport, path) -> None:
    """Per-hour trace (SOC, dispatch, grid, costs) for external plotting."""
    rows = report_to_dict(report)["ledger"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_daywise_csv(reports: dict[str, SimulationReport], path) -> None:
    names = list(reports)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day"] + names)
        n_days = min(len(reports[n].daily_costs) for n in names)
        for d in range(n_days):
            writer.writerow([d] + [repr(float(reports[n].daily_costs[d])) for n in names])


def gaps_to_perfect_pct(reports: dict[str, SimulationReport]) -> dict[str, float | None]:
    """Each total cost above mpc-perfect's, in % of |mpc-perfect's total|;
    all None when mpc-perfect has no report or a zero total."""
    perfect = reports.get(MPC_PERFECT)
    if perfect is None or perfect.total_cost == 0:
        return dict.fromkeys(reports)
    return {name: (report.total_cost - perfect.total_cost) / abs(perfect.total_cost) * 100
            for name, report in reports.items()}


def write_summary_csv(reports: dict[str, SimulationReport], path) -> None:
    gaps = gaps_to_perfect_pct(reports)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["controller", "average_hourly_cost", "average_hourly_dg_cost",
                         "blackout_count", "curtailed_kwh", "mean_decision_seconds",
                         "p95_decision_seconds", "max_decision_seconds",
                         "gap_to_perfect_pct"])
        for name, report in reports.items():
            writer.writerow([
                name,
                f"{report.average_hourly_cost:.6f}",
                f"{report.average_hourly_dg_cost:.6f}",
                report.blackout_count,
                f"{report.curtailed_kwh:.3f}",
                f"{report.mean_decision_seconds:.6f}",
                f"{report.p95_decision_seconds:.6f}",
                f"{report.max_decision_seconds:.6f}",
                "" if gaps[name] is None else f"{gaps[name]:.6f}",
            ])
