import dataclasses
import json

import numpy as np
import pytest

from microdispatch.dataio import (
    LOAD_BAND_KW,
    PV_NAMEPLATE_KW,
    DataFormatError,
    SyntheticParams,
    generate_dataset,
    load_config,
    read_profiles,
    save_commitment,
    split_train_test,
    trailing_train_months,
    write_profiles,
)
from microdispatch.domain import Commitment, MicrogridConfig, TariffSchedule


class TestGenerator:
    def test_night_hours_are_exactly_zero(self):
        days = generate_dataset(SyntheticParams(seed=1, days=40))
        for day in days:
            assert np.all(day.pv_kw[:6] == 0.0)
            assert np.all(day.pv_kw[20:] == 0.0)

    def test_bands_hold_over_a_year(self):
        for day in generate_dataset(SyntheticParams(seed=7, days=365)):
            assert (day.load_kw >= LOAD_BAND_KW[0]).all()
            assert (day.load_kw <= LOAD_BAND_KW[1]).all()
            assert (day.pv_kw >= 0).all()
            assert (day.pv_kw <= PV_NAMEPLATE_KW).all()

    def test_seeded_determinism(self):
        a = generate_dataset(SyntheticParams(seed=3, days=20))
        b = generate_dataset(SyntheticParams(seed=3, days=20))
        for da, db in zip(a, b):
            assert np.array_equal(da.load_kw, db.load_kw)
            assert np.array_equal(da.pv_kw, db.pv_kw)
        c = generate_dataset(SyntheticParams(seed=4, days=20))
        assert not np.array_equal(a[0].pv_kw, c[0].pv_kw)

    def test_heavy_bright_hour_variance(self):
        # midday PV across days must swing from near zero to near nameplate
        days = generate_dataset(SyntheticParams(seed=5, days=365))
        noon = np.array([d.pv_kw[12:14].max() for d in days])
        assert noon.max() > 12000.0
        assert noon.min() < 3000.0


class TestSplits:
    def test_calendar_year_split(self):
        days = generate_dataset(SyntheticParams(seed=1, days=365))
        train, test = split_train_test(days)
        assert len(train) == 334
        assert len(test) == 31

    def test_trailing_months(self):
        days = generate_dataset(SyntheticParams(seed=1, days=365))
        november = trailing_train_months(days, 1)
        assert len(november) == 30
        all_train = trailing_train_months(days, 11)
        assert len(all_train) == 334
        # other lengths count twelfths and end where the test window starts
        short = list(range(60))
        assert trailing_train_months(short, 1) == list(range(50, 55))
        assert trailing_train_months(short, 11) == list(range(55))
        assert split_train_test(short)[1] == list(range(55, 60))
        with pytest.raises(ValueError):
            trailing_train_months(short, 0)


class TestProfilesCsv:
    def test_round_trip_identity(self, tmp_path):
        days = generate_dataset(SyntheticParams(seed=11, days=5))
        path = tmp_path / "profiles.csv"
        write_profiles(days, path)
        back = read_profiles(path)
        assert len(back) == 5
        for a, b in zip(days, back):
            assert np.array_equal(a.load_kw, b.load_kw)
            assert np.array_equal(a.pv_kw, b.pv_kw)

    def test_wrong_row_count_names_the_day(self, tmp_path):
        days = generate_dataset(SyntheticParams(seed=2, days=2))
        path = tmp_path / "profiles.csv"
        write_profiles(days, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines.append("1,24,6000,0")  # 25th row for day 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="day 1"):
            read_profiles(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("day,hour,load_kw,pv_kw\n")
        with pytest.raises(DataFormatError, match="header only"):
            read_profiles(path)

    def test_negative_power_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["day,hour,load_kw,pv_kw"]
        rows += [f"0,{h},6000,0" for h in range(24)]
        rows[3] = "0,2,-5,0"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=":4"):
            read_profiles(path)

    @pytest.mark.parametrize("row", ["0,2,nan,0", "0,2,6000,inf", "0,2,-inf,0"])
    def test_non_finite_power_rejected_with_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        rows = ["day,hour,load_kw,pv_kw"]
        rows += [f"0,{h},6000,0" for h in range(24)]
        rows[3] = row
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError) as exc_info:
            read_profiles(path)
        assert str(exc_info.value) == f"{path}:4: non-finite power"

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["day,hour,load_kw,pv_kw", "0,0,abc,0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=":2"):
            read_profiles(path)


def config_payload(config=MicrogridConfig(), tariff=TariffSchedule()):
    return {"microgrid": dataclasses.asdict(config),
            "tariff": {"hourly_price": list(tariff.hourly_price)}}


class TestConfigJson:
    def test_round_trip(self, tmp_path):
        config = MicrogridConfig(forecast_theta=0.9, dg_unit_cost=0.7)
        tariff = TariffSchedule()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_payload(config, tariff)))
        config2, tariff2 = load_config(path)
        assert config2 == config
        assert tariff2.hourly_price == tariff.hourly_price

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        payload = config_payload()
        payload["microgrid"]["mystery_knob"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="mystery_knob"):
            load_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        payload = config_payload()
        payload["microgrid"]["eta_charge"] = 1.5
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError):
            load_config(path)

    @pytest.mark.parametrize("theta", [0.0, -0.5, 1.5])
    def test_forecast_theta_outside_0_1_names_the_file(self, tmp_path, theta):
        # the forecaster needs theta in (0, 1]; the config must refuse the rest
        path = tmp_path / "config.json"
        payload = config_payload()
        payload["microgrid"]["forecast_theta"] = theta
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError) as exc_info:
            load_config(path)
        assert str(exc_info.value) == f"{path}: forecast_theta must be in (0, 1]"

    @pytest.mark.parametrize("block, field, value", [
        ("microgrid", "dg_unit_cost", float("nan")),
        ("microgrid", "ess_power_cap", float("inf")),
        ("tariff", "hourly_price", float("nan")),
    ])
    def test_non_finite_value_names_the_file_and_field(self, tmp_path, block, field, value):
        path = tmp_path / "config.json"
        payload = config_payload()
        if block == "tariff":
            payload["tariff"]["hourly_price"][7] = value
            expected = "tariff price at hour 7 must be finite, got nan"
        else:
            payload["microgrid"][field] = value
            expected = f"{field} must be finite"
        path.write_text(json.dumps(payload))  # NaN and Infinity, as json writes them
        with pytest.raises(DataFormatError) as exc_info:
            load_config(path)
        assert str(exc_info.value) == f"{path}: {expected}"

    @pytest.mark.parametrize("field, value, expected", [
        ("dg_power_max", "11000", "dg_power_max must be a real number, got '11000'"),
        ("dg_unit_cost", True, "dg_unit_cost must be a real number, got True"),
        ("drl_action_count", 40.0, "drl_action_count must be an integer, got 40.0"),
    ], ids=["string", "bool", "float-action-count"])
    def test_value_of_the_wrong_type_names_the_file_and_field(self, tmp_path, field,
                                                              value, expected):
        path = tmp_path / "config.json"
        payload = config_payload()
        payload["microgrid"][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError) as exc_info:
            load_config(path)
        assert str(exc_info.value) == f"{path}: {expected}"


class TestCommitmentJson:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        buying = rng.random(24) < 0.5
        commitment = Commitment(
            grid_buy_kw=np.where(buying, rng.uniform(0, 5000, 24), 0.0),
            grid_sell_kw=np.where(~buying, rng.uniform(0, 5000, 24), 0.0),
            reserve_down_kw=np.where(~buying, rng.uniform(0, 8000, 24), 0.0),
            reserve_up_kw=np.where(buying, rng.uniform(0, 8000, 24), 0.0),
            buying=buying)
        path = tmp_path / "commitment.json"
        save_commitment(commitment, path)
        back = json.loads(path.read_text())
        for key in ("grid_buy_kw", "grid_sell_kw", "reserve_down_kw", "reserve_up_kw"):
            assert np.array_equal(back[key], getattr(commitment, key))
        assert back["buying"] == commitment.buying.tolist()
