"""Run-config schema: round trips and strict key validation."""

import json

import pytest

from excised_rmt.config import ConfigError, RunConfig, config_from_dict, load_config


def test_round_trip():
    cfg = RunConfig(kind="sample", group="so_even", n=10, count=100, seed=3)
    back = config_from_dict(json.loads(cfg.to_json()))
    assert back == cfg


def test_to_json_omits_unset():
    data = json.loads(RunConfig(kind="sample", group="usp").to_json())
    assert data == {"kind": "sample", "group": "usp"}


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"kind": "sample", "grupo": "usp"})


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "frobnicate"})


def test_kind_required():
    with pytest.raises(ConfigError):
        config_from_dict({"group": "usp"})


def test_load_config_errors(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be"):
        load_config(p)
    p.write_text('{"kind": "onelevel", "group": "usp", "n": 5}')
    cfg = load_config(p)
    assert cfg.kind == "onelevel" and cfg.n == 5


def test_value_types_checked():
    # a float field takes any real number; int fields refuse floats and bools
    assert config_from_dict({"kind": "paircorr", "window": 5, "c": 0.5}).window == 5
    for key, value in [("count", 2.5), ("n", True), ("window", False), ("window", "5"),
                       ("group", 3), ("workers", "2")]:
        with pytest.raises(ConfigError, match=f"config field '{key}' must be"):
            config_from_dict({"kind": "paircorr", key: value})
