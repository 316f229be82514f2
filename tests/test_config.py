"""Config loading, dotted overrides, and dataclass builders."""
import json

import pytest

from amprl.config import (
    PLAIN_SECTIONS,
    ConfigError,
    apply_overrides,
    check_plain_sections,
    default_config,
    load_config,
    mic_config,
    model_config,
    ppo_config,
    reward_config,
    scale_table,
    screen_config,
    sft_config,
    write_resolved,
)
from amprl.physchem import DEFAULT_SCALE


EXPECTED_SECTIONS = {
    "seed",
    "paths",
    "model",
    "sft",
    "mic",
    "reward",
    "ppo",
    "screen",
    "lora",
    "sample",
    "library",
    "dataprep",
    "eval",
    "scales",
}


def test_default_config_sections():
    cfg = default_config()
    assert set(cfg) == EXPECTED_SECTIONS
    assert cfg["seed"] == 0
    assert cfg["sft"]["seed"] is None  # stage seeds default to the global seed
    assert cfg["mic"]["seed"] is None


def test_plain_sections_type_every_key_their_defaults_hold():
    cfg = default_config()
    for section, kinds in PLAIN_SECTIONS.items():
        assert set(kinds) == set(cfg[section]), section
    check_plain_sections(cfg)
    cfg["sample"]["top_k"] = 5  # an integer where null is the default
    cfg["eval"]["jsd_base"] = 2  # an integer for a float
    check_plain_sections(cfg)


def test_load_config_none_returns_defaults():
    assert load_config(None) == default_config()


def test_load_config_deep_merges(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "ppo": {"iterations": 3}}))
    cfg = load_config(path)
    assert cfg["seed"] == 7
    assert cfg["ppo"]["iterations"] == 3
    # untouched siblings keep their defaults
    assert cfg["ppo"]["clip_eps"] == default_config()["ppo"]["clip_eps"]
    assert cfg["model"] == default_config()["model"]


def test_load_config_reports_all_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sedd": 1, "ppo": {"iterattions": 2}, "model": {"depth": 9}}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    message = str(err.value)
    for key in ("sedd", "ppo.iterattions", "model.depth"):
        assert key in message


def test_keys_nothing_reads_are_unknown(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mic": {"cutoff": 0.4}, "paths": {"data": ".", "checkpoints": "."}}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    for key in ("mic.cutoff", "paths.data", "paths.checkpoints"):
        assert key in str(err.value)


def test_load_config_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(arr)


def test_apply_overrides_dotted_paths():
    cfg = default_config()
    apply_overrides(cfg, {"seed": 9, "paths.outputs": "/tmp/out", "ppo.iterations": 2})
    assert cfg["seed"] == 9
    assert cfg["paths"]["outputs"] == "/tmp/out"
    assert cfg["ppo"]["iterations"] == 2


def test_apply_overrides_skips_none():
    cfg = default_config()
    before = json.dumps(cfg, sort_keys=True)
    apply_overrides(cfg, {"seed": None, "paths.outputs": None})
    assert json.dumps(cfg, sort_keys=True) == before


def test_builders_produce_dataclasses():
    cfg = default_config()
    cfg["ppo"]["iterations"] = 5
    cfg["screen"]["mic_cutoff"] = 0.6
    assert model_config(cfg).embed_dim == cfg["model"]["embed_dim"]
    assert sft_config(cfg).epochs == cfg["sft"]["epochs"]
    assert mic_config(cfg).epochs == cfg["mic"]["epochs"]
    assert reward_config(cfg).mix_lambda == cfg["reward"]["mix_lambda"]
    assert ppo_config(cfg).iterations == 5
    assert screen_config(cfg).mic_cutoff == 0.6


def test_builders_validate_values():
    cfg = default_config()
    cfg["reward"]["mix_lambda"] = 1.5
    with pytest.raises(ValueError):
        reward_config(cfg)
    cfg = default_config()
    cfg["screen"]["min_length"] = 60  # above max_length
    with pytest.raises(ValueError):
        screen_config(cfg)


def test_scale_table_override_hook(tmp_path):
    cfg = default_config()
    assert scale_table(cfg) is DEFAULT_SCALE
    path = tmp_path / "scales.txt"
    path.write_text("hydropathy A 9.0\n")
    cfg["scales"]["overrides"] = str(path)
    table = scale_table(cfg)
    assert table.hydropathy["A"] == pytest.approx(9.0)
    assert table.version.endswith("+overrides")


def test_write_resolved_is_sorted_and_round_trips(tmp_path):
    cfg = default_config()
    cfg["seed"] = 3
    path = tmp_path / "resolved.json"
    write_resolved(cfg, path)
    text = path.read_text()
    # JSON has no tuples, so compare against the normalized form
    assert json.loads(text) == json.loads(json.dumps(cfg))
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)
