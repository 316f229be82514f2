"""Config loading, dotted overrides, and the annotation-driven section builder."""
import copy
import dataclasses
import json
import types
import typing

import numpy as np
import pytest

from amprl.config import (
    SECTIONS,
    ConfigError,
    apply_overrides,
    build_run,
    default_config,
    load_config,
    mic_config,
    screen_config,
)
from amprl.physchem import DEFAULT_SCALE
from amprl.sequences import write_json


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


def test_every_section_is_typed_by_its_dataclass_and_its_defaults_build():
    cfg = default_config()
    assert set(SECTIONS) == EXPECTED_SECTIONS - {"seed"}
    for section, cls in SECTIONS.items():
        assert list(cfg[section]) == [f.name for f in dataclasses.fields(cls)], section
    run = build_run(cfg)
    assert run.sft.seed == run.mic.seed == cfg["seed"]  # a null stage seed is the global seed
    cfg["sample"]["top_k"] = 5  # an integer where null is the default
    cfg["eval"]["jsd_base"] = 2  # an integer for a float
    cfg["dataprep"]["fractions"] = [1, 0, 0]
    run = build_run(cfg)
    assert run.sample.top_k == 5
    assert type(run.eval.jsd_base) is float and run.eval.jsd_base == 2.0
    assert run.dataprep.fractions == (1.0, 0.0, 0.0) and all(type(f) is float for f in run.dataprep.fractions)


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
    path.write_text(
        json.dumps({"mic": {"cutoff": 0.4}, "paths": {"data": ".", "checkpoints": "."}, "library": {"source": "generated_rl"}})
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    for key in ("mic.cutoff", "paths.data", "paths.checkpoints", "library.source"):
        assert key in str(err.value)


def test_load_config_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    with pytest.raises(ConfigError, match="is a directory"):
        load_config(tmp_path)
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
    run = build_run(cfg)
    for section, cls in SECTIONS.items():
        if section != "scales":
            assert type(getattr(run, section)) is cls, section
    assert run.model.embed_dim == cfg["model"]["embed_dim"]
    assert run.sft.epochs == cfg["sft"]["epochs"]
    assert run.ppo.iterations == 5
    assert run.screen.mic_cutoff == 0.6
    # the one-section builders the benchmark imports give the same sections
    assert mic_config(cfg) == run.mic
    assert screen_config(cfg) == run.screen


def test_builders_validate_values():
    cfg = default_config()
    cfg["reward"]["mix_lambda"] = 1.5
    with pytest.raises(ConfigError, match="^reward: mix weight must lie in"):
        build_run(cfg)
    cfg = default_config()
    cfg["screen"]["min_length"] = 60  # above max_length
    with pytest.raises(ConfigError, match="^screen: length bounds"):
        build_run(cfg)


@pytest.mark.parametrize(
    "thresholds, shown",
    [
        ([1.0, 1.0], "[1.0, 1.0]"),
        ([0.5, 3, 3.0], "[0.5, 3.0, 3.0]"),  # an integer is the float it names
        ([-1.0], "[-1.0]"),
        ([2.0, -0.5, 1.0], "[2.0, -0.5, 1.0]"),
    ],
)
def test_eval_thresholds_are_non_negative_and_distinct(thresholds, shown):
    # a repeat would write one fraction row for two entries, and no distance is negative
    cfg = default_config()
    cfg["eval"]["thresholds"] = thresholds
    with pytest.raises(ConfigError) as err:
        build_run(cfg)
    assert str(err.value) == f"eval: distance thresholds must be >= 0 and distinct, got {shown}"
    cfg["eval"]["thresholds"] = [0.0, 3.0, 1.0]
    assert build_run(cfg).eval.thresholds == (0.0, 3.0, 1.0)


def test_scale_table_override_hook(tmp_path):
    cfg = default_config()
    assert build_run(cfg).scales is DEFAULT_SCALE
    path = tmp_path / "scales.txt"
    path.write_text("hydropathy A 9.0\n")
    cfg["scales"]["overrides"] = str(path)
    table = build_run(cfg).scales
    assert table.hydropathy["A"] == pytest.approx(9.0)
    assert table.version.endswith("+overrides")


def test_write_resolved_is_sorted_and_round_trips(tmp_path):
    cfg = default_config()
    cfg["seed"] = 3
    path = tmp_path / "resolved.json"
    write_json(cfg, path)
    text = path.read_text()
    # JSON has no tuples, so compare against the normalized form
    assert json.loads(text) == json.loads(json.dumps(cfg))
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)


# --- fuzz: every value is a config error or of its annotated JSON type --------

JUNK = [None, True, 2.5, -1, 0, "x", "CC", [], {}, [1], [1, 2, 3], [[1]], [0.5, "x"]]


def _admits(kind, value) -> bool:
    """Whether an annotation admits a JSON value, read independently of the builder."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        return any(_admits(k, value) for k in args)
    if origin is tuple:
        if type(value) is not list:
            return False
        kinds = [args[0]] * len(value) if args[-1] is Ellipsis else list(args)
        return len(kinds) == len(value) and all(_admits(k, v) for k, v in zip(kinds, value))
    if kind is float:
        return type(value) in (int, float)
    return type(value) is kind


def _config_values():
    """(section or None for the top level, key, annotation) of every config value."""
    yield None, "seed", int
    for section, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            # a null stage seed means the global seed
            yield section, f.name, hints[f.name] | None if f.name == "seed" else hints[f.name]


def _build_with(settings):
    """build_run on the defaults with (section, key, value) settings; None if it raises ConfigError."""
    cfg = default_config()
    for section, key, value in settings:
        (cfg if section is None else cfg[section])[key] = copy.deepcopy(value)
    try:
        return build_run(cfg)
    except ConfigError:
        return None


def test_junk_values_are_config_errors_or_of_their_annotated_json_type():
    values = list(_config_values())
    accepted = 0
    for section, key, kind in values:
        for junk in JUNK:
            if _build_with([(section, key, junk)]) is not None:
                assert _admits(kind, junk), f"{section}: {key} accepted {json.dumps(junk)}"
                accepted += 1
    assert accepted > 0
    # several junk values at once: still no other exception, and the run
    # builds only when every value is of its type
    rng = np.random.default_rng(14)
    for _ in range(100):
        picks = [values[i] for i in rng.choice(len(values), size=3, replace=False)]
        settings = [(section, key, JUNK[rng.integers(len(JUNK))]) for section, key, _ in picks]
        if _build_with(settings) is not None:
            assert all(_admits(kind, value) for (_, _, kind), (_, _, value) in zip(picks, settings)), settings


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("forbidden_motifs", "CC", 'forbidden_motifs must be list[str], got "CC"'),
        ("hydrophobicity_window", [1], "hydrophobicity_window must be list[float, float] | None, got [1]"),
        ("charge_window", [1, 2, 3], "charge_window must be list[float, float] | None, got [1, 2, 3]"),
    ],
)
def test_a_string_or_a_list_of_the_wrong_length_is_no_screen_value(key, value, message):
    cfg = default_config()
    cfg["screen"][key] = value
    with pytest.raises(ConfigError) as err:
        build_run(cfg)
    assert str(err.value) == f"screen: {message}"
