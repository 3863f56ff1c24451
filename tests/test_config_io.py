import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bellsim import cli, engine, logio
from bellsim import config as cfg_mod
from bellsim.heralding import hom_visibility
from bellsim.readout import ReadoutBasisSet, ReadoutError

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---- config ------------------------------------------------------------------


def test_shipped_default_yaml_matches_builtin_defaults():
    loaded = cfg_mod.load_config(REPO_ROOT / "configs" / "default.yaml")
    assert loaded == cfg_mod.default_config()


def test_unknown_key_rejected_with_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("interference:\n  visibilty: 0.9\n")
    with pytest.raises(cfg_mod.ConfigError, match="interference.visibilty"):
        cfg_mod.load_config(path)


@pytest.mark.parametrize("section, key", [("rng", "extraction_time_ns"),
                                          ("timing", "choice_duration_ns")])
def test_removed_key_rejected_with_path(tmp_path, section, key):
    path = tmp_path / "old.yaml"
    path.write_text(f"{section}:\n  {key}: 160.0\n")
    with pytest.raises(cfg_mod.ConfigError, match=f"{section}.{key}"):
        cfg_mod.load_config(path)


def test_import_loads_only_the_model_modules():
    # a fresh interpreter, so modules the tests imported do not count
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, bellsim.config; print(sorted(m for m in sys.modules if m in "
            "('bellsim.cli', 'bellsim.bell_stats', 'bellsim.logio', 'bellsim.optimizer')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


# libyaml and the pure-Python parser must build the same tree: scalars resolve
# by one SafeConstructor, and only the parse differs
YAML_TEXTS = [
    "a: null\nb: ~\nc:\n",
    "a: 1.0e+308\nb: -1.0e+308\nc: 1e3\nd: .inf\n",
    "a: 3.83e-3\nb: 0.026\nc: 20_000.0\nd: 59\ne: 0x1F\nf: 017\n",
    "a: [1.0, 1.0]\nb: [0.5, null, 3]\nc: {d: [1, [2, 3]], e: {}}\nd: []\n",
    "a: yes\nb: off\nc: 'text'\nd: \"1.0\"\ne: 2015-08-24\n",
]


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("text", [(REPO_ROOT / "configs" / "default.yaml").read_text(), *YAML_TEXTS],
                         ids=["default.yaml", "null", "big", "small", "flow", "other"])
def test_libyaml_and_pure_python_parse_to_equal_trees(text):
    fast, pure = (yaml.load(text, Loader=loader) for loader in (yaml.CSafeLoader, yaml.SafeLoader))
    assert fast == pure
    assert repr(fast) == repr(pure)  # tells 1 from 1.0 too


def loaders_used(monkeypatch) -> list:
    """The Loader of every ``yaml.load`` call from now on."""
    used, load = [], yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    return used


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_load_config_parses_with_libyaml(monkeypatch):
    used = loaders_used(monkeypatch)
    assert cfg_mod.load_config(REPO_ROOT / "configs" / "default.yaml") == cfg_mod.default_config()
    assert [loader.__bases__ for loader in used] == [(yaml.CSafeLoader,)]


def test_load_config_falls_back_without_libyaml(monkeypatch, tmp_path):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)  # as PyYAML built without it
    used = loaders_used(monkeypatch)
    assert cfg_mod.load_config(REPO_ROOT / "configs" / "default.yaml") == cfg_mod.default_config()
    path = tmp_path / "bad.yaml"
    path.write_text("link: [1\n")
    with pytest.raises(cfg_mod.ConfigError, match=f"^{re.escape(str(path))}: YAML parse error: "):
        cfg_mod.load_config(path)
    assert [loader.__bases__ for loader in used] == [(yaml.SafeLoader,)] * 2
    assert used[0] is used[1]  # the subclass is built once


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure"])
@pytest.mark.parametrize("text, line, key", [
    ("interference:\n  visibility: 0.5\ninterference:\n  visibility: 0.9\n", 3, "interference"),
    ("link:\n  loss_db_per_km: 8.0\n  fibre_km_per_arm: 0.85\n  loss_db_per_km: 4.0\n",
     4, "loss_db_per_km"),
    ("link: {loss_db_per_km: 8.0, 'loss_db_per_km': 4.0}\n", 1, "loss_db_per_km"),
], ids=["section", "key", "flow"])
def test_a_key_given_twice_in_one_mapping_rejected(monkeypatch, tmp_path, libyaml, text, line,
                                                    key):
    # PyYAML alone keeps the last value without a word
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    path = tmp_path / "twice.yaml"
    path.write_text(text)
    with pytest.raises(cfg_mod.ConfigError) as info:
        cfg_mod.load_config(path)
    assert str(info.value) == f"{path}: line {line}: key {key!r} is given twice in one mapping"


def test_a_merge_key_may_restate_a_merged_key(tmp_path):
    path = tmp_path / "merge.yaml"
    path.write_text("readout_a: &ro\n  mean_fidelity: 0.971\n  duration_us: 3.7\n"
                    "readout_b:\n  <<: *ro\n  mean_fidelity: 0.963\n")
    assert cfg_mod.load_config(path) == cfg_mod.default_config()


def test_unknown_top_level_key_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("interferenc: {}\n")
    with pytest.raises(cfg_mod.ConfigError, match="interferenc"):
        cfg_mod.load_config(path)


def test_type_error_reports_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("experiment:\n  trials: not-a-number\n")
    with pytest.raises(cfg_mod.ConfigError, match="experiment.trials"):
        cfg_mod.load_config(path)


def yaml_bases():
    """The safe loaders PyYAML offers here: libyaml's, if built, and the pure-Python one."""
    return [yaml.CSafeLoader] * hasattr(yaml, "CSafeLoader") + [yaml.SafeLoader]


def load_with(monkeypatch, base, path):
    """``load_config(path)`` with ``base`` as the YAML loader it extends."""
    with monkeypatch.context() as patch:
        if base is yaml.SafeLoader:
            patch.delattr(yaml, "CSafeLoader", raising=False)  # as PyYAML built without it
        return cfg_mod.load_config(path)


# YAML 1.2 reads each as a number; YAML 1.1 alone wants a decimal point and a signed
# exponent. Each goes to a key whose checks its value passes; 1e-400 underflows to 0.0.
@pytest.mark.parametrize("text, section, key", [
    ("4e-3", "link", "collection_efficiency"),
    ("1.0e300", "statistics", "win_adjustment"),
    ("-.5e3", "optimizer", "epsilon_min_pi"),
    ("5.E3", "optimizer", "epsilon_max_pi"),
    ("+2e+2", "experiment", "hours"),
    ("1e-400", "interference", "false_click_prob"),
], ids=["4e-3", "1.0e300", "-.5e3", "5.E3", "+2e+2", "1e-400"])
def test_a_number_with_an_exponent_loads_as_yaml_1_2_reads_it(monkeypatch, tmp_path, text,
                                                                section, key):
    path = tmp_path / "exponent.yaml"
    path.write_text(f"{section}:\n  {key}: {text}\n")
    expected = cfg_mod.config_from_dict({section: {key: float(text)}})
    for base in yaml_bases():
        loaded = load_with(monkeypatch, base, path)
        assert getattr(getattr(loaded, section), key) == float(text)
        assert loaded == expected and loaded.config_hash == expected.config_hash


@pytest.mark.parametrize("text", ["not-a-number", "'0.5'", "e5", "1e", "'4e-3'"])
def test_text_that_is_no_exponent_number_gets_no_hint(monkeypatch, tmp_path, text):
    # a quoted scalar is text: only a plain one is resolved as a number
    path = tmp_path / "text.yaml"
    path.write_text(f"link:\n  collection_efficiency: {text}\n")
    for base in yaml_bases():
        with pytest.raises(cfg_mod.ConfigError) as info:
            load_with(monkeypatch, base, path)
        assert str(info.value) == ("link.collection_efficiency: expected a number, "
                                   f"got {text.strip(chr(39))!r}")


def test_invalid_value_reports_section(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("interference:\n  visibility: 1.5\n")
    with pytest.raises(cfg_mod.ConfigError, match="interference"):
        cfg_mod.load_config(path)


def test_partial_override_keeps_other_defaults(tmp_path):
    path = tmp_path / "override.yaml"
    path.write_text("interference:\n  visibility: 0.5\n")
    loaded = cfg_mod.load_config(path)
    assert loaded.interference.visibility == 0.5
    assert loaded.readout_a.mean_fidelity == 0.971


def test_partial_readout_section_keeps_the_other_defaults(tmp_path):
    path = tmp_path / "partial.yaml"
    path.write_text("readout_b:\n  duration_us: 4.0\n")
    loaded = cfg_mod.load_config(path)
    assert loaded.readout_b.mean_fidelity == 0.963
    assert loaded.readout_b.dark_fidelity == 0.995
    assert loaded.readout_model("B").duration_us == 4.0
    assert loaded.readout_a == cfg_mod.default_config().readout_a


def test_empty_section_loads_as_the_default(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("readout_a:\n")
    loaded = cfg_mod.load_config(path)
    assert loaded == cfg_mod.default_config()
    assert loaded.config_hash == cfg_mod.default_config().config_hash


def test_bad_readout_anchor_fails_at_load(tmp_path):
    path = tmp_path / "anchor.yaml"
    path.write_text("readout_a:\n  mean_fidelity: 0.3\n")
    with pytest.raises(cfg_mod.ConfigError, match="readout_a: mean fidelity"):
        cfg_mod.load_config(path)


@pytest.mark.parametrize("data, message", [
    ({"link": 5}, "link: expected a mapping"),
    ({"interference": {"detector_efficiency": 0.5}},
     "interference.detector_efficiency: expected a sequence"),
    ({"interference": {"detector_efficiency": [0.5]}},
     "interference.detector_efficiency: expected 2 entries, got 1"),
    ({"interference": {"detector_efficiency": [0.5, "x"]}},
     "interference.detector_efficiency[1]: expected a number, got 'x'"),
    ({"optimizer": {"objective": 5}}, "optimizer.objective: expected a string, got 5"),
    ({"experiment": {"trials": 2.0}}, "experiment.trials: expected an integer, got 2.0"),
    ({"experiment": {"seed": True}}, "experiment.seed: expected an integer, got True"),
    ({"link": {"loss_db_per_km": True}}, "link.loss_db_per_km: expected a number, got True"),
    ({"link": {"loss_db_per_km": math.nan}},
     "link.loss_db_per_km: expected a finite number, got nan"),
    ({"experiment": {"hours": "x"}}, "experiment.hours: expected a number, got 'x'"),
    ({"experiment": {"hours": math.inf}}, "experiment.hours: expected a finite number, got inf"),
    ({"readout_a": {"dark_fidelity": 1.5}}, "readout_a: dark fidelity must be in (0, 1]"),
    ({"readout_a": {"mean_fidelity": 0.99, "dark_fidelity": 0.97}},
     "readout_a: anchor F+=1.01 out of range; lower dark_fidelity or mean_fidelity"),
    ({"readout_a": {"flip_rate_per_us": 1.0e+5}},
     "readout_a: anchor F+=0.947000 unreachable: spin flips cap the bright fidelity at 0.909545"),
], ids=["section-not-mapping", "not-a-sequence", "one-entry", "entry-not-a-number",
        "objective-not-string", "float-for-int", "bool-for-int", "bool-for-float", "nan",
        "text-for-optional", "inf-for-optional", "dark-above-one", "bright-anchor-above-one",
        "bright-anchor-unreachable"])
def test_a_value_that_fails_its_check_is_named_by_its_path(data, message):
    with pytest.raises(cfg_mod.ConfigError) as info:
        cfg_mod.config_from_dict(data)
    assert str(info.value) == message


@pytest.mark.parametrize("hours", [None, 5, 2.5])
def test_optional_hours_take_null_or_a_number(hours):
    loaded = cfg_mod.config_from_dict({"experiment": {"hours": hours}})
    assert loaded.experiment.hours == hours
    assert type(loaded.experiment.hours) is (float if hours is not None else type(None))


def holds(value, annotation) -> bool:
    """Whether ``value`` is exactly of the type ``annotation`` names, entry by entry."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is tuple:
        return type(value) is tuple and len(value) == len(args) and all(map(holds, value, args))
    if args:  # X | None
        return any(holds(value, arg) for arg in args)
    return type(value) is annotation


def test_every_default_is_of_its_annotated_type():
    # the loader reads a value as the type of the default it replaces, not its annotation
    sections = [cfg_mod.default_config()]
    while sections:
        section = sections.pop()
        hints = typing.get_type_hints(type(section))
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            if f.init and dataclasses.is_dataclass(hints[f.name]):
                assert type(value) is hints[f.name], f.name
                sections.append(value)
            elif f.init:
                assert holds(value, hints[f.name]), f"{type(section).__name__}.{f.name}"


def test_config_hash_stable_and_sensitive():
    base = cfg_mod.default_config()
    assert base.config_hash == cfg_mod.default_config().config_hash
    changed = dataclasses.replace(
        base, basis=dataclasses.replace(base.basis, epsilon_pi=0.03)
    )
    assert base.config_hash != changed.config_hash


def test_config_hash_is_computed_once_per_config(monkeypatch):
    hashed = []
    to_dict = cfg_mod.config_to_dict
    monkeypatch.setattr(cfg_mod, "config_to_dict", lambda cfg: hashed.append(cfg) or to_dict(cfg))
    base = cfg_mod.SimulationConfig()
    keys = cfg_mod.config_to_dict(base)
    hashed.clear()
    first = base.config_hash
    assert base.config_hash == first and hashed == [base]
    # kept in the instance dict: no field, serialised key, repr or equality sees it
    assert base.__dict__["config_hash"] == first
    assert "config_hash" not in {f.name for f in dataclasses.fields(base)}
    assert cfg_mod.config_to_dict(base) == keys and "config_hash" not in repr(base)
    assert base == cfg_mod.SimulationConfig() and hash(base) == hash(cfg_mod.SimulationConfig())
    hashed.clear()
    # a replaced config is a new object, hashed on its own first use
    changed = dataclasses.replace(base, rng=dataclasses.replace(base.rng, raw_bits_per_output=2))
    assert "config_hash" not in changed.__dict__
    assert changed.config_hash != first and hashed == [changed]
    assert dataclasses.replace(changed, rng=base.rng) == base
    assert dataclasses.replace(changed, rng=base.rng).config_hash == first


def test_config_round_trip_through_dict():
    base = cfg_mod.default_config()
    rebuilt = cfg_mod.config_from_dict(json.loads(json.dumps(cfg_mod.config_to_dict(base))))
    assert rebuilt == base


# (section, kept field) of every value a section's check builds and keeps
KEPT = [("link", "herald_probability"), ("link", "herald_delay_ns"), ("basis", "angles"),
        ("heralding", "visibility"), ("optimizer", "spec"), ("readout_a", "model"),
        ("readout_b", "model")]

# a section of other inputs, whose kept values differ from the default's
OTHER = {"link": cfg_mod.LinkConfig(loss_db_per_km=4.0, refractive_index=1.5),
         "basis": cfg_mod.BasisConfig(0.1), "heralding": cfg_mod.HeraldingConfig(7.0),
         "optimizer": cfg_mod.OptimizerConfig(epsilon_max_pi=0.25),
         "readout_a": cfg_mod.ReadoutConfig(0.95), "readout_b": cfg_mod.ReadoutConfig(0.95)}


def test_a_replaced_section_recomputes_its_kept_values():
    base = cfg_mod.default_config()
    link = dataclasses.replace(base.link, loss_db_per_km=4.0, refractive_index=1.5)
    assert link.herald_probability == cfg_mod.LinkConfig(loss_db_per_km=4.0).herald_probability
    assert link.herald_probability > base.link.herald_probability
    assert link.herald_delay_ns == 850.0 * 1.5 / 299_792_458.0 * 1e9
    cfg = dataclasses.replace(base, basis=cfg_mod.BasisConfig(0.1))
    assert cfg.basis_set() == ReadoutBasisSet.from_tilt(0.1 * math.pi) != base.basis_set()
    heralding = dataclasses.replace(base.heralding, hom_counts_indistinguishable=7.0)
    assert heralding.visibility == hom_visibility(7.0, 28.0) != base.heralding.visibility
    optimizer = dataclasses.replace(base.optimizer, epsilon_max_pi=0.25)
    assert optimizer.spec.epsilon_max == 0.25 * math.pi
    assert optimizer.spec.epsilon_min == base.optimizer.spec.epsilon_min == -0.125 * math.pi


def test_a_kept_value_is_built_once_per_section():
    cfg = cfg_mod.default_config()
    assert cfg.basis_set() is cfg.basis_set() is cfg.basis.angles


def test_no_kept_value_enters_the_hash_equality_or_repr():
    base = cfg_mod.default_config()
    assert base.config_hash == "6514d010cc5310a0c534bf47f04fbdb975a3fc2c9ba8310e03fa240362970d9c"
    assert sum(map(len, cfg_mod.config_to_dict(base).values())) == 42  # keys of the sections
    for section, name in KEPT:
        assert name not in cfg_mod.config_to_dict(base)[section]
        assert f"{name}=" not in repr(getattr(base, section))
        # a section given another section's kept value is still equal, with an equal hash
        own, alien = getattr(getattr(base, section), name), getattr(OTHER[section], name)
        assert alien != own
        other = dataclasses.replace(getattr(base, section))
        object.__setattr__(other, name, alien)
        changed = dataclasses.replace(base, **{section: other})
        assert changed == base and hash(changed) == hash(base)
        assert changed.config_hash == base.config_hash


@pytest.mark.parametrize("section, name", KEPT)
def test_a_kept_value_is_no_config_key(section, name):
    with pytest.raises(cfg_mod.ConfigError, match=rf"unknown key\(s\): {section}\.{name}$"):
        cfg_mod.config_from_dict({section: {name: 0.5}})


def test_derived_models_available():
    cfg = cfg_mod.default_config()
    assert cfg.readout_model("A").fidelities[1] > 0.98
    assert cfg.basis_set().b1 == 3 * math.pi / 4 + 0.026 * math.pi
    assert cfg.link.herald_delay_ns > 0
    assert cfg.timing_budget().sync_allowance_ns == 16.0


def test_readout_model_rejects_a_site_without_a_readout():
    cfg = cfg_mod.default_config()
    assert cfg.readout_model("a") is cfg.readout_a.model
    assert cfg.readout_model("b") is cfg.readout_b.model
    for side in ("C", "x", ""):
        with pytest.raises(ReadoutError, match=f"side must be 'A' or 'B', got {side.upper()!r}"):
            cfg.readout_model(side)


# ---- trial-log round trips -------------------------------------------------------


def sample_log(n=20, seed=5):
    link = cfg_mod.LinkConfig(collection_efficiency=1.0, detector_efficiency=1.0,
                              loss_db_per_km=0.0)
    cfg = dataclasses.replace(cfg_mod.default_config(), link=link)
    return engine.run_experiment(cfg, n_trials=n, seed=seed)


def test_round_trip_preserves_records_exactly(tmp_path):
    log = sample_log()
    path = tmp_path / "trials.jsonl"
    logio.write_log(log, path)
    loaded = logio.read_log(path)
    assert loaded.records == log.records
    assert loaded.config_hash == log.config_hash
    assert loaded.seed == log.seed
    assert loaded.partial == log.partial


def test_round_trip_is_byte_stable(tmp_path):
    log = sample_log()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    logio.write_log(log, p1)
    logio.write_log(logio.read_log(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_is_first_line(tmp_path):
    log = sample_log(3)
    path = tmp_path / "trials.jsonl"
    logio.write_log(log, path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first["format_version"] == 1
    assert "config_hash" in first and "seed" in first and "created" in first


def test_every_line_parses_independently(tmp_path):
    log = sample_log(5)
    path = tmp_path / "trials.jsonl"
    logio.write_log(log, path)
    for line in path.read_text().splitlines():
        json.loads(line)


def test_corrupt_line_error_names_the_line(tmp_path):
    log = sample_log(5)
    path = tmp_path / "trials.jsonl"
    logio.write_log(log, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:-5] + "oops"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(logio.LogFormatError, match="line 4"):
        logio.read_log(path)


def test_out_of_sequence_index_rejected(tmp_path):
    log = sample_log(4)
    path = tmp_path / "trials.jsonl"
    logio.write_log(log, path)
    lines = path.read_text().splitlines()
    del lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(logio.LogFormatError, match="out of sequence"):
        logio.read_log(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "trials.jsonl"
    path.write_text("")
    with pytest.raises(logio.LogFormatError, match="header"):
        logio.read_log(path)


@pytest.mark.parametrize("key, value", [
    ("partial", '"no"'), ("partial", "1"), ("partial", "null"),
    ("config_hash", "5"), ("config_hash", "null"), ("created", "7"), ("created", "[]"),
    ("seed", '{"x":1}'), ("seed", "-1"), ("seed", "[7,-2]"), ("seed", "true"),
    ("seed", "1.5"), ("seed", '"59"'), ("seed", "[7,true]"),
])
def test_header_of_the_wrong_type_rejected(tmp_path, key, value):
    path = tmp_path / "trials.jsonl"
    logio.write_log(sample_log(3), path)
    header, *rows = path.read_text().splitlines()
    header = re.sub(rf'"{key}":[^,}}]+', f'"{key}":{value}', header)
    path.write_text("\n".join([header, *rows, ""]))
    with pytest.raises(logio.LogFormatError, match=rf"^line 1: header {key} must be") as info:
        logio.read_log(path)
    assert info.value.path == path


@pytest.mark.parametrize("extra, named", [
    ('"plan":{"tau_out":0.5}', "plan"),
    ('"planned_trials":245,"plan":null', "plan, planned_trials"),
], ids=["plan", "two"])
def test_header_with_an_unknown_key_rejected(tmp_path, extra, named):
    # a key this reader ignored could change the log's meaning, as a plan of trials would
    path = tmp_path / "trials.jsonl"
    logio.write_log(sample_log(3), path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header[:-1] + "," + extra + "}", *rows, ""]))
    with pytest.raises(logio.LogFormatError) as info:
        logio.read_log(path)
    assert str(info.value) == f"line 1: header has unknown key(s): {named}"
    assert info.value.path == path


@pytest.mark.parametrize("value", ["true", "1.0"])
def test_header_format_version_must_be_the_integer_1(tmp_path, value):
    path = tmp_path / "trials.jsonl"
    logio.write_log(sample_log(3), path)
    path.write_text(path.read_text().replace('"format_version":1', f'"format_version":{value}'))
    with pytest.raises(logio.LogFormatError) as info:
        logio.read_log(path)
    shown = {"true": "True", "1.0": "1.0"}[value]  # as Python prints the parsed value
    assert str(info.value) == f"line 1: unsupported format version {shown}"


def test_header_of_the_right_types_accepted(tmp_path):
    path = tmp_path / "trials.jsonl"
    path.write_text('{"format_version":1,"config_hash":"h","seed":[7,0],'
                    '"created":"2015-08-24T00:00:00+00:00","partial":true}\n')
    log = logio.read_log(path)
    assert (log.seed, log.partial, log.created) == ((7, 0), True, "2015-08-24T00:00:00+00:00")
    path.write_text('{"format_version":1,"config_hash":"h","seed":0}\n')
    assert (logio.read_log(path).partial, logio.read_log(path).created) == (False, None)


def test_blank_lines_are_skipped_but_counted(tmp_path):
    log = sample_log(5)
    clean = tmp_path / "clean.jsonl"
    logio.write_log(log, clean)
    header, *rows = clean.read_text().splitlines()
    path = tmp_path / "blank.jsonl"
    path.write_text("\n".join(["", header, rows[0], "", *rows[1:], "", ""]))
    assert logio.read_log(path).records == log.records
    # blank line 3, broken line 6: the message names file line 6
    path.write_text("\n".join([header, rows[0], "", rows[1], rows[2], "{broken", ""]))
    with pytest.raises(logio.LogFormatError, match=r"^line 6: invalid JSON"):
        logio.read_log(path)


def test_blank_line_in_one_block_counts_in_the_next(tmp_path, log_lines_6000):
    lines = list(log_lines_6000)
    lines.insert(10, "")
    path = tmp_path / "blank.jsonl"
    path.write_text("\n".join(lines) + "\n")
    clean = tmp_path / "clean.jsonl"
    clean.write_text("\n".join(log_lines_6000) + "\n")
    assert logio.read_log(path).records == logio.read_log(clean).records
    lines[5000] = "{broken"  # file line 5001, in the second block
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(logio.LogFormatError, match=r"^line 5001: invalid JSON"):
        logio.read_log(path)


def test_non_utf8_log_is_a_format_error(tmp_path):
    path = tmp_path / "trials.jsonl"
    logio.write_log(sample_log(3), path)
    path.write_bytes(path.read_bytes() + b"\xe9\n")
    with pytest.raises(logio.LogFormatError, match="not UTF-8") as info:
        logio.read_log(path)
    assert info.value.path == path


def test_tuple_seed_survives_round_trip(tmp_path):
    link = cfg_mod.LinkConfig(collection_efficiency=1.0, detector_efficiency=1.0,
                              loss_db_per_km=0.0)
    cfg = dataclasses.replace(cfg_mod.default_config(), link=link)
    log = engine.run_experiment(cfg, n_trials=3, seed=engine.replica_seed(7, 2))
    path = tmp_path / "replica.jsonl"
    logio.write_log(log, path)
    assert logio.read_log(path).seed == (7, 2)


# ---- the block writer and reader ------------------------------------------------

FINITE_TIMES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-10**18, 10**18))
ORDERED_TIMES = st.tuples(FINITE_TIMES, FINITE_TIMES).filter(lambda p: p[0] != p[1])


@st.composite
def valid_rows(draw):
    n = draw(st.integers(1, 8))
    rows = []
    for idx in range(n):
        choice_a, done_a = sorted(draw(ORDERED_TIMES))
        choice_b, done_b = sorted(draw(ORDERED_TIMES))
        rows.append(logio.TrialRecord(
            idx, draw(st.sampled_from([0, 1])), draw(st.sampled_from([0, 1])),
            draw(st.sampled_from([-1, 1])), draw(st.sampled_from([-1, 1])),
            draw(FINITE_TIMES), choice_a, choice_b, done_a, done_b,
            draw(st.integers(1, 2**63 - 1))))
    return rows


def write_rows(rows, path):
    logio.write_log(logio.TrialLog(config_hash="manual", seed=0, records=list(rows)), path)
    return path.read_text().splitlines()[1:]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([logio.TrialRecord(0, 0, 1, 1, -1, -0.0, 5e-324, 4168, 1e16, 1e22, 1)])
@example([logio.TrialRecord(0, 1, 0, -1, 1, 4168.0, -1e22, -1e16, 4168, 4168.0, 2**63 - 1)])
@given(rows=valid_rows())
def test_writer_line_is_json_dumps(tmp_path, rows):
    path = tmp_path / "rows.jsonl"
    lines = write_rows(rows, path)
    assert lines == [json.dumps(dict(zip(logio.RECORD_KEYS, rec)), separators=(",", ":"))
                     for rec in rows]
    back = logio.read_log(path).records
    assert back == rows
    assert [list(map(type, rec)) for rec in back] == [list(map(type, rec)) for rec in rows]


@pytest.mark.parametrize("field, value", [
    ("t_herald_ns", np.float64(4168.5)), ("t_read_done_b_ns", np.float64(6680.0)),
    ("idx", np.int64(0)), ("attempts", np.int64(3)), ("a", True), ("x", 1.0),
])
def test_writer_rejects_values_repr_cannot_write(tmp_path, field, value):
    rec = logio.TrialRecord(0, 0, 1, 1, -1, 4168.0, 2500.0, 2500.0, 6680.0, 6680.0, 1)
    path = tmp_path / "rows.jsonl"
    with pytest.raises(logio.EngineError):
        write_rows([rec._replace(**{field: value})], path)
    assert not path.exists()


@pytest.fixture(scope="module")
def log_lines_6000(tmp_path_factory):
    link = cfg_mod.LinkConfig(collection_efficiency=1.0, detector_efficiency=1.0,
                              loss_db_per_km=0.0)
    cfg = dataclasses.replace(cfg_mod.default_config(), link=link)
    path = tmp_path_factory.mktemp("big") / "big.jsonl"
    logio.write_log(engine.run_experiment(cfg, n_trials=6000, seed=11), path)
    return path.read_text().splitlines()


def _split(lines, at):
    """Line ``at`` (0-based) broken in two before its t_herald_ns key."""
    cut = lines[at].index(',"t_herald_ns"')
    return [lines[at][:cut], lines[at][cut + 1:]]


# file line 5000 (trial 4998) lies in the second 4096-line block; every message is
# the one the line-by-line reader gives; extra data starts where the intact row ends
@pytest.mark.parametrize("corrupt, message", [
    (lambda ls: ls[:4999] + [ls[4999] + ls[4999]] + ls[5000:],
     "line 5000: invalid JSON: Extra data: line 1 column {column} (char {char})"),
    (lambda ls: ls[:4999] + [ls[4999] + ","] + ls[5000:],
     "line 5000: invalid JSON: Extra data: line 1 column {column} (char {char})"),
    (lambda ls: ls[:4999] + [re.sub(r',"x":[^,]+', "", ls[4999])] + ls[5000:],
     "line 5000: missing key(s) x"),
    (lambda ls: ls[:4999] + [ls[4999][:-1] + ',"z":0}'] + ls[5000:],
     "line 5000: unknown key(s) z"),
    (lambda ls: ls[:4999] + [ls[4999].replace('"b":', '"a":')] + ls[5000:],
     "line 5000: key 'a' is given twice"),
    (lambda ls: ls[:4999] + [re.sub(r'"t_herald_ns":[^,]+', '"t_herald_ns":NaN', ls[4999])]
     + ls[5000:],
     "line 5000: event times must be finite"),
    (lambda ls: ls[:4999] + [re.sub(r'"a":\d,"b":\d', '"a":2,"b":1', ls[4999])] + ls[5000:],
     "line 5000: settings must be bits, got a=2, b=1"),
    (lambda ls: ls[:4999] + [re.sub(r'"x":-?\d,"y":-?\d', '"x":0,"y":1', ls[4999])] + ls[5000:],
     "line 5000: outcomes must be +-1, got x=0, y=1"),
    (lambda ls: ls[:4999] + [re.sub(r'"attempts":\d+', '"attempts":0', ls[4999])] + ls[5000:],
     "line 5000: attempt count must be >= 1"),
    (lambda ls: ls[:4999] + [re.sub(r'"t_read_done_b_ns":[^,]+', '"t_read_done_b_ns":-1.0',
                                    ls[4999])] + ls[5000:],
     "line 5000: per-site ordering violated: choice must precede readout end"),
    (lambda ls: ls[:4999] + [re.sub(r'"idx":\d+', '"idx":7', ls[4999])] + ls[5000:],
     "line 5000: trial index 7 out of sequence (expected 4998)"),
    (lambda ls: ls[:4999] + ["[1, 2]"] + ls[5000:],
     "line 5000: expected a JSON object"),
    (lambda ls: ls[:4999] + _split(ls, 4999) + ls[5000:],
     "line 5000: invalid JSON: Expecting ',' delimiter: line 1 column 37 (char 36)"),
    # one object over two lines and two objects on the next: one object per line
    # in count, but not line by line
    (lambda ls: ls[:4999] + _split(ls, 4999) + [ls[5000] + "," + ls[5001]] + ls[5002:],
     "line 5000: invalid JSON: Expecting ',' delimiter: line 1 column 37 (char 36)"),
], ids=["two-objects", "trailing-comma", "missing-key", "unknown-key", "duplicate-key",
        "nan-time", "setting-not-a-bit", "outcome-not-pm1", "zero-attempts",
        "readout-before-choice", "out-of-sequence", "non-object", "split-object",
        "split-and-merged"])
def test_block_reader_reports_the_bad_line(tmp_path, log_lines_6000, corrupt, message):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(corrupt(log_lines_6000)) + "\n")
    with pytest.raises(logio.LogFormatError) as info:
        logio.read_log(path)
    end = len(log_lines_6000[4999])
    assert str(info.value) == message.format(column=end + 1, char=end)


@pytest.mark.parametrize("variant", [
    lambda ln: ln.replace(":", ": "),  # json.dumps's default separator
    lambda ln: ln.replace('"idx":4998,', "")[:-1] + ',"idx":4998}',  # keys in another order
    lambda ln: ln + "\r",
])
def test_block_reader_accepts_what_the_line_reader_accepts(tmp_path, log_lines_6000, variant):
    path = tmp_path / "odd.jsonl"
    lines = list(log_lines_6000)
    lines[4999] = variant(lines[4999])
    path.write_text("\n".join(lines) + "\n")
    clean = tmp_path / "clean.jsonl"
    clean.write_text("\n".join(log_lines_6000) + "\n")
    assert logio.read_log(path).records == logio.read_log(clean).records


# json.loads keeps the last value of a key given twice; the reader refuses the line
@pytest.mark.parametrize("line, old, new, message", [
    (0, '"partial":false', '"partial":true,"partial":false', "line 1: key 'partial' is given twice"),
    (0, '"seed":11', '"seed":11,"seed":11', "line 1: key 'seed' is given twice"),
    (2, '"x":', '"x":1,"x":', "line 3: key 'x' is given twice"),
    # in the second block, a repeat of a valid row's own value
    (4999, '"idx":4998,', '"idx":4998,"idx":4998,', "line 5000: key 'idx' is given twice"),
    (4999, '"a":', '"a":0,"a":', "line 5000: key 'a' is given twice"),
], ids=["header-partial", "header-seed", "first-block", "second-block-same", "second-block"])
def test_a_key_given_twice_in_a_log_line_rejected(tmp_path, log_lines_6000, line, old, new,
                                                  message):
    lines = list(log_lines_6000)
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new, 1)
    path = tmp_path / "twice.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(logio.LogFormatError) as info:
        logio.read_log(path)
    assert str(info.value) == message
    assert info.value.path == path


@pytest.mark.parametrize("field", ["idx", "a", "b", "x", "y", "attempts"])
@pytest.mark.parametrize("kind", ["bool", "float"])
def test_non_integer_json_in_integer_field_is_a_data_error(tmp_path, capsys, field, kind):
    path = tmp_path / "log.jsonl"
    logio.write_log(sample_log(4), path)
    lines = path.read_text().splitlines()
    value = json.loads(lines[2])[field]  # trial 1 on line 3
    token = "true" if kind == "bool" else repr(float(value))
    lines[2] = re.sub(rf'"{field}":-?\d+', f'"{field}":{token}', lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(logio.LogFormatError, match="line 3: .*must be integers"):
        logio.read_log(path)
    for command in ("analyze", "audit"):
        assert cli.main([command, str(path)]) == 2
        assert "line 3" in capsys.readouterr().err


def test_int_time_beyond_the_float_range_is_a_format_error(tmp_path):
    path = tmp_path / "log.jsonl"
    logio.write_log(sample_log(4), path)
    lines = path.read_text().splitlines()
    lines[2] = re.sub(r'"t_herald_ns":[^,]+', '"t_herald_ns":1' + "0" * 400, lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(logio.LogFormatError, match="line 3: event times must be finite"):
        logio.read_log(path)
