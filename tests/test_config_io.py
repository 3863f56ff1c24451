import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellsim import config as cfg_mod
from bellsim import engine, logio

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


def test_config_hash_stable_and_sensitive():
    base = cfg_mod.default_config()
    assert cfg_mod.config_hash(base) == cfg_mod.config_hash(cfg_mod.default_config())
    changed = dataclasses.replace(
        base, basis=dataclasses.replace(base.basis, epsilon_pi=0.03)
    )
    assert cfg_mod.config_hash(base) != cfg_mod.config_hash(changed)


def test_config_round_trip_through_dict():
    base = cfg_mod.default_config()
    rebuilt = cfg_mod.config_from_dict(json.loads(json.dumps(cfg_mod.config_to_dict(base))))
    assert rebuilt == base


def test_derived_models_available():
    cfg = cfg_mod.default_config()
    assert cfg.readout_model("A").fidelities[1] > 0.98
    assert abs(cfg.basis_set().tilt - 0.026 * 3.141592653589793) < 1e-12
    assert cfg.herald_delay_ns() > 0
    assert cfg.timing_budget().sync_allowance_ns == 16.0


# ---- trial-log round trips -------------------------------------------------------


def sample_log(n=20, seed=5):
    link = cfg_mod.LinkConfig(collection_efficiency=1.0, detector_efficiency=1.0,
                              fibre_km_per_arm=1e-6)
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


def test_tuple_seed_survives_round_trip(tmp_path):
    link = cfg_mod.LinkConfig(collection_efficiency=1.0, detector_efficiency=1.0,
                              fibre_km_per_arm=1e-6)
    cfg = dataclasses.replace(cfg_mod.default_config(), link=link)
    log = engine.run_experiment(cfg, n_trials=3, seed=engine.replica_seed(7, 2))
    path = tmp_path / "replica.jsonl"
    logio.write_log(log, path)
    assert logio.read_log(path).seed == (7, 2)
