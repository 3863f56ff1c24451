"""The demonstration scripts run end to end as fresh processes.

They reach ``engine.record_events``, ``spacetime.audit_trial``,
``Geometry.light_times_ns``, ``cfg.link.herald_probability`` and
``cfg.heralding.visibility`` the way a user does, so a change that moves or deletes
one of those breaks a test here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_run_headline_passes_its_audit():
    done = run_script("run_headline.py")  # exits 3 when a trial fails the audit
    assert done.returncode == 0, done.stderr


def test_replica_scatter_writes_one_row_per_replica(tmp_path):
    out = tmp_path / "replicas.csv"
    done = run_script("replica_scatter.py", "--replicas", "20", "--csv", str(out))
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "replica,S,sigma_S,k,p_conventional,p_complete"
    assert len(lines) == 21


@pytest.mark.parametrize("args", [
    ("replica_scatter.py", "--replicas", "0"),
    ("replica_scatter.py", "--replicas", "1"),  # a one-replica spread is nan
    ("replica_scatter.py", "--replicas", "2", "--trials", "0"),
    ("run_headline.py", "--trials", "0"),
], ids=["no-replicas", "one-replica", "scatter-no-trials", "headline-no-trials"])
def test_a_run_that_cannot_be_summarised_is_a_usage_error(args):
    done = run_script(*args)
    assert done.returncode == 2, (done.stdout, done.stderr)
    assert ": error: --" in done.stderr
    assert "Traceback" not in done.stderr and "nan" not in done.stdout


@pytest.mark.parametrize("args", [
    ("replica_scatter.py", "--replicas", "2", "--trials", "3"),
    ("run_headline.py", "--trials", "3"),
], ids=["scatter", "headline"])
def test_a_run_too_short_to_fill_every_setting_pair_is_one_error_line(args):
    # three trials cannot fill four setting pairs
    done = run_script(*args)
    assert done.returncode == 2, (done.stdout, done.stderr)
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert "setting pair" in lines[0]
