"""The demonstration scripts run end to end as fresh processes.

They reach ``engine.record_events``, ``spacetime.audit_trial``,
``light_time_ns`` and ``heralding.hom_visibility`` the way a user does, so a
change that moves or deletes one of those breaks a test here.
"""

import os
import subprocess
import sys
from pathlib import Path

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
