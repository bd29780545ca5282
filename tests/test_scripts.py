"""Smoke tests for the experiment scripts: each runs as a subprocess on a
small input and must exit 0 with its expected output, which also guards the
public API the scripts import."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dimension_profiles_script():
    out = run_script("dimension_profiles.py", "--pair", "so:3", "--max-deg", "3")
    lines = out.splitlines()
    assert lines[0] == "pair so:3: dim g = 3, type = 2"
    rows = [line.split("(")[0].split("|") for line in lines[3:6]]
    expected = ["[3, 6]", "[3, 6, 18]", "[3, 6, 18, 48]"]
    for deg, (row, profile) in enumerate(zip(rows, expected), start=1):
        assert int(row[0]) == deg
        # closure, refined bound and plain bound agree for this perfect pair
        assert [cell.strip() for cell in row[1:]] == [profile] * 3


def test_cartan_battery_script():
    out = run_script("cartan_battery.py", "--pair", "sl2irrep:3", "--deg", "3", "--count", "4")
    summary = json.loads(out)
    assert (summary["pair"], summary["deg"], summary["seed"]) == ("sl2irrep:3", 3, 0)
    assert summary["mismatches"] == []
    kinds = summary["kinds"]
    assert sum(k["positive"] + k["negative"] for k in kinds.values()) == 4
    assert all(k["mismatch"] == 0 for k in kinds.values())
