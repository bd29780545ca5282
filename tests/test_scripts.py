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


def test_cartan_battery_script_classical_pair():
    out = run_script("cartan_battery.py", "--pair", "sp:4", "--deg", "3", "--count", "6")
    summary = json.loads(out)
    assert summary["pair"] == "sp:4"
    assert summary["mismatches"] == []
    assert sum(k["positive"] + k["negative"] for k in summary["kinds"].values()) == 6


def test_cartan_battery_script_refuses_a_pair_without_criterion():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cartan_battery.py"), "--pair", "gl:2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert "no diagonal criterion for gl:2" in proc.stderr


def test_scaling_table_script():
    out = run_script("scaling_table.py", "sl:2,2,3", "jordan:3,2,3", "--json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["pair"], r["m"], r["D"], r["w"]) for r in rows] == [
        ("sl:2", 2, 3, 32), ("jordan:3", 2, 3, 72)]
    sl2 = rows[0]
    # sl:2 is perfect: the closure and both bounds are one subspace
    assert sl2["closure_dim"] == sl2["tilde_dim"] == sl2["overline_dim"] > 0
    assert sl2["closure_sha256"] == sl2["tilde_sha256"] == sl2["overline_sha256"]
    assert all(r[f"{s}_s"] >= 0 for r in rows for s in ("closure", "tilde", "overline"))
    assert all(r["peak_rss_mb"] > 0 for r in rows)
    table = run_script("scaling_table.py", "sl:2,2,3").splitlines()
    assert table[0].startswith("| pair, m, D | w | dim |")
    assert table[2].startswith("| sl:2, 2, 3 | 32 | ") and f"same {sl2['closure_sha256'][:16]}" in table[2]


def test_line_count_script():
    lines = run_script("line_count.py").splitlines()
    assert lines[0].split() == ["module", "code", "all"]
    rows = {name: (int(code), int(total)) for name, code, total in map(str.split, lines[1:])}
    modules = {path.name for path in (ROOT / "src" / "nclie").glob("*.py")}
    assert set(rows) == modules | {"total"} and len(lines) == len(modules) + 2
    totals = rows.pop("total")
    assert totals == tuple(map(sum, zip(*rows.values())))
    assert all(0 < code <= total for code, total in rows.values())
