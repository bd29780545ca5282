import json
import time

import pytest

from nclie.cli import (
    CheckRecord,
    Report,
    RunConfig,
    battery_diagonals,
    main,
)
from nclie.coeffalg import FreeContext
from nclie.current import filtration
from nclie.pairs import make_orthogonal


def strip_ms(payload):
    for check in payload["checks"]:
        check.pop("ms", None)
    return payload


def test_verify_single_suite_exit_zero(capsys):
    rc = main(["verify", "--suite", "perfect-equality", "--pair", "sl:2",
               "--gens", "2", "--deg", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "closure equals plain bound" in out


def test_verify_bounds_chain_exit_zero():
    rc = main(["verify", "--suite", "bounds-chain", "--pair", "jordan:3",
               "--gens", "2", "--deg", "3"])
    assert rc == 0


def test_verify_all_suites_wired():
    rc = main(["verify", "--suite", "all", "--pair", "sl2irrep:3",
               "--gens", "2", "--deg", "3", "--seed", "3", "--count", "12"])
    assert rc == 0


def test_help_paths_exit_clean(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_verify_json_schema(capsys):
    rc = main(["verify", "--suite", "perfect-equality", "--pair", "sl:2",
               "--gens", "2", "--deg", "3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["config"]["pair"] == "sl:2"
    for check in payload["checks"]:
        assert set(check) == {"name", "anchor", "verdict", "degrees", "budget", "ms", "detail"}
        assert check["verdict"] in {"pass", "fail", "vacuous", "unsupported"}
        for d in check["degrees"]:
            assert set(d) == {"d", "dimLhs", "dimRhs", "equal"}


def test_seeded_reports_replay(capsys):
    args = ["verify", "--suite", "cartan-sl2", "--pair", "sl2irrep:3",
            "--gens", "2", "--deg", "3", "--seed", "5", "--count", "8", "--json"]
    main(args)
    first = strip_ms(json.loads(capsys.readouterr().out))
    main(args)
    second = strip_ms(json.loads(capsys.readouterr().out))
    assert first == second


def test_cartan_command_spec_example(capsys):
    rc = main(["cartan", "--pair", "so:3", "--gens", "x,y", "--deg", "4",
               "--diag", "1 ; 1+[x,y] ; 1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    verdicts = {c["anchor"]: c["verdict"] for c in payload["checks"]}
    assert verdicts["cartan.classical"] == "pass"
    assert verdicts["cartan.classical.equivalence"] == "pass"


def test_cartan_negative_diagonal_exits_one():
    rc = main(["cartan", "--pair", "so:3", "--deg", "3", "--diag", "1 ; 1+x ; 1"])
    assert rc == 1


def test_cartan_wrong_entry_count_config_error():
    rc = main(["cartan", "--pair", "so:3", "--deg", "3", "--diag", "1 ; 1"])
    assert rc == 2


def test_cartan_rejects_pairs_without_criterion():
    rc = main(["cartan", "--pair", "jordan:3", "--deg", "3", "--diag", "1 ; 1 ; 1"])
    assert rc == 2


def test_parse_error_exit_two():
    rc = main(["cartan", "--pair", "so:3", "--deg", "3", "--diag", "1 ; 1+q ; 1"])
    assert rc == 2


def test_compute_ideal_dims(capsys):
    rc = main(["compute", "--object", "ideal", "--k", "1", "--gens", "2",
               "--deg", "3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    dims = [d["dimLhs"] for d in payload["checks"][0]["degrees"]]
    assert dims == [0, 0, 1, 4]


def test_compute_closure_dims_match_formula(capsys):
    rc = main(["compute", "--object", "closure", "--pair", "sl:2", "--gens", "2",
               "--deg", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    dims = [d["dimLhs"] for d in payload["checks"][0]["degrees"]]
    assert dims == [3, 6, 13]


def test_compute_dump_basis(capsys):
    rc = main(["compute", "--object", "commutator-space", "--k", "1", "--gens", "2",
               "--deg", "2", "--dump-basis"])
    assert rc == 0
    assert "rows" in capsys.readouterr().out


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    rc = main(["verify", "--suite", "perfect-equality", "--pair", "sl:2",
               "--gens", "2", "--deg", "3", "--json", "--out", str(target)])
    assert rc == 0
    payload = json.loads(target.read_text())
    assert payload["checks"]


def test_matrix_backend_verify():
    rc = main(["verify", "--suite", "perfect-equality", "--pair", "sl:2",
               "--backend", "matrix:2"])
    assert rc == 0


def test_matrix_backend_compute(capsys):
    rc = main(["compute", "--object", "closure", "--pair", "sl:2",
               "--backend", "matrix:2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["degrees"] == [
        {"d": 0, "dimLhs": 15, "dimRhs": 15, "equal": True}
    ]


def test_unknown_suite_config_error():
    rc = main(["verify", "--suite", "nonsense", "--deg", "3"])
    assert rc == 2


def test_unknown_backend_config_error():
    rc = main(["verify", "--suite", "perfect-equality", "--backend", "weird", "--deg", "3"])
    assert rc == 2


def test_exit_code_ladder():
    cfg = RunConfig()
    rep = Report(cfg)
    rep.add(CheckRecord("a", "x", "pass"))
    assert rep.exit_code() == 0
    rep.add(CheckRecord("b", "y", "unsupported"))
    assert rep.exit_code() == 3
    rep.add(CheckRecord("c", "z", "fail"))
    assert rep.exit_code() == 1  # failures dominate


def test_battery_kinds_deterministic():
    import random

    fctx = FreeContext(2, 3)
    pair = make_orthogonal(3)
    cache = filtration(fctx)
    a = battery_diagonals(pair, fctx, cache, random.Random(3), 12)
    b = battery_diagonals(pair, fctx, cache, random.Random(3), 12)
    assert [k for k, _ in a] == [k for k, _ in b]
    assert all(x.fs == y.fs for (_, x), (_, y) in zip(a, b))
    kinds = {k for k, _ in a}
    assert kinds == {"constant", "geometric", "bracket", "word", "solved"}


def test_bounds_chain_ms_includes_builds(capsys, monkeypatch):
    import nclie.current as cur

    real = cur.overline_bound

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return real(*args, **kwargs)

    monkeypatch.setattr(cur, "overline_bound", slow)
    rc = main(["verify", "--suite", "bounds-chain", "--pair", "jordan:3",
               "--gens", "2", "--deg", "3", "--json"])
    assert rc == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    by_anchor = {c["anchor"]: c for c in checks}
    assert by_anchor["bounds.chain-lower"]["ms"] >= 50
    assert [c["anchor"] for c in checks] == [
        "bounds.chain-lower", "bounds.chain-upper", "bounds.tilde-closed",
        "bounds.overline-closed", "bounds.closure-closed",
    ] + ["bounds.filtered-chain"] * 3
    assert all(c["verdict"] == "pass" for c in checks)


@pytest.mark.parametrize("suite, anchor", [
    ("cartan-classical", "cartan.classical"),
    ("cartan-sl2", "cartan.sl2"),
    ("difference-calculus", "diffcalc"),
])
def test_matrix_backend_free_only_suites_unsupported(suite, anchor, capsys):
    rc = main(["verify", "--suite", suite, "--backend", "matrix:2", "--json"])
    assert rc == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["anchor"], c["verdict"]) for c in checks] == [(anchor, "unsupported")]


def test_matrix_backend_all_suites_exit_three(capsys):
    rc = main(["verify", "--suite", "all", "--backend", "matrix:2", "--json"])
    assert rc == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["verdict"] for c in checks} == {"pass", "unsupported"}
    assert [c["anchor"] for c in checks if c["verdict"] == "unsupported"] == [
        "cartan.classical", "cartan.sl2", "diffcalc",
    ]


def test_matrix_backend_cartan_command_unsupported(capsys):
    rc = main(["cartan", "--pair", "so:3", "--backend", "matrix:2", "--diag", "1 ; 1 ; 1"])
    assert rc == 3
    assert "unsupported" in capsys.readouterr().err


def test_closed_forms_without_a_form_unsupported(capsys):
    rc = main(["verify", "--suite", "closed-forms", "--pair", "gl:2", "--deg", "3", "--json"])
    assert rc == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["anchor"], c["verdict"]) for c in checks] == [("closed.none", "unsupported")]
    assert "gl:2" in checks[0]["name"]


def test_nonstabilizing_powers_unsupported(tmp_path, capsys):
    # g = span{diag(1, 2)} has powers g^k = span{diag(1, 2^k)}, which never
    # stabilize, so the perfectness test has no stopping point
    path = tmp_path / "diag12.json"
    path.write_text(json.dumps({"n": 2, "g_basis": [[[1, 0], [0, 2]]]}))
    rc = main(["verify", "--suite", "perfect-equality", "--pair", str(path), "--deg", "3",
               "--json"])
    assert rc == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["anchor"], c["verdict"]) for c in checks] == [
        ("pairs.perfect", "unsupported"), ("perfect.equality", "pass")]
    assert "stabilized" in checks[0]["detail"]
