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
from nclie import cli, coeffalg, current
from nclie.coeffalg import FreeContext, StructureContext
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


def test_abelian_closed_form_over_matrices_passes(capsys):
    rc = main(["verify", "--suite", "closed-forms", "--pair", "gl:1", "--backend", "matrix:2",
               "--json"])
    checks = {c["anchor"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert rc == 0
    assert checks["closed.abelian"]["verdict"] == "pass"
    assert checks["closed.abelian"]["degrees"] == [{"d": 0, "dimLhs": 4, "dimRhs": 4, "equal": True}]


def test_battery_short_of_a_verdict_draws_another_round(capsys):
    # the first 20 diagonals of seed 94 hold only 4 negatives; one more round
    # from the same generator brings both verdicts to 5
    rc = main(["verify", "--suite", "cartan-classical", "--pair", "sp:4", "--deg", "4",
               "--seed", "94", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 0
    assert [(c["verdict"], c["detail"]) for c in checks] == [
        ("pass", "29 positive, 11 negative"), ("pass", "29/11, need 5 of each")]
    assert checks[0]["name"] == "sp:4: criterion matches direct test on 40 diagonals"


@pytest.mark.parametrize("count", [1, 2, 3])
def test_small_battery_rounds_continue_the_kind_cycle(capsys, count):
    # a round of fewer than four diagonals stops short of the word
    # perturbations; the next round takes the cycle of kinds up where it left
    # off, so it reaches them and the battery finds both verdicts
    rc = main(["verify", "--suite", "cartan-classical", "--count", str(count), "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 0
    assert [c["verdict"] for c in checks] == ["pass", "pass"]
    if count == 3:
        assert checks[0]["name"] == "so:3: criterion matches direct test on 6 diagonals"


def test_deep_commutator_index_exits_zero(capsys):
    assert main(["compute", "--object", "commutator-space", "--k", "5000", "--deg", "3"]) == 0
    assert "total dim 0" in capsys.readouterr().out


@pytest.mark.parametrize("backend, ctx, dim, built", [
    ("free", FreeContext(2, 3), 0, 4), ("matrix:2", StructureContext.matrix_algebra(2), 4, 1),
], ids=["free", "matrix:2"])
def test_ideal_past_the_truncation_degree_exits_zero(capsys, backend, ctx, dim, built):
    # the ideals stop at their first repeat: in a free context I_k lies in
    # degree k + 1 or more, so I_k = 0 for k >= D and nothing is built past
    # I_3; over M_2, I_1 = I_0 = M_2
    assert main(["compute", "--object", "ideal", "--k", "1000000000", "--deg", "3",
                 "--backend", backend]) == 0
    assert f"total dim {dim}" in capsys.readouterr().out
    assert len(filtration(ctx)._ideals._terms) <= built


@pytest.mark.parametrize("pair", ["sp:4", "sl:2", "so:3", "sl2irrep:3"])
def test_cartan_suites_at_degree_one(pair, capsys):
    # at D = 1 the random group elements are drawn from words of length 1
    rc = main(["verify", "--suite", "cartan-classical,cartan-sl2", "--pair", pair, "--deg", "1",
               "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 0
    assert {c["verdict"] for c in checks} <= {"pass", "vacuous"}


def test_battery_rounds_are_capped(monkeypatch, capsys):
    # with every diagonal outside the group, no number of rounds gives a positive
    monkeypatch.setattr(cli.gr, "cartan_criterion_classical", lambda diag, cache: (False, []))
    monkeypatch.setattr(cli.gr, "in_group_direct",
                        lambda *args: cli.gr.MembershipReport(False, 4, 0))
    rc = main(["verify", "--suite", "cartan-classical", "--pair", "sp:4", "--deg", "4",
               "--count", "8", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 1
    drawn = 8 * cli.BATTERY_ROUNDS
    assert checks[0]["name"] == f"sp:4: criterion matches direct test on {drawn} diagonals"
    assert [(c["verdict"], c["detail"]) for c in checks] == [
        ("pass", f"0 positive, {drawn} negative"), ("fail", f"0/{drawn}, need 2 of each")]


@pytest.mark.parametrize("pair", ["sp:2", "so:2"])
def test_classical_battery_at_n_2_is_vacuous(pair, capsys):
    # at n = 2 the classical criterion always holds: for i = 1 it tests
    # f1 f2 - f1 f2 = 0, for i = 2 it tests [f2, f1], which lies in I_1
    rc = main(["verify", "--suite", "cartan-classical", "--pair", pair, "--deg", "3", "--json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert rc == 0
    assert [(c["anchor"], c["verdict"]) for c in checks] == [
        ("cartan.classical.equivalence", "pass"), ("cartan.classical.coverage", "vacuous")]


@pytest.mark.parametrize("pair, backend, rc, unsupported", [
    ("sp:2", "free", 0, []),
    ("so:2", "free", 1, []),
    ("so:2", "matrix:2", 1, ["cartan.classical", "cartan.sl2", "diffcalc"]),
], ids=["sp:2-0-unsupported0", "so:2-1-unsupported1", "so:2-matrix:2"])
def test_verify_all_at_n_2(pair, backend, rc, unsupported, capsys):
    # so:2 is abelian, outside the orthogonal form's hypothesis of a semisimple
    # g; its powers alternate with period 2 (g = g^3 = span J, g^2 = span 1),
    # and over that period the perfectness test ends in a verdict: [g, g^2] g
    # + (g^2 meet g^3) = 0 is not g^3, so so:2 is not perfect.  Over M_2 the
    # closed-form series alternate with the powers and stop with period 2;
    # only the suites that need a free context are unsupported
    assert main(["verify", "--suite", "all", "--pair", pair, "--backend", backend,
                 "--deg", "3", "--json"]) == rc
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["anchor"] for c in checks if c["verdict"] == "unsupported"] == unsupported
    assert [c["anchor"] for c in checks if c["verdict"] == "fail"] == (
        [] if pair == "sp:2" else ["pairs.perfect"])
    assert ("closed.orthogonal" in {c["anchor"] for c in checks}) == (pair == "sp:2")


def test_matrix_backend_all_suites_exit_three(capsys):
    rc = main(["verify", "--suite", "all", "--backend", "matrix:2", "--json"])
    assert rc == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["verdict"] for c in checks} == {"pass", "unsupported"}
    assert [c["anchor"] for c in checks if c["verdict"] == "unsupported"] == [
        "cartan.classical", "cartan.sl2", "diffcalc",
    ]


@pytest.mark.parametrize("deg, verdict", [(2, "vacuous"), (3, "pass")])
def test_reading_pin_vacuous_below_degree_three(deg, verdict, capsys):
    rc = main(["verify", "--suite", "difference-calculus", "--pair", "sp:4",
               "--deg", str(deg), "--json"])
    assert rc == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    pin = [c for c in checks if c["anchor"] == "diffcalc.reading-pin"]
    assert [c["verdict"] for c in pin] == [verdict]
    assert ("degree-3 terms" in pin[0]["detail"]) == (verdict == "vacuous")


def test_one_generator_keeps_the_report_and_exits_three(capsys):
    rc = main(["verify", "--suite", "filtration-identities,difference-calculus", "--pair", "sl:2",
               "--gens", "1", "--deg", "3", "--json"])
    assert rc == 3
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["anchor"] for c in checks if c["verdict"] == "unsupported"] == ["diffcalc.reading-pin"]
    assert {c["verdict"] for c in checks} == {"pass", "unsupported"}
    assert any(c["anchor"].startswith("filtration.") for c in checks)
    assert sum(c["anchor"].startswith("diffcalc.") for c in checks) == 6


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


@pytest.mark.parametrize("content", [
    '{"g_basis": [[[0, 1], [0, 0]]]}',                               # no "n"
    '{"n": 2, "g_basis": [[[0, "1/0"], [0, 0]]]}',                   # zero denominator
    '[[[0, 1], [0, 0]]]',                                            # not an object
    '{"n": 2, "g_basis": [[[1, 0]]]}',                               # 1 x 2 matrix for n = 2
    '{"n": 2, "g_basis": [[[0, 1], [0, 0], [0, 0]]]}',               # 3 x 2 matrix
    '{"n": 2, "g_basis": [[[0, 1], [0, 0]]], "algebra_basis": 3}',   # algebra not a list
    '{"n": -2, "g_basis": []}',                                      # negative size
    '{"n": 2, "g_basis": [[[0, 1], [0, 0]]], "name": 5}',            # name not a string
    None,                                                            # no such file
    '{"n": 2, "g_basis": [[[0, 1e400], [0, 0]]]}',                   # infinite entry
    '{"n": 2, "g_basis": [[[0, 1], [0, 0]]], "semisimple": "no"}',   # semisimple not a boolean
    '{"n": 2.5, "g_basis": [[[0, 1], [0, 0]]]}',                     # size not an integer
    '{"n": 2, "g_basis": [[[0, true], [0, 0]]]}',                    # boolean entry
])
def test_malformed_pair_file_config_error(tmp_path, capsys, content):
    path = tmp_path / "pair.json"
    if content is not None:
        path.write_text(content)
    rc = main(["verify", "--suite", "perfect-equality", "--pair", str(path), "--deg", "3"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_compute_rejects_m_cap_below_one(capsys, cap):
    rc = main(["compute", "--object", "closure", "--pair", "sl:2", "--deg", "3", "--m-cap", cap])
    assert rc == 2
    assert "--m-cap" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["compute", "--object", "tilde", "--pair", "sp:4"],
    ["compute", "--object", "semisimple", "--pair", "sp:4"],
    ["verify", "--suite", "closed-forms", "--pair", "jordan:4"],
])
def test_series_past_the_cap_exits_three(monkeypatch, capsys, args):
    monkeypatch.setattr(current, "_hard_cap", lambda fctx, pair: 2)
    assert main(args + ["--deg", "4"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "within 2 steps" in captured.out + captured.err


def test_out_to_missing_directory_config_error(tmp_path, capsys):
    rc = main(["verify", "--suite", "perfect-equality", "--pair", "sl:2", "--deg", "3",
               "--out", str(tmp_path / "missing" / "report.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_rejects_count_below_one(monkeypatch, capsys, count):
    monkeypatch.setattr(cli, "run_suite", lambda *args: pytest.fail("a suite ran"))
    rc = main(["verify", "--suite", "cartan-classical", "--pair", "sp:4", "--deg", "3",
               "--count", count])
    assert rc == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["compute", "--object", "closure", "--backend", "matrix:33"],
    ["compute", "--object", "closure", "--backend", "matrix:0"],
    ["compute", "--object", "closure", "--backend", "matrix:-2"],
    ["compute", "--object", "closure", "--pair", "sl:40", "--deg", "2"],
    ["verify", "--suite", "closed-forms", "--pair", "sp:1000", "--deg", "2"],
])
def test_oversized_matrix_size_config_error(monkeypatch, capsys, args):
    # the refusal comes before any multiplication table is built
    def forbidden(*args, **kwargs):
        raise AssertionError("a table was built")
    monkeypatch.setattr(coeffalg.StructureContext, "_setup", forbidden)
    assert main(args) == 2
    assert "limit of" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["compute", "--object", "ideal", "--gens", "2", "--deg", "60"],
    ["verify", "--suite", "perfect-equality", "--gens", "x,x", "--deg", "3"],
])
def test_oversized_or_ambiguous_free_context_config_error(monkeypatch, capsys, args):
    # the refusal comes before any word is built
    monkeypatch.setattr(coeffalg, "itertools", None)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_tensor_width_past_the_budget_exits_2(monkeypatch, capsys):
    # sp:4 at m=2, D=10 has 2,046 words, within MAX_WORDS, but a block of
    # 1,024 * 16 columns in F (x) M_4: refused before any span is built
    monkeypatch.setattr(current, "bracket_saturate", lambda *args, **kwargs: pytest.fail("saturated"))
    t0 = time.monotonic()
    assert main(["compute", "--pair", "sp:4", "--gens", "2", "--deg", "10"]) == 2
    assert time.monotonic() - t0 < 10
    assert f"limit of {current.MAX_TENSOR_WIDTH}" in capsys.readouterr().err


def test_large_tilde_cap_exits_zero(capsys):
    # the partial sums of the filtration ideals stop at a proven zero factor
    # count, so the cap costs only its own terms
    assert main(["compute", "--object", "tilde", "--m-cap", "1500", "--deg", "3"]) == 0
    assert "total dim" in capsys.readouterr().out
