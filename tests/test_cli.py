import json
import os
import subprocess
import sys

import pytest

from zonalg import arrangement as arrg
from zonalg import spectra, titsalgebra
from zonalg.cli import (
    main,
    verify_b_gens,
    verify_brenti,
    verify_conjecture,
    verify_cube,
    verify_idempotents,
    verify_thm_a,
    verify_thm_b,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_brenti(capsys):
    code, out, _ = run_cli(capsys, "verify", "brenti", "--type", "A", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {r["case"] for r in payload["results"]} == {"A d=2", "A d=3"}


def test_verify_thm_a_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-a", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["results"][-1]["flats"] == 5


def test_eta_cube_flat(capsys):
    code, out, _ = run_cli(capsys, "eta", "--type", "cube", "--d", "3", "--flat", "X_{1,3}")
    assert code == 0
    payload = json.loads(out)
    assert payload["methods_agree"]
    assert payload["rows"] == [{"flat": "X_{1,3}", "r": 2, "value": 1}]


def test_eta_csv(capsys):
    from zonalg.arrangement import braid, flat_str
    from zonalg.spectra import eta_mobius

    code, out, _ = run_cli(capsys, "eta", "--type", "A", "--d", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "flat,r,value"
    entries = eta_mobius(braid(3)).entries
    assert lines[1:] == [f'"{flat_str(x)}","{r}","{v}"' for (x, r), v in entries.items()]


def test_stats_list_csv(capsys):
    code, out, _ = run_cli(capsys, "stats", "--group", "S", "--d", "2", "--list", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["cycles,exc,des,supp", '"(1)(2)","0","0","{1,2}"', '"(1 2)","1","1","{12}"']


def _format_argv(command, tmp_path):
    """The smallest run of each subcommand."""
    if command == "decompose":
        from zonalg import polyclass

        path = tmp_path / "poly.json"
        path.write_text(json.dumps(polyclass.polytope_to_json(polyclass.permutahedron(2))))
        return ["decompose", "--type", "A", "--input", str(path)]
    return {
        "eta": ["eta", "--type", "A", "--d", "2"],
        "verify": ["verify", "thm-b", "--d", "2"],
        "stats": ["stats", "--group", "S", "--d", "2"],
    }[command]


@pytest.mark.parametrize("command", ["eta", "verify", "decompose", "stats"])
def test_format_text_is_not_an_option(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main(_format_argv(command, tmp_path) + ["--format", "text"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["verify", "decompose", "stats"])
def test_format_csv_without_rows_exits_2(tmp_path, capsys, command):
    # only eta and stats --list print rows; elsewhere csv would print JSON
    code, out, err = run_cli(capsys, *_format_argv(command, tmp_path), "--format", "csv")
    assert code == 2
    assert out == ""
    assert "--format csv" in err


def test_eta_bound_is_input_error(capsys):
    code, _, err = run_cli(capsys, "eta", "--type", "A", "--d", "9")
    assert code == 2
    assert "error" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_stats_histogram(capsys):
    code, out, _ = run_cli(capsys, "stats", "--group", "S", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["exc_histogram"] == {"0": 1, "1": 4, "2": 1}


def test_stats_filtered_by_flat(capsys):
    code, out, _ = run_cli(capsys, "stats", "--group", "B", "--d", "2", "--flat", "{0:1 -1 2 -2}", "--list")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["exc_B_histogram"] == {"1": 2, "2": 1}


def test_decompose_round_trip(tmp_path, capsys):
    from zonalg import polyclass

    p = polyclass.typeB_permutahedron(2)
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(polyclass.polytope_to_json(p)))
    code, out, _ = run_cli(capsys, "decompose", "--type", "B", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["reconstructs"] is True
    assert payload["coefficients"]["Delta{1,2}"] == "1"


def test_decompose_type_a(tmp_path, capsys):
    from zonalg import polyclass

    p = polyclass.permutahedron(3)
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(polyclass.polytope_to_json(p)))
    code, out, _ = run_cli(capsys, "decompose", "--type", "A", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == {
        "Delta{1,2}": "1",
        "Delta{1,3}": "1",
        "Delta{2,3}": "1",
    }


def test_decompose_bad_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "decompose", "--type", "B", "--input", "/no/such/file.json")
    assert code == 2


def test_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "hopf", "--d", "2", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "verify", "hopf", "--d", "2", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2  # identical configuration gives byte-identical output


def test_verify_b_gens_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "b-gens", "--d", "2", "--trials", "2", "--seed", "3")
    code2, out2, _ = run_cli(capsys, "verify", "b-gens", "--d", "2", "--trials", "2", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "name, argv",
    [
        ("ZONALG_MAX_SYMMETRIC", ("stats", "--group", "S", "--d", "3")),
        ("ZONALG_MAX_HYPEROCTAHEDRAL", ("stats", "--group", "B", "--d", "2")),
    ],
)
def test_bad_env_value_exits_2(capsys, monkeypatch, name, argv):
    for value in ("abc", "-1"):
        monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert name in err


def test_bad_env_value_does_not_break_import():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, ZONALG_MAX_SYMMETRIC="abc", PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "zonalg", "stats", "--group", "S", "--d", "3"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "ZONALG_MAX_SYMMETRIC" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("ZONALG_MAX_SYMMETRIC", "5", "error: S_6 exceeds the bound 5"),
        ("ZONALG_MAX_HYPEROCTAHEDRAL", "3", "error: B_4 exceeds the bound 3"),
    ],
)
def test_verify_gf_past_group_bound_exits_2(name, value, message):
    # a fresh interpreter, so that no tally cached by an earlier test hides the bound
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env[name] = value
    proc = subprocess.run(
        [sys.executable, "-m", "zonalg", "verify", "gf"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip() == message


SUITES_WITH_D = ("thm-a", "thm-b", "brenti", "idempotents", "conjecture", "b-gens", "hopf", "cube")


@pytest.mark.parametrize("suite", SUITES_WITH_D)
def test_verify_d_below_smallest_size_exits_2(capsys, suite):
    # every suite but cube starts at d=2, so --d 1 would check nothing
    for d in ("0", "-1") + (() if suite == "cube" else ("1",)):
        code, out, err = run_cli(capsys, "verify", suite, "--d", d)
        assert code == 2
        assert out == ""
        assert "--d" in err


@pytest.mark.parametrize(
    "flag, argvs",
    [
        ("--type", [("brenti", "--type", "C"), ("brenti", "--type", "X", "--d", "2")]),
        ("--trials", [("b-gens", "--d", "2", "--trials", "0"), ("b-gens", "--d", "2", "--trials", "-4")]),
        ("--order", [("gf", "--order", "0"), ("gf", "--order", "-1")]),
        ("--order-b", [("gf", "--order-b", "0"), ("gf", "--order-b", "-2")]),
    ],
)
def test_verify_value_that_checks_nothing_exits_2(capsys, flag, argvs):
    # each of these ran no check, or one other than asked for, and passed
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        out, err = capsys.readouterr()
        value = argv[argv.index(flag) + 1]
        assert exc.value.code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"zonalg verify: error: argument {flag}: " + (
            f"invalid choice: '{value}' (choose from 'A', 'B', 'ALL')" if flag == "--type"
            else f"must be at least 1, got {value}"
        )


def test_verify_brenti_type_in_any_case(capsys):
    for name, cases in (("a", {"A d=2"}), ("b", {"B d=2"}), ("ALL", {"A d=2", "B d=2"})):
        code, out, _ = run_cli(capsys, "verify", "brenti", "--type", name, "--d", "2")
        assert code == 0
        assert {r["case"] for r in json.loads(out)["results"]} == cases


def test_verify_cube_d_1_checks_d_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "cube", "--d", "1")
    assert code == 0
    assert [r["d"] for r in json.loads(out)["results"]] == [1]


@pytest.mark.parametrize(
    "argv",
    [
        ("eta", "--type", "A", "--d", "3", "--flat", "{12}"),
        ("eta", "--type", "B", "--d", "2", "--flat", "{0:1}"),
        ("eta", "--type", "cube", "--d", "3", "--flat", "X_{4}"),
        ("stats", "--group", "S", "--d", "3", "--flat", "{12,23}"),
    ],
)
def test_invalid_flat_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def _raised(table, x, r):
    """A copy of an eta table with the entry at (x, r) raised by one."""
    values = dict(table.entries)
    values[(x, r)] = values.get((x, r), 0) + 1
    return spectra.EtaTable(table.arr, table.method, values)


def test_verify_thm_b_names_first_mismatch(monkeypatch):
    arr = arrg.type_b(3)
    x = arrg.flats(arr)[5]
    want = spectra.eta_mobius(arr).value(x, 1)
    real = spectra.eta_permutations
    monkeypatch.setattr(
        spectra, "eta_permutations", lambda a: _raised(real(a), x, 1) if a == arr else real(a)
    )
    report = verify_thm_b(3)
    assert report["ok"] is False
    good, bad = report["results"]
    assert good["ok"] and "first_mismatch" not in good
    assert bad["mobius_vs_permutations"] is False
    assert bad["first_mismatch"] == {
        "flat": arrg.flat_str(x),
        "r": 1,
        "mobius": want,
        "permutations": want + 1,
    }


def test_verify_cube_names_first_mismatch(monkeypatch):
    arr = arrg.coordinate(3)
    x = arrg.flats(arr)[3]
    r = arr.d - x.dim
    real = spectra.eta_mobius
    monkeypatch.setattr(
        spectra, "eta_mobius", lambda a: _raised(real(a), x, r) if a == arr else real(a)
    )
    report = verify_cube(3, 2)
    assert report["ok"] is False
    assert all(e["ok"] and "first_mismatch" not in e for e in report["results"][:2])
    bad = report["results"][2]
    assert bad["mobius_indicator"] is False
    assert bad["first_mismatch"] == {"flat": arrg.flat_str(x), "r": r, "value": 2, "want": 1}


def test_verify_conjecture_names_first_failing_group(monkeypatch):
    real = spectra.conjecture_check

    def failing(d):
        rep = real(d)
        if d == 3:
            rep["groups"][2].update(rank=rep["groups"][2]["rank"] - 1, ok=False)
            rep["groups"][4].update(ok=False)
            rep["all_independent"] = False
        return rep

    monkeypatch.setattr(spectra, "conjecture_check", failing)
    report = verify_conjecture(3)
    assert report["ok"] is False
    good, bad = report["results"]
    assert good["ok"] and "first_mismatch" not in good
    assert list(bad) == ["d", "independent", "first_mismatch", "extremal_products_fixed", "ok"]
    assert bad["independent"] is False and bad["ok"] is False
    group = real(3)["groups"][2]
    assert bad["first_mismatch"] == {
        "flat": group["flat"],
        "r": group["r"],
        "count": group["count"],
        "rank": group["rank"] - 1,
        "eta": group["eta"],
    }


def test_verify_thm_a_names_first_mismatch(monkeypatch):
    arr = arrg.braid(3)
    x = arrg.flats(arr)[2]
    want = spectra.eta_mobius(arr).value(x, 1)
    real = spectra.eta_permutations
    monkeypatch.setattr(
        spectra, "eta_permutations", lambda a: _raised(real(a), x, 1) if a == arr else real(a)
    )
    report = verify_thm_a(3, 2)
    assert report["ok"] is False
    good, bad = report["results"]
    assert good["ok"] and "first_mismatch" not in good
    assert bad["mobius_vs_permutations"] is False
    assert bad["first_mismatch"] == {
        "flat": arrg.flat_str(x),
        "r": 1,
        "mobius": want,
        "permutations": want + 1,
    }


@pytest.mark.parametrize(
    "route, verify, arr, key",
    [
        ("eta_idempotent_rank", verify_thm_a, arrg.braid(3), "idempotent_rank_agrees"),
        ("eta_gamma_rank", verify_cube, arrg.coordinate(3), "gamma_rank_agrees"),
    ],
)
def test_rank_routes_name_first_mismatch(monkeypatch, route, verify, arr, key):
    x = arrg.flats(arr)[1]
    want = spectra.eta_mobius(arr).value(x, 1)
    real = getattr(spectra, route)
    monkeypatch.setattr(spectra, route, lambda d: _raised(real(d), x, 1) if d == arr.d else real(d))
    report = verify(3, 3)
    assert report["ok"] is False
    *good, bad = report["results"]
    assert all(e["ok"] and "rank_mismatch" not in e for e in good)
    assert bad[key] is False and "first_mismatch" not in bad
    assert bad["rank_mismatch"] == {"flat": arrg.flat_str(x), "r": 1, "rank": want + 1, "mobius": want}


def test_verify_brenti_names_both_polynomials(monkeypatch):
    from zonalg import gfseries

    real = gfseries.eulerian_A
    bumped = real(3) + gfseries.RatPoly.z()
    monkeypatch.setattr(gfseries, "eulerian_A", lambda d: bumped if d == 3 else real(d))
    report = verify_brenti("A", 3)
    assert report["ok"] is False
    good, bad = report["results"]
    assert good == {"case": "A d=2", "ok": True}
    assert bad == {
        "case": "A d=3",
        "ok": False,
        "first_mismatch": {"h_polynomial": str(real(3)), "eulerian": str(bumped)},
    }


def _assert_idempotents_name(witness):
    report = verify_idempotents(3)
    assert report["ok"] is False
    good, bad = report["results"]
    assert good == {"d": 2, "adams": True, "gamma": True, "ok": True}
    other = "adams" if witness["family"] == "gamma" else "gamma"
    assert bad[witness["family"]] is False and bad[other] is True and bad["ok"] is False
    assert bad["first_mismatch"] == witness


def test_verify_idempotents_names_failed_family_check(monkeypatch):
    real = titsalgebra.EulerianFamily.check

    def check(fam):
        if fam.arr == arrg.coordinate(3):
            raise AssertionError("family does not sum to H_O")
        return real(fam)

    monkeypatch.setattr(titsalgebra.EulerianFamily, "check", check)
    _assert_idempotents_name({"family": "gamma", "message": "family does not sum to H_O"})


@pytest.mark.parametrize(
    "name, fails, witness",
    [
        (
            "is_characteristic",
            lambda w, t: w.arr == arrg.braid(3) and t == 3,
            {"family": "adams", "t": 3, "check": "is_characteristic"},
        ),
        (
            "family_reconstructs",
            lambda w, fam, t: fam.arr == arrg.coordinate(3) and t == 5,
            {"family": "gamma", "t": 5, "check": "family_reconstructs"},
        ),
    ],
)
def test_verify_idempotents_names_failing_t(monkeypatch, name, fails, witness):
    real = getattr(titsalgebra, name)
    monkeypatch.setattr(titsalgebra, name, lambda *args: not fails(*args) and real(*args))
    _assert_idempotents_name(witness)


def test_verify_b_gens_names_first_failing_trial(monkeypatch):
    real = spectra.b_decompose
    calls = []
    seen = {}

    def decompose(p):
        co = real(p)
        if p.arr.d == 3:
            calls.append(p)
            # call 1 is the permutahedron, call 3 the second random trial
            if len(calls) == 3:
                seen["real"] = co
                g = next(iter(co))
                co = {**co, g: co[g] + 1}
                seen["bumped"] = co
        return co

    monkeypatch.setattr(spectra, "b_decompose", decompose)
    report = verify_b_gens(3, 4, 0)
    assert report["ok"] is False
    good, bad = report["results"]
    assert good["ok"] and "first_mismatch" not in good
    assert bad["random_reconstruct"] is False
    label = spectra.GeneratorFamilyB.label
    assert bad["first_mismatch"] == {
        "d": 3,
        "trial": 1,
        "reconstructs": False,
        "generating": {label(g): str(c) for g, c in seen["real"].items() if c},
        "decomposed": {label(g): str(c) for g, c in seen["bumped"].items() if c},
    }


def test_verify_identities_report_is_pinned():
    import hashlib

    from zonalg.gfseries import verify_identities

    report = json.dumps(verify_identities(8, 6), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == VERIFY_IDENTITIES_SHA256


def _decompose_json(tmp_path, capsys, data, kind="A"):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    return run_cli(capsys, "decompose", "--type", kind, "--input", str(path))


@pytest.mark.parametrize("d", [3.7, 3.0, "3", True])
def test_polytope_json_d_not_an_integer_exits_2(tmp_path, capsys, d):
    data = {"arrangement": "A", "d": d, "points": [["1", "2", "3"], ["2", "1", "3"]]}
    code, out, err = _decompose_json(tmp_path, capsys, data)
    assert code == 2 and out == ""
    assert f"the dimension d must be an integer, got {d!r}" in err


@pytest.mark.parametrize("points", [[[0.1, 0], [0, 0.1]], [[True, 0], [0, 1]], [[1.0, 0], [0, 1]]])
def test_polytope_json_coordinate_not_exact_exits_2(tmp_path, capsys, points):
    data = {"arrangement": "A", "d": 2, "points": points}
    code, out, err = _decompose_json(tmp_path, capsys, data)
    assert code == 2 and out == ""
    assert f"got {points[0][0]!r}" in err


def test_polytope_json_takes_integers_and_fraction_strings(tmp_path, capsys):
    data = {"arrangement": "A", "d": 2, "points": [["1/10", 0], [0, "1/10"]]}
    code, out, _ = _decompose_json(tmp_path, capsys, data)
    assert code == 0 and json.loads(out)["reconstructs"] is True
    assert json.loads(out)["coefficients"] == {"Delta{1,2}": "1/10"}


@pytest.mark.parametrize("name", ["braid", "BRAID", "a"])
def test_polytope_json_and_eta_share_the_arrangement_names(tmp_path, capsys, name):
    from zonalg import polyclass

    data = polyclass.polytope_to_json(polyclass.permutahedron(3))
    code, out, _ = _decompose_json(tmp_path, capsys, dict(data, arrangement=name))
    assert code == 0 and json.loads(out)["reconstructs"] is True
    code, out, _ = run_cli(capsys, "eta", "--type", name, "--d", "3")
    assert code == 0 and json.loads(out)["arrangement"] == "A"


@pytest.mark.parametrize("name", ["D", 3, None])
def test_polytope_json_unknown_arrangement_exits_2(tmp_path, capsys, name):
    data = {"arrangement": name, "d": 2, "points": [["0", "0"]]}
    code, _, err = _decompose_json(tmp_path, capsys, data)
    assert code == 2
    assert f"unknown arrangement type {name!r}" in err


# sha256 of the stdout of ``zonalg verify all --quick --seed 1`` from a
# known-good run: any change to a report shows here, and a deliberate one
# records the new digest
VERIFY_ALL_QUICK_SHA256 = "1bbc3cc78c9b414ada1505e362893b6068845d4fa2165d0a83d542802987aabb"

# sha256 of ``json.dumps(verify_identities(8, 6), sort_keys=True)``, the
# series report at its default orders, from a known-good run
VERIFY_IDENTITIES_SHA256 = "b4e248917a24ce71a222ef0a4a76e62ac8d20cd88054f1b0e01b38c31481d346"


def test_verify_all_quick_output_is_pinned():
    import hashlib

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZONALG_")}
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "zonalg", "verify", "all", "--quick", "--seed", "1"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_QUICK_SHA256


def test_verify_hopf_reports_each_n_once(capsys, monkeypatch):
    from zonalg import hopfgp

    calls = []
    for name in ("hopf_axiom_check", "mc_coideal_check", "two_one_monoid_check"):
        monkeypatch.setattr(hopfgp, name, lambda n, seed, name=name: calls.append((name, n)) or {"ok": True})
    code, out, _ = run_cli(capsys, "verify", "hopf", "--d", "4")
    assert code == 0
    assert [r["n"] for r in json.loads(out)["results"]] == [2, 3, 4]
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 9


def test_polytope_json_point_outside_the_vertices_exits_2(tmp_path, capsys):
    # (3, 1, 0) and (0, 1, 3) are the chamber maximizers; (0, 0, 0) and
    # (1, 1, 1) have another coordinate sum, so they lie off their hull
    data = {"arrangement": "A", "d": 3, "points": [[0, 0, 0], [3, 1, 0], [0, 1, 3], [1, 1, 1]]}
    code, out, err = _decompose_json(tmp_path, capsys, data)
    assert code == 2 and out == ""
    assert "point ['0', '0', '0'] lies outside" in err


def test_polytope_json_keeps_points_inside_the_vertices(tmp_path, capsys):
    from zonalg import polyclass

    p = polyclass.permutahedron(3)
    inside = [[str((a + b) / 2) for a, b in zip(p.verts[0], p.verts[1])], ["2", "2", "2"]]
    data = dict(polyclass.polytope_to_json(p), points=polyclass.polytope_to_json(p)["points"] + inside)
    code, out, _ = _decompose_json(tmp_path, capsys, data)
    assert code == 0 and json.loads(out)["reconstructs"] is True


@pytest.mark.parametrize(
    "kind, point",
    [("A", ["151/50", "149/100", "149/100"]), ("B", ["201/100", "0"])],  # x1 = 3 + 1/50, x1 = 2 + 1/100
)
def test_polytope_json_point_just_past_a_facet_exits_2(tmp_path, capsys, kind, point):
    from zonalg import polyclass

    # the permutahedron of A3 (of B2) has the facet x1 = 3 (x1 = 2)
    p = polyclass.permutahedron(3) if kind == "A" else polyclass.typeB_permutahedron(2)
    data = polyclass.polytope_to_json(p)
    code, out, err = _decompose_json(tmp_path, capsys, dict(data, points=data["points"] + [point]), kind)
    assert code == 2 and out == ""
    assert f"point {point} lies outside" in err


def test_decompose_names_the_wall_a_non_deformation_fails(tmp_path, capsys):
    # every chamber has one maximizer, but the vertices across the wall 13|2
    # do not differ along e1 - e3
    data = {"arrangement": "A", "d": 3, "points": [[0, 0, 0], [3, -1, -2], [-1, 3, -2]]}
    code, out, err = _decompose_json(tmp_path, capsys, data)
    assert code == 2 and out == ""
    assert "the vertices across the wall 13|2 differ off its normal" in err


@pytest.mark.parametrize(
    "kind, d, message",
    [
        ("B", 3, "type-B decompositions need a type-B deformation with d <= 4"),
        ("A", 6, "type-A decompositions need a braid deformation with d <= 5"),
    ],
)
def test_decompose_on_the_wrong_arrangement_exits_2_with_the_solver_message(tmp_path, capsys, kind, d, message):
    from zonalg import polyclass

    data = polyclass.polytope_to_json(polyclass.simplex(arrg.braid(d), {1, 2}))
    code, out, err = _decompose_json(tmp_path, capsys, data, kind)
    assert code == 2 and out == ""
    assert message in err


def test_flat_in_another_spelling_exits_2_with_the_printed_form(capsys):
    code, out, err = run_cli(capsys, "eta", "--type", "A", "--d", "3", "--flat", "{3,12}")
    assert code == 2 and out == ""
    assert "; write it {12,3}" in err
