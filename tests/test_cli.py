import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import artlab
from artlab import cli, galmod, lemma2, modarith, modcurve
from artlab.cli import dispatch, emit_report, cache_roundtrip
from artlab.galmod import almost_rational_set, cyclotomic_module
from artlab.lemma2 import failure_scan
from artlab.modcurve import SurveyRecord, level_invariants


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenJson:
    def test_mu_11(self, capsys):
        code, out, _ = run(capsys, "mu", "11", "--json")
        assert code == 0
        assert out == ('{"name":"mu_11","points":11,"ar_points":[[0]],'
                       '"expected":null,"verdict":"not-checked","ms":0}\n')

    def test_lemma2_scan(self, capsys):
        code, out, _ = run(capsys, "lemma2", "scan", "--e", "1", "--max", "100", "--json")
        assert code == 0
        assert out == '{"e":1,"max":100,"failures":[1,2,3,6]}\n'

    def test_level_37_three_div_n(self, capsys):
        code, out, _ = run(capsys, "level", "37", "--json")
        assert code == 0
        assert '"three_div_n":true' in out
        obj = json.loads(out)
        assert list(obj) == ["N", "n", "genus", "hyperelliptic",
                             "plus_genus_zero", "N_mod_9", "three_div_n"]

    def test_art_report_field_order(self, capsys):
        _, out, _ = run(capsys, "theorem3", "23", "--json")
        obj = json.loads(out)
        assert list(obj) == ["name", "points", "ar_points", "expected", "verdict", "ms"]
        assert obj["verdict"] == "pass" and obj["ms"] == 0

    def test_survey_one_line_per_level(self, capsys):
        code, out, _ = run(capsys, "survey", "--from", "23", "--to", "60", "--json")
        assert code == 0
        lines = out.strip().split("\n")
        assert [json.loads(l)["N"] for l in lines] == [23, 29, 31, 37, 41, 43, 47, 53, 59]
        assert all(json.loads(l)["verdict"] == "pass" for l in lines)

    def test_empty_survey_emits_nothing(self, capsys):
        code, out, _ = run(capsys, "survey", "--from", "23", "--to", "22", "--json")
        assert code == 0 and out == ""


MODULE = {"name": "fused_example", "factors": [4, 2], "galois": [[[1, 0], [1, 1]]]}

# Exact stdout and exit code of every command family, text and --json mode.
GOLDEN = [
    (('mu', '12'), 0, (
        'name    : mu_12\n'
        'points  : 12\n'
        'a.r.    : 6 point(s)\n'
        '          (0) (2) (4) (6) (8) (10)\n'
        'verdict : not-checked\n'
        'ms      : 0\n'
    )),
    (('mu', '12', '--json'), 0, (
        '{"name":"mu_12","points":12,"ar_points":[[0],[2],[4],[6],[8],[10]],"expected":null,"verdict":"not-checked","ms":0}\n'
    )),
    (('analyze', 'MODULE'), 0, (
        'name    : fused_example\n'
        'points  : 8\n'
        'a.r.    : 4 point(s)\n'
        '          (0,0) (0,1) (2,0) (2,1)\n'
        'verdict : not-checked\n'
        'ms      : 0\n'
    )),
    (('analyze', 'MODULE', '--json'), 0, (
        '{"name":"fused_example","points":8,"ar_points":[[0,0],[0,1],[2,0],[2,1]],"expected":null,"verdict":"not-checked","ms":0}\n'
    )),
    (('homothety', '--m', '16', '--e', '2', '--dim', '1'), 0, (
        'name    : hom_16_e2_d1\n'
        'points  : 16\n'
        'a.r.    : 8 point(s)\n'
        '          (0) (2) (4) (6) (8) (10) (12) (14)\n'
        'verdict : not-checked\n'
        'ms      : 0\n'
    )),
    (('homothety', '--m', '16', '--e', '2', '--dim', '1', '--json'), 0, (
        '{"name":"hom_16_e2_d1","points":16,"ar_points":[[0],[2],[4],[6],[8],[10],[12],[14]],"expected":null,"verdict":"not-checked","ms":0}\n'
    )),
    (('theorem3', '23'), 0, (
        'name    : eis_23\n'
        'points  : 121\n'
        'a.r.    : 11 point(s)\n'
        '          (0,0) (1,0) (2,0) (3,0) (4,0) (5,0) (6,0) (7,0) (8,0) (9,0) (10,0)\n'
        'expected: 11 point(s)\n'
        'verdict : pass\n'
        'ms      : 0\n'
    )),
    (('theorem3', '23', '--json'), 0, (
        '{"name":"eis_23","points":121,"ar_points":[[0,0],[1,0],[2,0],[3,0],[4,0],[5,0],[6,0],[7,0],[8,0],[9,0],[10,0]],"expected":[[0,0],[1,0],[2,0],[3,0],[4,0],[5,0],[6,0],[7,0],[8,0],[9,0],[10,0]],"verdict":"pass","ms":0}\n'
    )),
    (('level', '37'), 0, (
        'N               : 37\n'
        'n               : 3\n'
        'genus           : 2\n'
        'hyperelliptic   : true\n'
        'plus_genus_zero : false\n'
        'N_mod_9         : 1\n'
        'three_div_n     : true\n'
    )),
    (('level', '37', '--json'), 0, (
        '{"N":37,"n":3,"genus":2,"hyperelliptic":true,"plus_genus_zero":false,"N_mod_9":1,"three_div_n":true}\n'
    )),
    (('survey', '--from', '23', '--to', '41'), 0, (
        '    N     n genus hyper plus0 N%9   3|n verdict\n'
        '   23    11     2  true  true   5 false pass\n'
        '   29     7     2  true  true   2 false pass\n'
        '   31     5     2  true  true   4 false pass\n'
        '   37     3     2  true false   1  true pass\n'
        '   41    10     3  true  true   5 false pass\n'
    )),
    (('survey', '--from', '23', '--to', '41', '--json'), 0, (
        '{"N":23,"n":11,"genus":2,"hyperelliptic":true,"plus_genus_zero":true,"N_mod_9":5,"three_div_n":false,"verdict":"pass"}\n'
        '{"N":29,"n":7,"genus":2,"hyperelliptic":true,"plus_genus_zero":true,"N_mod_9":2,"three_div_n":false,"verdict":"pass"}\n'
        '{"N":31,"n":5,"genus":2,"hyperelliptic":true,"plus_genus_zero":true,"N_mod_9":4,"three_div_n":false,"verdict":"pass"}\n'
        '{"N":37,"n":3,"genus":2,"hyperelliptic":true,"plus_genus_zero":false,"N_mod_9":1,"three_div_n":true,"verdict":"pass"}\n'
        '{"N":41,"n":10,"genus":3,"hyperelliptic":true,"plus_genus_zero":true,"N_mod_9":5,"three_div_n":false,"verdict":"pass"}\n'
    )),
    (('survey', '--from', '23', '--to', '22'), 0, (
        "")),
    (('survey', '--from', '23', '--to', '22', '--json'), 0, (
        "")),
    (('lemma2', 'scan', '--e', '2', '--max', '40'), 0, (
        'e       : 2\n'
        'max     : 40\n'
        'failures: 1 2 3 4 5 6 7 8 10 12 14 15 20 21 24 28 30 35 40\n'
    )),
    (('lemma2', 'scan', '--e', '2', '--max', '40', '--json'), 0, (
        '{"e":2,"max":40,"failures":[1,2,3,4,5,6,7,8,10,12,14,15,20,21,24,28,30,35,40]}\n'
    )),
    (('lemma2', 'count', '--e', '3', '--p', '7'), 0, (
        'e=3 p=7: 9 solution(s)\n'
    )),
    (('lemma2', 'count', '--e', '3', '--p', '7', '--json'), 0, (
        '{"e":3,"p":7,"count":9}\n'
    )),
    (('lemma2', 'witness', '--p', '5', '--n', '2', '--e', '1'), 0, (
        'p^n     : 5^2  e=1  k=0\n'
        'candidate x=6 y=21 (identity_x=true, identity_y=true)\n'
        'fallback: false\n'
        'result  : x=6 y=21 u=6 v=21\n'
    )),
    (('lemma2', 'witness', '--p', '5', '--n', '2', '--e', '1', '--json'), 0, (
        '{"p":5,"n":2,"e":1,"k":0,"candidate_x":6,"candidate_y":21,"identity_x":true,"identity_y":true,"fallback":false,"found":true,"x":6,"y":21,"u":6,"v":21}\n'
    )),
    (('lemma2', 'witness', '--p', '2', '--n', '2', '--e', '2'), 0, (
        'p^n     : 2^2  e=2  k=1\n'
        'candidate x=3 y=3 (identity_x=false, identity_y=false)\n'
        'fallback: true\n'
        'result  : no pair exists\n'
    )),
    (('lemma2', 'witness', '--p', '2', '--n', '2', '--e', '2', '--json'), 0, (
        '{"p":2,"n":2,"e":2,"k":1,"candidate_x":3,"candidate_y":3,"identity_x":false,"identity_y":false,"fallback":true,"found":false}\n'
    )),
    (('lemma2', 'pair', '--m', '16', '--e', '2'), 0, (
        'm=16 e=2: x=9 y=9 (u=3, v=3)\n'
    )),
    (('lemma2', 'pair', '--m', '16', '--e', '2', '--json'), 0, (
        '{"m":16,"e":2,"found":true,"x":9,"y":9,"u":3,"v":3}\n'
    )),
    (('lemma2', 'pair', '--m', '6', '--e', '1'), 0, (
        'm=6 e=1: no pair\n'
    )),
    (('lemma2', 'pair', '--m', '6', '--e', '1', '--json'), 0, (
        '{"m":6,"e":1,"found":false}\n'
    )),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("argv,code,out", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
    def test_stdout_and_exit_code(self, tmp_path, capsys, argv, code, out):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(MODULE))
        argv = [str(path) if a == "MODULE" else a for a in argv]
        assert run(capsys, *argv)[:2] == (code, out)

    def test_failed_verdicts_exit_1(self, capsys, monkeypatch):
        fail = almost_rational_set(cyclotomic_module(3), expected=[(0,)])
        monkeypatch.setattr(modcurve, "theorem3_check", lambda N, **caps: fail)
        bad_side = dataclasses.replace(level_invariants(37), plus_quotient_genus_zero=True,
                                       three_divides_n=True)
        monkeypatch.setattr(modcurve, "survey", lambda start, stop, threads=1, **caps:
                            [SurveyRecord(bad_side, "pass")])
        assert run(capsys, "theorem3", "23")[:2] == (1, (
            "name    : mu_3\n"
            "points  : 3\n"
            "a.r.    : 3 point(s)\n"
            "          (0) (1) (2)\n"
            "expected: 1 point(s)\n"
            "verdict : fail\n"
            "ms      : 0\n"))
        assert run(capsys, "theorem3", "23", "--json")[:2] == (1, (
            '{"name":"mu_3","points":3,"ar_points":[[0],[1],[2]],"expected":[[0]],'
            '"verdict":"fail","ms":0}\n'))
        # the side condition fails while the structure check passes; the failure
        # is derived from the invariants, so the row shows plus0 and 3|n both true
        assert run(capsys, "survey", "--from", "23", "--to", "41")[:2] == (1, (
            "    N     n genus hyper plus0 N%9   3|n verdict\n"
            "   37     3     2  true  true   1  true pass\n"))
        assert run(capsys, "survey", "--from", "23", "--to", "41", "--json")[:2] == (1, (
            '{"N":37,"n":3,"genus":2,"hyperelliptic":true,"plus_genus_zero":true,'
            '"N_mod_9":1,"three_div_n":true,"verdict":"pass"}\n'))


class TestExitCodes:
    def test_invalid_level(self, capsys):
        code, out, err = run(capsys, "level", "24")
        assert code == 2 and "not prime" in err and out == ""

    def test_invalid_mu(self, capsys):
        code, _, err = run(capsys, "mu", "0")
        assert code == 2 and "must be >= 1" in err

    def test_resource_cap_exit(self, capsys):
        code, _, err = run(capsys, "mu", "5000", "--max-points", "100")
        assert code == 3 and "exceeds" in err

    def test_closure_cap_exit(self, capsys):
        code, _, err = run(capsys, "mu", "997", "--max-closure", "10")
        assert code == 3

    def test_closure_cap_bounds_each_orbit(self, capsys):
        # the a.r. path caps orbits, not the group: the orbit of 1 has 996 points
        code, out, _ = run(capsys, "mu", "997", "--max-closure", "996", "--json")
        assert code == 0 and json.loads(out)["ar_points"] == [[0]]
        code, _, err = run(capsys, "mu", "997", "--max-closure", "995")
        assert code == 3 and "orbit exceeds cap 995" in err

    def test_oversized_homothety_exits_3_with_one_line(self, capsys):
        code, out, err = run(capsys, "homothety", "--m", "5", "--e", "1", "--dim", "3000")
        assert (code, out) == (3, "")
        assert err == "artlab: hom_5_e1_d3000: 5^3000 points overflow int64 codes\n"

    def test_rank_64_exits_3_with_one_line(self, capsys):
        code, out, err = run(capsys, "homothety", "--m", "1", "--e", "1", "--dim", "64")
        assert (code, out) == (3, "")
        assert err == ("artlab: hom_1_e1_d64: rank 64 exceeds 63, "
                       "the most numpy's array axes allow\n")
        code, out, _ = run(capsys, "homothety", "--m", "1", "--e", "1", "--dim", "63", "--json")
        assert code == 0 and json.loads(out)["ar_points"] == [[0] * 63]

    def test_rank_past_63_is_refused_before_its_factors(self, capsys, monkeypatch):
        # m = 1 passes the point bound; the rank alone is refused, before a factor tuple exists
        def refuse(values, label):
            raise AssertionError(f"built {label}")

        monkeypatch.setattr(galmod, "_int_tuple", refuse)
        code, out, err = run(capsys, "homothety", "--m", "1", "--e", "1", "--dim", "10000000")
        assert (code, out) == (3, "")
        assert err == ("artlab: hom_1_e1_d10000000: rank 10000000 exceeds 63, "
                       "the most numpy's array axes allow\n")

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["mu", "11", "--nope"])
        assert exc.value.code == 2

    def test_theorem3_pass_is_zero(self, capsys):
        code, _, _ = run(capsys, "theorem3", "73", "--json")
        assert code == 0

    def test_theorem3_past_the_point_cap_of_the_full_module(self, capsys):
        # 5003^2 points exceed the default cap; M/F and F have 5003 each
        code, out, _ = run(capsys, "theorem3", "10007")
        assert code == 0 and "a.r.    : 5003 point(s)" in out and "verdict : pass" in out

    def test_theorem3_below_23_is_invalid(self, capsys):
        code, _, err = run(capsys, "theorem3", "19")
        assert code == 2 and "prime N >= 23" in err

    def test_bad_thread_count(self, capsys):
        code, _, err = run(capsys, "mu", "11", "--threads", "0")
        assert code == 2 and "--threads" in err

    def test_bad_point_cap(self, capsys):
        code, out, err = run(capsys, "mu", "11", "--max-points", "-5")
        assert code == 2 and out == "" and err == "artlab: --max-points must be >= 1, got -5\n"

    def test_bad_closure_cap(self, capsys):
        code, out, err = run(capsys, "mu", "11", "--max-closure", "0")
        assert code == 2 and out == "" and err == "artlab: --max-closure must be >= 1, got 0\n"

    @pytest.mark.parametrize("argv", [
        ["lemma2", "scan", "--e", "1", "--max", "100", "--max-points", "5"],
        ["lemma2", "pair", "--m", "16", "--e", "2", "--max-closure", "5"],
        ["level", "37", "--max-closure", "5"],
        ["level", "37", "--max-points", "5"],
    ], ids=["scan", "pair", "level-closure", "level-points"])
    def test_caps_are_unknown_where_nothing_reads_them(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mu", "11"], ["homothety", "--m", "16", "--e", "2"], ["theorem3", "73"],
        ["survey", "--from", "23", "--to", "30"], ["analyze", "missing.json"],
    ], ids=["mu", "homothety", "theorem3", "survey", "analyze"])
    def test_ar_commands_take_both_caps(self, argv):
        args = cli._build_parser().parse_args(argv + ["--max-closure", "5", "--max-points", "7"])
        assert (args.max_closure, args.max_points) == (5, 7)

    def test_scan_bound_exit(self, capsys, monkeypatch):
        def no_sieve(lo, hi):
            raise AssertionError("sieved past the scan bound")

        monkeypatch.setattr(lemma2, "primes_in", no_sieve)
        code, out, err = run(capsys, "lemma2", "scan", "--e", "1", "--max", "10000001")
        assert code == 3 and out == "" and err.startswith("artlab:") and "bound" in err

    @pytest.mark.parametrize("owner, callee, argv", [
        (modarith, "range", ["lemma2", "pair", "--m", "1000000007", "--e", "2"]),
        (lemma2, "range", ["lemma2", "witness", "--p", "1000003", "--n", "2", "--e", "1000003"]),
        (modarith, "bytearray", ["survey", "--from", "23", "--to", "10000000000000"]),
    ], ids=["power_subgroup", "root_of", "primes_in"])
    def test_residue_bound_exit(self, capsys, monkeypatch, owner, callee, argv):
        # the loop's callee refuses to run, so a missing bound fails here at once
        def refuse(*args):
            raise AssertionError(f"{callee} called past the residue bound")

        monkeypatch.setattr(owner, callee, refuse, raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("artlab:") and "bound" in err

    def test_witness_modulus_bound_exit(self, capsys):
        # 2^14300 has more digits than Python prints; 2^10000 is the largest modulus accepted
        code, out, err = run(capsys, "lemma2", "witness", "--p", "2", "--n", "14300", "--e", "3")
        assert code == 3 and out == "" and err.startswith("artlab:") and "bound" in err
        code, out, _ = run(capsys, "lemma2", "witness", "--p", "2", "--n", "10000", "--e", "3")
        assert code == 0 and out.startswith("p^n     : 2^10000  e=3")

    def test_pair_e1_needs_no_bound(self, capsys):
        # x = 3 pairs with y = -1 for every m outside {1, 2, 3, 6}
        code, out, _ = run(capsys, "lemma2", "pair", "--m", "1000000000000", "--e", "1")
        assert code == 0 and out.startswith("m=1000000000000 e=1: x=3 ")


class TestAnalyze:
    def test_module_file_nested_rows(self, tmp_path, capsys):
        desc = {"name": "fused_example", "factors": [4, 2],
                "galois": [[[1, 0], [1, 1]]]}
        path = tmp_path / "module.json"
        path.write_text(json.dumps(desc))
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["name"] == "fused_example" and obj["points"] == 8

    def test_module_file_flat_matrices(self, tmp_path, capsys):
        desc = {"name": "flat", "factors": [5], "galois": [[2]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(desc))
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        assert json.loads(out)["ar_points"] == [[0]]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/m.json")
        assert code == 2 and "cannot read" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and "not valid JSON" in err

    def test_invalid_matrix_rejected(self, tmp_path, capsys):
        desc = {"name": "bad", "factors": [2, 4], "galois": [[[1, 0], [1, 1]]]}
        path = tmp_path / "bad_matrix.json"
        path.write_text(json.dumps(desc))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2 and "(2,1)" in err

    @pytest.mark.parametrize("text", [
        '{"factors": [5], "galois": [["a"]]}',
        '{"factors": [5], "galois": [[null]]}',
        '{"factors": [5], "galois": [[1e400]]}',
        '{"factors": [5], "galois": [[2.7]]}',
        '{"factors": [true, 5], "galois": []}',
    ])
    def test_non_integer_entries_are_invalid(self, tmp_path, capsys, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == "" and err.startswith("artlab:")
        assert "integers" in err

    def test_oversized_module_is_a_resource_cap(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"factors": [18446744073709551616], "galois": []}))
        code, out, err = run(capsys, "analyze", str(path),
                             "--max-points", "100000000000000000000000")
        assert code == 3 and out == "" and err.startswith("artlab:")


class TestHumanOutput:
    def test_mu_12_block(self, capsys):
        code, out, _ = run(capsys, "mu", "12")
        assert code == 0
        assert out == ("name    : mu_12\n"
                       "points  : 12\n"
                       "a.r.    : 6 point(s)\n"
                       "          (0) (2) (4) (6) (8) (10)\n"
                       "verdict : not-checked\n"
                       "ms      : 0\n")

    def test_survey_table_has_header(self, capsys):
        _, out, _ = run(capsys, "survey", "--from", "23", "--to", "31")
        lines = out.splitlines()
        assert lines[0].split() == ["N", "n", "genus", "hyper", "plus0", "N%9", "3|n", "verdict"]
        assert len(lines) == 4

    def test_pair_line(self, capsys):
        _, out, _ = run(capsys, "lemma2", "pair", "--m", "6", "--e", "1")
        assert out == "m=6 e=1: no pair\n"


class TestEmitReportDirect:
    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            emit_report(object(), True)

    def test_lemma2_json_shape(self):
        rep = failure_scan(2, 17)
        assert emit_report(rep, True) == \
            '{"e":2,"max":17,"failures":[1,2,3,4,5,6,7,8,10,12,14,15]}\n'

    def test_level_human_block(self):
        text = emit_report(level_invariants(23), False)
        assert "N               : 23" in text and "hyperelliptic   : true" in text

    def test_art_report_human_includes_expected(self):
        rep = almost_rational_set(cyclotomic_module(3), expected=[(1,)])
        text = emit_report(rep, False)
        assert "verdict : pass" in text and "expected: 3 point(s)" in text


class TestCache:
    def test_roundtrip_identical_bytes(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        code1, out1, _ = run(capsys, "survey", "--from", "23", "--to", "60",
                             "--json", "--cache-dir", cache)
        files = os.listdir(cache)
        assert len(files) == 1
        code2, out2, _ = run(capsys, "survey", "--from", "23", "--to", "60",
                             "--json", "--cache-dir", cache)
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize("corrupt", [
        lambda envelope: "{broken",
        lambda envelope: "[1,2]",
        lambda envelope: '"str"',
        lambda envelope: json.dumps({**envelope, "output": 42}),
        lambda envelope: json.dumps({**envelope, "exit_code": "0"}),
    ], ids=["not_json", "list", "string", "output_not_str", "exit_code_not_int"])
    def test_corrupted_entry_recomputed_with_warning(self, tmp_path, capsys, corrupt):
        cache = str(tmp_path / "cache")
        _, out1, _ = run(capsys, "mu", "11", "--json", "--cache-dir", cache)
        entry = os.path.join(cache, os.listdir(cache)[0])
        with open(entry) as fh:
            envelope = json.load(fh)
        with open(entry, "w") as fh:
            fh.write(corrupt(envelope))
        code, out2, err = run(capsys, "mu", "11", "--json", "--cache-dir", cache)
        assert code == 0 and out2 == out1
        assert "corrupted" in err

    def test_unwritable_directory_degrades(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, out, err = run(capsys, "mu", "11", "--json",
                             "--cache-dir", str(blocker / "sub"))
        assert code == 0 and out.startswith('{"name":"mu_11"')
        assert "uncached" in err

    def test_env_var_cache_dir(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "envcache")
        monkeypatch.setenv("ARTLAB_CACHE_DIR", cache)
        run(capsys, "level", "37", "--json")
        assert len(os.listdir(cache)) == 1

    def test_version_partition(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return "out\n", 0

        cache = str(tmp_path)
        key_v1 = {"version": "1", "params": {"x": 1}}
        key_v2 = {"version": "2", "params": {"x": 1}}
        assert cache_roundtrip(cache, key_v1, compute) == ("out\n", 0)
        assert cache_roundtrip(cache, key_v1, compute) == ("out\n", 0)
        assert cache_roundtrip(cache, key_v2, compute) == ("out\n", 0)
        assert len(calls) == 2  # second v1 call was served from cache

    def test_source_digest_partition(self, tmp_path, capsys, monkeypatch):
        cache = str(tmp_path / "cache")
        monkeypatch.setattr(cli, "_source_digest", lambda: "a" * 64)
        run(capsys, "mu", "11", "--json", "--cache-dir", cache)
        run(capsys, "mu", "11", "--json", "--cache-dir", cache)
        assert len(os.listdir(cache)) == 1  # same sources: a hit
        monkeypatch.setattr(cli, "_source_digest", lambda: "b" * 64)
        run(capsys, "mu", "11", "--json", "--cache-dir", cache)
        assert len(os.listdir(cache)) == 2  # changed sources: a miss

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys, monkeypatch):
        def failing_dump(obj, fh):
            fh.write("{partial")
            raise OSError("disk full")

        cache = tmp_path / "cache"
        monkeypatch.setattr(cli.json, "dump", failing_dump)
        code, out, err = run(capsys, "mu", "11", "--json", "--cache-dir", str(cache))
        assert code == 0 and out.startswith('{"name":"mu_11"')
        assert "uncached" in err
        assert list(cache.iterdir()) == []

    def test_exit_code_preserved_on_hit(self, tmp_path):
        cache = str(tmp_path)
        key = {"version": "1", "params": {"fail": True}}
        assert cache_roundtrip(cache, key, lambda: ("bad\n", 1)) == ("bad\n", 1)
        assert cache_roundtrip(cache, key, lambda: ("unused\n", 0)) == ("bad\n", 1)

    @pytest.mark.parametrize("argv", [
        ["lemma2", "scan", "--e", "1", "--max", "100"],
        ["lemma2", "pair", "--m", "16", "--e", "2"],
        ["lemma2", "count", "--e", "3", "--p", "7"],
        ["lemma2", "witness", "--p", "5", "--n", "2", "--e", "1"],
        ["level", "37"],
    ], ids=["scan", "pair", "count", "witness", "level"])
    def test_cache_key_holds_no_cap_where_nothing_reads_one(self, argv):
        params = cli._cache_key(cli._build_parser().parse_args(argv))["params"]
        assert not {"max_closure", "max_points"} & set(params)

    def test_analyze_cache_keys_on_file_content(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        path = tmp_path / "m.json"
        path.write_text('{"name": "a", "factors": [5], "galois": [[2]]}')
        _, out1, _ = run(capsys, "analyze", str(path), "--json", "--cache-dir", cache)
        # same path, different module: must not serve the stale entry
        path.write_text('{"name": "b", "factors": [7], "galois": []}')
        _, out2, _ = run(capsys, "analyze", str(path), "--json", "--cache-dir", cache)
        assert '"name":"a"' in out1 and '"name":"b"' in out2
        assert '"points":7' in out2


class TestDeterminism:
    COMMANDS = [
        ["mu", "11", "--json"],
        ["mu", "12"],
        ["lemma2", "scan", "--e", "2", "--max", "40", "--json"],
        ["lemma2", "pair", "--m", "16", "--e", "2", "--json"],
        ["lemma2", "count", "--e", "3", "--p", "7", "--json"],
        ["lemma2", "witness", "--p", "5", "--n", "2", "--e", "1", "--json"],
        ["level", "37", "--json"],
        ["theorem3", "73", "--json"],
        ["homothety", "--m", "16", "--e", "2", "--dim", "1", "--json"],
        ["survey", "--from", "23", "--to", "60", "--json"],
        ["survey", "--from", "23", "--to", "60"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
    def test_run_twice_and_across_thread_counts(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        threaded = run(capsys, *argv, "--threads", "8")
        assert first == second == threaded


class TestImportBudget:
    """A process imports only what its command runs: numpy and the compute
    modules stay unloaded where the command does not need them."""

    SCRIPT = ("import json, sys\n"
              "from artlab import cli\n"
              "code = cli.dispatch(sys.argv[1:])\n"
              "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
              "sys.exit(code)\n")

    def loaded(self, *argv):
        """(stdout, names in sys.modules) of one dispatch in a fresh interpreter."""
        env = dict(os.environ)
        env.pop("ARTLAB_CACHE_DIR", None)
        src = str(Path(artlab.__file__).parent.parent)  # the package under test
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, set(json.loads(proc.stderr.splitlines()[-1]))

    @pytest.mark.parametrize("argv", [
        ["level", "23"],
        ["lemma2", "scan", "--e", "2", "--max", "40"],
        ["lemma2", "pair", "--m", "16", "--e", "2"],
        ["lemma2", "count", "--e", "3", "--p", "7"],
        ["lemma2", "witness", "--p", "5", "--n", "2", "--e", "1"],
    ], ids=" ".join)
    def test_numpy_free_commands(self, argv):
        out, modules = self.loaded(*argv)
        assert out and "numpy" not in modules

    def test_cache_hit_loads_no_compute_module(self, tmp_path):
        cache = str(tmp_path / "cache")
        miss, _ = self.loaded("mu", "11", "--json", "--cache-dir", cache)
        hit, modules = self.loaded("mu", "11", "--json", "--cache-dir", cache)
        assert hit == miss
        assert "numpy" not in modules and "artlab.galmod" not in modules

    def test_uncached_mu_loads_numpy(self):
        # the budget above is not met vacuously: the kernel does need numpy
        out, modules = self.loaded("mu", "11", "--json")
        assert out.startswith('{"name":"mu_11"') and "numpy" in modules
