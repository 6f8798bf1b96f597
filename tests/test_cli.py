from __future__ import annotations

import json
from pathlib import Path

import pytest

from coarsecoh.cli import build_parser, main, run_command
from coarsecoh.localcoh import CechAtDegree

LINE = """\
group { free = 1; torsion = [] }
ring { vars = [x]; degrees = [(1)]; certificate = (1) }
ideal { gens = [x] }
module { gens = [(0)]; relations = [] }
gwindow { lo = (-3); hi = (2) }
caps { n_cap = 6; ray_cap = 8 }
"""

TORSION = """\
group { free = 1; torsion = [] }
ring { vars = [x]; degrees = [(1)]; certificate = (1) }
ideal { gens = [x] }
module { gens = [(0)]; relations = [[x^3]] }
gwindow { lo = (0); hi = (3) }
"""

FINE = """\
group { free = 2; torsion = [] }
ring { vars = [x, y]; degrees = [(1,0), (0,1)]; certificate = (1,1) }
ideal { gens = [x, y] }
module { gens = [(0,0)]; relations = [] }
psi { free = 1; torsion = []; images = [(1), (1)] }
gwindow { lo = (0,0); hi = (3,3) }
hwindow { lo = (0); hi = (4) }
"""

# the gamma tables along an infinite-kernel regrading disagree once the
# fine window misses support: designed to make check-commute FAIL fast
TRUNCATED = """\
group { free = 2; torsion = [] }
ring { vars = [x, y]; degrees = [(1,0), (0,1)]; certificate = (1,1) }
ideal { gens = [x, y] }
module { gens = [(0,0)]; relations = [[x^2], [x*y], [y^2]] }
psi { free = 1; torsion = []; images = [(1), (1)] }
gwindow { lo = (0,0); hi = (0,0) }
hwindow { lo = (0); hi = (1) }
"""


def scn(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stampless(json_text):
    report = json.loads(json_text)
    del report["_generated_at"]
    return report


def test_the_parser_is_built_once_and_serves_back_to_back_commands(capsys):
    # the cached parser keeps no state between two parses: an explicit
    # --i and then the default give what a fresh parser gives
    assert build_parser() is build_parser()
    mixed = str(Path(__file__).resolve().parents[1] / "scenarios/mixed-plane.scn")
    argvs = [["check-commute", mixed, "--i", "1"], ["check-commute", mixed]]
    for argv, indices in zip(argvs, ([1], [0, 1, 2])):
        code, out, _ = run(capsys, argv + ["--json"])
        fresh_json, _, fresh_code = run_command(
            build_parser.__wrapped__().parse_args(argv)
        )
        assert (code, _stampless(out)) == (fresh_code, _stampless(fresh_json))
        assert [e["i"] for e in _stampless(out)["entries"]] == indices
    assert build_parser().parse_args(argvs[1]).i == (0, 1, 2)


def test_hilbert_tsv(tmp_path, capsys):
    code, out, _ = run(capsys, ["hilbert", scn(tmp_path, LINE)])
    assert code == 0
    lines = out.splitlines()
    assert "# verdict: OK" in lines
    assert "degree\tdim" in lines
    assert "(-1)\t0" in lines
    assert "(2)\t1" in lines


def test_lc_json_both_routes_match(tmp_path, capsys):
    path = scn(tmp_path, LINE)
    code, out, _ = run(capsys, ["lc", path, "--i", "1", "--json"])
    assert code == 0
    cech = json.loads(out)
    code, out, _ = run(
        capsys, ["lc", path, "--i", "1", "--route", "ext", "--ncap", "8", "--json"]
    )
    assert code == 0
    ext = json.loads(out)
    assert cech["table"] == ext["table"]
    assert cech["table"]["(-1)"] == 1
    assert cech["table"]["(0)"] == 0
    assert ext["parameters"]["route"] == "ext"
    assert "stabilized_at" in ext


def test_timestamp_is_isolated_on_its_own_line(tmp_path, capsys):
    code, out, _ = run(capsys, ["hilbert", scn(tmp_path, LINE), "--json"])
    assert code == 0
    stamp_lines = [l for l in out.splitlines() if "_generated_at" in l]
    assert len(stamp_lines) == 1
    assert stamp_lines[0].strip().startswith('"_generated_at":')


def test_json_deterministic_modulo_timestamp(tmp_path, capsys):
    path = scn(tmp_path, TORSION)
    args = build_parser().parse_args(["gamma", path])

    def stripped():
        text, tsv, code = run_command(args)
        assert code == 0
        return [l for l in text.splitlines() if "_generated_at" not in l], tsv

    first_json, first_tsv = stripped()
    second_json, second_tsv = stripped()
    assert first_json == second_json
    assert first_tsv == second_tsv


def test_gamma_reports_stabilization(tmp_path, capsys):
    code, out, _ = run(capsys, ["gamma", scn(tmp_path, TORSION), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == {"(0)": 1, "(1)": 1, "(2)": 1, "(3)": 0}
    assert payload["global_index"] == 3
    assert payload["stabilized_at"]["(0)"] == 3


def test_lc_ext_at_i_0_reports_the_stages_of_gamma(tmp_path, capsys):
    path = scn(tmp_path, TORSION)
    code, out, _ = run(capsys, ["gamma", path, "--json"])
    assert code == 0
    gamma = json.loads(out)
    code, out, _ = run(capsys, ["lc", path, "--i", "0", "--route", "ext", "--json"])
    assert code == 0
    lc = json.loads(out)
    for key in ("table", "stabilized_at", "global_index"):
        assert lc[key] == gamma[key], key


def test_ext_power_flag(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["ext", scn(tmp_path, TORSION), "--i", "0", "--n", "2", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == {"(0)": 0, "(1)": 1, "(2)": 1, "(3)": 0}


def test_dtransform_matches_known_transform(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["dtransform", scn(tmp_path, LINE), "--i", "0", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    # the degree-zero transform of the line is the Laurent module
    assert all(v == 1 for v in payload["table"].values())


def test_check_transform_ok(tmp_path, capsys):
    code, out, _ = run(capsys, ["check-transform", scn(tmp_path, TORSION), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "OK"
    assert all(r["kernel_matches_torsion"] for r in payload["rows"])


@pytest.mark.parametrize("i", [1, 2])
def test_a_failing_four_term_check_exits_2(i, monkeypatch, capsys):
    # the Cech route made to read one more at position i: H^1 is compared
    # in every row, H^2 with the first higher transform
    real = CechAtDegree.cohomology_dim
    monkeypatch.setattr(
        CechAtDegree, "cohomology_dim", lambda self, j: real(self, j) + (j == i)
    )
    fine_plane = str(Path(__file__).resolve().parents[1] / "scenarios/fine-plane.scn")
    code, out, _ = run(capsys, ["check-transform", fine_plane, "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "FAILS" and payload["witnesses"]


def test_scenario_error_exits_1(tmp_path, capsys):
    bad = scn(
        tmp_path,
        "group { free = 2; torsion = [] }\n"
        "ring { vars = [x, y]; degrees = [(1,0), (0,1)]; certificate = (0,0) }\n",
    )
    code, out, err = run(capsys, ["hilbert", bad])
    assert code == 1
    assert out == ""
    assert "line 2" in err and "positivity" in err


def test_missing_block_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, ["hom", scn(tmp_path, LINE)])
    assert code == 1
    assert "module2" in err


def test_unknown_flag_exits_1_not_2(tmp_path, capsys):
    # argparse would default to status 2, which is reserved for FAILS
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", scn(tmp_path, LINE), "--no-such-flag"])
    assert exc.value.code == 1
    assert "no-such-flag" in capsys.readouterr().err


def test_unstabilized_exits_3(tmp_path, capsys):
    negative = FINE.replace(
        "gwindow { lo = (0,0); hi = (3,3) }",
        "gwindow { lo = (-2,-2); hi = (0,0) }",
    )
    code, out, _ = run(
        capsys,
        ["lc", scn(tmp_path, negative), "--i", "2", "--route", "ext", "--ncap", "2",
         "--json"],
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "UNSTABILIZED"
    assert payload["unstable"]["trajectory"] == [0, 1]


def test_cech_refuses_only_from_the_rays_its_position_reads(tmp_path, capsys):
    # at (-2,-2) with ray_cap 3 the ray of xy sees [0, 0, 1, 1], too late to
    # certify; H^1 and H^2 read it and refuse, H^0 reads only the rays of
    # 1, x and y, and the complex has no position 3
    corner = scn(tmp_path, FINE.replace(
        "gwindow { lo = (0,0); hi = (3,3) }",
        "gwindow { lo = (-2,-2); hi = (-2,-2) }",
    ))
    for i, expected in (("0", 0), ("1", 3), ("2", 3), ("3", 0)):
        code, out, _ = run(
            capsys, ["cech", corner, "--i", i, "--raycap", "3", "--json"]
        )
        assert code == expected, i
        payload = json.loads(out)
        if code == 3:
            assert payload["unstable"]["what"] == "localization at x*y"
            assert payload["unstable"]["trajectory"] == [0, 0, 1, 1]
        else:
            assert payload["table"] == {"(-2,-2)": 0}


def test_growth_at_the_last_tower_stage_exits_3(tmp_path, capsys):
    # at (-6) only the sixth stage of the x^n tower sees the Laurent line:
    # both tower commands must refuse instead of reporting 0
    path = scn(
        tmp_path, LINE.replace("gwindow { lo = (-3); hi = (2) }",
                               "gwindow { lo = (-8); hi = (-6) }")
    )
    for argv in (
        ["lc", path, "--i", "1", "--route", "ext", "--json"],
        ["dtransform", path, "--i", "0", "--json"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 3, argv
        payload = json.loads(out)
        assert payload["verdict"] == "UNSTABILIZED"
        assert payload["unstable"]["degree"] == "(-6)"
        assert payload["unstable"]["trajectory"] == [0, 0, 0, 0, 0, 1]


def test_cech_certifies_torsion_whose_components_grow_along_the_ray(
    tmp_path, capsys
):
    # M = K[x,y,z]/(x) is x-torsion: its localization at x is zero, but the
    # ray M_g -> M_{g+1} -> ... has growing stages and zero maps
    path = scn(
        tmp_path,
        """\
group { free = 1; torsion = [] }
ring { vars = [x, y, z]; degrees = [(1), (1), (1)]; certificate = (1) }
ideal { gens = [x] }
module { gens = [(0)]; relations = [[x]] }
gwindow { lo = (-1); hi = (2) }
""",
    )
    code, out, _ = run(capsys, ["cech", path, "--i", "0", "--json"])
    assert code == 0
    assert json.loads(out)["table"] == {"(-1)": 0, "(0)": 1, "(1)": 2, "(2)": 3}


# K[x] on two generators in degree 0, e1 killed by x^4 and e2 by x: at (0)
# the kernels of x^n have dimensions 1, 1, 1, 2, 2, ..., so a cap that
# ends on the plateau of e2 alone must refuse, while `cech --i 0` and a
# cap that certifies the later plateau see both classes; psi is the
# identity, so `check-commute --i 0` reads the same tower limit
PLATEAU = """\
group { free = 1; torsion = [] }
ring { vars = [x]; degrees = [(1)]; certificate = (1) }
ideal { gens = [x] }
module { gens = [(0), (0)]; relations = [[x^4, 0], [0, x]] }
psi { free = 1; torsion = []; images = [(1)] }
gwindow { lo = (0); hi = (0) }
hwindow { lo = (0); hi = (0) }
"""


@pytest.mark.parametrize(
    "argv", [["gamma"], ["lc", "--i", "0", "--route", "ext"]], ids=["gamma", "lc-ext"]
)
def test_torsion_under_a_short_cap_refuses_or_counts_the_late_class(
    tmp_path, capsys, argv
):
    path = scn(tmp_path, PLATEAU)
    code, out, _ = run(capsys, argv[:1] + [path] + argv[1:] + ["--ncap", "3", "--json"])
    assert code == 3
    assert json.loads(out)["unstable"]["trajectory"] == [1, 1, 1]


def test_the_late_torsion_class_is_seen_by_cech_and_a_deeper_cap(tmp_path, capsys):
    path = scn(tmp_path, PLATEAU)
    for argv in (["cech", path, "--i", "0"], ["gamma", path, "--ncap", "7"]):
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == 0, argv
        assert json.loads(out)["table"] == {"(0)": 2}, argv


def test_late_torsion_is_counted_in_full_and_refused_at_ncap_8(tmp_path, capsys):
    # K[x]/(x^7) at (0): x^8 kills 1, so the top stage's d^0 is not
    # injective and every stage is counted; the chain 0,...,0,1,1 ends on
    # a plateau too short to certify
    path = scn(tmp_path, TORSION.replace("x^3", "x^7").replace("hi = (3)", "hi = (0)"))
    code, out, _ = run(capsys, ["gamma", path, "--ncap", "8", "--json"])
    assert code == 3
    unstable = json.loads(out)["unstable"]
    assert unstable["degree"] == "(0)"
    assert unstable["trajectory"] == [0, 0, 0, 0, 0, 0, 1, 1]


@pytest.mark.parametrize("n_cap", range(3, 8))
def test_gamma_and_check_commute_at_i_0_read_one_limit(tmp_path, capsys, n_cap):
    path = scn(tmp_path, PLATEAU)
    cap = ["--ncap", str(n_cap), "--json"]
    code_g, out, _ = run(capsys, ["gamma", path] + cap)
    gamma = json.loads(out)
    code_c, out, _ = run(capsys, ["check-commute", path, "--i", "0"] + cap)
    commute = json.loads(out)
    assert code_g == code_c == (0 if n_cap == 7 else 3)
    if code_g == 0:
        assert commute["verdict"] == "COMMUTES_ON_WINDOW"
        assert commute["entries"][0]["coarse"] == gamma["table"] == {"(0)": 2}
    else:
        assert commute["unstable"]["trajectory"] == gamma["unstable"]["trajectory"]


def test_refusal_exits_4_and_flag_recovers(tmp_path, capsys):
    path = scn(tmp_path, FINE)
    code, out, _ = run(capsys, ["coarsen", path, "--json"])
    assert code == 4
    payload = json.loads(out)
    assert payload["verdict"] == "REFUSED"
    assert "outside the fine window" in payload["reason"]
    code, out, _ = run(capsys, ["coarsen", path, "--assume-support-covered", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["route"] == "assumed"
    # the h = 4 fiber sum is honestly truncated by the 4x4 fine box
    assert payload["table"] == {"(0)": 1, "(1)": 2, "(2)": 3, "(3)": 4, "(4)": 3}


def test_failing_commutation_exits_2(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["check-commute", scn(tmp_path, TRUNCATED), "--i", "0",
         "--assume-support-covered", "--json"],
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "FAILS"
    witnesses = payload["entries"][0]["witnesses"]
    assert witnesses[0]["degree"] == "(1)"


# K[x,y,z] finely graded, coarsened by the coordinate sum: H^3_m at coarse
# degree -d has dimension (d-1)(d-2)/2.  The ordinary-power tower needs
# minutes for this check; the bracket-power tower takes well under a second.
FINE3 = """\
group { free = 3; torsion = [] }
ring { vars = [x, y, z]; degrees = [(1,0,0), (0,1,0), (0,0,1)]; certificate = (1,1,1) }
ideal { gens = [x, y, z] }
module { gens = [(0,0,0)]; relations = [] }
psi { free = 1; torsion = []; images = [(1), (1), (1)] }
gwindow { lo = (-4,-4,-4); hi = (-1,-1,-1) }
hwindow { lo = (-6); hi = (-3) }
"""


def test_three_variable_fine_to_coarse_commutation(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["check-commute", scn(tmp_path, FINE3), "--i", "3", "--ncap", "7",
         "--assume-support-covered", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "COMMUTES_ON_WINDOW"
    (entry,) = payload["entries"]
    expected = {"(-6)": 10, "(-5)": 6, "(-4)": 3, "(-3)": 1}
    assert entry["coarse"] == expected
    assert entry["coarsened"] == expected


def test_counterexample_support_size(capsys):
    code, out, _ = run(capsys, ["counterexample", "--k", "5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["support_size"] == 5
    assert payload["verdict"] == "OK"
    assert "external theory" in payload["external_claim"]


def test_counterexample_refuses_k_above_the_bound(capsys):
    code, out, err = run(capsys, ["counterexample", "--k", "501", "--json"])
    assert code == 1
    assert out == ""
    assert "level must be from 1 to 500, got 501" in err


def test_out_writes_both_files(tmp_path, capsys):
    base = str(tmp_path / "report")
    code, out, _ = run(
        capsys, ["hilbert", scn(tmp_path, LINE), "--out", base]
    )
    assert code == 0
    written = (tmp_path / "report.tsv").read_text()
    assert written == out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["command"] == "hilbert"


def test_cap_flags_must_be_positive_and_win(tmp_path, capsys):
    path = scn(tmp_path, LINE)  # its caps block says n_cap = 6, ray_cap = 8
    for argv in (
        ["lc", path, "--i", "1", "--route", "ext", "--ncap", "0"],
        ["cech", path, "--i", "1", "--raycap", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "caps must be positive" in capsys.readouterr().err
    code, out, _ = run(
        capsys, ["lc", path, "--i", "1", "--ncap", "7", "--raycap", "6", "--json"]
    )
    assert code == 0
    parameters = json.loads(out)["parameters"]
    assert (parameters["n_cap"], parameters["ray_cap"]) == (7, 6)


def test_cap_rule_is_enforced_at_parse_time(tmp_path, capsys):
    # a tower needs two stages: n_cap = 1 is refused before any command runs,
    # whether it comes from the caps block or from the flag
    one = scn(tmp_path, LINE.replace("n_cap = 6", "n_cap = 1"), "one.scn")
    code, out, err = run(capsys, ["gamma", one])
    assert (code, out) == (1, "")
    assert "n_cap at least 2" in err and "line 6" in err
    with pytest.raises(SystemExit) as exc:
        main(["gamma", scn(tmp_path, LINE), "--ncap", "1"])
    assert exc.value.code == 1
    assert "n_cap at least 2: got n_cap = 1" in capsys.readouterr().err
    # ray_cap = 1 passes the rule; so short a ray cannot certify its
    # limit, which is a refusal of the computation, not a usage error
    code, out, _ = run(
        capsys, ["cech", scn(tmp_path, LINE), "--i", "1", "--raycap", "1", "--json"]
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "UNSTABILIZED"


def test_an_empty_index_list_is_a_usage_error(tmp_path, capsys):
    # with no index there is nothing to compare, so no COMMUTES verdict
    path = scn(tmp_path, FINE)
    for spelling in ("", ","):
        with pytest.raises(SystemExit) as exc:
            main(["check-commute", path, "--i", spelling])
        assert exc.value.code == 1, spelling
        captured = capsys.readouterr()
        assert captured.out == "", spelling
        assert "comma-separated list of integers" in captured.err, spelling


def test_flag_values_that_are_not_integers_exit_1(tmp_path, capsys):
    for argv, message in (
        (["check-commute", scn(tmp_path, FINE), "--i", "a"],
         "expected a comma-separated list of integers, got 'a'"),
        (["gamma", scn(tmp_path, LINE), "--ncap", "x"], "invalid int value: 'x'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert message in captured.err, argv


def test_coarsen_without_a_coarse_certificate_to_find_exits_1(tmp_path, capsys):
    # psi sends x to 1 and y to -1, so no weight makes both positive
    opposite = FINE.replace("images = [(1), (1)]", "images = [(1), (-1)]")
    code, out, err = run(capsys, ["coarsen", scn(tmp_path, opposite)])
    assert (code, out) == (1, "")
    assert "no positive weight vector found" in err
    assert "coarse { certificate = (...) }" in err


def test_negative_index_is_refused_by_both_routes(tmp_path, capsys):
    path = scn(tmp_path, FINE)
    for argv in (
        ["cech", path, "--i", "-1"],
        ["lc", path, "--i", "-1"],
        ["lc", path, "--i", "-1", "--route", "ext"],
        ["ext", path, "--i", "-1"],
        ["check-commute", path, "--i=-1"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert "negative cohomological index" in err, argv
