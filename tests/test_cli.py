import json
import os
import subprocess
import sys

import pytest

import echotk
from echotk import cli, seq, sweep


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_analytic(capsys):
    code, out, _ = run_cli(capsys, "density", "analytic")
    assert code == 0
    assert out.splitlines()[0] == "179/336"


def test_density_analytic_full(capsys):
    code, out, _ = run_cli(capsys, "density", "analytic", "--full")
    assert code == 0
    assert out.splitlines()[0] == "11/21"


def test_density_analytic_json(capsys):
    code, out, _ = run_cli(capsys, "density", "analytic", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "179/336"
    assert payload["per_case"]["identity"] == "1/672"


def test_density_brute_cli(capsys):
    code, out, _ = run_cli(capsys, "density", "brute", "--level", "2")
    assert code == 0
    assert out.startswith("71/128")


def test_level_takes_integral_scientific_notation(capsys):
    # --level parses like every other integer option: 1e1 is the level 10
    for argv, sci, plain in (
        (("density", "brute"), "1e1", "10"),
        (("group", "classify"), "3e0", "3"),
        (("group", "hk"), "3e0", "3"),
    ):
        code, out, _ = run_cli(capsys, *argv, "--level", sci)
        assert out and (code, out) == (0, run_cli(capsys, *argv, "--level", plain)[1]), argv


def test_sweep_cli_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max", "100", "--threads", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,pi_prime,pi,ratio"
    assert lines[1] == "10,3,4,0.750000000"
    assert lines[2] == "100,13,25,0.520000000"


def test_sweep_cli_scientific_notation_and_file(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "sweep", "--max", "1e2", "--threads", "1", "--csv", str(out_path))
    assert code == 0
    assert out_path.read_text() == out


def test_sweep_checkpoint_cli(capsys, tmp_path):
    ck = tmp_path / "ck.txt"
    code, _, _ = run_cli(capsys, "sweep", "--max", "1000", "--threads", "1", "--checkpoint", str(ck))
    assert code == 0
    loaded = sweep.Checkpoint.load(str(ck))
    assert loaded.pi_so_far == 168
    assert loaded.pi_prime_so_far == 91


def test_sweep_checkpoint_past_max_cli(capsys, tmp_path):
    # a checkpoint that already reaches --max must not yield a bare header
    # and exit 0, whether the rerun is as long or shorter
    ck = tmp_path / "ck.txt"
    assert run_cli(capsys, "sweep", "--max", "10000", "--threads", "1", "--checkpoint", str(ck))[0] == 0
    for x_max in ("10000", "5000"):
        code, out, err = run_cli(capsys, "sweep", "--max", x_max, "--threads", "1", "--checkpoint", str(ck))
        assert code == 1
        assert out == ""
        assert "checkpoint" in err


def test_sweep_past_lane_bound_cli(capsys):
    code, out, err = run_cli(capsys, "sweep", "--max", "3e9", "--threads", "1")
    assert (code, out) == (1, "")
    assert "lane bound" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "sweep")[0] == 2  # missing --max
    assert run_cli(capsys, "density")[0] == 2  # missing subcommand
    assert run_cli(capsys, "verify", "--full")[:2] == (2, "")  # verify always runs every suite
    code, out, err = run_cli(capsys, "seq", "--from", "5", "--to", "2")  # an empty range
    assert (code, out) == (2, "")
    assert "exceeds --to" in err
    assert run_cli(capsys, "seq", "--from", "5", "--to", "2", "--json")[:2] == (2, "")
    # integer options take integral values only, in any notation
    for kind, argv in (
        ("integer value: '2.5'", ("seq", "--from", "0", "--to", "2.5")),
        ("integer value: 'inf'", ("sweep", "--max", "inf")),
        ("integer value: 'nan'", ("sweep", "--max", "nan")),
        ("integer value: 'abc'", ("sweep", "--max", "abc")),
        ("integer value: '1e-1'", ("point", "--n", "1e-1")),
        ("integer value: '2.5'", ("density", "brute", "--level", "2.5")),
        ("integer value: '2.5'", ("group", "hk", "--level", "2.5")),
        ("choice: 10", ("group", "classify", "--level", "1e1")),  # an integer, not a choice (2, 3)
        # thread counts are positive
        ("positive integer value: '0'", ("sweep", "--max", "100", "--threads", "0")),
        ("positive integer value: '-3'", ("sweep", "--max", "100", "--threads", "-3")),
        ("positive integer value: '0'", ("family", "--t", "1", "--threads", "0")),
        ("positive integer value: '-3'", ("family", "--t", "1", "--threads", "-3")),
        # rational options reject a zero denominator
        ("rational value: '1/0'", ("family", "--t", "1/0")),
        ("rational value: '1/0'", ("tate", "--px", "1/0", "--py", "7")),
        ("rational value: 'x'", ("tate", "--px", "x", "--py", "7")),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        # argparse prints the kind of value, never the name of a private type helper
        assert f"invalid {kind}" in err and "_parse" not in err, (argv, err)
    # brute levels outside 2..BRUTE_MAX_LEVEL fail in the engine
    for level in ("65", "1"):
        code, out, err = run_cli(capsys, "density", "brute", "--level", level)
        assert (code, out) == (1, ""), level
        assert "brute level" in err, level


def test_computation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "family", "--t", "25")
    assert code == 1
    assert "error:" in err


def test_seq_cli(capsys):
    code, out, _ = run_cli(capsys, "seq", "--from", "0", "--to", "6")
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.splitlines()]
    assert values == [1, 1, 2, 1, -3, -7, -17]


def test_seq_cli_json_negative_range(capsys):
    code, out, _ = run_cli(capsys, "seq", "--from", "-3", "--to", "3", "--alt", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0] == {"n": -3, "b_n": "-2"}
    assert payload[-1] == {"n": 3, "b_n": "1"}


def test_point_cli(capsys):
    code, out, _ = run_cli(capsys, "point", "--n", "2")
    assert code == 0
    assert out.count("(1/4, -19/8)") == 2


def test_tate_cli(capsys):
    code, out, _ = run_cli(
        capsys, "tate", "--a3", "1", "--a4", "-3", "--a6", "4", "--px", "4", "--py", "7"
    )
    assert code == 0
    assert "a = 6/5" in out and "b = 3/25" in out


def test_tate_cli_rejects_a_singular_curve(capsys):
    # the node y^2 = x^3 + x^2 at a smooth point, and the cusp y^2 = x^3 at its singular point
    for argv in (("--a2", "1", "--px", "3", "--py", "6"), ("--px", "0", "--py", "0")):
        code, out, err = run_cli(capsys, "tate", *argv)
        assert (code, out) == (1, ""), argv
        assert "non-singular" in err, argv


def test_group_hk_cli(capsys):
    code, out, _ = run_cli(capsys, "group", "hk", "--level", "3")
    assert code == 0
    assert "|H_3| = 24576" in out
    assert "index in full group: 4" in out
    assert "kinetic: True" in out


CLASSIFY_STDOUT = {
    "2": """\
kinetic subgroup classes at level 2: 2
  order 1536  (members found: 1; counts every member)
    generators: ((0,0),[0,1;1,0]), ((0,0),[0,1;1,1]), ((0,1),[0,1;1,0])
  order 384  (members found: 4; counts every member)
    generators: ((0,0),[0,1;1,1]), ((0,0),[0,1;3,0]), ((0,1),[0,1;1,3])
""",
    "3": """\
kinetic subgroup classes at level 3: 2
  order 98304  (members found: 1; counts members whose mod-4 image is a level-2 representative)
    generators: ((0,0),[0,1;1,0]), ((0,0),[0,1;1,1]), ((0,0),[0,1;3,0]), ((0,1),[0,1;1,0])
  order 24576  (members found: 1; counts members whose mod-4 image is a level-2 representative)
    generators: ((0,0),[0,1;1,1]), ((0,0),[0,1;1,5]), ((0,0),[0,1;3,0]), ((0,0),[0,1;5,1]), ((0,1),[0,1;1,3])
""",
}


def test_group_classify_cli(capsys):
    # every line is pinned, the generators read off each representative's codes included
    for level, stdout in CLASSIFY_STDOUT.items():
        assert run_cli(capsys, "group", "classify", "--level", level) == (0, stdout, ""), level


def test_verify_cli(capsys, monkeypatch):
    # verify runs cli.INVARIANTS row by row; tests/test_acceptance.py runs the real rows
    monkeypatch.setattr(cli, "INVARIANTS", (("s", "one", lambda: True), ("t", "two", lambda: True)))
    assert run_cli(capsys, "verify") == (0, "[PASS] s: one\n[PASS] t: two\nall invariant suites passed\n", "")


def test_verify_cli_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "INVARIANTS", (("s", "holds", lambda: True), ("s", "breaks", lambda: False)))
    code, out, err = run_cli(capsys, "verify")
    assert (code, out) == (1, "[PASS] s: holds\n[FAIL] s: breaks\n")
    assert "1 invariant check(s) failed" in err


def test_family_cli_json(capsys):
    code, out, _ = run_cli(capsys, "family", "--t", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate_all_true"] is True
    assert payload["b"] == "-729/64"


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (("family",), "--t", "-11/2"),
        (("tate", "--a2=-804357/16", "--a3=-804357/16", "--px", "25947/8", "--py", "23326353/32"), "--a1", "-837/2"),
        (("seq", "--to", "0"), "--from", "-1e1"),
    ],
    ids=("family", "tate", "seq"),
)
def test_negative_values_parse_after_a_space(capsys, argv, option, value):
    # argparse alone takes -11/2 and -1e1 after a space for options of their own
    joined = run_cli(capsys, *argv, f"{option}={value}")
    assert joined[0] == 0 and joined[1]
    assert run_cli(capsys, *argv, option, value) == joined


def test_negative_value_parsing_keeps_usage_errors(capsys):
    for argv in (("family", "--t", "-x"), ("family", "--t", "-11/0"), ("seq", "--from", "-1.5", "--to", "0")):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv


def run_module(*argv):
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(echotk.__file__))
    return subprocess.run(
        [sys.executable, "-m", "echotk", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_module_entry_point():
    proc = run_module("density", "analytic")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "179/336"


def test_module_prints_terms_past_the_str_digit_limit():
    # b_450 has more digits than int -> str allows by default; main() lifts
    # the limit for its own process
    proc = run_module("seq", "--from", "450", "--to", "450")
    assert (proc.returncode, proc.stderr) == (0, "")
    n, value = proc.stdout.split("\t")
    assert n == "450" and len(value.strip().lstrip("-")) > 4300


def test_deterministic_output_bytes(capsys):
    first = run_cli(capsys, "density", "analytic", "--json")
    second = run_cli(capsys, "density", "analytic", "--json")
    assert first == second
    a = run_cli(capsys, "sweep", "--max", "1000", "--threads", "1")
    b = run_cli(capsys, "sweep", "--max", "1000", "--threads", "2")
    assert a == b


def test_emit_empty_records_header_only():
    assert cli.emit_sweep_csv([]) == "x,pi_prime,pi,ratio\n"


_RESULT_COMMANDS = [
    (*argv, *mode)
    for argv in (
        ("seq", "--from", "-3", "--to", "5"),
        ("density", "analytic"),
        ("density", "brute", "--level", "3"),
        ("family", "--t", "2"),
    )
    for mode in ((), ("--json",))
] + [("sweep", "--max", "1000", "--threads", "1")]


@pytest.mark.parametrize("argv", _RESULT_COMMANDS, ids=" ".join)
def test_out_saves_exactly_the_printed_bytes(capsys, tmp_path, argv):
    option = "--csv" if argv[0] == "sweep" else "--out"
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    path = tmp_path / "result"
    assert run_cli(capsys, *argv, option, str(path)) == plain
    assert path.read_bytes() == plain[1].encode()
    # the file is written before anything is printed
    code, out, err = run_cli(capsys, *argv, option, str(tmp_path / "missing" / "result"))
    assert (code, out) == (1, "")
    assert "error:" in err


def test_somos4_never_vanishes_mod_its_bad_prime_37():
    # verify's term scan at p = 37 sees only the first 53 terms.  Each step divides by
    # b_{n-4}, a unit mod 37 while no residue is 0, so four consecutive residues fix the
    # rest: the first four coming back at n = 171 with no 0 before makes the cycle exact
    s = seq.EchoSequence(seq.SOMOS4)
    residues = [s.term(n) % 37 for n in range(171 + 4)]
    assert [t for t in range(1, 172) if residues[t:t + 4] == residues[:4]] == [171]
    assert 0 not in residues[:171]
    # the sweep's decision at this bad prime agrees: 37 divides no term
    assert sweep._decide([37], *sweep._prepare(*cli._SOMOS4_PAIR)).tolist() == [False]
