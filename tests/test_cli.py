import json
import os
import subprocess
import sys

import echotk
from echotk import cli, sweep


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
    for argv in (
        ("seq", "--from", "0", "--to", "2.5"),
        ("sweep", "--max", "inf"),
        ("sweep", "--max", "nan"),
        ("sweep", "--max", "abc"),
        ("point", "--n", "1e-1"),
        ("density", "brute", "--level", "2.5"),
        # thread counts are positive
        ("sweep", "--max", "100", "--threads", "0"),
        ("sweep", "--max", "100", "--threads", "-3"),
        ("family", "--t", "1", "--threads", "0"),
        ("family", "--t", "1", "--threads", "-3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "invalid" in err, argv
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


def test_group_hk_cli(capsys):
    code, out, _ = run_cli(capsys, "group", "hk", "--level", "3")
    assert code == 0
    assert "|H_3| = 24576" in out
    assert "index in full group: 4" in out
    assert "kinetic: True" in out


def test_group_classify_cli(capsys):
    code, out, _ = run_cli(capsys, "group", "classify", "--level", "2")
    assert code == 0
    assert "kinetic subgroup classes at level 2: 2" in out
    assert "order 1536" in out and "order 384" in out
    assert "(members found: 4; counts every member)" in out
    assert "generators:" in out


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


def test_emit_empty_records_header_only(tmp_path):
    text = cli.emit_sweep_csv([], str(tmp_path / "empty.csv"))
    assert text == "x,pi_prime,pi,ratio\n"
    assert (tmp_path / "empty.csv").read_text() == text
