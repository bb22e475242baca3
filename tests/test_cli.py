import os
import re
import subprocess
import sys

import pytest

import ngons
from ngons import (BipartiteGraph, default_mu, format_graph, make_cycle,
                   make_path, parse_graph, fano_graph)
from ngons.cli import main

CYCLES = re.compile(r"(\(\d+( \d+)+\))+")  # format_cycles of a non-identity


@pytest.fixture()
def fano_file(tmp_path):
    p = tmp_path / "fano.txt"
    p.write_text(format_graph(fano_graph()))
    return str(p)


@pytest.fixture()
def cyc8_file(tmp_path):
    p = tmp_path / "cyc8.txt"
    p.write_text(format_graph(make_cycle(3, 8)))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_and_dmin(capsys, fano_file):
    code, out, _ = run(capsys, "delta", fano_file, "0,1,2")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "dmin", fano_file, "0,1", "--format", "structured")
    assert code == 0 and out.strip() == "dmin 4"


def test_named_subset(capsys, tmp_path):
    g = make_path(3, 2)
    p = tmp_path / "p.txt"
    p.write_text(format_graph(g))
    code, out, _ = run(capsys, "delta", str(p), "endpoints")
    assert code == 0 and out.strip() == "4"


def test_strong_exit_codes(capsys, fano_file):
    code, out, err = run(capsys, "strong", fano_file, "0,1,2")
    assert code == 1 and out.strip() == "false" and err.startswith("violator")
    code, out, _ = run(capsys, "strong", fano_file, "0")
    assert code == 0 and out.strip() == "true"


def test_closure(capsys, cyc8_file):
    code, out, _ = run(capsys, "closure", cyc8_file, "0,1")
    assert code == 0 and out.strip() == "0,1"


def test_zeroalg(capsys, tmp_path):
    g = make_path(3, 2)
    p = tmp_path / "p.txt"
    p.write_text(format_graph(g))
    code, out, _ = run(capsys, "zeroalg", str(p), "--base", "endpoints",
                       "--body", "interior")
    assert code == 0
    assert out.splitlines() == ["true", "true"]
    code, out, err = run(capsys, "zeroalg", str(p), "--enumerate")
    assert code == 0 and out == "PAIR base=0,2 body=1\n"
    assert err == "SEARCHED max_body=12\n"
    code, out, err = run(capsys, "zeroalg", str(p), "--enumerate",
                         "--max-body", "1")
    assert (code, out, err) == (0, "PAIR base=0,2 body=1\n",
                                "SEARCHED max_body=1\n")
    code, _, err = run(capsys, "zeroalg", str(p))
    assert code == 2
    # algebraic over a base with an isolated extra vertex, minimally over less
    h = tmp_path / "h.txt"
    h.write_text(format_graph(BipartiteGraph(3, {0: 0, 1: 1, 2: 0, 9: 0}, [(0, 1), (1, 2)])))
    assert run(capsys, "zeroalg", str(h), "--base", "0,2,9", "--body", "1") == (
        1, "true\nfalse\n", "minimal_base 0,2\n")


def test_negative_ids(capsys, tmp_path):
    """Subsets and --base/--body values may start with a negative id."""
    g = BipartiteGraph(3, {-5: 0, -2: 1, 7: 0, 2: 1},
                       [(-5, -2), (-2, 7), (7, 2)])
    p = tmp_path / "neg.txt"
    p.write_text(format_graph(g))
    assert run(capsys, "delta", str(p), "-5,2") == (0, "4\n", "")
    assert run(capsys, "delta", str(p), "-5") == (0, "2\n", "")
    assert run(capsys, "delta", str(p), "-5,-2", "--format",
               "structured") == (0, "delta 3\n", "")
    assert run(capsys, "closure", str(p), "-5,7") == (0, "-5,7\n", "")
    for argv in (("--base", "-5,7", "--body", "-2"),
                 ("--body", "-2", "--base", "-5,7")):
        assert run(capsys, "zeroalg", str(p), *argv) == (0, "true\ntrue\n", "")
    code, out, _ = run(capsys, "zeroalg", str(p), "--base", "-5,2",
                       "--body", "7")
    assert (code, out) == (1, "false\nfalse\n")


def test_kmu(capsys, cyc8_file, tmp_path):
    code, out, err = run(capsys, "kmu", cyc8_file)
    assert (code, out) == (0, "true\n")
    # the limits the verdict holds within, defaults resolved for n = 3
    assert err == "SEARCHED horizon=12 max_body=12\n"
    code, out, err = run(capsys, "kmu", cyc8_file, "--horizon", "8",
                         "--max-body", "4")
    assert (code, out, err) == (0, "true\n",
                                "SEARCHED horizon=8 max_body=4\n")
    bad = tmp_path / "bad.txt"
    bad.write_text(format_graph(make_cycle(3, 4)))
    code, out, _ = run(capsys, "kmu", str(bad))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "false"
    assert any(line.startswith("VIOLATION short_cycle") for line in lines[1:])


def test_kmu_mu_file(capsys, cyc8_file, tmp_path):
    """`--mu FILE` reads a mu-function: the default one written out
    answers as no file does; one for another n, malformed JSON or JSON
    of another shape exits 2."""
    mu3, mu4 = tmp_path / "mu3.json", tmp_path / "mu4.json"
    mu3.write_text(default_mu(3).to_json())
    mu4.write_text(default_mu(4).to_json())
    (c4 := tmp_path / "c4.txt").write_text(format_graph(make_cycle(3, 4)))
    for graph in (cyc8_file, str(c4)):  # a member and a graph with violations
        assert run(capsys, "kmu", graph, "--mu", str(mu3)) == run(capsys, "kmu", graph)
    code, out, err = run(capsys, "kmu", cyc8_file, "--mu", str(mu4))
    assert (code, out) == (2, "") and err.startswith("error: mu file is for n=4")
    for text in ("{not json", "[3]", '{"n": 3, "overrides": [{"graph": "ngon 3", "base": [],'
                 ' "body": [], "value": null}]}'):
        (junk := tmp_path / "junk.json").write_text(text)
        code, out, err = run(capsys, "kmu", cyc8_file, "--mu", str(junk))
        assert (code, out) == (2, "") and err.startswith("error: bad mu file"), text
        assert err.count("\n") == 1


def test_witness_round_trip(capsys, tmp_path):
    out_file = tmp_path / "w.txt"
    for argv in (["witness", "path", "3", "4"],
                 ["witness", "cycle", "4", "10"],
                 ["witness", "gamma", "5"],
                 ["witness", "cl", "3", "2", "--with-b"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        g = parse_graph(out)
        code, _, _ = run(capsys, *argv, "-o", str(out_file))
        assert code == 0
        assert parse_graph(out_file.read_text()) == g


def test_grow_cli(capsys, cyc8_file, tmp_path):
    out_file = tmp_path / "g.txt"
    log_file = tmp_path / "g.log"
    code, _, _ = run(capsys, "grow", cyc8_file, "--steps", "5", "--seed", "4",
                     "-o", str(out_file), "--log", str(log_file))
    assert code == 0
    g = parse_graph(out_file.read_text())
    log = log_file.read_text().splitlines()
    assert len(log) == 5 and all(line.startswith("STEP ") for line in log)
    # determinism: repeat byte-identically
    out2 = tmp_path / "g2.txt"
    run(capsys, "grow", cyc8_file, "--steps", "5", "--seed", "4",
        "-o", str(out2), "--log", str(log_file))
    assert out2.read_bytes() == out_file.read_bytes()
    # without --log the step log goes to stderr
    code, out, err = run(capsys, "grow", cyc8_file, "--steps", "5", "--seed", "4")
    assert code == 0 and parse_graph(out) == g
    assert err == log_file.read_text()
    # the seed is mandatory
    code, _, _ = run(capsys, "grow", cyc8_file, "--steps", "5",
                     "-o", str(out_file))
    assert code == 2


def test_verify_ngon(capsys, fano_file, tmp_path):
    code, out, _ = run(capsys, "verify-ngon", fano_file, "--thick")
    assert code == 0 and out.strip() == "true"
    p = tmp_path / "p.txt"
    p.write_text(format_graph(make_path(3, 3)))
    code, out, err = run(capsys, "verify-ngon", str(p))
    assert code == 1 and out.strip() == "false" and err


def test_group_commands(capsys, fano_file):
    code, out, _ = run(capsys, "aut", fano_file, "--type-preserving")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "order 168"
    assert all(CYCLES.fullmatch(line) for line in lines[1:])
    code, out, _ = run(capsys, "aut", fano_file)
    lines = out.splitlines()
    assert code == 0 and lines[0] == "order 336"
    assert len(lines) > 1 and all(CYCLES.fullmatch(line) for line in lines[1:])
    code, out, _ = run(capsys, "strans", fano_file)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "moufang", fano_file)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "transdeg", fano_file, "0")
    assert code == 0 and out.strip() == "3"


def test_verdict_lines_pinned(capsys, fano_file, cyc8_file):
    """Exit code, stdout and stderr of each true/false verdict, byte for
    byte, plain and structured."""
    girth8 = "girth is 8, expected 6 (witness cycle (0, 1, 2, 3, 4, 5, 6, 7))\n"
    for argv, want in (
            (["strong", fano_file, "0,1,2"], (1, "false\n", "violator 0,1,2,7\n")),
            (["strong", fano_file, "0,1,2", "--format", "structured"],
             (1, "strong false\n", "violator 0,1,2,7\n")),
            (["verify-ngon", cyc8_file], (1, "false\n", girth8)),
            (["verify-ngon", cyc8_file, "--format", "structured"],
             (1, "ngon false\n", girth8)),
            (["strans", fano_file], (0, "true\n", "")),
            (["strans", fano_file, "--format", "structured"],
             (0, "strongly_transitive true\n", "")),
            (["moufang", fano_file], (0, "true\n", ""))):
        assert run(capsys, *argv) == want


def test_witness_has_no_format_option(capsys):
    """`witness` writes a graph, so it takes no --format."""
    assert run(capsys, "witness", "cycle", "3", "8", "--format", "plain")[0] == 2


def test_aut_and_grow_take_no_format_option(capsys, fano_file, cyc8_file, tmp_path):
    """`aut` and `grow` never print through --format, so they reject it."""
    out = str(tmp_path / "g.txt")
    assert run(capsys, "aut", fano_file, "--format", "plain")[0] == 2
    assert run(capsys, "grow", cyc8_file, "--steps", "1", "--seed", "1", "-o", out,
               "--format", "plain")[0] == 2


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_1_without_traceback(fano_file, unbuffered):
    """A reader that closes stdout before the command writes (as `head`
    does once it has its line) gets exit code 1 and nothing on stderr."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.path.dirname(os.path.dirname(ngons.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "ngons.cli", "aut", fano_file],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_malformed_inputs(capsys, tmp_path, fano_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertex 0 0\n")
    for argv in (["delta", str(bad), "0"],
                 ["kmu", str(bad)],
                 ["aut", str(bad)],
                 ["delta", str(tmp_path / "missing.txt"), "0"],
                 ["delta", fano_file, "0,99"],
                 ["transdeg", fano_file, "99"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err
    path = tmp_path / "path.txt"
    path.write_text(format_graph(make_path(3, 4)))
    not_ngon = ("graph is not a generalized 3-gon: girth is inf, expected 6 "
                "(witness cycle None)")
    for argv, message in (
            (["zeroalg", str(path), "--base", "0,1", "--body", "1,2"],
             "base and body must be disjoint, share [1]"),
            (["witness", "cycle", "3", "5"],
             "cycle length must be even and >= 4, got 5"),
            (["strans", str(path)], not_ngon),
            (["moufang", str(path)], not_ngon)):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, "error: %s\n" % message)


def test_unknown_command(capsys):
    code = main(["frobnicate"])
    assert code == 2
