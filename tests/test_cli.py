import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import lamtrans
from lamtrans import cli, corpus_path, iam
from lamtrans.cli import NoNullaryLetter, gen_tree, main
from lamtrans.core import RankedAlphabet, Tree, parse_tree
from lamtrans.iam import InternalInvariantError

COUNT = corpus_path("count.lt")
SEQNAT = corpus_path("seq-nat.lt")
BIN2BIN = corpus_path("bin2bin.lt")
LISTCOUNT = corpus_path("list-count.lt")
COUNT_TWT = corpus_path("count-twt.twt")
SEQNAT_TWT = corpus_path("seq-nat-twt.twt")
BIN2UNARY = corpus_path("bin2unary.iptt")
MIRROR = corpus_path("mirror.gls")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_normalize(capsys):
    code, out, _ = run_cli(capsys, "run", "--machine", "normalize",
                           COUNT, "a(b(c),c)")
    assert code == 0
    assert out.strip() == "S(S(S(0)))"


def test_normalize_alias(capsys):
    code, out, _ = run_cli(capsys, "normalize", COUNT, "a(b(c),c)")
    assert code == 0 and out.strip() == "S(S(S(0)))"


@pytest.mark.parametrize("machine", ["normalize", "iam", "twt", "iptt"])
def test_run_all_machines_agree(capsys, machine):
    code, out, _ = run_cli(capsys, "run", "--machine", machine,
                           COUNT, "a(b(c),c)")
    assert code == 0 and out.strip() == "S(S(S(0)))"


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", BIN2BIN)
    assert code == 0
    assert out.strip() == "almost-depth-1"


def test_typecheck(capsys):
    code, out, _ = run_cli(capsys, "typecheck", SEQNAT)
    assert code == 0
    assert out.startswith("ok:")


def test_run_twt_file(capsys):
    code, out, _ = run_cli(capsys, "run", COUNT_TWT, "a(b(c),c)")
    assert code == 0 and out.strip() == "S(S(S(0)))"


def test_run_iptt_file(capsys):
    code, out, _ = run_cli(capsys, "run", BIN2UNARY, "1(0(e))")
    assert code == 0 and out.strip() == "S(S(0))"


def test_run_gls_file(capsys):
    code, out, _ = run_cli(capsys, "run", MIRROR, "a(a(c,c),c)")
    assert code == 0 and out.strip() == "a(c,a(c,c))"


def test_tree_from_file(capsys, tmp_path):
    p = tmp_path / "input.tree"
    p.write_text("a(b(c),c)\n")
    code, out, _ = run_cli(capsys, "run", COUNT, "@" + str(p))
    assert code == 0 and out.strip() == "S(S(S(0)))"


@pytest.mark.parametrize("argv", [
    ["run", "--machine", "iam", COUNT_TWT, "a(c,c)"],
    ["run", "--machine", "twt", BIN2UNARY, "1(e)"],
    ["run", "--machine", "iam", MIRROR, "a(c,c)"],
    ["normalize", COUNT_TWT, "a(c,c)"],
    ["trace", "--machine", "iptt", COUNT_TWT, "c"],
], ids=["run-iam-twt", "run-twt-iptt", "run-iam-gls", "normalize-twt",
        "trace-iptt-twt"])
def test_a_machine_that_cannot_run_the_spec_is_refused(capsys, argv):
    # only a .lt spec runs on more than one machine
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "cannot run a ." in err


def test_each_kind_of_spec_runs_on_its_own_machine_by_default(capsys):
    for argv, want in [(["run", COUNT_TWT, "a(c,c)"], "S(S(0))"),
                       (["run", BIN2UNARY, "1(e)"], "S(0)"),
                       (["run", MIRROR, "a(a(c,c),c)"], "a(c,a(c,c))")]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.strip() == want
    for spec, tree in [(COUNT_TWT, "c"), (BIN2UNARY, "1(e)")]:
        _, default, _ = run_cli(capsys, "trace", spec, tree)
        machine = "twt" if spec == COUNT_TWT else "iptt"
        _, named, _ = run_cli(capsys, "trace", "--machine", machine, spec,
                              tree)
        assert default == named != ""


def test_trace_json_lines(capsys):
    code, out, _ = run_cli(capsys, "trace", COUNT, "a(b(c),c)")
    assert code == 0
    lines = out.strip().splitlines()
    recs = [json.loads(line) for line in lines]
    assert recs[0]["step"] == 0
    assert recs[-1]["fired"] is None
    assert all(set(r) == {"step", "frontier", "fired"} for r in recs)


def test_trace_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "trace", COUNT, "a(b(c),c)")
    _, second, _ = run_cli(capsys, "trace", COUNT, "a(b(c),c)")
    assert first == second


def test_compile_twt_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "compiled.twt"
    code, _, _ = run_cli(capsys, "compile", "--target", "twt",
                         "-o", str(out_file), COUNT)
    assert code == 0
    code, out, _ = run_cli(capsys, "run", str(out_file), "a(b(c),c)")
    assert code == 0 and out.strip() == "S(S(S(0)))"


def test_compile_iptt_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "compiled.iptt"
    code, _, _ = run_cli(capsys, "compile", "--target", "iptt",
                         "-o", str(out_file), BIN2BIN)
    assert code == 0
    code, out, _ = run_cli(capsys, "run", str(out_file), "0(0(1(0(e))))")
    assert code == 0 and out.strip() == "a(a(c,c),a(c,c))"


def test_compose(capsys, tmp_path):
    out_file = tmp_path / "composed.lt"
    code, _, _ = run_cli(capsys, "compose", "-o", str(out_file),
                         SEQNAT, LISTCOUNT)
    assert code == 0
    # seq-nat gives cons(S(0),cons(S(S(0)),nil)); list-count counts its
    # six non-cons nodes
    code, out, _ = run_cli(capsys, "run", str(out_file), "S(S(0))")
    assert code == 0 and out.strip() == "S(S(S(S(S(S(0))))))"


def test_compose_output_is_stable(capsys):
    # the printed rules are normal forms, binder names included
    code, out, _ = run_cli(capsys, "compose", SEQNAT, LISTCOUNT)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f12517cce54a59703632fecc7bc4b36062b0cdf27e2a56414bd32f8d7cf27a3c")


def test_run_prints_deep_output(capsys):
    # the balanced 4,095-node tree has 2,048 c-leaves: the output is
    # 2,048 deep
    tree = "c"
    for _ in range(11):
        tree = f"a({tree},{tree})"
    code, out, _ = run_cli(capsys, "run", "--machine", "iam", COUNT, tree)
    assert code == 0
    assert out.strip() == "S(" * 2048 + "0" + ")" * 2048


def test_run_normalize_on_deep_input(capsys):
    chain = "b(" * 999 + "c" + ")" * 999
    code, out, err = run_cli(capsys, "run", "--machine", "normalize",
                             COUNT, chain)
    assert code == 0, err
    assert out.strip() == "S(" * 1000 + "0" + ")" * 1000


@pytest.mark.parametrize("depth", [1000, 10_000])
def test_run_iam_on_deep_input(capsys, depth):
    # the program is typed from the record its spec's blocks assemble, so
    # no pass on the way to the token machine recurses on it
    chain = "b(" * (depth - 1) + "c" + ")" * (depth - 1)
    code, out, err = run_cli(capsys, "run", "--machine", "iam", COUNT, chain)
    assert code == 0 and err == ""
    assert out == "S(" * depth + "0" + ")" * depth + "\n"
    assert run_cli(capsys, "run", "--machine", "normalize", COUNT, chain) == \
        (0, out, "")


def test_difftest_compares_deep_outputs(capsys, monkeypatch):
    # one case, S^3000(0) deep: every backend's output is compared with the
    # normal form's; then the token machine raises, and its error line is
    # a disagreement
    tree = parse_tree("b(" * 2999 + "c" + ")" * 2999)
    monkeypatch.setattr(cli, "gen_tree", lambda rng, alphabet, size: tree)
    code, out, err = run_cli(capsys, "difftest", "--cases", "1", COUNT)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0] == f"{COUNT}: 1/1 agree (normalize, iam, twt, iptt)"
    assert lines[1].startswith("total ")
    assert "Traceback" not in out + err

    def broken(ann):
        raise InternalInvariantError("malformed stack")

    monkeypatch.setattr(iam, "iam_machine", broken)
    code, out, err = run_cli(capsys, "difftest", "--cases", "1", COUNT)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith(f"{COUNT}: case 0 (b(b(")
    assert lines[1] == "  normalize: " + "S(" * 3000 + "0" + ")" * 3000
    assert lines[2] == "  iam: error: malformed stack"
    assert lines[3] == f"{COUNT}: 0/1 agree (normalize, iam, twt, iptt)"
    assert lines[4].startswith("total ")
    assert "Traceback" not in out + err


def test_difftest(capsys):
    code, out, _ = run_cli(capsys, "difftest", "--seed", "42",
                           "--cases", "100", SEQNAT)
    assert code == 0
    assert "100/100 agree" in out


def test_difftest_reports_failing_backends(capsys):
    # with 5 steps of fuel normalization raises and the machines diverge
    code, out, err = run_cli(capsys, "--fuel", "5", "difftest",
                             "--cases", "3", COUNT)
    assert code == 1
    for i in range(3):
        assert f"case {i} (" in out
    assert "normalize: error: no normal form within 5 steps" in out
    assert "iam: no output within 5 steps" in out
    assert "0/3 agree" in out
    assert "Traceback" not in out + err


def test_difftest_reports_an_output_too_large_to_print(capsys):
    # case 21 is value 325: its normal form has 2^326 - 1 node occurrences
    # in a DAG of 327 nodes, and difftest reports it without expanding it;
    # the machines run out of the lowered fuel
    code, out, err = run_cli(capsys, "--fuel", "100000", "difftest",
                             "--seed", "3", "--cases", "22", "--size", "10",
                             BIN2BIN)
    assert code == 1
    lines = out.splitlines()
    i = lines.index(f"{BIN2BIN}: case 21 (1(0(1(0(0(0(1(0(1(e)))))))))) "
                    "disagrees:")
    assert lines[i + 1:i + 5] == [
        "  normalize: a tree of more than 10000 nodes, not shown",
        "  iam: no output within 100000 steps",
        "  iptt: no output within 100000 steps",
        f"{BIN2BIN}: 20/22 agree (normalize, iam, iptt)"]
    assert "Traceback" not in out + err


def test_difftest_shows_a_tree_of_up_to_ten_thousand_nodes():
    chain = parse_tree("b(" * 9999 + "c" + ")" * 9999)
    assert cli.shown(chain) == chain.to_str()
    too_large = "a tree of more than 10000 nodes, not shown"
    assert cli.shown(Tree("b", (chain,))) == too_large
    # a shared subtree counts at each of its occurrences
    t = Tree("c")
    for _ in range(12):
        t = Tree("a", (t, t))
    assert cli.shown(t) == t.to_str()       # 2^13 - 1 = 8191 nodes
    assert cli.shown(Tree("a", (t, t))) == too_large
    assert cli.shown("error: stuck") == "error: stuck"


def test_trace_of_an_output_deeper_than_the_recursion_limit(capsys):
    # the recursion limit is lowered so that the trace stays small
    n = 160
    chain = "b(" * n + "c" + ")" * n
    script = ("import sys; sys.setrecursionlimit(150); "
              "from lamtrans.cli import main; sys.exit(main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(lamtrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, "trace",
                           "--machine", "twt", COUNT, chain],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    code, out, _ = run_cli(capsys, "run", "--machine", "twt", COUNT, chain)
    assert code == 0
    assert last["fired"] is None
    assert last["frontier"] == out.strip() == \
        "S(" * (n + 1) + "0" + ")" * (n + 1)


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(lamtrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "lamtrans", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: lamtrans")


@pytest.mark.parametrize("k", [600, 900, 980])
@pytest.mark.parametrize("command", ["typecheck", "run", "compose"])
def test_a_spec_of_deep_boxes_gives_a_result_or_a_clean_error(tmp_path, k,
                                                              command):
    # memory and rule are k boxes deep: a command prints its result, or
    # the checker refuses a term too deep for its recursion, and no pass
    # after the checker crashes
    spec = tmp_path / "deep.lt"
    spec.write_text(f"input {{ c:0 }}\noutput {{ c:0 }}\n"
                    f"memory {'!' * k}o\nrule c = {'!' * k}c\n"
                    "out = \\x. let !y = x in c\n")
    args = {"typecheck": [spec], "run": [spec, "c"],
            "compose": [spec, spec]}[command]
    src = os.path.dirname(os.path.dirname(lamtrans.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "lamtrans", command, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        assert proc.stdout and not proc.stderr
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert " nests too deeply " in proc.stderr
        assert proc.stderr.count("\n") == 1


def test_reversible_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "reversible", COUNT_TWT)
    assert code == 0 and "reversible" in out
    code, out, _ = run_cli(capsys, "reversible", SEQNAT_TWT)
    assert code == 1 and "not reversible" in out


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["run", "--machine", "bogus", COUNT, "c"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--fuel", "-1", "run", "--machine", "iam", COUNT, "c"],
    ["--fuel", "-1", "run", COUNT, "c"],
    ["difftest", "--cases", "-3", COUNT],
    ["difftest", "--size", "-3", COUNT],
    ["difftest", "--cases", "two", COUNT],
])
def test_a_negative_or_malformed_count_is_a_usage_error(capsys, argv):
    option = next(a for a in argv if a.startswith("--") and a != "--machine")
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert f"error: argument {option}: " in capsys.readouterr().err


def test_a_zero_count_is_taken(capsys):
    assert run_cli(capsys, "--fuel", "0", "run", COUNT, "c") == \
        (1, "", "error: no normal form within 0 steps\n")
    code, out, _ = run_cli(capsys, "difftest", "--size", "0", "--cases",
                           "2", COUNT)
    assert code == 0 and "2/2 agree" in out
    code, out, _ = run_cli(capsys, "difftest", "--cases", "0", COUNT)
    assert code == 0 and "0/0 agree" in out


def test_missing_file_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-file.lt", "c")
    assert code == 1
    assert "error" in err


def test_bad_tree_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "run", COUNT, "a(b(c)")
    assert code == 1


@pytest.mark.parametrize("letter,image,message", [
    ("b", "S", "arity mismatch at 'S'"),
    ("b", "S(0, 0)", "arity mismatch at 'S'"),
    ("x", "0", "unknown letter 'x'"),
    ("b", "(q, to-parent)", "root image moves to-parent: {}"),
])
def test_malformed_iptt_is_exit_1_as_in_a_twt(capsys, tmp_path, letter,
                                              image, message):
    head = "input { b:1, e:0 }\noutput { S:1, 0:0 }\nstate q init\n"
    for ext, line, key in [
            ("twt", f"delta-root {letter} q self", (letter, "q", "self")),
            ("iptt", f"delta {letter} q self root pebble NONE",
             (letter, "q", "self", True, None))]:
        path = tmp_path / f"bad.{ext}"
        path.write_text(f"{head}{line} = {image}\n")
        # an unknown letter is refused on its line, the image when built
        where = f"{path}:4" if letter == "x" else path
        assert run_cli(capsys, "run", str(path), "b(e)") == (
            1, "", f"error: {where}: {message.format(key)}\n")


# -- random input generation ------------------------------------------------

def test_gen_tree_seeded_and_bounded():
    alpha = RankedAlphabet.of({"a": 2, "b": 1, "c": 0})
    one = [gen_tree(random.Random(5), alpha, 30) for _ in range(10)]
    two = [gen_tree(random.Random(5), alpha, 30) for _ in range(10)]
    assert one == two
    for t in one:
        assert t.size() <= 30
        t.validate(alpha)


def test_gen_tree_requires_nullary():
    with pytest.raises(NoNullaryLetter):
        gen_tree(random.Random(0), RankedAlphabet.of({"b": 1}), 5)
