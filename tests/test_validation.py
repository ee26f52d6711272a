"""Every backend checks an input tree against its input alphabet inside a
walk it makes anyway.  A tree that fits runs with no call to
Tree.validate; one that does not fit -- a letter of the wrong rank, or one
the alphabet lacks -- is refused with Tree.validate's own message, the
first fault in preorder, from the library and from the CLI."""

import pytest

from lamtrans import corpus_path
from lamtrans.cli import difftest_backends, main
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import LamtransError, Tree, parse_tree
from lamtrans.gls import make_type_constant, split_state_relabeling
from lamtrans.treegen import Output, run
from lamtrans.walking import WalkingMachine


def T(label, *children):
    return Tree(label, children)


# trees over { a:2, b:1, c:0 } that do not fit it: a letter of the wrong
# rank, a letter the alphabet lacks, and both (the first in preorder is
# reported)
ILL_RANKED = T("b", T("a", T("c")))
UNKNOWN = T("a", T("c"), T("b", T("d")))
BOTH = T("a", T("b", T("c"), T("c")), T("d"))
BAD = [ILL_RANKED, UNKNOWN, BOTH]
IDS = ["ill-ranked", "unknown-letter", "both"]


def validate_message(tau, alphabet):
    with pytest.raises(LamtransError) as e:
        tau.validate(alphabet)
    return str(e.value)


def assert_refused(tau, alphabet, call):
    """call(tau) raises the LamtransError Tree.validate raises for tau."""
    want = validate_message(tau, alphabet)
    with pytest.raises(LamtransError) as e:
        call(tau)
    assert str(e.value) == want


@pytest.fixture
def validations(monkeypatch):
    """The list of trees Tree.validate is called on from now."""
    calls = []
    validate = Tree.validate

    def counted(self, alphabet):
        calls.append(self)
        return validate(self, alphabet)
    monkeypatch.setattr(Tree, "validate", counted)
    return calls


def test_the_bad_trees_fail_validate_as_described(count):
    assert validate_message(ILL_RANKED, count.input) == \
        "letter a has rank 2, got 1 children"
    assert validate_message(UNKNOWN, count.input) == "unknown letter 'd'"
    assert validate_message(BOTH, count.input) == \
        "letter b has rank 1, got 2 children"


def run_to_str(m):
    res = run(m, m.initial())
    assert isinstance(res, Output)
    return res.tree.to_str()


def test_a_tree_that_fits_runs_everywhere_without_validate(
        validations, count, mirror, count_twt, bin2unary):
    jobs = [(count, "a(b(c),a(c,b(c)))", "lt"), (mirror, "a(a(c,c),c)", "gls")]
    for spec, text, kind in jobs:
        tau = parse_tree(text, spec.input)
        results = [backend(tau).tree
                   for _, backend in difftest_backends(kind, spec, 10_000)]
        assert len(results) >= 4
        assert all(r == results[0] for r in results)
    for spec, text, want in [(count_twt, "a(b(c),c)", "S(S(S(0)))"),
                             (bin2unary, "1(0(e))", "S(S(0))")]:
        m = WalkingMachine(spec, parse_tree(text, spec.input))
        assert run_to_str(m) == want
    assert validations == []


@pytest.mark.parametrize("tau", BAD, ids=IDS)
def test_lambda_transducer_entry_points_refuse(count, tau):
    for call in (count.program_term, count.program_ann, count.eval_normalize):
        assert_refused(tau, count.input, call)


@pytest.mark.parametrize("tau", BAD, ids=IDS)
def test_walking_machines_refuse(count, count_twt, tau):
    for spec in (compile_to_twt(count), compile_to_iptt(count), count_twt):
        assert_refused(tau, count.input, lambda t: WalkingMachine(spec, t))


def test_a_corpus_iptt_refuses(bin2unary):
    for tau in (T("1", T("0")), T("0", T("e", T("e"))), T("2", T("e"))):
        assert_refused(tau, bin2unary.input,
                       lambda t: WalkingMachine(bin2unary, t))


# trees over mirror.gls's { a:2, c:0 } that do not fit it
GLS_BAD = [T("a", T("c")), T("a", T("c"), T("d")),
           T("a", T("a", T("c"), T("b", T("c"))), T("c", T("c")))]


@pytest.mark.parametrize("tau", GLS_BAD, ids=IDS)
def test_gls_runs_refuse(mirror, tau):
    const = make_type_constant(mirror)
    relabel, trans = split_state_relabeling(const)
    for call in (mirror.run, mirror.build, const.run,
                 lambda t: trans.program_term(relabel(t))):
        assert_refused(tau, mirror.input, call)


# the CLI reads the tree with the spec's alphabet
CLI_BAD = [("count.lt", "b(a(c))", "letter a has rank 2, got 1 children"),
           ("count.lt", "a(c,b(d))", "unknown letter 'd'"),
           ("count.lt", "a(b(c,c),d)", "letter b has rank 1, got 2 children")]


@pytest.mark.parametrize("machine", ["normalize", "iam", "twt", "iptt"])
@pytest.mark.parametrize("fname, text, message", CLI_BAD, ids=IDS)
def test_cli_run_refuses_on_every_machine(capsys, machine, fname, text,
                                          message):
    assert main(["run", "--machine", machine, corpus_path(fname), text]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fname, text, message", [
    ("count-twt.twt", "b(a(c))", "letter a has rank 2, got 1 children"),
    ("count-twt.twt", "a(c,d)", "unknown letter 'd'"),
    ("bin2unary.iptt", "1(0)", "letter 0 has rank 1, got 0 children"),
    ("bin2unary.iptt", "1(2(e))", "unknown letter '2'"),
    ("mirror.gls", "a(c)", "letter a has rank 2, got 1 children"),
    ("mirror.gls", "a(c,b)", "unknown letter 'b'"),
])
def test_cli_run_refuses_on_corpus_machines(capsys, fname, text, message):
    assert main(["run", corpus_path(fname), text]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
