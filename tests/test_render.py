"""core.render_term, the one renderer of terms, against the recursive
printer it replaced (reference_terms.term_to_str_by_recursion): the same
text unmarked, and marked at every position in both directions, on every
corpus term and on seeded random terms; terms of any depth; and a compile
or a run renders each term at most once."""

import random

import pytest

from lamtrans import corpus_path, iam
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import (App, Box, Const, Lam, Let, Var, children, marked,
                           number_term, parse_tree, render_term, term_to_str,
                           with_children)
from lamtrans.gls import load_gls
from lamtrans.iam import IamMachine, TermInfo
from lamtrans.transducer import load_transducer
from lamtrans.treegen import run, trace_lines
from lamtrans.typecheck import Arrow, Bang, O

from conftest import numeral
from reference_terms import (positions, sample_normal_term,
                             term_to_str_by_recursion)

LT_SPECS = ["count.lt", "seq-nat.lt", "bin2bin.lt", "list-count.lt"]


def at(kids, path):
    """The position (number_term) that a path of child indices names."""
    pos = 0
    for i in path:
        pos += kids[pos][i]
    return pos


def assert_renders_alike(t):
    """render_term and term_to_str give the recursive printer's text,
    unmarked and marked at each position (in preorder) both ways, the
    position found from its path too."""
    text, spans = render_term(t)
    assert text == term_to_str(t) == term_to_str_by_recursion(t)
    paths, kids = positions(t), number_term(t)[1]
    assert len(spans) == len(paths)
    for path, span in zip(paths, spans):
        for d in ("down", "up"):
            want = term_to_str_by_recursion(t, path, d)
            assert marked(text, span, d) == want
            assert marked(text, spans[at(kids, path)], d) == want


def corpus_terms():
    """Every corpus spec's rules and out-terms, as written and normalized,
    its blocks' terms and local terms, and a program of each .lt spec."""
    terms = []
    for name in LT_SPECS:
        spec = load_transducer(corpus_path(name))
        terms += [*spec.rules.values(), spec.out, *spec.norm_rules.values(),
                  spec.norm_out]
        for block in spec.blocks:
            terms += [block.term, block.info.term]
        leaf = spec.input.nullary()
        unary = next(a for a, k in spec.input.letters if k == 1)
        tau = parse_tree(f"{unary}({unary}({leaf}))", spec.input)
        terms.append(spec.program_term(tau))
    mirror = load_gls(corpus_path("mirror.gls"))
    return terms + [t for t, _ in mirror.rules.values()] + [mirror.out]


def test_the_renderer_agrees_with_the_recursive_one_on_the_corpus():
    terms = corpus_terms()
    kinds = {s.__class__ for t in terms for s in number_term(t)[0]}
    assert kinds == {App, Box, Const, Lam, Let, Var}
    for t in terms:
        assert_renders_alike(t)


def decorated(t, rng):
    """t with random subterms boxed, let-bound and abstracted, so that
    every kind of term stands at every level the printer parenthesizes;
    the result need not type."""
    t = with_children(t, [decorated(c, rng) for c in children(t)])
    r = rng.random()
    if r < 0.15:
        return Box(t)
    if r < 0.3:
        return Let("z", Box(t), App(Var("z"), Var("z")))
    if r < 0.4:
        return Let("w", Var("y"), t)
    if r < 0.5:
        return App(Lam("v", t, O), Box(Var("v")))
    return t


def test_the_renderer_agrees_with_the_recursive_one_on_random_terms(mirror):
    rng = random.Random(29)
    types = [O, Arrow(O, O), Arrow(Arrow(O, O), Arrow(O, O)),
             Arrow(O, Arrow(O, O))]
    for _ in range(200):
        t = sample_normal_term(rng.choice(types), mirror.output, rng,
                               size=rng.randint(0, 10))
        assert_renders_alike(t)
        assert_renders_alike(decorated(t, rng))
    hinted = Lam("x", Box(Var("x")), Bang(O))
    assert_renders_alike(App(hinted, Box(Const("c"))))


def test_a_term_ten_thousand_deep_renders():
    n = 10_000
    t = Const("0")
    for _ in range(n):
        t = App(Const("S"), t)
    text, spans = render_term(t)
    assert text == "S (" * (n - 1) + "S 0" + ")" * (n - 1)
    assert marked(text, spans[-1], "up") == text[:-n] + "<0>" + ")" * (n - 1)
    kids = number_term(t)[1]
    assert at(kids, (1,) * n) == len(spans) - 1
    assert marked(text, spans[at(kids, (1,) * (n - 1))], "down") == \
        text[:3 * (n - 1)] + ">S 0<" + ")" * (n - 1)
    t = Var("x")
    for i in range(n):
        t = [Box(t), Lam("x", t), Let("y", t, Var("y"))][i % 3]
    text, spans = render_term(t)
    assert len(spans) == n + 1 + n // 3
    assert text.count("(") == text.count(")") > 0
    assert marked(text, spans[0], "down") == ">" + text + "<"


@pytest.fixture
def renders(monkeypatch):
    """The terms that a block or a token machine renders (iam calls
    core.render_term for both), in order."""
    calls = []

    def counting(t):
        calls.append(t)
        return render_term(t)

    monkeypatch.setattr(iam, "render_term", counting)
    return calls


@pytest.mark.parametrize("name, compile, states", [
    ("bin2bin.lt", compile_to_iptt, 91),
    ("count.lt", compile_to_twt, 46),
])
def test_a_compile_renders_each_block_at_most_once(renders, name, compile,
                                                   states):
    spec = load_transducer(corpus_path(name))   # blocks not yet rendered
    assert renders == []
    assert len(compile(spec).states) == states
    blocks = list(spec.blocks)
    assert 0 < len(renders) <= len(blocks)
    assert len(set(map(id, renders))) == len(renders)
    assert all(any(t is b.term for b in blocks) for t in renders)
    n = len(renders)
    assert len(compile(spec).states) == states
    assert len(renders) == n    # a block keeps its text


def test_an_untraced_run_renders_nothing_and_a_trace_renders_once(
        renders, bin2bin):
    tau = parse_tree(numeral(3), bin2bin.input)
    m = IamMachine(TermInfo(bin2bin.program_ann(tau)), "ss")
    res = run(m, m.initial())
    assert res.tree.size() > 1
    assert renders == []
    lines = list(trace_lines(m, m.initial()))
    assert len(lines) > 10
    assert renders == [m.info.term]
