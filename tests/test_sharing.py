"""Call-by-need normalization against call by name.

`normalize` evaluates a let-bound box body once and reads a ground value
back once; each reuse is charged what the first evaluation or read-back
spent.  `reference_reduction.normalize_by_name` evaluates and reads the
body again at each use.  The two must give the same normal form, the same
binder names and lambda hints, and run out of fuel at the same fuel."""

import random

import pytest

from lamtrans import corpus_path
from lamtrans.cli import gen_tree
from lamtrans.core import (App, Box, Const, Let, RankedAlphabet, TooDeep,
                           Var, decode_tree, parse_term, parse_tree)
from lamtrans.gls import load_gls, make_type_constant, split_state_relabeling
from lamtrans.reduction import OutOfFuel, normalize
from lamtrans.transducer import load_transducer
from conftest import numeral, unary
from reference_reduction import normalize_by_name
from test_reduction import elaboration_terms, lam_hints, random_term

OUT = RankedAlphabet.of({"a": 2, "b": 2, "c": 0})


def outcome(norm, t, fuel):
    try:
        return norm(t, fuel)
    except OutOfFuel as e:
        return str(e)


def assert_same_at_every_fuel(t, limit=None):
    """normalize and normalize_by_name agree on t at every fuel from 0 to
    the fuel needed + 1, or up to limit if t needs more.  Returns the fuel
    needed, or None past the limit."""
    fuel = 0
    while limit is None or fuel <= limit:
        ref = outcome(normalize_by_name, t, fuel)
        got = outcome(normalize, t, fuel)
        assert got == ref, fuel
        if not isinstance(ref, str):
            assert lam_hints(got) == lam_hints(ref)
            assert normalize(t, fuel + 1) == ref
            return fuel
        fuel += 1
    return None


def corpus_programs():
    specs = {name: load_transducer(corpus_path(name + ".lt"))
             for name in ("count", "seq-nat", "bin2bin", "list-count")}
    out = []
    rng = random.Random(11)
    for name, sizes in (("count", (1, 4, 9, 15)), ("seq-nat", (1, 3, 6, 9)),
                        ("list-count", (1, 5, 9, 15))):
        spec = specs[name]
        out += [spec.program_term(gen_tree(rng, spec.input, n))
                for n in sizes]
    out += [specs["seq-nat"].program_term(parse_tree(unary(n),
                                                     specs["seq-nat"].input))
            for n in (0, 4)]
    # bin2bin's output is doubly exponential in the numeral's length
    out += [specs["bin2bin"].program_term(parse_tree(numeral(n),
                                                     specs["bin2bin"].input))
            for n in range(8)]
    mirror = load_gls(corpus_path("mirror.gls"))
    const = make_type_constant(mirror)
    relabel, split = split_state_relabeling(const)
    for s in ("c", "a(c,c)", "a(a(c,c),a(c,a(c,c)))"):
        tau = parse_tree(s, mirror.input)
        out += [App(mirror.norm_out, mirror.build(tau)),
                App(const.norm_out, const.build(tau)),
                split.program_term(relabel(tau))]
    return out


def test_same_as_call_by_name_on_the_corpus_at_every_fuel():
    for t in corpus_programs():
        assert_same_at_every_fuel(t)


def test_same_as_call_by_name_on_elaboration(monkeypatch):
    for t in elaboration_terms(monkeypatch):
        assert_same_at_every_fuel(t)


def test_same_as_call_by_name_on_random_terms():
    rng = random.Random(8)
    for _ in range(2000):
        u = random_term(rng, rng.randint(1, 6), [])
        if assert_same_at_every_fuel(u, limit=60) is None:
            assert outcome(normalize, u, 61) == outcome(normalize_by_name,
                                                        u, 61)


@pytest.mark.parametrize("src", [
    # x's body needs a contraction only when it is read back
    r"let !x = !(a ((\y. y) c) c) in b x x",
    # and one to reach its value
    r"let !x = !((\y. y) (a ((\u. u) c) c)) in b x x",
    # a shared body that reads back another one
    r"let !x = !(a ((\y. y) c) c) in let !z = !(b x x) in a z z",
    # through a let at a distance
    r"(\g. g c) (let !x = !(a ((\y. y) c) c) in \w. b x (a w x))",
    r"let !x = (let !y = !c in !(a ((\u. u) y) y)) in b x x",
    # a shared closure, applied at each use
    r"let !f = !(\y. a y ((\u. u) c)) in b (f c) (f ((\u. u) c))",
    # closures that take a contraction to reach, and then are reused
    r"let !f = !((\y. y) (\z. a z ((\u. u) c))) in b (f c) (f c)",
    r"let !f = !((\y. \z. a z y) c) in b (f c) (f c)",
    # a value forced in evaluation and then read back
    r"let !x = !((\y. y) (a c)) in b (x c) x",
    # shared values that are not ground: read back at each use
    r"let !x = !(\y. (\u. u) y) in a x x",
    # where the second use sits under a binder of the same name as a free
    # variable of the value: renamed there, not captured
    r"\q. let !z = !((\w. w) (a q c)) in b z (\q. b z c)",
    r"\g. let !x = g in let !z = !(a x ((\u. u) c)) in b z z",
    r"\v. let !z = !(a v ((\u. u) c)) in b z z",
])
def test_same_as_call_by_name_on_shared_bodies(src):
    assert assert_same_at_every_fuel(parse_term(src, OUT)) is not None


def test_a_ground_body_is_read_back_and_decoded_once():
    nf = normalize(parse_term(r"let !x = !(a ((\y. y) c) c) in b x x", OUT))
    assert nf == parse_term("b (a c c) (a c c)", OUT)
    assert nf.fn.arg is nf.arg
    tree = decode_tree(nf)
    assert tree.children[0] is tree.children[1]
    tree = decode_tree(parse_term("b (a c c) (a c c)", OUT))
    assert tree.children[0] == tree.children[1]
    assert tree.children[0] is not tree.children[1]


def test_seq_nat_shares_each_head_with_the_next(seqnat):
    # at call by name this input takes tens of seconds: the i-th head is
    # evaluated and read back afresh from the i-1 before it
    n = 3000
    tree = decode_tree(normalize(seqnat.program_term(
        parse_tree(unary(n), seqnat.input))))
    heads = []
    while tree.label == "cons":
        heads.append(tree.children[0])
        tree = tree.children[1]
    assert tree.label == "nil" and len(heads) == n
    assert heads[0].label == "S" and heads[0].children[0].label == "0"
    for prev, head in zip(heads, heads[1:]):
        assert head.label == "S" and head.children[0] is prev


def let_chain(n, nested_in_bound):
    """let !x_n = !x_{n-1} ... over let !x_1 = !c, nested in the bodies
    (in x_n) or in the bounds."""
    if nested_in_bound:
        u = Box(Const("c"))
        for _ in range(n):
            u = Let("x", u, Box(Var("x")))
        return u
    u = Var(f"x{n}")
    for i in reversed(range(2, n + 1)):
        u = Let(f"x{i}", Box(Var(f"x{i - 1}")), u)
    return Let("x1", Box(Const("c")), u)


@pytest.mark.parametrize("nested_in_bound", [False, True])
def test_a_long_let_chain_as_at_call_by_name(nested_in_bound):
    u = let_chain(5000, nested_in_bound)
    results = []
    for norm in (normalize_by_name, normalize):
        try:
            results.append(norm(u))
        except TooDeep as e:
            results.append(str(e))
    assert results[0] == results[1]
    assert isinstance(results[0], str) == nested_in_bound
