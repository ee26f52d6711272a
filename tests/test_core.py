import random
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from lamtrans.core import (App, Box, Const, Lam, Let, NotAnEncoding,
                           RankedAlphabet, SyntaxErr, Tree, Var, decode_tree,
                           encode_tree, instantiate, parse_term, parse_tree,
                           term_to_str)
from reference_reduction import replace_at, substitute, subterm_at
from reference_terms import alpha_eq, free_vars, positions, term_size

SIGMA = RankedAlphabet.of({"a": 2, "b": 1, "c": 0})


# -- trees ------------------------------------------------------------------

def test_tree_parse_print_roundtrip():
    for s in ["c", "b(c)", "a(b(c),c)", "a(a(c,c),b(b(c)))"]:
        t = parse_tree(s, SIGMA)
        assert t.to_str() == s
        t.validate(SIGMA)


def test_tree_arity_checked():
    from lamtrans.core import LamtransError
    with pytest.raises(LamtransError):
        parse_tree("a(c)", SIGMA)
    with pytest.raises(LamtransError):
        parse_tree("d", SIGMA)


def test_tree_size():
    t = parse_tree("a(b(c),c)", SIGMA)
    assert t.size() == 4


@st.composite
def trees(draw, depth=3):
    if depth == 0:
        return Tree("c", ())
    name, rank = draw(st.sampled_from(SIGMA.letters))
    kids = tuple(draw(trees(depth=depth - 1)) for _ in range(rank))
    return Tree(name, kids)


@given(trees())
def test_tree_roundtrip_property(t):
    assert parse_tree(t.to_str(), SIGMA) == t


@pytest.mark.parametrize("text,msg", [
    ("", "expected a tree label"),
    ("a(b,)", "expected a tree label"),
    ("a(b c)", "expected ')' in tree"),
    ("a(b(c)", "expected ')' in tree"),
    ("a b", "trailing input after tree: 'b' (line 1, column 3)"),
    ("a(b),c", "trailing input after tree: ',' (line 1, column 5)"),
])
def test_tree_parse_errors(text, msg):
    with pytest.raises(SyntaxErr) as e:
        parse_tree(text)
    assert str(e.value) == msg


def test_deep_tree_parses_prints_and_encodes():
    # 10,000 deep: parsing, printing, size, validation and the encoding
    # round trip all walk the tree without recursion
    n = 10_000
    text = "S(" * n + "0" + ")" * n
    unary = RankedAlphabet.of({"S": 1, "0": 0})
    t = parse_tree(text, unary)
    assert t.size() == n + 1
    assert t.to_str() == text
    t.validate(unary)
    assert decode_tree(encode_tree(t)).to_str() == text
    term = instantiate(t, {"S": Var("f"), "0": Const("z")})
    for _ in range(n):
        assert term.fn == Var("f")
        term = term.arg
    assert term == Const("z")


def test_deep_trees_compare_and_hash():
    # == and hash walk the tree without recursion; the dataclass-generated
    # methods raised RecursionError at this depth
    n = 3_000
    unary = RankedAlphabet.of({"S": 1, "0": 0, "1": 0})
    t = parse_tree("S(" * n + "0" + ")" * n, unary)
    u = parse_tree("S(" * n + "0" + ")" * n, unary)
    v = parse_tree("S(" * n + "1" + ")" * n, unary)
    w = parse_tree("S(" * (n - 1) + "0" + ")" * (n - 1), unary)
    assert t is not u and t == u and not t != u
    assert t != v and not t == v
    assert t != w and w != t
    assert hash(t) == hash(u) == hash((t.label, t.children))
    assert hash(t) != hash(v)
    assert len({t, u, v, w}) == 3


@dataclass(frozen=True)
class FrozenTree:
    """The Tree class as a frozen dataclass, for reference."""
    label: str
    children: tuple = ()


def test_tree_eq_and_hash_match_frozen_dataclass():
    rng = random.Random(0)

    def pair(size):
        # the same random tree as a Tree and as a FrozenTree
        if size == 1 or rng.random() < 0.2:
            label = rng.choice("cd")
            return Tree(label), FrozenTree(label)
        k = rng.randint(1, 3)
        kids = [pair(max(1, size // k)) for _ in range(k)]
        label = rng.choice("ab")
        return (Tree(label, tuple(a for a, _ in kids)),
                FrozenTree(label, tuple(b for _, b in kids)))

    trees = [pair(rng.randint(1, 30)) for _ in range(200)]
    shared = Tree("a", (trees[0][0], trees[0][0]))
    trees.append((shared, FrozenTree("a", (trees[0][1], trees[0][1]))))
    for t, f in trees:
        assert hash(t) == hash(f)
        assert t.to_str() == parse_tree(t.to_str()).to_str()
    for (t1, f1), (t2, f2) in zip(trees, trees[1:] + trees[:1]):
        assert (t1 == t2) == (f1 == f2)
        assert (t1 == parse_tree(t1.to_str())) is True
    assert Tree("c") != FrozenTree("c") and Tree("c") != "c"


# -- terms ------------------------------------------------------------------

def test_term_parse_print_roundtrip():
    for s in [r"\x. x",
              r"\f. f 0",
              r"\g. \x. let !y = x in cons y (g !(S y))",
              r"\g. \x. let !f = x in g !(\y. let !z = f (f y) in !(a z z))",
              r"\x. let !f = x in let !z = f !c in z"]:
        t = parse_term(s)
        assert alpha_eq(parse_term(term_to_str(t)), t)


def test_parser_rejects_garbage():
    for s in ["(", r"\x", "let x = y in", "!"]:
        with pytest.raises(SyntaxErr):
            parse_term(s)


def test_substitute_capture_avoiding():
    # (\y. x y)[x := y] must rename the binder, not capture
    t = Lam("y", App(Var("x"), Var("y")))
    r = substitute(t, "x", Var("y"))
    assert alpha_eq(r, Lam("z", App(Var("y"), Var("z"))))


def test_free_vars():
    t = parse_term(r"\x. let !y = z in x y")
    assert free_vars(t) == {"z"}


def test_alpha_eq_and_canonical_rename():
    t = parse_term(r"\x. \y. x y")
    u = parse_term(r"\a. \b. a b")
    assert alpha_eq(t, u)
    assert not alpha_eq(t, parse_term(r"\x. \y. y x"))


def test_positions_subterm_replace():
    t = parse_term(r"(\x. x) c", SIGMA)
    assert subterm_at(t, (1,)) == Const("c")
    assert term_size(t) == 4
    assert replace_at(t, (1,), Const("d")) == App(Lam("x", Var("x")),
                                                  Const("d"))
    assert set(positions(t)) == {(), (0,), (0, 0), (1,)}


# -- tree encodings ---------------------------------------------------------

def test_encode_decode_roundtrip():
    for s in ["c", "a(b(c),c)", "a(a(c,c),b(c))"]:
        t = parse_tree(s, SIGMA)
        assert decode_tree(encode_tree(t)) == t


def test_decode_rejects_non_encoding():
    with pytest.raises(NotAnEncoding):
        decode_tree(parse_term(r"\x. x"))
    with pytest.raises(NotAnEncoding):
        decode_tree(parse_term("c c"))


def test_instantiate_shape():
    fam = {"a": parse_term(r"\l.\r.\x. l (r x)"),
           "b": parse_term(r"\f.\x. S (f x)"),
           "c": parse_term("S")}
    t = instantiate(parse_tree("a(b(c),c)", SIGMA), fam)
    # a-block applied to the two instantiated children
    assert isinstance(t, App) and isinstance(t.fn, App)
    assert alpha_eq(t.fn.fn, fam["a"])
