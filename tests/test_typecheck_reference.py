"""The program checker and TermInfo against the reference checker in
reference_typecheck.py: the same annotation tables position by position,
the same type, the same errors, and the same dispatch records, box depths,
tier and height.  The checker numbers positions in preorder and
the reference keys them by path, so every number is compared through
`TermInfo.path`."""

import random
import sys
from collections import Counter

import pytest

import reference_typecheck as ref
from lamtrans import corpus_path, iam
from lamtrans.cli import gen_tree
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import App, Box, Const, Lam, Let, RankedAlphabet, Var
from lamtrans.gls import load_gls, make_type_constant, split_state_relabeling
from lamtrans.iam import TermInfo
from lamtrans.transducer import compose, load_transducer
from lamtrans.typecheck import O, Arrow, Bang, type_height, typecheck


def outcome(check, args, kwargs):
    try:
        return check(*args, **kwargs), None
    except Exception as e:      # the oracle compares whatever is raised
        return None, (type(e), str(e))


def assert_same(args, kwargs):
    """Typecheck with both checkers; returns the error (class, message),
    or None when the term is well typed.  Positions are numbers here and
    paths in the oracle, so every number, and every offset a TermInfo
    record holds, is translated through `TermInfo.path` before it is
    compared."""
    new, err = outcome(typecheck, args, kwargs)
    old, ref_err = outcome(ref.typecheck, args, kwargs)
    assert err == ref_err
    if err is not None:
        return err
    info, old_info = TermInfo(new), ref.ReferenceTermInfo(old)
    path = info.path
    paths = [path(i) for i in range(len(new.nodes))]
    assert paths == sorted(old_info.down)
    assert [info.number(p) for p in paths] == list(range(len(paths)))

    # a record at pos names every position as an offset from pos
    def at(pos, off):
        return None if off is None else path(pos + off)

    def down(pos, rec):
        tag, kids, arg = rec
        if tag in (iam.LAM, iam.LAM_VAR):
            arg = at(pos, arg)
        elif tag == iam.LET_VAR:
            arg = (at(pos, arg[0]),) + arg[1:]
        return tag, tuple(at(pos, k) for k in kids), arg

    def up(pos, rec):
        return rec and rec[:2] + (at(pos, rec[2]), at(pos, rec[3]))

    def same(pos, v):
        return v

    # the tables and the TermInfo lists in preorder, one slot per position;
    # the reference has an entry where a table's slot is not None
    for name, value in [("types", same), ("occ_binder", at),
                        ("var_kind", same)]:
        table = getattr(new, name)
        assert len(table) == len(paths), name
        assert [(path(i), value(i, x)) for i, x in enumerate(table)
                if x is not None] == sorted(getattr(old, name).items()), name
    assert new.theta_types == old.theta_types
    assert new.type == old.type
    for mine, theirs, value in [
            (info.down, old_info.down, down), (info.up, old_info.up, up),
            (info.depths, old.depths, same), (info.types, old.types, same)]:
        assert [(path(i), value(i, x)) for i, x in enumerate(mine)] == \
            sorted(theirs.items())
    assert info.tier == ref.classify_term(old)
    assert info.height == max(map(type_height, new.types))
    return None


@pytest.fixture
def recorded(monkeypatch):
    """Every typecheck call the library makes, as (args, kwargs): the
    checker is replaced in each lamtrans module that imports it."""
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return typecheck(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("lamtrans.")
                and getattr(module, "typecheck", None) is typecheck):
            monkeypatch.setattr(module, "typecheck", recording)
    return calls


def test_a_spec_is_typed_once_and_compiled_untyped(recorded):
    # count.lt's four local terms are each checked once as source and
    # typed once as a block; the compilers read the blocks
    spec = load_transducer(corpus_path("count.lt"))
    assert len(recorded) == 8
    compile_to_twt(spec)
    compile_to_iptt(spec)
    assert len(recorded) == 8


@pytest.mark.parametrize("name", ["count.lt", "seq-nat.lt", "bin2bin.lt",
                                  "list-count.lt"])
def test_corpus_programs_and_blocks(recorded, name):
    spec = load_transducer(corpus_path(name))
    blocks = list(spec.blocks)
    assert [args[0] for args, _ in recorded[len(blocks):]] == \
        [block.info.term for block in blocks]
    rng = random.Random(name)
    for size in (1, 2, 3, 5, 8, 12, 20, 40):
        spec.program_ann(gen_tree(rng, spec.input, size))
    assert len(recorded) > 8
    for args, kwargs in recorded:
        assert assert_same(args, kwargs) is None


def test_mirror_split_and_compose(recorded):
    split_state_relabeling(make_type_constant(load_gls(corpus_path(
        "mirror.gls"))))
    compose(load_transducer(corpus_path("seq-nat.lt")),
            load_transducer(corpus_path("list-count.lt")))
    assert len(recorded) > 8
    for args, kwargs in recorded:
        assert assert_same(args, kwargs) is None


# -- seeded random terms ----------------------------------------------------

OUT = RankedAlphabet.of({"a": 2, "b": 1, "c": 0})
NAMES = "xyzfg"


def random_type(rng, size=3):
    r = rng.random()
    if size <= 0 or r < 0.4:
        return O
    if r < 0.75:
        return Arrow(random_type(rng, size - 1), random_type(rng, size - 1))
    return Bang(random_type(rng, size - 1))


def random_term(rng, A, env, size):
    """A term built to have type A in env (name -> (kind, type)), though
    affine variables may be used twice, unhinted lambdas land where only
    checking can type them, and now and then a piece is plain wrong."""
    r = rng.random()
    if r < 0.03:
        return Var(rng.choice(NAMES))
    if r < 0.05:
        return Const(rng.choice("abcdk"))
    fits = [n for n, (_, B) in env.items() if B == A]
    if fits and (size <= 0 or r < 0.3):
        return Var(rng.choice(fits))
    if isinstance(A, Arrow) and (size <= 0 or r < 0.7):
        v = rng.choice(NAMES)
        body = random_term(rng, A.right, {**env, v: ("lam", A.left)},
                           size - 1)
        return Lam(v, body, A.left if rng.random() < 0.5 else None)
    if isinstance(A, Bang) and (size <= 0 or r < 0.6):
        inner = {n: e for n, e in env.items() if e[0] != "lam"}
        return Box(random_term(rng, A.inner, inner, size - 1))
    if size <= 0:
        return Const("c") if A == O else Var(rng.choice(NAMES))
    r = rng.random()
    if A == O and r < 0.3:
        k = rng.randrange(3)
        t = Const("cba"[k])
        for _ in range(k):
            t = App(t, random_term(rng, O, env, (size - 1) // k))
        return t
    if r < 0.6:
        B = random_type(rng, 2)
        return App(random_term(rng, Arrow(B, A), env, size // 2),
                   random_term(rng, B, env, size // 2))
    v, B = rng.choice(NAMES), random_type(rng, 2)
    return Let(v, random_term(rng, Bang(B), env, size // 2),
               random_term(rng, A, {**env, v: ("let", B)}, size // 2))


def random_case(rng):
    theta = {n: random_type(rng, 2) for n in NAMES if rng.random() < 0.2}
    consts = {"k": random_type(rng, 2)} if rng.random() < 0.2 else None
    A = random_type(rng)
    env = {n: ("theta", B) for n, B in theta.items()}
    term = random_term(rng, A, env, rng.randrange(1, 14))
    return (term,), {"ty": None if rng.random() < 0.3 else A,
                     "alphabet": OUT, "theta": theta, "consts": consts}


def test_random_terms():
    rng = random.Random(20240601)
    seen = Counter()
    for _ in range(20_000):
        err = assert_same(*random_case(rng))
        seen["ill typed" if err else "well typed"] += 1
        seen["used twice"] += bool(err) and err[1].endswith("used twice")
    # the generator reaches both sides and the affine check
    assert seen["well typed"] > 5_000 and seen["ill typed"] > 5_000
    assert seen["used twice"] > 100
