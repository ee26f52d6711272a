"""A spec's rules and out-term are shared (core.share): each program
numbers, types and tables them once per spec and copies their parts in at
every input node.  Here a program built from the shared terms is checked
against the same program built from unshared copies of them, which every
pass walks position by position: the same Annotated tables, slot by slot,
the same TermInfo, the same runs, and the same errors."""

import random

import pytest

from test_typecheck_reference import random_case

from lamtrans import corpus_path, treegen
from lamtrans.cli import gen_tree
from lamtrans.core import (App, Box, Const, Lam, Let, RankedAlphabet, Var,
                           children, instantiate, number_term, parse_tree,
                           share, with_children)
from lamtrans.iam import IamMachine, LocalBlocks, TermInfo, pick_variant
from lamtrans.transducer import load_transducer, rule_type
from lamtrans.typecheck import (O, Arrow, Bang, TypingError, type_to_str,
                                typecheck)

LT = ["count.lt", "seq-nat.lt", "bin2bin.lt", "list-count.lt"]
SIZES = {"bin2bin.lt": (1, 2, 3, 4)}     # its outputs grow doubly


def unshared(t):
    """A copy of t made of new objects, so none of them is shared."""
    if isinstance(t, (Const, Var)):
        return t.__class__(t.name)
    return with_children(t, [unshared(c) for c in children(t)])


def unshared_program(spec, tau):
    """spec.program_term(tau) built from one unshared copy of each rule
    and of the out-term."""
    rules = {a: unshared(t) for a, t in spec.norm_rules.items()}
    return App(unshared(spec.norm_out), instantiate(tau, rules))


def tables(ann):
    """Everything typecheck wrote, each table position by position."""
    return (ann.types, ann.occ_binder, ann.var_kind, ann.theta_types,
            ann.type, ann.nodes, ann.kids)


def facts(info):
    return (info.down, info.up, info.depths, info.types, info.tier,
            info.height)


def checked(*args, **kwargs):
    """typecheck's Annotated, or its error as (class, message)."""
    try:
        return typecheck(*args, **kwargs)
    except TypingError as e:
        return TypingError, str(e)


def outcome(*args, **kwargs):
    """typecheck's tables, or its error as (class, message)."""
    got = checked(*args, **kwargs)
    return got if isinstance(got, tuple) else tables(got)


@pytest.mark.parametrize("name", LT)
def test_programs_from_shared_rules_equal_unshared_ones(name):
    spec = load_transducer(corpus_path(name))
    rng = random.Random(name)
    sizes = SIZES.get(name, (1, 2, 3, 5, 8, 13, 30))
    for size in sizes * 2:      # the second round copies every piece in
        tau = gen_tree(rng, spec.input, size)
        ann = spec.program_ann(tau)
        plain = typecheck(unshared_program(spec, tau), ty=O,
                          alphabet=spec.output)
        assert tables(ann) == tables(plain)
        assert ann.pieces and not plain.pieces
        info, plain_info = TermInfo(ann), TermInfo(plain)
        assert facts(info) == facts(plain_info)
        variant = pick_variant(info.tier)
        runs = [treegen.run(IamMachine(i, variant),
                            IamMachine(i, variant).initial(), 10_000_000)
                for i in (info, plain_info)]
        assert runs[0] == runs[1]
        assert isinstance(runs[0], treegen.Output)
        assert runs[0].tree == spec.eval_normalize(tau)


def test_a_shared_rule_keeps_one_piece_per_typing():
    spec = load_transducer(corpus_path("seq-nat.lt"))
    tau = gen_tree(random.Random(1), spec.input, 6)
    TermInfo(spec.program_ann(tau))
    rule = spec.norm_rules["S"]
    pieces = list(rule._shared.typings)
    assert [piece.consts for piece in pieces] == [(spec.output, None)]
    assert all(piece.info is not None for piece in pieces)
    numbering = rule._shared.numbering
    # another program copies them in again and keeps nothing new
    spec.program_ann(gen_tree(random.Random(2), spec.input, 6))
    assert rule._shared.typings == pieces
    assert rule._shared.numbering is numbering
    nodes, kids = number_term(rule)
    assert (nodes[1:], kids) == numbering and nodes[0] is rule


@pytest.mark.parametrize("name", LT)
def test_a_shared_rule_types_under_placeholders_as_an_unshared_one(name):
    # the spec's blocks apply each rule to placeholder constants of the
    # memory type: the rules are shared after the blocks are built, and
    # a block built again from the shared rules is the same
    spec = load_transducer(corpus_path(name))
    again = LocalBlocks(spec)
    for block, other in zip(spec.blocks, again):
        assert facts(block.info) == facts(other.info)
        assert (block.ph, block.moves, block.occ) == \
            (other.ph, other.moves, other.occ)
    consts = {f"<>{i}": spec.memory for i in range(4)}
    for a, k in spec.input.letters:
        rule = spec.norm_rules[a]
        local, plain = rule, unshared(rule)
        for i in range(1, k + 1):
            local = App(local, Const(f"<>{i}"))
            plain = App(plain, Const(f"<>{i}"))
        for _ in range(2):
            ann = typecheck(local, alphabet=spec.output, consts=consts)
            want = typecheck(plain, alphabet=spec.output, consts=consts)
            assert tables(ann) == tables(want)
            assert facts(TermInfo(ann)) == facts(TermInfo(want))


@pytest.mark.parametrize("name", LT)
def test_a_shared_rule_checked_against_a_wrong_type_fails_alike(name):
    spec = load_transducer(corpus_path(name))
    tau = gen_tree(random.Random(0), spec.input, 3)
    spec.program_ann(tau)       # keeps the pieces of the rules
    others = [O, Arrow(O, Arrow(O, O)), rule_type(spec.memory, 3),
              Arrow(spec.memory, O)]
    seen = 0
    for a, k in spec.input.letters:
        rule = spec.norm_rules[a]
        for ty in [rule_type(spec.memory, k), *others]:
            for _ in range(2):
                want = outcome(unshared(rule), ty=ty, alphabet=spec.output)
                assert outcome(rule, ty=ty, alphabet=spec.output) == want, \
                    type_to_str(ty)
                seen += isinstance(want, tuple)
        # the constants of another alphabet
        for _ in range(2):
            assert outcome(rule, alphabet=spec.input) == \
                outcome(unshared(rule), alphabet=spec.input)
    assert seen


@pytest.mark.parametrize("program_first", [True, False])
def test_a_shared_term_inside_a_box_is_walked(program_first):
    # from an empty environment a box's body is typed from one too, so a
    # shared term there gets the Piece it gets in a program; its box depth
    # is not its own, and TermInfo walks it rather than copying records in
    # or keeping its records for programs
    spec = load_transducer(corpus_path("bin2bin.lt"))
    tau = parse_tree("1(0(1(e)))", spec.input)
    rule = spec.norm_rules["1"]
    for boxed in [not program_first, program_first]:
        if not boxed:
            info = TermInfo(spec.program_ann(tau))
            assert facts(info) == facts(TermInfo(typecheck(
                unshared_program(spec, tau), ty=O, alphabet=spec.output)))
            continue
        ann = typecheck(Box(rule), alphabet=spec.output)
        want = typecheck(Box(unshared(rule)), alphabet=spec.output)
        assert tables(ann) == tables(want) and ann.pieces
        assert facts(TermInfo(ann)) == facts(TermInfo(want))
    term = App(Box(rule), Box(rule))
    plain = App(Box(unshared(rule)), Box(unshared(rule)))
    for _ in range(2):          # a box cannot be applied
        assert outcome(term, alphabet=spec.output) == \
            outcome(plain, alphabet=spec.output)


def test_a_shared_term_inside_a_box_of_base_type_is_walked():
    # at box depth 0 but inside a box, whose count raises the tier of the
    # types in it: (\x. let !y = x in y) !c has type o, and its function
    # has type !o -o o, of tier 1 alone and of tier 2 inside a box
    out = RankedAlphabet.of({"c": 0})
    term = App(Lam("x", Let("y", Var("x"), Var("y")), Bang(O)),
               Box(Const("c")))
    share(term)
    alone = TermInfo(typecheck(term, alphabet=out))
    assert term._shared.typings[0].info is not None and alone.tier == 1
    for _ in range(2):
        ann = typecheck(Box(term), alphabet=out)
        want = typecheck(Box(unshared(term)), alphabet=out)
        assert tables(ann) == tables(want) and ann.pieces
        assert facts(TermInfo(ann)) == facts(TermInfo(want))
        assert TermInfo(ann).tier == 2


def test_an_undone_trial_takes_its_pieces_along():
    # checked against o -o o, the application first synthesizes its
    # shared function, whose argument then fails; the function is then
    # checked against (o -o o) -o o -o o, a second Piece at its position
    ident = Lam("x", Var("x"), O)
    share(ident)
    term = App(ident, Lam("y", Var("y"), O))
    plain = unshared(term)
    A = Arrow(O, O)
    for _ in range(2):
        ann, want = typecheck(term, ty=A), typecheck(plain, ty=A)
        assert tables(ann) == tables(want)
        assert [(pos, piece.expected) for pos, piece in ann.pieces] == \
            [(1, Arrow(A, A))]
        assert facts(TermInfo(ann)) == facts(TermInfo(want))
    assert [piece.expected for piece in ident._shared.typings] == \
        [None, Arrow(A, A)]


def share_all(t):
    """Share every subterm of t, open ones too."""
    todo = [t]
    while todo:
        t = todo.pop()
        share(t)
        todo.extend(children(t))


def test_random_terms_with_shared_subterms():
    # a shared term is typed alone only from an empty environment, where
    # an open one fails and keeps nothing; the pieces a typing copies in
    # or keeps never overlap, even where a trial was undone
    rng = random.Random(20241019)
    shared = 0
    for _ in range(3_000):
        (term,), kwargs = random_case(rng)
        plain = unshared(term)
        share_all(term)
        for _ in range(2):
            got, want = checked(term, **kwargs), checked(plain, **kwargs)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert tables(got) == tables(want)
            starts = sorted((pos, pos + len(piece.types))
                            for pos, piece in got.pieces)
            assert all(end <= start for (_, end), (start, _)
                       in zip(starts, starts[1:]))
            shared += bool(starts)
            assert facts(TermInfo(got)) == facts(TermInfo(want))
    assert shared > 500
