"""A spec's rules and out-term are shared: each gets one core.Shared
record when its spec is loaded (iam.share), sliced from its block's
typing.  A program gets a record of its own, assembled from its spec's
blocks when it is first numbered (iam.LocalBlocks.program), and is typed
and tabled by copying it in rather than walking it.  Here a program built
from the shared terms is checked against the same program built from
unshared copies of them, which every pass walks position by position: the
same Annotated tables, slot by slot, the same TermInfo, the same runs, and
the same errors."""

import copy
import dataclasses
import random

import pytest

from test_transducer import TIER_HEAD, TIER_SPECS
from test_typecheck_reference import random_case

from lamtrans import corpus_path, treegen
from lamtrans.cli import gen_tree
from lamtrans.core import (App, Box, Const, Lam, Let, RankedAlphabet, Var,
                           children, decode_tree, instantiate, number_term,
                           parse_tree, with_children)
from lamtrans.gls import load_gls, make_type_constant, split_state_relabeling
from lamtrans.iam import IamMachine, LocalBlocks, TermInfo, pick_variant, share
from lamtrans.reduction import normalize
from lamtrans.transducer import (compose, load_transducer, parse_transducer,
                                 rule_type)
from lamtrans.typecheck import (O, Arrow, Bang, TypingError, type_to_str,
                                typecheck)

LT = ["count.lt", "seq-nat.lt", "bin2bin.lt", "list-count.lt"]
SIZES = {"bin2bin.lt": (1, 2, 3, 4)}     # its outputs grow doubly


def loaded(name):
    """A spec and a function from (rng, size) to one of its random inputs:
    a corpus .lt file, seq-nat composed with list-count, whose rules hold
    list-count's shared terms before they are normalized, or mirror.gls's
    split transducer, on relabeled random trees."""
    if name == "seq-nat;list-count":
        spec = compose(load_transducer(corpus_path("seq-nat.lt")),
                       load_transducer(corpus_path("list-count.lt")))
    elif name == "mirror.gls+split":
        mirror = load_gls(corpus_path("mirror.gls"))
        relabel, spec = split_state_relabeling(make_type_constant(mirror))
        return spec, lambda rng, size: relabel(gen_tree(rng, mirror.input,
                                                        size))
    else:
        spec = load_transducer(corpus_path(name))
    return spec, lambda rng, size: gen_tree(rng, spec.input, size)


def shared_terms(spec):
    """The spec's shared terms: its rules and out-term but the constants."""
    return [t for t in (spec.norm_out, *spec.norm_rules.values())
            if not isinstance(t, Const)]


def share_alone(t, alphabet=None):
    """Share t as a spec shares its rules, its record sliced from t typed
    alone, if t types alone."""
    try:
        ann = typecheck(t, alphabet=alphabet)
    except TypingError:
        return
    share(t, 0, alphabet, ann, TermInfo(ann))


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


@pytest.mark.parametrize("name", LT + ["seq-nat;list-count",
                                       "mirror.gls+split"])
def test_programs_from_shared_rules_equal_unshared_ones(name):
    spec, make_input = loaded(name)
    rng = random.Random(name)
    sizes = SIZES.get(name, (1, 2, 3, 5, 8, 13, 30))
    for size in sizes * 2:      # each size on two random trees
        tau = make_input(rng, size)
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


def preorder(t):
    """The subterms of t in preorder, walked node by node."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        out.append(t)
        todo.extend(reversed(children(t)))
    return out


@pytest.mark.parametrize("name", LT + ["seq-nat;list-count",
                                       "mirror.gls+split"])
def test_a_program_record_holds_what_walking_the_program_finds(name):
    # the record assembled from the blocks holds the program's own
    # subterms, by identity, and the tables that typecheck and TermInfo
    # find for the same program untagged, walked but for its rules,
    # theta types in order; it is built once, when first numbered
    spec, make_input = loaded(name)
    rng = random.Random(name)
    for size in SIZES.get(name, (1, 2, 3, 5, 8, 13, 30)) * 2:
        tau = make_input(rng, size)
        term = spec.program_term(tau)
        assert term._program == (spec.blocks, tau)
        nodes, kids = number_term(term)
        record = term._shared
        assert not hasattr(term, "_program")
        assert number_term(term) == (nodes, kids) and term._shared is record
        walked = preorder(term)
        assert len(nodes) == len(walked)
        assert all(a is b for a, b in zip(nodes, walked))
        assert nodes[1:] == record.nodes and kids == record.kids
        untagged = App(term.fn, term.arg)
        ann = typecheck(untagged, ty=O, alphabet=spec.output)
        info = TermInfo(ann)
        assert ann.pieces and ann.pieces[0][0] == 1
        assert record.alphabet is spec.output
        assert (record.kids, record.types, record.occ_binder,
                record.var_kind, record.theta_types) == \
            (ann.kids, ann.types, ann.occ_binder, ann.var_kind,
             ann.theta_types)
        assert (record.down, record.up, record.depths, record.tier,
                record.height) == \
            (info.down, info.up[1:], info.depths, info.tier, info.height)


@pytest.mark.parametrize("text, tier", [("c", 2), ("a(a(c))", 3)])
def test_a_program_is_as_general_as_the_letters_it_holds(text, tier):
    # a's block is of the general tier, the out-term's and c's are not
    spec = parse_transducer(TIER_HEAD + TIER_SPECS["rule"], name="rule")
    tau = parse_tree(text, spec.input)
    info = TermInfo(spec.program_ann(tau))
    want = TermInfo(typecheck(unshared_program(spec, tau), ty=O,
                              alphabet=spec.output))
    assert (info.tier, info.height) == (want.tier, want.height)
    assert info.tier == tier


@pytest.mark.parametrize("name", LT)
def test_the_normalize_path_builds_no_record(name, monkeypatch):
    spec = load_transducer(corpus_path(name))
    rng = random.Random(name)
    taus = [gen_tree(rng, spec.input, size)
            for size in SIZES.get(name, (1, 2, 5, 13, 30))]

    def refused(self, term, tau):
        raise AssertionError("a program record was built")

    monkeypatch.setattr(LocalBlocks, "program", refused)
    for tau in taus:
        term = spec.program_term(tau)
        tree = decode_tree(normalize(term))
        assert tree == spec.eval_normalize(tau)
        assert not hasattr(term, "_shared")
        assert term._program == (spec.blocks, tau)


def test_a_shared_rule_has_one_record_set_at_load():
    # sliced from the rule's block, the record holds what typecheck and
    # TermInfo find for an unshared copy typed alone under the output
    # alphabet, and number_term copies its lists in
    for name in LT:
        spec = load_transducer(corpus_path(name))
        assert shared_terms(spec)
        for t in (spec.norm_out, *spec.norm_rules.values()):
            if isinstance(t, Const):
                assert not hasattr(t, "_shared")
                continue
            record = t._shared
            ann = typecheck(unshared(t), alphabet=spec.output)
            info = TermInfo(ann)
            assert record.alphabet is spec.output
            assert (record.nodes, record.kids) == (ann.nodes[1:], ann.kids)
            assert (record.types, record.occ_binder, record.var_kind,
                    record.theta_types, record.types[0]) == \
                (ann.types, ann.occ_binder, ann.var_kind, ann.theta_types,
                 ann.type)
            assert (record.down, record.up, record.depths, record.tier) == \
                (info.down, info.up[1:], info.depths, info.tier)
            nodes, kids = number_term(t)
            assert nodes[0] is t and (nodes[1:], kids) == \
                (record.nodes, record.kids)
        # the spec's blocks, built again, keep the records
        records = [t._shared for t in shared_terms(spec)]
        LocalBlocks(spec)
        assert [t._shared for t in shared_terms(spec)] == records


def contents(record):
    """A copy of each field of a core.Shared."""
    return [copy.copy(getattr(record, f.name))
            for f in dataclasses.fields(record)]


@pytest.mark.parametrize("name", LT)
def test_a_rule_is_walked_once_per_spec(name, monkeypatch):
    # loading the spec walks each rule in its block; a program is typed
    # from its own record, assembled from the blocks, so its one piece is
    # its root's record, and TermInfo walks none of its positions
    spec = load_transducer(corpus_path(name))
    records = [(t, t._shared, contents(t._shared))
               for t in shared_terms(spec)]
    walked = []
    walk = TermInfo._walk

    def recording(self, ann, boxes, occurrences, boxed, lo, hi):
        walked.extend(range(lo, hi))
        return walk(self, ann, boxes, occurrences, boxed, lo, hi)

    monkeypatch.setattr(TermInfo, "_walk", recording)
    rng = random.Random(name)
    for size in range(1, 41):
        ann = spec.program_ann(gen_tree(rng, spec.input, size))
        record = ann.nodes[0]._shared
        assert ann.pieces == [(0, record)]
        assert len(record.types) == len(ann.nodes)
        assert all(record is not r for _, r, _ in records)
        walked.clear()
        TermInfo(ann)
        assert walked == []
    for t, record, fields in records:
        assert t._shared is record and contents(record) == fields


@pytest.mark.parametrize("name", LT)
def test_a_shared_rule_types_under_placeholders_as_an_unshared_one(name):
    # the spec's blocks apply each rule to placeholder constants of the
    # memory type: each rule's record is sliced from its block, and a
    # block built again copies the record in and is the same
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
    # a rule typed against another type than its own, or with its
    # letters retyped or another alphabet's constants, is typed in place
    spec = load_transducer(corpus_path(name))
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
        # the constants of another alphabet, or its letters retyped
        retyped = {name: O for name, _ in spec.output.letters}
        for kwargs in [{"alphabet": spec.input},
                       {"alphabet": spec.output, "consts": retyped}]:
            assert outcome(rule, **kwargs) == \
                outcome(unshared(rule), **kwargs)
    assert seen


@pytest.mark.parametrize("program_first", [True, False])
def test_a_shared_term_inside_a_box_is_walked(program_first):
    # from an empty environment a box's body is typed from one too, so a
    # shared term there is copied in as in a program; its box depth is not
    # its own, and TermInfo walks it rather than copying its records in
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
    share_alone(term, out)
    alone = TermInfo(typecheck(term, alphabet=out))
    assert term._shared.tier == alone.tier == 1
    for _ in range(2):
        ann = typecheck(Box(term), alphabet=out)
        want = typecheck(Box(unshared(term)), alphabet=out)
        assert tables(ann) == tables(want) and ann.pieces
        assert facts(TermInfo(ann)) == facts(TermInfo(want))
        assert TermInfo(ann).tier == 2


def test_an_undone_trial_takes_its_pieces_along():
    # checked against o -o o, the application first synthesizes its
    # shared function, copied in, whose argument then fails; the function
    # is then checked against (o -o o) -o o -o o, not its own type, and
    # typed in place
    ident = Lam("x", Var("x"), O)
    share_alone(ident)
    record = ident._shared
    term = App(ident, Lam("y", Var("y"), O))
    plain = unshared(term)
    A = Arrow(O, O)
    assert typecheck(App(ident, Const("c")), consts={"c": O}).pieces == \
        [(1, record)]
    for _ in range(2):
        ann, want = typecheck(term, ty=A), typecheck(plain, ty=A)
        assert tables(ann) == tables(want)
        assert ann.pieces == []
        assert facts(TermInfo(ann)) == facts(TermInfo(want))
    assert ident._shared is record and record.types[0] == A


def share_all(t, alphabet):
    """Share every subterm of t that types alone under alphabet."""
    todo = [t]
    while todo:
        t = todo.pop()
        share_alone(t, alphabet)
        todo.extend(children(t))


def test_random_terms_with_shared_subterms():
    # a shared term is copied in only from an empty environment, and only
    # where its own type or none is asked for; the pieces a typing copies
    # in never overlap, even where a trial was undone
    rng = random.Random(20241019)
    shared = 0
    for _ in range(3_000):
        (term,), kwargs = random_case(rng)
        plain = unshared(term)
        share_all(term, kwargs["alphabet"])
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
