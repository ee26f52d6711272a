"""A program (transducer.program_term) typed against o under its spec's
output alphabet is not walked: typecheck assembles its tables from the
spec's blocks (iam.LocalBlocks.program), with its TermInfo facts as the
Annotated's `record`, which TermInfo takes as they are.  Here a program
built from the spec's rules is checked against the same program built
from unshared copies of them, which every pass walks position by
position: the same Annotated tables, slot by slot, the same TermInfo, the
same runs, and the same errors."""

import copy
import dataclasses
import random

import pytest

from test_transducer import TIER_HEAD, TIER_SPECS

from lamtrans import corpus_path, treegen
from lamtrans.cli import gen_tree
from lamtrans.core import (App, Const, Tree, Var, children, decode_tree,
                           instantiate, number_term, parse_tree,
                           with_children)
from lamtrans.gls import load_gls, make_type_constant, split_state_relabeling
from lamtrans.iam import IamMachine, LocalBlocks, TermInfo, pick_variant
from lamtrans.reduction import normalize
from lamtrans.transducer import compose, load_transducer, parse_transducer
from lamtrans.typecheck import O, Arrow, Bang, TypingError, typecheck

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


def extra(t):
    """What a term holds beyond its fields."""
    names = {f.name for f in dataclasses.fields(t)}
    return {k: v for k, v in vars(t).items() if k not in names}


def record(info):
    """The TermInfo facts that an assembled program brings as its
    Annotated.record."""
    return (info.down, info.up, info.depths, info.tier, info.height)


def checked(*args, **kwargs):
    """typecheck's Annotated, or its error as (class, message)."""
    try:
        return typecheck(*args, **kwargs)
    except TypingError as e:
        return TypingError, str(e)


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
        assert ann.record and not plain.record
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
    # the tables assembled from the blocks hold the program's own
    # subterms, by identity, in number_term's order, and the tables that
    # typecheck and TermInfo find for the same program untagged, walked
    # position by position, theta types in order; typing the program
    # leaves nothing on it but its tag
    spec, make_input = loaded(name)
    rng = random.Random(name)
    for size in SIZES.get(name, (1, 2, 3, 5, 8, 13, 30)) * 2:
        tau = make_input(rng, size)
        term = spec.program_term(tau)
        tag = {"_program": (spec.blocks, tau)}
        assert extra(term) == tag
        ann = typecheck(term, ty=O, alphabet=spec.output)
        assert extra(term) == tag
        nodes, kids = number_term(term)
        walked = preorder(term)
        assert len(ann.nodes) == len(nodes) == len(walked)
        assert all(a is b is c for a, b, c in zip(ann.nodes, nodes, walked))
        assert ann.kids == kids
        untagged = App(term.fn, term.arg)
        plain = typecheck(untagged, ty=O, alphabet=spec.output)
        assert plain.record is None
        assert tables(ann)[:5] == tables(plain)[:5]   # all but nodes, kids
        assert ann.kids == plain.kids
        assert ann.record == record(TermInfo(plain))


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
        assert extra(term) == {"_program": (spec.blocks, tau)}


def contents(ann):
    """A copy of each table of an assembled program and of its record."""
    return [copy.copy(table) for table in (*tables(ann), *ann.record)]


@pytest.mark.parametrize("name", LT)
def test_a_rule_is_walked_once_per_spec(name, monkeypatch):
    # loading the spec walks each rule in its block, and no rule carries
    # anything; each typing of a program assembles its own tables, and
    # TermInfo takes its records from them and walks no position: a
    # program typed twice gets equal tables, runs the same from either
    # typing, and no run changes them
    spec = load_transducer(corpus_path(name))
    assert not any(extra(t) for t in (spec.norm_out,
                                      *spec.norm_rules.values()))
    walked = []
    walk = TermInfo._walk

    def recording(self, *args):
        walked.append(self)
        return walk(self, *args)

    monkeypatch.setattr(TermInfo, "_walk", recording)
    rng = random.Random(name)
    for size in SIZES.get(name, (1, 2, 3, 5, 8, 13, 30)):
        first = spec.program_ann(gen_tree(rng, spec.input, size))
        second = typecheck(first.term, ty=O, alphabet=spec.output)
        assert second.kids is not first.kids
        fields = contents(first)
        assert contents(second) == fields
        runs = []
        for ann in (first, second):
            info = TermInfo(ann)
            assert all(a is b for a, b in zip(
                (info.types, info.occ_binder, info.var_kind, info.down,
                 info.up, info.depths),
                (ann.types, ann.occ_binder, ann.var_kind, *ann.record)))
            machine = IamMachine(info, pick_variant(info.tier))
            runs.append(treegen.run(machine, machine.initial(), 10_000_000))
            assert contents(ann) == fields
        assert walked == []
        assert isinstance(runs[0], treegen.Output) and runs[0] == runs[1]


@pytest.mark.parametrize("name", LT)
def test_a_shared_rule_types_under_placeholders_as_an_unshared_one(name):
    # the spec's blocks apply each rule to placeholder constants of the
    # memory type, and a block built again is the same
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
    # a program typed against o or no type under the output alphabet has
    # its tables assembled; one typed with theta, under another alphabet,
    # with a letter retyped or against another type than o is walked; each
    # has the unshared program's tables or its error
    spec = load_transducer(corpus_path(name))
    out = spec.output
    taken = [{"alphabet": out}, {"ty": O, "alphabet": out, "theta": {}},
             {"ty": O, "alphabet": out, "consts": {"<>0": spec.memory}}]
    walked = [{"ty": O, "alphabet": out, "theta": {"z": O}},
              {"alphabet": out, "theta": {"z": Bang(O)}},
              {"ty": O, "alphabet": spec.input}, {"ty": O},
              *({"ty": O, "alphabet": out, "consts": {letter: O}}
                for letter, _ in out.letters),
              *({"ty": ty, "alphabet": out}
                for ty in (Arrow(O, O), spec.memory, Bang(O)))]
    rng = random.Random(name)
    seen = 0
    for size in (1, 3, 8):
        tau = gen_tree(rng, spec.input, size)
        term, plain = spec.program_term(tau), unshared_program(spec, tau)
        for kwargs in taken + walked:
            for _ in range(2):
                got, want = checked(term, **kwargs), checked(plain, **kwargs)
                if isinstance(want, tuple):
                    assert got == want, kwargs
                    seen += 1
                    continue
                assert tables(got) == tables(want), kwargs
                assert (got.record is not None) == (kwargs in taken)
        assert extra(term) == {"_program": (spec.blocks, tau)}
    assert seen


def all_trees(alphabet, most):
    """Every tree over `alphabet` of at most `most` nodes."""
    by_size = [[] for _ in range(most + 1)]

    def forests(k, size):
        """Every k-tuple of trees made so far whose sizes add up to size."""
        if k == 0:
            if size == 0:
                yield ()
            return
        for first in range(1, size - k + 2):
            for t in by_size[first]:
                for rest in forests(k - 1, size - first):
                    yield (t, *rest)

    for size in range(1, most + 1):
        for letter, rank in alphabet.letters:
            by_size[size] += [Tree(letter, kids)
                              for kids in forests(rank, size - 1)]
    return [t for trees in by_size for t in trees]


@pytest.mark.parametrize("name, most", [("count.lt", 10),
                                        ("list-count.lt", 8),
                                        ("seq-nat.lt", 30),
                                        ("bin2bin.lt", 7)])
def test_every_small_input_is_tabled_and_run_from_its_record(name, most):
    # every input tree up to `most` nodes: the record's TermInfo is the
    # unshared program's, and the token machine gives the normal form
    spec = load_transducer(corpus_path(name))
    for tau in all_trees(spec.input, most):
        info = TermInfo(spec.program_ann(tau))
        want = TermInfo(typecheck(unshared_program(spec, tau), ty=O,
                                  alphabet=spec.output))
        assert facts(info) == facts(want), tau.to_str()
        machine = IamMachine(info, pick_variant(info.tier))
        got = treegen.run(machine, machine.initial(), 10**40)
        assert isinstance(got, treegen.Output), tau.to_str()
        assert got.tree == spec.eval_normalize(tau), tau.to_str()
