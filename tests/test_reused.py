"""Printing, counting and comparing a shared output DAG.

`treegen.drive`'s memo and `core.decode_tree` mark a `Tree` that they put
at a second place as `reused`.  `Tree.to_str` writes such a node's text
once, and `size` and `==` walk below it once.  `reference_trees` keeps
the walks that expand every occurrence; the two must agree on every
tree, and the marks must change no ==, hash or repr."""

import random
import tracemalloc

import pytest

from lamtrans import corpus_path
from lamtrans.cli import difftest_backends, gen_tree, load_spec
from lamtrans.compiler import compile_to_iptt
from lamtrans.core import Tree, parse_tree
from lamtrans.iam import VARIANT_MAX_TIER, IamMachine, TermInfo
from lamtrans.treegen import Output, run
from lamtrans.walking import WalkingMachine
from conftest import numeral, unary
from reference_trees import eq_expanding, size_expanding, tree_to_str_expanding

FUEL = 100_000_000


def places(t):
    """For each distinct node of t (by id), the node and the number of
    child slots that hold it."""
    found = {id(t): [t, 0]}
    todo = [t]
    while todo:
        for c in todo.pop().children:
            entry = found.get(id(c))
            if entry is None:
                found[id(c)] = [c, 1]
                todo.append(c)
            else:
                entry[1] += 1
    return found


def marked(t):
    return {i for i, (node, _) in places(t).items() if node.reused}


def shared(t):
    """The ids of the nodes with children that t holds at two or more
    places."""
    return {i for i, (node, k) in places(t).items()
            if k >= 2 and node.children}


def check_prints_as_expanded(t):
    text = tree_to_str_expanding(t, Tree, str)
    assert t.to_str() == text
    assert t.to_str() == text       # a second print gives the same bytes
    assert t.size() == size_expanding(t)
    copy = parse_tree(text)         # unshared and unmarked
    assert t == copy and copy == t and not t != copy
    assert eq_expanding(t, copy)
    assert hash(t) == hash(copy)
    return text


def check_marks_are_invisible(t, rng):
    """Setting or clearing marks changes no ==, hash or repr."""
    nodes = [node for node, _ in places(t).values()]
    copy = parse_tree(t.to_str())
    before = hash(t), repr(t), t == copy
    for flips in range(3):
        for node in nodes:
            node.reused = rng.random() < 0.5
        assert (hash(t), repr(t), t == copy) == before
        check_prints_as_expanded(t)


# -- every corpus backend ---------------------------------------------------

def corpus_runs(name):
    """The spec at corpus `name` and, for each backend that runs it, a
    function from an input tree to its result."""
    kind, spec = load_spec(corpus_path(name))
    if kind in ("twt", "iptt"):
        def walk(tau):
            m = WalkingMachine(spec, tau)
            return run(m, m.initial(), FUEL)
        return spec, [walk]
    runs = [r for _, r in difftest_backends(kind, spec, FUEL)]
    if kind == "lt":
        def iam(variant):
            def go(tau):
                m = IamMachine(TermInfo(spec.program_ann(tau)), variant)
                return run(m, m.initial(), FUEL)
            return go
        runs += [iam(v) for v, tier in VARIANT_MAX_TIER.items()
                 if spec.tier <= tier]
    return spec, runs


def corpus_inputs(name, spec):
    rng = random.Random(name)
    texts = [gen_tree(rng, spec.input, size).to_str()
             for size in (1, 3, 6, 10, 15)]
    if name.startswith("bin2bin"):
        texts += [numeral(n) for n in range(10)]
    if name.startswith("seq-nat"):
        texts += [unary(n) for n in (1, 2, 5, 12)]
    return [parse_tree(text, spec.input) for text in texts]


CORPUS = ["bin2bin.lt", "bin2unary.iptt", "count-twt.twt", "count.lt",
          "list-count.lt", "mirror.gls", "seq-nat-twt.twt", "seq-nat.lt"]


@pytest.mark.parametrize("name", CORPUS)
def test_every_corpus_output_prints_as_the_expanding_printer(name):
    spec, runs = corpus_runs(name)
    rng = random.Random(name)
    reused = 0
    for tau in corpus_inputs(name, spec):
        outputs = []
        for go in runs:
            res = go(tau)
            assert isinstance(res, Output)
            t = res.tree
            assert marked(t) == shared(t)
            reused += bool(marked(t))
            outputs.append((check_prints_as_expanded(t), t))
        texts = {text for text, _ in outputs}
        assert len(texts) == 1
        first = outputs[0][1]
        for _, t in outputs:
            assert t == first and eq_expanding(t, first)
            assert hash(t) == hash(first)
        check_marks_are_invisible(first, rng)
    if name in ("bin2bin.lt", "seq-nat.lt"):
        assert reused


def test_wide_output_inputs_mark_exactly_the_shared_trees(bin2bin):
    # bin2bin on 5, 6 and 7 on normalize (decode_tree) and on ss, d1 and
    # the IPTT (drive's memo): every output shares a subtree
    iptt = compile_to_iptt(bin2bin)
    for n in (5, 6, 7):
        tau = parse_tree(numeral(n), bin2bin.input)
        outputs = [bin2bin.eval_normalize(tau)]
        for variant in ("ss", "d1"):
            m = IamMachine(TermInfo(bin2bin.program_ann(tau)), variant)
            outputs.append(run(m, m.initial()).tree)
        m = WalkingMachine(iptt, tau)
        outputs.append(run(m, m.initial()).tree)
        for t in outputs:
            assert marked(t) == shared(t) != set()
            assert t.size() == 2 ** (n + 1) - 1


# -- hand-built DAGs --------------------------------------------------------

def random_dag(rng, n):
    """A tree over a:2, b:1, e:3, c:0, d:0 whose nodes take their children
    from the nodes built before them, so most are shared."""
    pool = [Tree("c"), Tree("d")]
    for _ in range(n):
        label, rank = rng.choice((("a", 2), ("b", 1), ("e", 3)))
        pool.append(Tree(label, tuple(rng.choice(pool)
                                      for _ in range(rank))))
    return pool[-1]


def test_hand_built_dags_marked_and_unmarked():
    rng = random.Random(5)
    for case in range(300):
        t = random_dag(rng, rng.randint(0, 18))
        nodes = [node for node, _ in places(t).values()]
        how = case % 4
        for node in nodes:
            # none; exactly the shared ones, as producers mark; at random,
            # leaves and nodes held once included; all
            node.reused = (False if how == 0 else
                           id(node) in shared(t) if how == 1 else
                           rng.random() < 0.5 if how == 2 else True)
        check_prints_as_expanded(t)
        check_marks_are_invisible(t, rng)


def test_a_deep_unshared_chain():
    n = 100_000
    t = Tree("c")
    for _ in range(n):
        t = Tree("b", (t,))
    want = "b(" * n + "c" + ")" * n
    assert t.to_str() == want == tree_to_str_expanding(t, Tree, str)
    assert t.size() == n + 1
    assert marked(t) == set()


def nat_list(n, mark):
    """cons(S^1(0), cons(S^2(0), ... cons(S^n(0), nil))), each S^k(0) built
    on the one before it, so every level is held at two places."""
    nats = [Tree("0")]
    for _ in range(n):
        nats.append(Tree("S", (nats[-1],)))
        nats[-2].reused = mark
    out = Tree("nil")
    for k in range(n, 0, -1):
        out = Tree("cons", (nats[k], out))
    return out


def nat_list_text(n):
    return ("".join(f"cons({unary(k)}," for k in range(1, n + 1)) + "nil"
            + ")" * n)


def test_a_chain_that_shares_every_level():
    for n in (0, 1, 2, 7, 60):
        for mark in (False, True):
            t = nat_list(n, mark)
            assert check_prints_as_expanded(t) == nat_list_text(n)
    t = nat_list(3000, True)
    want = nat_list_text(3000)
    assert t.to_str() == want and t.to_str() == want
    assert t.size() == 3000 * 3001 // 2 + 3000 + 3001


class Label(str):
    """A label that counts the times the printer opens its node (label +
    "(") and == compares it."""
    uses = 0

    def __add__(self, other):
        Label.uses += 1
        return str.__add__(self, other)

    def __ne__(self, other):
        Label.uses += 1
        return str.__ne__(self, other)


class Kids(tuple):
    """Children that count the times size walks them."""
    walked = 0

    def __iter__(self):
        Kids.walked += 1
        return tuple.__iter__(self)


def doubling(levels, leaf, label=str, kids=tuple):
    """levels of a(t, t), each marked reused: 2^(levels + 1) - 1
    occurrences of levels + 1 distinct nodes."""
    t = Tree(leaf)
    for _ in range(levels):
        t = Tree(label("a"), kids((t, t)))
        t.reused = True
    return t


def test_a_reused_node_is_walked_once():
    t, u = doubling(16, "c", Label, Kids), doubling(16, "c", Label, Kids)
    Label.uses = 0
    text = t.to_str()
    assert Label.uses == 16
    Kids.walked = 0
    assert t.size() == 2 ** 17 - 1
    assert Kids.walked == 16
    Label.uses = 0
    assert t == u
    assert Label.uses == 16
    assert text == tree_to_str_expanding(t, Tree, str)
    # 3,000 levels: 2^3001 - 1 occurrences, counted and compared at once
    t, u, v = doubling(3000, "c"), doubling(3000, "c"), doubling(3000, "d")
    assert t.size() == 2 ** 3001 - 1
    assert t == u and not t != u
    assert t != v and not t == v
    assert hash(t) == hash(u)


# -- printing a large shared output -----------------------------------------

def test_seq_nat_on_3000_prints_in_little_memory(seqnat):
    # 4,507,501 node occurrences over 6,002 distinct nodes; printing by
    # expanding every occurrence peaks at about 307 MiB under tracemalloc
    tau = parse_tree(unary(3000), seqnat.input)
    m = WalkingMachine(compile_to_iptt(seqnat), tau)
    outputs = [seqnat.eval_normalize(tau), run(m, m.initial(), FUEL).tree]
    want = nat_list_text(3000)
    assert len(want) == 13_528_503
    for t in outputs:
        tracemalloc.start()
        try:
            text = t.to_str()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == want
        assert peak < 64 << 20
        del text
    assert outputs[0] == outputs[1]
