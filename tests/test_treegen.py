import itertools
import json
import os
import random
import resource
import subprocess
import sys

import pytest

from lamtrans import corpus_path, treegen
from lamtrans.cli import gen_tree, load_spec
from lamtrans.compiler import TARGET_VARIANT, compile_to_iptt, compile_walking
from lamtrans.core import Node, Tree, parse_tree
from lamtrans.gls import make_type_constant, split_state_relabeling
from lamtrans.iam import (VARIANT_MAX_TIER, Config, IamMachine, TermInfo,
                          run_iam)
from lamtrans.treegen import (Diverged, FNode, Machine, Output, Stuck,
                              frontier_to_str, run, trace, trace_lines)
from lamtrans.walking import WalkingMachine
from reference_treegen import (expanding_frontier, frontier_configs,
                               frontier_get, frontier_replace,
                               frontier_to_tree, paused_run, reference_trace)

CORPUS_DIR = os.path.dirname(corpus_path("count.lt"))


class Countdown(Machine):
    """Toy machine: configuration n unfolds to S(n-1), and 0 to a leaf."""

    def step(self, n):
        if n == 0:
            return FNode("0")
        return FNode("S", (n - 1,))


class Broken(Machine):
    def step(self, n):
        return None


def test_frontier_helpers():
    f = FNode("a", (3, FNode("b", (7,))))
    assert frontier_configs(f) == [(0,), (1, 0)]
    assert frontier_get(f, (1, 0)) == 7
    g = frontier_replace(f, (0,), FNode("c"))
    assert frontier_configs(g) == [(1, 0)]
    assert frontier_to_str(g, str) == "a(c,b([7]))"


def test_frontier_helpers_on_a_deep_frontier():
    n = 3000
    f = 7
    for i in range(n):
        f = FNode("a", (FNode("c"), f)) if i % 2 else FNode("b", (f,))
    pos = frontier_configs(f)[0]
    assert len(frontier_configs(f)) == 1
    assert pos == (1, 0) * (n // 2)
    assert frontier_get(f, pos) == 7
    text = frontier_to_str(f, str)
    assert text == "a(c,b(" * (n // 2) + "[7]" + "))" * (n // 2)
    g = frontier_replace(f, pos, FNode("c"))
    assert frontier_configs(g) == []
    assert frontier_to_str(g, str) == text.replace("[7]", "c")
    assert frontier_to_tree(g).to_str() == text.replace("[7]", "c")


def test_deep_frontiers_compare_and_hash():
    # FNode shares Tree's == and hash, which walk without recursion; the
    # dataclass-generated methods raised RecursionError at this depth
    def chain(n, leaf):
        f = FNode("S", (leaf, Config("up", (1,), ("o",))))
        for _ in range(n - 1):
            f = FNode("S", (f, Config("down", (), ())))
        return f

    n = 3_000
    t, u = chain(n, Config("up", (0,), ())), chain(n, Config("up", (0,), ()))
    v = chain(n, Config("up", (0,), ("p",)))
    w = chain(n - 1, Config("up", (0,), ()))
    assert t is not u and t == u and not t != u
    assert t != v and not t == v
    assert t != w and w != t
    assert hash(t) == hash(u) == hash((t.label, t.children))
    assert hash(t) != hash(v)
    assert len({t, u, v, w}) == 3


def reference_frontier_to_str(f, render):
    """The oracle: frontier_to_str before core.tree_to_str."""
    out = []
    todo = [(False, f)]         # (True, text) or (False, frontier)
    while todo:
        is_text, f = todo.pop()
        if is_text:
            out.append(f)
        elif not isinstance(f, FNode):
            out.append("[" + render(f) + "]")
        elif not f.children:
            out.append(f.label)
        else:
            out.append(f.label + "(")
            todo.append((True, ")"))
            for i in range(len(f.children) - 1, -1, -1):
                todo.append((False, f.children[i]))
                if i:
                    todo.append((True, ","))
    return "".join(out)


def test_frontier_printer_renders_every_configuration():
    # string and tuple configurations are leaves like any other
    seen = []
    configs = [7, ",", ")", "", ("q", "to-parent"), (), ("a", ("b",))]
    f = FNode("a", (configs[0], FNode("b", tuple(configs[1:4])), FNode("c"),
                    FNode("d", tuple(configs[4:]))))
    text = frontier_to_str(f, lambda c: seen.append(c) or repr(c))
    assert seen == configs and text == reference_frontier_to_str(f, repr)
    assert text == ("a([7],b([','],[')'],['']),c,"
                    "d([('q', 'to-parent')],[()],[('a', ('b',))]))")


def test_run_produces_output():
    res = run(Countdown(), 3)
    assert isinstance(res, Output)
    assert res.tree.to_str() == "S(S(S(0)))"
    assert res.steps == 4


def test_run_stuck():
    res = run(Broken(), 5)
    assert isinstance(res, Stuck)
    assert res.pos == ()
    assert res.steps == 0


def test_run_diverged():
    class Loop(Machine):
        def step(self, n):
            return n
    res = run(Loop(), 1, fuel=10)
    assert isinstance(res, Diverged)
    assert res.steps == 10


# bin2bin on this numeral outputs about 7.6e22 nodes, from a handful of
# memo-served subtrees that the run holds at many places
HUGE = "1(0(0(1(0(1(1(e)))))))"


def distinct_fnodes(f):
    """The number of distinct FNodes in a frontier, by identity."""
    seen, todo = set(), [f]
    while todo:
        f = todo.pop()
        if f.__class__ is FNode and id(f) not in seen:
            seen.add(id(f))
            todo.extend(f.children)
    return len(seen)


def test_a_diverged_frontier_copies_each_reused_subtree_once(bin2bin,
                                                             monkeypatch):
    ann = bin2bin.program_ann(parse_tree(HUGE, bin2bin.input))
    got = run_iam(ann, "ss", 10**6)
    monkeypatch.setattr(treegen, "frontier", expanding_frontier)
    want = run_iam(ann, "ss", 10**6)
    assert isinstance(got, Diverged) and got.steps == 10**6
    assert got == want
    assert distinct_fnodes(got.frontier) * 100 < distinct_fnodes(want.frontier)


def test_a_diverged_frontier_at_a_huge_fuel_is_built_at_once():
    # expanding each reused subtree, the frontier at this fuel takes more
    # memory than the cap allows; sharing them, it takes a few milliseconds
    script = (
        "from lamtrans import corpus_path\n"
        "from lamtrans.core import parse_tree\n"
        "from lamtrans.iam import run_iam\n"
        "from lamtrans.transducer import load_transducer\n"
        "spec = load_transducer(corpus_path('bin2bin.lt'))\n"
        f"tau = parse_tree({HUGE!r}, spec.input)\n"
        "res = run_iam(spec.program_ann(tau), 'ss', 10**9)\n"
        "print(type(res).__name__, res.steps)\n")
    cap = 128 * 2**20

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run([sys.executable, "-c", script], preexec_fn=capped,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"Diverged {10**9}\n"


def test_frontier_to_tree_requires_no_configs():
    from lamtrans.core import LamtransError
    with pytest.raises(LamtransError):
        frontier_to_tree(FNode("a", (1, FNode("c"))))


def test_run_deep_output_has_no_recursion_limit():
    res = run(Countdown(), 5000)
    assert isinstance(res, Output)
    assert res.steps == 5001
    depth, t = 1, res.tree
    while t.children:
        assert t.label == "S" and len(t.children) == 1
        depth, t = depth + 1, t.children[0]
    assert depth == 5001 and t.label == "0"


def test_run_deep_stuck_position():
    class StuckAtZero(Countdown):
        def step(self, n):
            return None if n == 0 else super().step(n)
    res = run(StuckAtZero(), 5000)
    assert isinstance(res, Stuck)
    assert res.steps == 5000
    assert len(res.pos) == 5000 and set(res.pos) == {0}


def reference_run(machine, initial, fuel):
    """The rescan-and-rebuild run loop: each step finds the leaf to fire with
    frontier_configs and rebuilds the path to it with frontier_replace."""
    frontier = initial
    for n in range(fuel):
        leaves = frontier_configs(frontier)
        if not leaves:
            return Output(frontier_to_tree(frontier), n)
        pos = leaves[0]
        res = machine.step(frontier_get(frontier, pos))
        if res is None:
            return Stuck(frontier, pos, n)
        frontier = frontier_replace(frontier, pos, res)
    if not frontier_configs(frontier):
        return Output(frontier_to_tree(frontier), fuel)
    return Diverged(frontier, fuel)


class RandomMachine(Machine):
    """Seeded toy machine.  A configuration (budget, tag) steps to None, to
    a bare configuration, or to an FNode tree with FNodes nested up to three
    deep and configuration leaves at every depth, all chosen from (seed,
    budget, tag).  Every configuration passed to step is recorded."""

    def __init__(self, seed):
        self.seed = seed
        self.calls = []

    def step(self, cfg):
        self.calls.append(cfg)
        budget, tag = cfg
        rng = random.Random(f"{self.seed}:{budget}:{tag}")
        roll = rng.random()
        if roll < 0.04:
            return None
        if budget == 0:
            return FNode("c")
        if roll < 0.4:
            return (budget - 1, rng.randrange(1000))
        return self.tree(rng, budget - 1, 0)

    @staticmethod
    def tree(rng, budget, depth):
        kids = []
        for _ in range(rng.randrange(4)):
            if depth < 3 and rng.random() < 0.4:
                kids.append(RandomMachine.tree(rng, budget, depth + 1))
            else:
                kids.append((budget, rng.randrange(1000)))
        return FNode(f"n{len(kids)}", tuple(kids))


def is_subsequence(xs, ys):
    rest = iter(ys)
    return all(any(x == y for y in rest) for x in xs)


def test_run_matches_reference_run():
    kinds, fewer = set(), 0
    for seed in range(300):
        rng = random.Random(seed)
        initial = ((4, seed) if seed % 2 else
                   RandomMachine.tree(rng, 4, 0))
        fuel = rng.randrange(60)
        ours, paused, ref = (RandomMachine(seed) for _ in range(3))
        got = run(ours, initial, fuel)
        want = reference_run(ref, initial, fuel)
        assert type(got) is type(want), seed
        assert got == want, seed
        # a paused run steps every configuration, as the reference does
        assert paused_run(paused, initial, fuel) == want, seed
        assert paused.calls == ref.calls, seed
        # run steps a repeated chain once: it leaves out whole chains
        assert set(ours.calls) == set(ref.calls), seed
        assert is_subsequence(ours.calls, ref.calls), seed
        fewer += len(ours.calls) < len(ref.calls)
        kinds.add(type(got))
    assert kinds == {Output, Stuck, Diverged}
    assert fewer > 0


class Doubling(Machine):
    """Toy machine: configuration h unfolds to a(h-1,h-1), and 0 to a leaf,
    so the output from h is the complete binary tree of height h, built
    from h+1 distinct configurations.  Counts its step calls."""

    def __init__(self):
        self.calls = 0

    def step(self, h):
        self.calls += 1
        return FNode("c") if h == 0 else FNode("a", (h - 1, h - 1))


def test_run_steps_each_configuration_once():
    h = 12
    m = Doubling()
    res = run(m, h)
    assert m.calls == h + 1
    assert res.steps == 2 ** (h + 1) - 1
    t = "c"
    for _ in range(h):
        t = f"a({t},{t})"
    assert res.tree.to_str() == t


def test_run_shares_equal_subtrees():
    # the memo keeps each stored chain's whole subtree, so the output is a
    # DAG: one Tree object per distinct configuration
    h = 12
    res = run(Doubling(), h)
    assert res == paused_run(Doubling(), h)
    seen, todo = set(), [res.tree]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            todo.extend(t.children)
    assert len(seen) == h + 1
    assert res.tree.size() == 2 ** (h + 1) - 1


HASHED = []     # the n of each Cfg hashed


class Cfg:
    """A configuration that records each time it is hashed."""

    def __init__(self, n):
        self.n = n

    def __hash__(self):
        HASHED.append(self.n)
        return hash(self.n)

    def __eq__(self, other):
        return self.n == other.n


class Unary(Machine):
    def step(self, c):
        return FNode("S", (Cfg(c.n - 1),)) if c.n else FNode("0")


class Binary(Machine):
    def step(self, c):
        return (FNode("a", (Cfg(c.n - 1), Cfg(c.n - 1))) if c.n
                else FNode("c"))


def test_run_memoizes_only_where_the_frontier_branches():
    HASHED.clear()
    assert run(Unary(), Cfg(50)).steps == 51
    assert HASHED == []
    assert run(Binary(), Cfg(5)).steps == 63
    assert HASHED


def test_run_hashes_each_distinct_configuration_a_few_times():
    # a repeated configuration is one lookup of its whole subtree, with
    # nothing below it looked up again
    h = 12
    HASHED.clear()
    res = run(Binary(), Cfg(h))
    assert len(HASHED) <= 4 * (h + 1)
    # the rescanning reference_run is quadratic, so it checks a smaller h
    assert res == paused_run(Binary(), Cfg(h))
    assert run(Binary(), Cfg(8)) == reference_run(Binary(), Cfg(8), 2 ** 9)


def test_run_matches_the_paused_run_at_every_fuel():
    h = 6
    steps = 2 ** (h + 1) - 1
    kinds = set()
    for fuel in range(steps + 2):
        got = run(Doubling(), h, fuel)
        want = paused_run(Doubling(), h, fuel)
        assert type(got) is type(want), fuel
        assert got == want, fuel
        kinds.add(type(got))
    assert kinds == {Output, Diverged}


def test_trace_records():
    recs = list(trace(Countdown(), 2))
    assert recs[0] == {"step": 0, "frontier": "[2]", "fired": []}
    assert recs[1]["frontier"] == "S([1])"
    assert recs[1]["fired"] == [0]
    assert recs[-1]["fired"] is None
    assert recs[-1]["frontier"] == "S(S(0))"


def test_trace_lines_are_json():
    for line in trace_lines(Countdown(), 2):
        rec = json.loads(line)
        assert set(rec) == {"step", "frontier", "fired"}


def test_trace_matches_reference_trace():
    endings, initials = set(), set()
    for seed in range(300):
        rng = random.Random(seed)
        initial = ((4, seed) if seed % 2 else
                   RandomMachine.tree(rng, 4, 0))
        fuel = rng.randrange(60)
        ours, ref = RandomMachine(seed), RandomMachine(seed)
        got = list(trace(ours, initial, fuel))
        want = list(reference_trace(ref, initial, fuel))
        assert ours.calls == ref.calls, seed
        assert got == want, seed
        endings.add(type(run(RandomMachine(seed), initial, fuel)))
        initials.add("bare" if not isinstance(initial, FNode) else
                     "config-free" if not frontier_configs(initial) else
                     "tree")
    assert endings == {Output, Stuck, Diverged}
    assert initials == {"bare", "config-free", "tree"}


def test_trace_streams():
    class Loop(Machine):
        def step(self, n):
            return n + 1
    recs = list(itertools.islice(trace(Loop(), 0), 3))
    assert recs == [{"step": n, "frontier": f"[{n}]", "fired": []}
                    for n in range(3)]


def trees_only(t):
    """Whether t and all its nodes are core.Tree nodes."""
    todo = [t]
    while todo:
        t = todo.pop()
        if t.__class__ is not Tree:
            return False
        todo.extend(t.children)
    return True


def frontier_only(f):
    """Whether f is made of FNodes and configurations, with no Tree."""
    todo = [f]
    while todo:
        f = todo.pop()
        if isinstance(f, Node) and f.__class__ is not FNode:
            return False
        if f.__class__ is FNode:
            todo.extend(f.children)
    return True


def check_shape(res):
    if isinstance(res, Output):
        assert trees_only(res.tree)
    else:
        assert frontier_only(res.frontier)


def test_results_are_trees_or_frontiers_on_random_machines():
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        initial = ((4, seed) if seed % 2 else
                   RandomMachine.tree(rng, 4, 0))
        res = run(RandomMachine(seed), initial, rng.randrange(60))
        check_shape(res)
        kinds.add(type(res))
    assert kinds == {Output, Stuck, Diverged}


def corpus_machines(path):
    """For each backend that runs the corpus spec at `path` through
    treegen, a function from an input tree to its machine."""
    kind, spec = load_spec(path)
    if kind in ("twt", "iptt"):
        return spec, [lambda tau: WalkingMachine(spec, tau)]
    if kind == "gls":
        spec = split_state_relabeling(make_type_constant(spec))[1]
    makes = [lambda tau, v=v: IamMachine(TermInfo(spec.program_ann(tau)), v)
             for v, tier in VARIANT_MAX_TIER.items() if spec.tier <= tier]
    makes += [lambda tau, t=t: WalkingMachine(compile_walking(spec, t), tau)
              for t, v in TARGET_VARIANT.items()
              if spec.tier <= VARIANT_MAX_TIER[v]]
    return spec, makes


@pytest.mark.parametrize("name", sorted(os.listdir(CORPUS_DIR)))
def test_results_are_trees_or_frontiers_on_the_corpus(name):
    spec, makes = corpus_machines(os.path.join(CORPUS_DIR, name))
    tau = gen_tree(random.Random(name), spec.input, 4)
    for make in makes:
        m = make(tau)
        res = run(m, m.initial())
        assert isinstance(res, Output)
        check_shape(res)
        # the same run with half the fuel it needs
        m = make(tau)
        res = run(m, m.initial(), res.steps // 2)
        assert isinstance(res, Diverged)
        check_shape(res)


def test_run_matches_the_paused_run_at_every_fuel_on_the_corpus(bin2bin):
    # a branching corpus run, where a stored subtree that does not fit in
    # the fuel left is stepped for real
    tau = parse_tree("1(1(e))", bin2bin.input)
    info, iptt = TermInfo(bin2bin.program_ann(tau)), compile_to_iptt(bin2bin)
    makes = [lambda v=v: IamMachine(info, v) for v in ("ss", "d1")]
    makes.append(lambda: WalkingMachine(iptt, tau))
    for make in makes:
        m = make()
        steps = run(m, m.initial()).steps
        kinds = set()
        for fuel in range(steps + 2):
            m, p = make(), make()
            got = run(m, m.initial(), fuel)
            want = paused_run(p, p.initial(), fuel)
            assert type(got) is type(want), fuel
            assert got == want, fuel
            kinds.add(type(got))
        assert kinds == {Output, Diverged}


def test_trace_matches_reference_trace_at_every_fuel():
    h = 6
    for fuel in range(2 ** (h + 1) + 1):
        assert list(trace(Doubling(), h, fuel)) == \
            list(reference_trace(Doubling(), h, fuel)), fuel
