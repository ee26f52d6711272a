"""Shared points: the token and walking machines stop where two runs can
meet, and `treegen.run` starts a chain there, which its memo looks up and
stores.  The runs must be the same runs as before, only shared: every
output and step count equals that of `through_run`, the run loop that steps
straight through each point (tests/reference_treegen.py), and no run steps
more for real.  A fuel-bounded run ends where a step-at-a-time run ends.
The marks of a walking spec are exactly its duplicated leaves."""

import random
import time
import tracemalloc
from dataclasses import fields, replace

import pytest

from lamtrans import corpus_path
from lamtrans.compiler import (TARGET_VARIANT, compile_to_iptt,
                               compile_to_twt, compile_walking)
from lamtrans.core import parse_tree
from lamtrans.iam import VARIANT_MAX_TIER, IamMachine, TermInfo
from lamtrans.transducer import SpecError, load_transducer
from lamtrans.treegen import (Diverged, Machine, Output, drive, frontier,
                              run)
from lamtrans.walking import (TO_PARENT, SharedRecord, WalkConfig,
                              WalkingMachine, check_reversible, image_leaves,
                              parse_twt)

from conftest import numeral, unary
from reference_treegen import through_run
from test_advance import agree, walk_at_fuels
from test_shared_pieces import all_trees
from test_walking import plan_leaf, random_walking_spec


class Counted(Machine):
    """A machine whose advance adds up the steps the wrapped machine's
    advance really takes."""

    def __init__(self, machine):
        self.machine = machine
        self.steps = 0

    def advance(self, cfg, budget):
        res = self.machine.advance(cfg, budget)
        self.steps += res[2]
        return res


def machines(spec):
    """A function from an input tree to (backend, a function that makes a
    fresh machine for it) for each token machine variant and each compiled
    target that the spec's tier allows.  The variants share one TermInfo
    per tree."""
    variants = [variant for variant in ("pa", "apa", "d1", "ss")
                if spec.tier <= VARIANT_MAX_TIER[variant]]
    compiled = {target: compile_walking(spec, target)
                for target, variant in TARGET_VARIANT.items()
                if spec.tier <= VARIANT_MAX_TIER[variant]}

    def made(tau):
        info = TermInfo(spec.program_ann(tau))
        return [*((v, lambda v=v: IamMachine(info, v)) for v in variants),
                *((target, lambda c=c: WalkingMachine(c, tau))
                  for target, c in compiled.items())]
    return made


def distinct(tree):
    """The number of Tree objects in an output."""
    met, todo = set(), [tree]
    while todo:
        t = todo.pop()
        if id(t) not in met:
            met.add(id(t))
            todo.extend(t.children)
    return len(met)


def hash_consed(tree):
    """The number of distinct subtrees of an output, each counted once
    however many objects hold it."""
    ids = {}        # id of a Tree met -> the number of its subtree
    numbers = {}    # (label, children's numbers) -> its number
    todo = [tree]
    while todo:
        t = todo[-1]
        if id(t) in ids:
            todo.pop()
            continue
        missing = [c for c in t.children if id(c) not in ids]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        key = t.label, tuple(ids[id(c)] for c in t.children)
        ids[id(t)] = numbers.setdefault(key, len(numbers))
    return len(numbers)


# (spec, largest input, whether a run of it meets a shared point)
EXHAUSTIVE = [("count.lt", 10, False), ("list-count.lt", 8, False),
              ("seq-nat.lt", 30, True), ("bin2bin.lt", 7, True)]


@pytest.mark.parametrize("name, most, shares", EXHAUSTIVE,
                         ids=[e[0] for e in EXHAUSTIVE])
def test_every_small_input_runs_shared_and_unchanged(name, most, shares):
    # every input tree up to `most` nodes, on every machine the spec's
    # tier allows: the output is normalize's, the output and steps are
    # those of the run through each point, no more steps are taken for
    # real, and a bin2bin output is built as its hash-consed DAG
    spec = load_transducer(corpus_path(name))
    made = machines(spec)
    real = {}       # backend -> [steps taken shared, steps taken through]
    for tau in all_trees(spec.input, most):
        want_tree = spec.eval_normalize(tau)
        for backend, make in made(tau):
            shared, through = Counted(make()), Counted(make())
            got = run(shared, shared.machine.initial(), 10**40)
            want = through_run(through, through.machine.initial(), 10**40)
            where = backend, tau.to_str()
            assert isinstance(got, Output), where
            assert (got.tree, got.steps) == (want.tree, want.steps), where
            assert got.tree == want_tree, where
            assert shared.steps <= through.steps, where
            steps = real.setdefault(backend, [0, 0])
            steps[0] += shared.steps
            steps[1] += through.steps
            if name == "bin2bin.lt":
                assert distinct(got.tree) == hash_consed(got.tree), where
    # a spec whose runs meet nowhere runs as before; the others save steps
    for backend, (shared, through) in real.items():
        assert (shared < through) == shares, backend


def test_a_wide_output_run_steps_each_configuration_once(bin2bin):
    # the bench's wide-output jobs: the real steps of each run are the
    # distinct configurations that the run paused before every step steps
    real = {}
    for value in (5, 6, 7):
        tau = parse_tree(numeral(value), bin2bin.input)
        for backend, make in machines(bin2bin)(tau):
            if backend not in ("d1", "ss", "iptt"):
                continue
            m = Counted(make())
            run(m, m.machine.initial())
            paused = drive(make(), m.machine.initial(), 10**9, True)
            configs = set()
            try:
                while True:
                    configs.add(next(paused)[0])
            except StopIteration:
                pass
            assert m.steps == len(configs), (backend, value)
            real[backend] = real.get(backend, 0) + m.steps
    assert real == {"d1": 1164, "ss": 1164, "iptt": 1164}


def stepped(make, fuels):
    """The results of a run that steps one step at a time at each fuel in
    `fuels`, from one run paused before each step, as `trace` runs it: at
    a fuel below the steps the output needs, a run ends Diverged with the
    frontier of the pause at that many steps."""
    m = make()
    paused = drive(m, m.initial(), max(fuels), True)
    want = {}
    try:
        while True:
            cfg, n, opened, pending = next(paused)
            if n in fuels:
                want[n] = Diverged(frontier(cfg, opened, pending)[0], n)
    except StopIteration as stop:
        end = stop.value
    return {fuel: want.get(fuel, end) for fuel in fuels}


class Edges(Machine):
    """A machine that notes the step counts of its run at which each call
    of the wrapped machine's advance starts and ends: an unpaused run with
    fuel `fuel` hands each call the fuel left as its budget."""

    def __init__(self, machine, fuel):
        self.machine = machine
        self.fuel = fuel
        self.edges = set()

    def advance(self, cfg, budget):
        res = self.machine.advance(cfg, budget)
        n = self.fuel - budget
        self.edges.update((n, n + res[2]))
        return res


def chain_edges(machine, steps):
    """The step counts next to where a chain of the run to the output
    (`steps` long) starts or ends: those at which a run with less fuel can
    end differently."""
    m = Edges(machine, steps)
    run(m, machine.initial(), steps)
    return {e + d for e in m.edges for d in (-1, 0, 1)} - {-1}


@pytest.mark.parametrize("name, text, backends, every", [
    ("bin2bin.lt", numeral(3), ("d1", "ss", "iptt"), True),
    ("bin2bin.lt", numeral(5), ("d1", "ss", "iptt"), False),
    ("bin2bin.lt", numeral(6), ("d1", "ss", "iptt"), False),
    ("bin2bin.lt", numeral(7), ("d1", "ss", "iptt"), False),
    ("seq-nat.lt", unary(8), ("apa", "twt", "iptt"), True),
], ids=["bin2bin-3", "bin2bin-5", "bin2bin-6", "bin2bin-7", "seq-nat-8"])
def test_runs_end_where_step_at_a_time_runs_end(name, text, backends, every):
    # at every fuel from 0 to one past the steps the output needs; on the
    # larger numerals, whose runs take up to 16,088 steps, at every fuel
    # next to where a chain of the run to the output starts or ends, and
    # at every 100th: a run ends as the one that steps one step at a time
    spec = load_transducer(corpus_path(name))
    tau = parse_tree(text, spec.input)
    made = [(b, make) for b, make in machines(spec)(tau) if b in backends]
    assert len(made) == len(backends)
    for backend, make in made:
        m = make()
        steps = run(m, m.initial()).steps
        fuels = set(range(steps + 2))
        if not every:
            fuels = chain_edges(make(), steps) | {steps + 1} | \
                set(range(0, steps, 100))
        want = stepped(make, fuels)
        for fuel in sorted(fuels):
            m = make()
            got = run(m, m.initial(), fuel)
            assert got == want[fuel], (backend, fuel)
            assert isinstance(got, Output if fuel >= steps else Diverged)
        # a few of them also as the runs of `agree` step
        for fuel in (0, 1, 2, 3, 50):
            agree(make, lambda m: m.initial(), fuel)


# Every stay of the cycle t, u leads into a state that another stay also
# leads into, so each one is shared and no chain jumps over any of them.
SHARED_CYCLE_TWT = """
input { b:1, e:0 }
output { S:1, 0:0 }
state q init
delta-root b q self = S((r, to-child 1))
delta e r from-parent = (t, stay)
delta e s self = (u, stay)
delta e t self = (u, stay)
delta e u self = (t, stay)
"""


def test_a_cycle_of_shared_stays_diverges_at_exactly_the_fuel():
    spec = parse_twt(SHARED_CYCLE_TWT)
    plans = spec.plans["e", False]
    assert all(isinstance(plans[q, "self"], SharedRecord) for q in "stu")
    assert spec.stays["e", False] == {}
    tau = parse_tree("b(e)", spec.input)
    for fuel, res in enumerate(walk_at_fuels(spec, "b(e)", range(40))):
        assert isinstance(res, Diverged) and res.steps == fuel
        if fuel >= 2:
            assert res.frontier.children[0] == \
                WalkConfig("tu"[fuel % 2], "self", 1)
    # each step stops at a point and starts a chain there: the run stays
    # flat, in time and in memory.  10**6 steps take about 0.75 s of CPU
    # time on Python 3.11; a busy host can slow that past a second, but
    # then it slows the runs of 10**5 steps on either side as well, so
    # the time must be under a second or grow no faster than linearly
    took = []
    for fuel in (10**5, 10**6, 10**5):
        m = WalkingMachine(spec, tau)
        start = time.process_time()
        res = run(m, m.initial(), fuel)
        took.append(time.process_time() - start)
        assert isinstance(res, Diverged) and res.steps == fuel
    assert took[1] < 1 or took[1] < min(20 * max(took[0], took[2]), 10), took
    peaks = []
    for fuel in (10**3, 10**4):
        tracemalloc.start()
        try:
            run(WalkingMachine(spec, tau), m.initial(), fuel)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1024, peaks


def duplicated(spec):
    """The duplicated leaves of each (letter, is-root) map, from the
    transitions, as `inverse` counts them."""
    counts = {}
    for key, is_root, _, img in spec.transitions():
        for leaf in image_leaves(img):
            seen = counts.setdefault((key[0], is_root), {})
            seen[leaf] = seen.get(leaf, 0) + 1
    return {m: {leaf for leaf, k in seen.items() if k > 1}
            for m, seen in counts.items()}


def marks_and_plain(spec):
    """The leaves of the marked plans and of the unmarked one-record plans
    of each map; the records inside images must all be unmarked."""
    out = {}
    for m, by_state in spec.plans.items():
        marked, plain = out[m] = set(), set()
        for plan in by_state.values():
            for p in plan.values() if isinstance(plan, dict) else [plan]:
                if isinstance(p, tuple):
                    (marked if isinstance(p, SharedRecord) else plain).add(
                        plan_leaf(p))
                else:
                    assert not any(isinstance(r, SharedRecord)
                                   for r in image_leaves(p))
    return out


def reversed_spec(spec):
    """The spec built again from its transition dicts, each in reversed
    insertion order."""
    tables = {f.name: getattr(spec, f.name) for f in fields(spec)
              if f.name.startswith("delta")}
    return replace(spec, **{name: dict(reversed(table.items()))
                            for name, table in tables.items()})


def test_the_marked_records_are_exactly_the_duplicated_leaves(
        count, seqnat, bin2bin, listcount, count_twt, seqnat_twt, bin2unary):
    specs = [compile_to_twt(count), compile_to_iptt(count),
             compile_to_twt(listcount), compile_to_iptt(listcount),
             compile_to_twt(seqnat), compile_to_iptt(seqnat),
             compile_to_iptt(bin2bin), count_twt, seqnat_twt, bin2unary]
    rng = random.Random(33)
    while len(specs) < 400:
        cls, args = random_walking_spec(rng, rng.random() < 0.5)
        try:
            specs.append(cls(*args))
        except SpecError:
            pass
    some = 0
    for spec in specs:
        dups = duplicated(spec)
        marks = marks_and_plain(spec)
        for m, (marked, plain) in marks.items():
            assert marked <= dups.get(m, set())
            assert not plain & dups.get(m, set())
            some += len(marked)
        # a reversible spec has no duplicated leaf, and so no mark
        if check_reversible(spec)[0]:
            assert not any(marks[m][0] for m in spec.plans)
        # the marks do not depend on the order of the transitions
        again = reversed_spec(spec)
        assert marks_and_plain(again) == marks
        assert again.stays == spec.stays
        # no root map moves to-parent, so the machine never looks for the
        # root's parent
        for (_, is_root), by_state in spec.plans.items():
            assert not is_root or all(
                r[1] != TO_PARENT for plan in by_state.values()
                for p in (plan.values() if isinstance(plan, dict)
                          else [plan])
                for r in image_leaves(p))
    assert some
    for spec in specs[:2]:      # count's TWT and IPTT
        assert check_reversible(spec)[0]
        assert not any(isinstance(p, SharedRecord)
                       for by_state in spec.plans.values()
                       for plan in by_state.values()
                       for p in (plan.values() if isinstance(plan, dict)
                                 else [plan]))
