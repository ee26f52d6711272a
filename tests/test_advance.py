"""Chained runs against step-at-a-time runs.

`treegen.run` hands each pending configuration to the machine's `advance`,
which the token and walking machines implement as one loop over local
variables.  `StepOnly` exposes only a machine's `step`, so its runs go
through the base-class `advance`, one `step` call at a time.  Both runs
keep `treegen.run`'s per-run memo of chains; a third run, paused before
each step as `trace` runs it, takes every step and reads no memo.  On the
corpus and on seeded random inputs, and for fuels around and below the full
step count, the three runs must return the same Output, Stuck or Diverged:
the same output or frontier, stuck position and step count."""

import random

import pytest

from lamtrans.cli import gen_tree
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import LamtransError, parse_tree
from lamtrans.iam import Config, IamMachine, TermInfo
from lamtrans.treegen import Diverged, FNode, Machine, Output, Stuck, run
from lamtrans.walking import (IpttSpec, TwtSpec, WalkConfig, WalkingMachine,
                              parse_iptt, parse_twt)

from reference_treegen import frontier_configs, frontier_get, paused_run


class StepOnly(Machine):
    """A machine that has only the wrapped machine's step."""

    def __init__(self, machine):
        self.machine = machine

    def step(self, cfg):
        return self.machine.step(cfg)


def outcome(machine, initial, fuel, runner=run):
    """The run's result, or the type and message of the error it raised."""
    try:
        return runner(machine, initial, fuel)
    except LamtransError as e:
        return type(e), str(e)


def fuels(rng, steps):
    return sorted({steps - 1, steps, steps + 1,
                   *(rng.randrange(steps + 1) for _ in range(3))} - {-1})


def full_run(make):
    m = make()
    return run(m, m.initial())


def agree(make, initial, fuel):
    """Run fresh machines from make() chained, step by step, and paused
    without the memo; return the chained run's result."""
    chained, stepped, paused = make(), make(), make()
    got = outcome(chained, initial(chained), fuel)
    for want in (outcome(StepOnly(stepped), initial(stepped), fuel),
                 outcome(paused, initial(paused), fuel, paused_run)):
        assert type(got) is type(want)
        assert got == want
        if isinstance(got, Stuck):
            assert frontier_get(got.frontier, got.pos) == \
                frontier_get(want.frontier, want.pos)
    return got


SIZES = {"count": 14, "seq-nat": 9, "bin2bin": 3}
# the token machine variants each corpus spec's tier allows
VARIANTS = {"count": ("pa", "apa", "d1", "ss"), "seq-nat": ("apa", "d1", "ss"),
            "bin2bin": ("d1", "ss")}


@pytest.fixture(scope="module")
def specs(count, seqnat, bin2bin):
    return {"count": count, "seq-nat": seqnat, "bin2bin": bin2bin}


def inputs(spec, name, rng, n=12):
    return [gen_tree(rng, spec.input, 1 + rng.randrange(SIZES[name]))
            for _ in range(n)]


@pytest.mark.parametrize("name", list(VARIANTS))
def test_token_machines_chain_as_they_step(specs, name):
    spec, rng = specs[name], random.Random(f"iam-{name}")
    kinds = set()
    for tau in inputs(spec, name, rng):
        info = TermInfo(spec.program_ann(tau))
        for variant in VARIANTS[name]:
            def make():
                return IamMachine(info, variant)

            def initial(m):
                return m.initial()
            steps = full_run(make).steps
            for fuel in fuels(rng, steps):
                got = agree(make, initial, fuel)
                kinds.add(type(got))
            # stuck runs, and the errors a run can raise, from arbitrary
            # configurations
            for _ in range(8):
                cfg = Config(rng.choice(("down", "up")),
                             rng.choice(range(len(info.down))),
                             tuple(rng.choice("po")
                                   for _ in range(rng.randrange(4))))
                got = agree(make, lambda m: cfg, rng.randrange(200))
                kinds.add(type(got))
    assert {Output, Stuck, Diverged} <= kinds


def pruned(spec, rng):
    """The spec without about one transition in twelve, so that runs of it
    get stuck."""
    if isinstance(spec, IpttSpec):
        delta = {k: v for k, v in spec.delta.items() if rng.random() > 1 / 12}
        return IpttSpec(spec.input, spec.output, spec.states, spec.initial,
                        spec.colors, delta, name=spec.name)
    delta, root = ({k: v for k, v in table.items() if rng.random() > 1 / 12}
                   for table in (spec.delta, spec.delta_root))
    return TwtSpec(spec.input, spec.output, spec.states, spec.initial, delta,
                   root, name=spec.name)


@pytest.mark.parametrize("name,target", [
    ("count", "twt"), ("seq-nat", "twt"), ("count", "iptt"),
    ("seq-nat", "iptt"), ("bin2bin", "iptt")])
def test_walking_machines_chain_as_they_step(specs, name, target):
    spec, rng = specs[name], random.Random(f"{target}-{name}")
    compiled = (compile_to_twt if target == "twt" else compile_to_iptt)(spec)
    kinds = set()
    for tau in inputs(spec, name, rng):
        for walker in (compiled, pruned(compiled, rng)):
            def make():
                return WalkingMachine(walker, tau)

            def initial(m):
                return m.initial()
            steps = full_run(make).steps
            for fuel in fuels(rng, steps):
                got = agree(make, initial, fuel)
                kinds.add(type(got))
    assert {Output, Stuck, Diverged} <= kinds


def walk_at_fuels(spec, tree, fuels):
    """The runs of spec's machine on tree at each fuel, chained as they
    step."""
    tau = parse_tree(tree, spec.input)
    return [agree(lambda: WalkingMachine(spec, tau), lambda m: m.initial(),
                  fuel) for fuel in fuels]


# A chain of stays that runs into a missing transition at node 1.
STAY_CHAIN_TWT = """
input { b:1, e:0 }
output { S:1, 0:0 }
state q init
delta-root b q self = (r, to-child 1)
delta e r from-parent = (s, stay)
delta e s self = (t, stay)
delta e t self = (u, stay)
delta e u self = (v, stay)
"""


def test_a_stay_chain_that_runs_into_a_missing_transition_is_stuck():
    spec = parse_twt(STAY_CHAIN_TWT)
    assert spec.stays["e", False] == {"s": ("v", 3), "t": ("v", 2),
                                      "u": ("v", 1)}
    runs = walk_at_fuels(spec, "b(e)", range(8))
    # every fuel inside the chain stops where the stays one at a time do
    for fuel, state in [(2, "s"), (3, "t"), (4, "u"), (5, "v")]:
        assert runs[fuel] == Diverged(WalkConfig(state, "self", 1), fuel)
    for res in runs[6:]:
        assert isinstance(res, Stuck) and res.steps == 5
        assert res.pos == () and res.frontier == WalkConfig("v", "self", 1)
    # a single step never jumps
    m = WalkingMachine(spec, parse_tree("b(e)", spec.input))
    assert m.step(WalkConfig("s", "self", 1)) == WalkConfig("t", "self", 1)


def test_a_cycle_of_stays_diverges_at_exactly_the_fuel():
    spec = parse_twt("""
input { b:1, e:0 }
output { S:1, 0:0 }
state q init
delta-root b q self = S((r, to-child 1))
delta e r from-parent = (s, stay)
delta e s self = (t, stay)
delta e t self = (u, stay)
delta e u self = (t, stay)
""")
    # s leads into the cycle t, u; both s and u stay into t, so that stay
    # is shared and no chain passes it: only t's stay to u is a jump
    assert spec.stays["e", False] == {"t": ("u", 1)}
    for fuel, res in enumerate(walk_at_fuels(spec, "b(e)", range(40))):
        assert isinstance(res, Diverged) and res.steps == fuel


def test_a_stay_chain_stops_at_a_plan_by_visible_pebble():
    spec = parse_iptt("""
input { e:0 }
output { S:1, 0:0 }
colors { z }
state q init
delta e q self root pebble * = (r, stay)
delta e r self root pebble * = (s, stay)
delta e s self root pebble NONE = (q, put z)
delta e s self root pebble z = S((u, remove))
delta e u self root pebble * = (w, stay)
delta e w self root pebble * = 0
""")
    assert spec.stays["e", True] == {"q": ("s", 2), "r": ("s", 1),
                                     "u": ("w", 1)}
    runs = walk_at_fuels(spec, "e", range(10))
    assert all(isinstance(res, Diverged) for res in runs[:8])
    assert runs[8] == runs[9] == Output(parse_tree("S(0)", spec.output), 8)


def test_a_single_head_stuck_run_remembers_nothing(count):
    # a TWT has one head, so its stuck configuration is the only leaf
    spec = compile_to_twt(count)
    tau = gen_tree(random.Random(3), count.input, 12)
    steps = full_run(lambda: WalkingMachine(spec, tau)).steps
    stuck = 0
    for key in sorted(spec.delta, key=str):
        delta = {kk: v for kk, v in spec.delta.items() if kk != key}
        m = WalkingMachine(TwtSpec(spec.input, spec.output, spec.states,
                                   spec.initial, delta, spec.delta_root), tau)
        res = run(m, m.initial(), steps + 1)
        if isinstance(res, Stuck):
            stuck += 1
            assert frontier_configs(res.frontier) == [res.pos]
    assert stuck > 0


@pytest.mark.parametrize("target", ["twt", "iptt"])
def test_a_walking_machine_keeps_no_state_between_runs(count, target):
    # one machine runs out of fuel, gets stuck and then runs to the end,
    # and each time returns what a fresh machine returns
    spec = (compile_to_twt if target == "twt" else compile_to_iptt)(count)
    tau = gen_tree(random.Random(4), count.input, 12)
    steps = full_run(lambda: WalkingMachine(spec, tau)).steps
    m = WalkingMachine(spec, tau)
    for start, fuel, kind in [
            (m.initial(), steps // 2, Diverged),
            (WalkConfig("no such state", "self", len(m.nodes) - 1), steps,
             Stuck),
            (m.initial(), steps, Output)]:
        got = run(m, start, fuel)
        assert isinstance(got, kind)
        assert got == run(WalkingMachine(spec, tau), start, fuel)
        assert vars(m).keys() == {"spec", "nodes"}


def test_advance_stops_at_an_output_node_and_at_the_budget(count):
    info = TermInfo(count.program_ann(gen_tree(random.Random(1),
                                               count.input, 5)))
    m = IamMachine(info, "pa")
    res, cfg, n = m.advance(m.initial(), 10_000)
    assert isinstance(res, FNode) and n > 1
    # the configuration it stopped at is the one whose step built the node
    assert m.step(cfg) == res
    assert m.advance(m.initial(), n - 1) == (None, cfg, n - 1)
    assert m.advance(m.initial(), 0) == (None, m.initial(), 0)
