"""Tree-generating abstract machines.

A machine is given by a set of configurations and a partial step function
sending a configuration to a tree over the output alphabet whose leaves may
again be configurations.  A run starts from a single configuration and
repeatedly replaces one configuration leaf of the frontier by the result of
stepping it; it produces an output once no configuration leaves remain.
The step functions used here are orthogonal, so the result does not depend
on which leaf is picked; the leftmost policy is the canonical one.

A machine needs only `step`.  It may also define `advance(cfg, budget)`,
which takes up to `budget` steps from `cfg` and stops at the first step
that returns an FNode, at a configuration it is stuck on, or when the
budget is used up; it returns (the FNode or None, the configuration it
stopped at, the steps taken).  The base class builds each from the other,
so a machine that chains steps in local variables states its rules once,
in `advance`, and gets `step` as a one-step `advance`.

`drive` is the one run loop.  It keeps the frontier as mutable nodes with
a stack of pending configuration slots, leaf to fire next on top, so the
work it does around each machine step does not depend on the size of the
frontier.  It always fires the leftmost configuration leaf, and it steps
only through `advance`.  `run` drives a machine to its result, giving
each pending slot the fuel left in one `advance` call.  `trace` and the
invariant-checked token machine run (`iam.run_iam(check=True)`) are the
same run, paused before each step, which is then a one-step `advance`:
`trace` renders the whole frontier there with `frontier_to_str`, and the
checked run checks the configuration about to be stepped.

The machines are deterministic: a configuration fixes the rest of its
chain, so the FNode a slot's chain reaches, and the number of steps it
takes, are a function of the slot's first configuration.  An unpaused run
keeps them in a memo for the length of the run; a slot whose first
configuration is in it gets the stored FNode and counts its steps without
calling `advance`, when they fit in the fuel left.  A slot below another
that starts the same way would repeat it forever, so in a run that ends
only a slot to the right can reuse a chain: the memo stores a chain only
while some slot to its right is pending, and a run whose frontier never
branches hashes no configuration.  This needs configurations to be
hashable values, with equal ones stepping alike, and a step to depend on
nothing but its configuration.  Paused runs (`trace`, `check=True`) never
use the memo and take every step."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Node, Tree, tree_to_str


@dataclass(slots=True, eq=False)
class FNode(Node):
    """An output-alphabet node of a frontier; children may be FNodes or
    machine configurations."""
    label: str
    children: tuple = ()


def frontier_to_str(f, render):
    return tree_to_str(f, FNode, lambda c: "[" + render(c) + "]")


@dataclass
class Output:
    tree: Tree
    steps: int


@dataclass
class Stuck:
    frontier: object
    pos: tuple
    steps: int


@dataclass
class Diverged:
    frontier: object
    steps: int


class Machine:
    """Base class; subclasses provide step() or advance(), and usually
    render()."""

    def step(self, config):
        """Return an FNode/configuration, or None when stuck.  A machine
        that defines only advance() steps by a one-step advance."""
        if type(self).advance is Machine.advance:
            raise NotImplementedError
        res, config, n = self.advance(config, 1)
        return config if n and res is None else res

    def advance(self, config, budget):
        """Step from `config` until a step returns an FNode, the machine is
        stuck, or `budget` steps are taken.  Returns (the FNode or None, the
        configuration it stopped at, steps taken): with None, the machine
        is stuck there when fewer than `budget` steps were taken."""
        step = self.step
        n = 0
        while n < budget:
            res = step(config)
            if res is None:
                break
            n += 1
            if isinstance(res, FNode):
                return res, config, n
            config = res
        return None, config, n

    def render(self, config):
        return str(config)


class _Node:
    """A mutable output node of a running frontier."""
    __slots__ = ("label", "kids")

    def __init__(self, label, kids):
        self.label = label
        self.kids = kids


def _graft(res, kids, i, pending):
    """Put `res` into slot `kids[i]`, copying its FNodes into _Nodes, and
    push the slots of its configuration leaves so that the leftmost ends
    on top of `pending`."""
    slots = []
    todo = [(res, kids, i)]
    while todo:
        f, kids, i = todo.pop()
        if isinstance(f, FNode):
            cs = list(f.children)
            kids[i] = _Node(f.label, cs)
            todo.extend([(cs[j], cs, j) for j in range(len(cs) - 1, -1, -1)])
        else:
            kids[i] = f
            slots.append((kids, i))
    slots.reverse()
    pending.extend(slots)


def _freeze(top, make, slot=(None, None)):
    """Copy the frontier held in `top[0]` bottom-up, building each node with
    make(label, children) and keeping configuration leaves as they are.
    Returns the copy and the position of the pending slot `slot`."""
    kids, i = slot
    if not isinstance(top[0], _Node):
        return top[0], ()
    pos = None
    frames = [(top[0], [])]         # a node, and its children copied so far
    while True:
        node, done = frames[-1]
        if not done and node.kids is kids:
            pos = tuple(len(d) for _, d in frames[:-1]) + (i,)
        if len(done) < len(node.kids):
            c = node.kids[len(done)]
            if isinstance(c, _Node):
                frames.append((c, []))
            else:
                done.append(c)
            continue
        frames.pop()
        built = make(node.label, tuple(done))
        if not frames:
            return built, pos
        frames[-1][1].append(built)


def drive(machine, initial, fuel, watch):
    """The run loop, as a generator that returns the run's Output, Stuck
    or Diverged.  Fires the leftmost configuration leaf, for at most `fuel`
    successful steps, each taken by `advance`.  Without `watch`, it never
    pauses, hands each slot all the fuel left and reuses the chains in its
    memo (see the module docstring).  With it, it pauses
    before each step with (top, kids, i, n): the configuration about to be
    stepped is in slot kids[i], the frontier in top[0], and n steps have
    been taken; it then takes that one step with a budget of 1."""
    advance = machine.advance
    top = [None]                    # the slot holding the whole frontier
    pending = []
    _graft(initial, top, 0, pending)
    n = 0
    memo = {}       # unpaused: a slot's first configuration -> (FNode, steps)
    while pending:
        kids, i = pending.pop()
        start, n0 = kids[i], n
        hit = memo.get(start) if memo else None
        if hit is not None and n + hit[1] <= fuel:
            res, n = hit[0], n + hit[1]
        else:
            res, k, budget = None, 0, 0
            # a slot is done at an FNode, where it is stuck (fewer steps
            # than the budget), or when the fuel is used up
            while res is None and k == budget and n < fuel:
                if watch:
                    yield top, kids, i, n
                budget = 1 if watch else fuel - n
                res, kids[i], k = advance(kids[i], budget)
                n += k
            if res is None:
                if n < fuel:
                    return Stuck(*_freeze(top, FNode, (kids, i)), n)
                return Diverged(_freeze(top, FNode)[0], n)
            if pending and not watch:
                memo[start] = res, n - n0
        _graft(res, kids, i, pending)
    return Output(_freeze(top, Tree)[0], n)


def run(machine, initial, fuel=10_000_000):
    """Run from the frontier `initial` for at most `fuel` successful steps,
    always firing the leftmost configuration leaf."""
    try:
        next(drive(machine, initial, fuel, False))
    except StopIteration as stop:
        return stop.value


def trace(machine, initial, fuel=10_000_000):
    """Yield one JSON-serializable record per frontier, including the
    initial one.  'fired' is the leaf position about to be rewritten (null
    on the final record)."""
    render = machine.render
    paused = drive(machine, initial, fuel, True)
    while True:
        try:
            top, kids, i, n = next(paused)
        except StopIteration as stop:
            res = stop.value
            break
        frontier, pos = _freeze(top, FNode, (kids, i))
        yield {"step": n, "frontier": frontier_to_str(frontier, render),
               "fired": list(pos)}
    if isinstance(res, Output):
        yield {"step": res.steps, "frontier": res.tree.to_str(),
               "fired": None}
    else:
        # a stuck run's last frontier is the one whose step failed
        yield {"step": res.steps + isinstance(res, Stuck),
               "frontier": frontier_to_str(res.frontier, render),
               "fired": None}


def trace_lines(machine, initial, fuel=10_000_000):
    for rec in trace(machine, initial, fuel):
        yield json.dumps(rec)
