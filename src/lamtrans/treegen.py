"""Tree-generating abstract machines.

A machine is given by a set of configurations and a partial step function
sending a configuration to a tree over the output alphabet whose leaves may
again be configurations.  A run starts from a single configuration and
repeatedly replaces one configuration leaf of the frontier by the result of
stepping it; it produces an output once no configuration leaves remain.
The step functions used here are orthogonal, so the result does not depend
on which leaf is picked; the leftmost policy is the canonical one.

`run` keeps the frontier as mutable nodes with a stack of pending
configuration slots, leaf to fire next on top, so the work it does around
each machine step does not depend on the size of the frontier.  `trace`
renders the whole frontier at every step, through the immutable `FNode`
helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import LamtransError, Tree


@dataclass(slots=True, unsafe_hash=True)
class FNode:
    """An output-alphabet node of a frontier; children may be FNodes or
    machine configurations."""
    label: str
    children: tuple = ()


def frontier_configs(f, pos=()):
    """Positions of configuration leaves, left to right."""
    out = []
    todo = [(f, pos)]
    while todo:
        f, pos = todo.pop()
        if isinstance(f, FNode):
            todo.extend([(f.children[i], pos + (i,))
                         for i in range(len(f.children) - 1, -1, -1)])
        else:
            out.append(pos)
    return out


def frontier_get(f, pos):
    for i in pos:
        f = f.children[i]
    return f


def frontier_replace(f, pos, sub):
    path = []
    for i in pos:
        path.append(f)
        f = f.children[i]
    for f, i in zip(reversed(path), reversed(pos)):
        cs = list(f.children)
        cs[i] = sub
        sub = FNode(f.label, tuple(cs))
    return sub


def frontier_to_tree(f):
    if not isinstance(f, FNode):
        raise LamtransError("frontier still contains configurations")
    frames = [(f, [])]          # a node, and its children built so far
    while True:
        f, done = frames[-1]
        if len(done) < len(f.children):
            c = f.children[len(done)]
            if not isinstance(c, FNode):
                raise LamtransError("frontier still contains configurations")
            frames.append((c, []))
            continue
        frames.pop()
        built = Tree(f.label, tuple(done))
        if not frames:
            return built
        frames[-1][1].append(built)


def frontier_to_str(f, render):
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
    """Base class; subclasses provide step() and usually render()."""

    def step(self, config):
        """Return an FNode/configuration, or None when stuck."""
        raise NotImplementedError

    def render(self, config):
        return str(config)


class _Node:
    """A mutable output node of a running frontier."""
    __slots__ = ("label", "kids")

    def __init__(self, label, kids):
        self.label = label
        self.kids = kids


def _graft(res, kids, i, pending, rightmost):
    """Put `res` into slot `kids[i]`, copying its FNodes into _Nodes, and
    push the slots of its configuration leaves so that the leaf to fire
    first ends on top of `pending`."""
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
    if not rightmost:
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


def run(machine, initial, fuel=10_000_000, order="leftmost"):
    """Run from the frontier `initial` for at most `fuel` successful steps,
    always firing the leftmost (or, with any other `order`, the rightmost)
    configuration leaf."""
    step = machine.step
    rightmost = order != "leftmost"
    top = [None]                    # the slot holding the whole frontier
    pending = []
    _graft(initial, top, 0, pending, rightmost)
    n = 0
    while pending:
        kids, i = pending.pop()
        cfg = kids[i]
        while n < fuel:
            res = step(cfg)
            if res is None:
                kids[i] = cfg
                return Stuck(*_freeze(top, FNode, (kids, i)), n)
            n += 1
            if isinstance(res, FNode):
                break
            cfg = res
        else:
            kids[i] = cfg
            return Diverged(_freeze(top, FNode)[0], n)
        _graft(res, kids, i, pending, rightmost)
    return Output(_freeze(top, Tree)[0], n)


def trace(machine, initial, fuel=10_000_000, order="leftmost"):
    """Yield one JSON-serializable record per frontier, including the
    initial one.  'fired' is the leaf position about to be rewritten (null
    on the final record)."""
    frontier = initial
    for n in range(fuel + 1):
        leaves = frontier_configs(frontier)
        if not leaves or n == fuel:
            yield {"step": n,
                   "frontier": frontier_to_str(frontier, machine.render),
                   "fired": None}
            return
        pos = leaves[0] if order == "leftmost" else leaves[-1]
        yield {"step": n,
               "frontier": frontier_to_str(frontier, machine.render),
               "fired": list(pos)}
        res = machine.step(frontier_get(frontier, pos))
        if res is None:
            yield {"step": n + 1,
                   "frontier": frontier_to_str(frontier, machine.render),
                   "fired": None}
            return
        frontier = frontier_replace(frontier, pos, res)


def trace_lines(machine, initial, fuel=10_000_000, order="leftmost"):
    for rec in trace(machine, initial, fuel, order):
        yield json.dumps(rec)
