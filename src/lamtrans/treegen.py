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
stopped at, the steps taken).  `advance` may also stop at a shared point:
a configuration that two different configurations can step to, which it
returns where the FNode would be (and as the configuration it stopped
at).  The base class builds each from the other, so a machine that chains
steps in local variables states its rules once, in `advance`, and gets
`step` as a one-step `advance`; a step that reaches a shared point
returns the point, as any step returns the configuration it reaches.

`drive` is the one run loop.  It always fires the leftmost configuration
leaf, steps only through `advance`, and builds each output node once, as
its final `core.Tree`, in preorder.  It keeps two stacks: the pending
items (configurations and FNodes still to be taken apart, the leftmost
on top) and the open output nodes (label, arity and children built so
far).  A leaf closes its parent once it is the last child, and so on up,
so the work around each machine step does not depend on the size of the
frontier.  `run` drives a machine to its result, giving each pending
configuration the fuel left in one `advance` call.  `trace` and the
invariant-checked token machine run (`iam.run_iam(check=True)`) are the
same run, paused before each step, which is then a one-step `advance`.
A pause hands out the configuration about to be stepped and the two
stacks; `frontier` rebuilds the FNode frontier and the position of that
leaf from them only when asked.  `trace` asks at every pause and renders
it with `frontier_to_str`; the checked run reads only the configuration.
A Stuck or Diverged result gets its frontier the same way.

The machines are deterministic: a configuration fixes the rest of its
chain and the whole output subtree that grows from it, and the number of
steps each takes.  An unpaused run keeps them in a memo for the length of
the run.  While a stored chain's subtree is open, its entry is the FNode
the chain reached and the chain's steps; once the output node it
produced closes, the entry is that node's `Tree` and the subtree's
steps, memo-served ones included.  A pending configuration that is in the
memo counts the stored steps without calling `advance`, when they fit in
the fuel left: a stored FNode is pushed back as an item, and a stored
Tree is closed as a leaf is, with nothing below it looked up again; one
that does not fit is stepped for real.  So one hit can count a whole
subtree's steps against the fuel, and `Output.tree` shares equal
subtrees by identity.  A hit that returns a Tree with children marks it
`reused` (see core.Tree), so its text is written once when the output is
printed.  A chain that ends at a shared point is not stored: the point
starts a new chain, which the memo looks up and stores like any other, so
a stored point serves every later run that reaches it.  Nothing is
opened for the point, so a run that cycles through shared points keeps
its stacks flat.  A chain below another that starts the same way
would repeat it forever, so in a run that ends only a chain to the right
can reuse one: the memo stores a chain only while some item is pending
to its right, and a run whose frontier never branches hashes no
configuration.  This needs configurations to be hashable values, with
equal ones stepping alike, and a step to depend on nothing but its
configuration.  Paused runs (`trace`, `check=True`) never use the memo
and take every step."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Node, Tree, tree_to_str


@dataclass(slots=True, eq=False)
class FNode(Node):
    """An output-alphabet node of a frontier; children may be FNodes or
    machine configurations.  `reused` is a class constant: a frontier
    is never marked as an output Tree is (see core.Tree)."""
    label: str
    children: tuple = ()
    reused = False


def frontier_to_str(f, render):
    return tree_to_str(f, FNode, lambda c: "[" + render(c) + "]")


@dataclass
class Output:
    """A run's output and its steps.  The tree may share equal subtrees
    by identity (see the module docstring), so it is a DAG; its ==, hash,
    size and to_str count each occurrence of a node.  A shared subtree is
    marked reused, and to_str writes its text once and repeats it."""
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
        that defines only advance() steps by a one-step advance, and a
        step to a shared point returns the point."""
        if type(self).advance is Machine.advance:
            raise NotImplementedError
        res, config, n = self.advance(config, 1)
        return config if n and res is None else res

    def advance(self, config, budget):
        """Step from `config` until a step returns an FNode, the machine is
        stuck, or `budget` steps are taken.  Returns (the FNode or None, the
        configuration it stopped at, steps taken): with None, the machine
        is stuck there when fewer than `budget` steps were taken.  A
        machine's own advance may also stop at a shared point, a
        configuration that two different configurations step to, and
        returns it in place of the FNode: (point, point, steps taken).
        `drive` then starts a new chain at the point.  This one, built
        from step(), never does."""
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


def _thaw(t, copies):
    """Copy the Tree `t` into FNodes.  A node marked `reused` is copied
    once: `copies` maps the id of each one copied to its copy, so a
    frontier over a DAG is a DAG of the same size."""
    if t.reused and id(t) in copies:
        return copies[id(t)]
    frames = [(t, [])]              # a node, and its children copied so far
    while True:
        t, done = frames[-1]
        if len(done) < len(t.children):
            c = t.children[len(done)]
            if c.reused and id(c) in copies:
                done.append(copies[id(c)])
            else:
                frames.append((c, []))
            continue
        frames.pop()
        built = FNode(t.label, tuple(done))
        if t.reused:
            copies[id(t)] = built
        if not frames:
            return built
        frames[-1][1].append(built)


def frontier(config, opened, pending):
    """The frontier of a paused or ended run, from its two stacks, with
    `config` at the leftmost configuration leaf; and that leaf's position.
    Each output subtree the run holds at several places is copied once."""
    pos, j = [], len(pending)
    copies = {}     # id of a reused Tree -> its FNode copy
    for label, arity, done, _ in reversed(opened):
        rest = arity - len(done) - 1     # the children right of the path
        config = FNode(label, (*[_thaw(t, copies) for t in done], config,
                               *reversed(pending[j - rest:j])))
        j -= rest
        pos.append(len(done))
    return config, tuple(reversed(pos))


def drive(machine, initial, fuel, watch):
    """The run loop, as a generator that returns the run's Output, Stuck
    or Diverged.  Fires the leftmost configuration leaf, for at most `fuel`
    successful steps, each taken by `advance`; a shared point that
    `advance` returns goes back on `pending` as the leftmost leaf.
    Without `watch`, it never pauses, hands each configuration all the
    fuel left and reuses the chains and subtrees in its memo (see the
    module docstring).  With it, it pauses before each step with (config,
    n, opened, pending): the configuration about to be stepped, the steps
    taken so far and the run's two stacks, from which `frontier` rebuilds
    the frontier; it then takes that one step with a budget of 1."""
    advance = machine.advance
    pending = [initial]     # configurations and FNodes, the leftmost on top
    opened = []     # (label, arity, children built, chain) of open nodes
    n = 0
    memo = {}       # unpaused: a chain's first configuration -> (FNode,
    #                 chain steps), then (Tree, subtree steps) once closed
    while True:
        item = pending.pop()
        chain = None    # (first configuration, n there) of a stored chain
        if item.__class__ is not FNode:
            start, n0 = item, n
            hit = memo.get(start) if memo else None
            if hit is not None and n + hit[1] <= fuel:
                item, n = hit[0], n + hit[1]
            else:
                res, k, budget = None, 0, 0
                # a chain ends at an FNode, where it is stuck (fewer steps
                # than the budget), or when the fuel is used up
                while res is None and k == budget and n < fuel:
                    if watch:
                        yield item, n, opened, pending
                    budget = 1 if watch else fuel - n
                    res, item, k = advance(item, budget)
                    n += k
                if res is None:
                    if n < fuel:
                        return Stuck(*frontier(item, opened, pending), n)
                    return Diverged(frontier(item, opened, pending)[0], n)
                if res.__class__ is not FNode:      # a shared point
                    pending.append(res)
                    continue
                if pending and not watch:
                    memo[start] = res, n - n0
                    chain = start, n0
                item = res
        if item.__class__ is FNode:
            cs = item.children
            if cs:
                opened.append((item.label, len(cs), [], chain))
                pending.extend(reversed(cs))
                continue
            item = Tree(item.label)
            if chain:
                memo[start] = item, n - n0
        elif item.children:     # a stored subtree, now at a second place
            item.reused = True
        # a leaf or a whole subtree from the memo: close it, and each node
        # whose last child it completes, storing the subtrees of chains
        while opened:
            label, arity, done, chain = opened[-1]
            done.append(item)
            if len(done) < arity:
                break
            opened.pop()
            item = Tree(label, tuple(done))
            if chain:
                memo[chain[0]] = item, n - chain[1]
        else:
            return Output(item, n)


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
            config, n, opened, pending = next(paused)
        except StopIteration as stop:
            res = stop.value
            break
        f, pos = frontier(config, opened, pending)
        yield {"step": n, "frontier": frontier_to_str(f, render),
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
