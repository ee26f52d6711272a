"""Test-only references for `lamtrans.treegen`: the immutable frontier
helpers and the rescan-and-rebuild `trace` loop that `run`'s driver
replaced.  Each step of `reference_trace` finds the leaf to fire with
`frontier_configs` and rebuilds the path to it with `frontier_replace`.
The code is kept as it was in `lamtrans.treegen`; only its imports
changed.  `paused_run` is the memo-free run that `trace` and the checked
token machine run take.  `expanding_frontier` is `treegen.frontier` as it
was before it copied each reused subtree once: it copies a subtree at
every place it is held.  `through_run` is `treegen.run` as it was before
`advance` could stop at a shared point: its chains step straight through
every point, so its memo sees chain starts only."""

from __future__ import annotations

from lamtrans.core import LamtransError, Tree
from lamtrans.treegen import (FNode, Diverged, Output, Stuck, drive, frontier,
                              frontier_to_str)


def through_run(machine, initial, fuel=10_000_000):
    """Run from `initial` as `treegen.run` did before shared points: a
    chain that `advance` stops at a shared point goes on from the point,
    within the same chain, so the point is neither looked up in the memo
    nor stored.  The loop is the unpaused half of the old `drive`."""
    advance = machine.advance
    pending = [initial]
    opened = []
    n = 0
    memo = {}
    while True:
        item = pending.pop()
        chain = None
        if item.__class__ is not FNode:
            start, n0 = item, n
            hit = memo.get(start) if memo else None
            if hit is not None and n + hit[1] <= fuel:
                item, n = hit[0], n + hit[1]
            else:
                res, k, budget = None, 0, 0
                while res is None and k == budget and n < fuel:
                    budget = fuel - n
                    res, item, k = advance(item, budget)
                    n += k
                    if res is not None and res.__class__ is not FNode:
                        res, k = None, budget   # a shared point: go on
                if res is None:
                    if n < fuel:
                        return Stuck(*frontier(item, opened, pending), n)
                    return Diverged(frontier(item, opened, pending)[0], n)
                if pending:
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
        elif item.children:
            item.reused = True
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


def paused_run(machine, initial, fuel=10_000_000):
    """`treegen.drive` paused before each step, as `trace` runs it: every
    step is a one-step `advance`, and the run's memo is never read."""
    paused = drive(machine, initial, fuel, True)
    try:
        while True:
            next(paused)
    except StopIteration as stop:
        return stop.value


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


def reference_trace(machine, initial, fuel=10_000_000):
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
        pos = leaves[0]
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


def _expanded(t):
    """Copy the Tree `t` into FNodes, node by node."""
    frames = [(t, [])]              # a node, and its children copied so far
    while True:
        t, done = frames[-1]
        if len(done) < len(t.children):
            frames.append((t.children[len(done)], []))
            continue
        frames.pop()
        built = FNode(t.label, tuple(done))
        if not frames:
            return built
        frames[-1][1].append(built)


def expanding_frontier(config, opened, pending):
    """The frontier of a paused or ended run, from its two stacks, with
    `config` at the leftmost configuration leaf; and that leaf's position."""
    pos, j = [], len(pending)
    for label, arity, done, _ in reversed(opened):
        rest = arity - len(done) - 1     # the children right of the path
        config = FNode(label, (*map(_expanded, done), config,
                               *reversed(pending[j - rest:j])))
        j -= rest
        pos.append(len(done))
    return config, tuple(reversed(pos))
