"""Seeded input generation and independent reference outputs for the bench.

Nothing here imports lamtrans: a change to the program can change neither
the inputs a workload runs nor the outputs it is checked against.  A tree
is a pair (label, children) with children a tuple of trees."""

from __future__ import annotations

import random


def to_str(tree):
    label, kids = tree
    if not kids:
        return label
    return label + "(" + ",".join(to_str(k) for k in kids) + ")"


def random_tree(rng, letters, size):
    """A tree of exactly `size` nodes over `letters` ((name, rank) pairs).
    Each node picks uniformly among the letters that can fill the node
    budget left to it, and splits the rest of the budget among its children
    at random.  A size the alphabet cannot reach exactly is rounded down."""
    ranks = range(max(r for _, r in letters) + 1)
    # fill[r][m]: m nodes can be shared among r subtrees of reachable size
    fill = {r: [r == 0] + [False] * size for r in ranks}
    reach = [False] * (size + 1)
    for n in range(1, size + 1):
        for r in ranks[1:]:
            fill[r][n - 1] = any(reach[k] and fill[r - 1][n - 1 - k]
                                 for k in range(1, n))
        reach[n] = any(fill[r][n - 1] for _, r in letters)

    def share(n, rank):
        while True:
            cuts = sorted(rng.sample(range(1, n), rank - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            if all(reach[k] for k in parts):
                return parts

    def go(n):
        name, rank = rng.choice([(a, r) for a, r in letters
                                 if fill[r][n - 1]])
        return (name, tuple(go(k) for k in share(n - 1, rank)) if rank else ())

    while not reach[size]:
        size -= 1
    return go(size)


def chain(unary, leaf, depth):
    """unary^depth(leaf)."""
    tree = (leaf, ())
    for _ in range(depth):
        tree = (unary, (tree,))
    return tree


def numeral(digits):
    """The binary numeral with the given digit string, most significant
    digit outermost, over the digits 0/1 and the end marker e."""
    tree = ("e", ())
    for digit in reversed(digits):
        tree = (digit, (tree,))
    return tree


# -- references -------------------------------------------------------------

def unary(n):
    return "S(" * n + "0" + ")" * n


def count_ref(tree):
    """count.lt: S^(#b + #c)(0)."""
    n, stack = 0, [tree]
    while stack:
        label, kids = stack.pop()
        n += label in ("b", "c")
        stack.extend(kids)
    return unary(n)


def seq_nat_ref(tree):
    """seq-nat.lt: S^n(0) to cons(S^1(0), ... cons(S^n(0), nil))."""
    n = 0
    while tree[0] == "S":
        n, tree = n + 1, tree[1][0]
    conses = "".join(f"cons({unary(i)}," for i in range(1, n + 1))
    return conses + "nil" + ")" * n


def bin2bin_ref(tree):
    """bin2bin.lt: the complete a/c tree whose height is the numeral's
    value."""
    value = 0
    while tree[0] != "e":
        value, tree = 2 * value + int(tree[0]), tree[1][0]
    out = "c"
    for _ in range(value):
        out = f"a({out},{out})"
    return out


def mirror_ref(tree, depth=0):
    """mirror.gls: swap the children of a-nodes at even depth."""
    label, kids = tree
    kids = [mirror_ref(k, depth + 1) for k in kids]
    if label == "a" and depth % 2 == 0:
        kids.reverse()
    return f"{label}({','.join(kids)})" if kids else label


def calibration_work():
    """A fixed piece of pure-Python work of about 0.2 ms, which the bench
    times over and over to follow how fast the host runs Python."""
    tree = random_tree(random.Random(0), [("a", 2), ("b", 1), ("c", 0)], 12)
    return mirror_ref(tree) + count_ref(tree) + to_str(tree)


def self_test():
    """Check the references on worked examples; raise AssertionError on a
    mismatch."""
    cases = [
        (count_ref, (("a", (("b", (("c", ()),)), ("c", ())))), "S(S(S(0)))"),
        (bin2bin_ref, numeral("10"), "a(a(c,c),a(c,c))"),
        (bin2bin_ref, numeral(""), "c"),
        (to_str, numeral("0010"), "0(0(1(0(e))))"),
        (bin2bin_ref, numeral("0010"), "a(a(c,c),a(c,c))"),
        (seq_nat_ref, chain("S", "0", 0), "nil"),
        (seq_nat_ref, chain("S", "0", 3),
         "cons(S(0),cons(S(S(0)),cons(S(S(S(0))),nil)))"),
        (mirror_ref, ("a", (("a", (("c", ()), ("a", (("c", ()), ("c", ()))))),
                            ("c", ()))),
         "a(c,a(c,a(c,c)))"),
    ]
    for ref, tree, want in cases:
        got = ref(tree)
        if got != want:
            raise AssertionError(f"{ref.__name__}({to_str(tree)}) = {got}, "
                                 f"expected {want}")
