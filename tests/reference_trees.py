"""The tree walks that expand a shared output DAG at every occurrence: the
printer, size and == of `lamtrans.core` before they read the `reused`
mark.  The code is kept as it was there; only the names changed."""

from __future__ import annotations

_COMMA, _CLOSE = object(), object()    # stand for "," and ")" on the stack


def tree_to_str_expanding(t, node, leaf):
    """The text label(child,...) of a tree whose inner nodes are objects
    of class `node` (with a label and a children tuple).  Any other object
    in it is a leaf, written as leaf(it).  Works on trees of any depth."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if t.__class__ is not node:
            out.append("," if t is _COMMA else ")" if t is _CLOSE else leaf(t))
            continue
        cs = t.children
        if not cs:
            out.append(t.label)
            continue
        out.append(t.label + "(")
        todo.append(_CLOSE)
        if len(cs) == 1:        # a unary node: no commas to place
            todo.append(cs[0])
            continue
        for i in range(len(cs) - 1, 0, -1):
            todo.append(cs[i])
            todo.append(_COMMA)
        todo.append(cs[0])
    return "".join(out)


def size_expanding(t):
    n = 0
    todo = [t]
    while todo:
        n += 1
        todo.extend(todo.pop().children)
    return n


def eq_expanding(self, other):
    cls = self.__class__
    if other.__class__ is not cls:
        return NotImplemented
    todo = [(self, other)]
    while todo:
        a, b = todo.pop()
        if a.label != b.label or len(a.children) != len(b.children):
            return False
        for x, y in zip(a.children, b.children):
            if x is y:
                continue
            if x.__class__ is cls and y.__class__ is cls:
                todo.append((x, y))
            elif not x == y:
                return False
    return True
