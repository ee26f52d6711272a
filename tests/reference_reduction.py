"""The small-step normalizer: a test-only reference for
`lamtrans.reduction.normalize`.

`normalize_by_steps` finds the next redex from the root (`find_redex`),
contracts it, at a distance through a prefix of let-binders (`beta_step`),
and repeats.  The code is kept as it was in `lamtrans.reduction` and,
for the term helpers, `lamtrans.core`; only its imports changed."""

from __future__ import annotations

from lamtrans.core import (App, Box, Lam, LamtransError, Let, Var, children,
                           fresh_name, with_children)
from lamtrans.reduction import OutOfFuel
from reference_terms import free_vars


def subterm_at(t, pos):
    for i in pos:
        cs = children(t)
        if i >= len(cs):
            raise LamtransError(f"invalid position {pos}")
        t = cs[i]
    return t


def replace_at(t, pos, new):
    """Return t with the subterm at pos replaced by new."""
    if not pos:
        return new
    cs = children(t)
    i = pos[0]
    if i >= len(cs):
        raise LamtransError(f"invalid position {pos}")
    cs = list(cs)
    cs[i] = replace_at(cs[i], pos[1:], new)
    return with_children(t, cs)


def var_names(t):
    """Every variable name in t, bound or free."""
    names = set()
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, (Var, Lam, Let)):
            names.add(t.name if isinstance(t, Var) else t.var)
        todo.extend(children(t))
    return names


def rename_free(t, old, new):
    """Rename the free variable old to new; new must not be bound in t."""
    if isinstance(t, Var):
        return Var(new) if t.name == old else t
    if isinstance(t, Lam):
        if t.var == old:
            return t
        return Lam(t.var, rename_free(t.body, old, new), t.hint)
    if isinstance(t, Let):
        bound = rename_free(t.bound, old, new)
        body = t.body if t.var == old else rename_free(t.body, old, new)
        return Let(t.var, bound, body)
    return with_children(t, [rename_free(c, old, new) for c in children(t)])


def substitute(t, x, s):
    """Capture-avoiding substitution t{x := s}."""
    fv_s = free_vars(s)

    def go(t, shadowed):
        if isinstance(t, Var):
            return s if t.name == x and x not in shadowed else t
        if isinstance(t, Lam):
            if t.var == x:
                return t
            if t.var in fv_s and x in free_vars(t.body, shadowed | {t.var}):
                nv = fresh_name(t.var, fv_s | var_names(t.body) | {x})
                return Lam(nv, go(rename_free(t.body, t.var, nv), shadowed), t.hint)
            return Lam(t.var, go(t.body, shadowed), t.hint)
        if isinstance(t, Let):
            bound = go(t.bound, shadowed)
            if t.var == x:
                return Let(t.var, bound, t.body)
            if t.var in fv_s and x in free_vars(t.body, shadowed | {t.var}):
                nv = fresh_name(t.var, fv_s | var_names(t.body) | {x})
                return Let(nv, bound, go(rename_free(t.body, t.var, nv), shadowed))
            return Let(t.var, bound, go(t.body, shadowed))
        return with_children(t, [go(c, shadowed) for c in children(t)])

    return go(t, frozenset())


def _peel_lets(t):
    """Split t into a list of (var, bound) let-binders and the inner term."""
    lets = []
    while isinstance(t, Let):
        lets.append((t.var, t.bound))
        t = t.body
    return lets, t


def _wrap_lets(lets, t):
    for var, bound in reversed(lets):
        t = Let(var, bound, t)
    return t


def _contract(t):
    """Contract t if it is a redex (possibly at a distance); else None."""
    if isinstance(t, App):
        lets, inner = _peel_lets(t.fn)
        if isinstance(inner, Lam):
            # avoid the let-binders capturing free vars of the argument
            lets, inner = _freshen(lets, inner, free_vars(t.arg))
            return _wrap_lets(lets, substitute(inner.body, inner.var, t.arg))
    if isinstance(t, Let):
        lets, inner = _peel_lets(t.bound)
        if isinstance(inner, Box):
            lets, inner = _freshen(lets, inner, free_vars(t.body) - {t.var})
            return _wrap_lets(lets, substitute(t.body, t.var, inner.body))
    return None


def _freshen(lets, inner, avoid):
    """Rename let-binders in lets that would capture a name in avoid."""
    out = []
    for i in range(len(lets)):
        var, bound = lets[i]
        if var in avoid:
            taken = (avoid | {v for v, _ in out} | {v for v, _ in lets}
                     | var_names(inner))
            for _, b in lets[i + 1:]:
                taken |= var_names(b)
            nv = fresh_name(var, taken)
            # rename the occurrences up to the next binder of the same name
            rest, bound_again = [], False
            for v, b in lets[i + 1:]:
                if not bound_again:
                    b = rename_free(b, var, nv)
                rest.append((v, b))
                bound_again = bound_again or v == var
            if not bound_again:
                inner = rename_free(inner, var, nv)
            lets = lets[:i + 1] + rest
            var = nv
        out.append((var, bound))
    return out, inner


def find_redex(t, pos=(), order="leftmost"):
    """Position of the next redex under the given strategy, or None.
    Leftmost-outermost is the canonical strategy."""
    here = _contract(t) is not None
    if order == "leftmost":
        if here:
            return pos
        for i, c in enumerate(children(t)):
            r = find_redex(c, pos + (i,), order)
            if r is not None:
                return r
        return None
    # rightmost-innermost
    for i in reversed(range(len(children(t)))):
        r = find_redex(children(t)[i], pos + (i,), order)
        if r is not None:
            return r
    return pos if here else None


def beta_step(t, order="leftmost"):
    """One reduction step, or None if t is normal."""
    pos = find_redex(t, (), order)
    if pos is None:
        return None
    return replace_at(t, pos, _contract(subterm_at(t, pos)))


def normalize_by_steps(t, fuel=10_000_000, order="leftmost"):
    """The small-step reference normalizer: beta_step until normal."""
    for _ in range(fuel):
        nxt = beta_step(t, order)
        if nxt is None:
            return t
        t = nxt
    raise OutOfFuel(f"no normal form within {fuel} steps")


def is_normal(t):
    return find_redex(t) is None
