"""The small-step normalizer: a test-only reference for
`lamtrans.reduction.normalize`.

`normalize_by_steps` finds the next redex from the root (`find_redex`),
contracts it, at a distance through a prefix of let-binders (`beta_step`),
and repeats.  The code is kept as it was in `lamtrans.reduction`; only its
imports changed."""

from __future__ import annotations

from lamtrans.core import (App, Box, Lam, Let, children, free_vars,
                           fresh_name, rename_free, replace_at, substitute,
                           subterm_at, var_names)
from lamtrans.reduction import OutOfFuel


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
