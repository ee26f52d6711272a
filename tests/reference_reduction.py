"""Two test-only references for `lamtrans.reduction.normalize`.

`normalize_by_steps` is the small-step normalizer: it finds the next
redex from the root (`find_redex`), contracts it, at a distance through a
prefix of let-binders (`beta_step`), and repeats.

`normalize_by_name` is normalization by evaluation without sharing: a
let-bound box body is a thunk evaluated again at each use of its
variable, as substitution would copy it, and each use is read back
afresh.  `normalize` shares that work and charges each reuse what the
first evaluation or read-back spent, so the two give the same normal
form, the same binder names and hints, and run out of fuel at the same
fuel.

The code is kept as it was in `lamtrans.reduction` and, for the term
helpers, `lamtrans.core`; only its imports and `normalize_by_name`'s
name changed."""

from __future__ import annotations

from lamtrans.core import (App, Box, Const, Lam, LamtransError, Let, Var,
                           children, fresh_name, too_deep, with_children)
from lamtrans.reduction import OutOfFuel, _name_binders
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


# ---------------------------------------------------------------------------
# Normalization by evaluation, call by name


class _Clo:
    __slots__ = ("lam", "env")

    def __init__(self, lam, env):
        self.lam = lam
        self.env = env


class _BoxV:
    __slots__ = ("body", "env")

    def __init__(self, body, env):
        self.body = body
        self.env = env


class _Thunk:
    """A term not evaluated yet; evaluated afresh wherever it is used."""
    __slots__ = ("term", "env")

    def __init__(self, term, env):
        self.term = term
        self.env = env


class _Ne:
    __slots__ = ("head", "args")

    def __init__(self, head, args):
        self.head = head    # a Const or Var term, or a stuck value
        self.args = args    # tuple of values, in application order


class _SLet:
    __slots__ = ("var", "bound", "body")

    def __init__(self, var, bound, body):
        self.var = var      # the Var object of the binder, see normalize
        self.bound = bound
        self.body = body


def _stack_end(v):
    while type(v) is _SLet:
        v = v.body
    return v


def normalize_by_name(t, fuel=10_000_000):
    """The normal form of t, computed by evaluation and read-back."""
    if fuel <= 0:
        raise OutOfFuel(f"no normal form within {fuel} steps")
    left = fuel
    # Each binder of the read-back term (a Lam read back from a closure, or
    # a stuck let) gets a fresh Var object, named as in the source, that
    # stands for it in values and in the term; `bound` holds them by id.
    bound = {}

    def contract():
        nonlocal left
        left -= 1
        if not left:
            raise OutOfFuel(f"no normal form within {fuel} steps")

    def ev(t, env, args):
        """The value of t in env applied to the values on args, which
        holds the next argument on top and is consumed."""
        while True:
            k = type(t)
            if k is App:
                a = t.arg
                ka = type(a)
                if ka is Var:
                    a = env.get(a.name, a)
                elif ka is Lam:
                    a = _Clo(a, env)
                elif ka is Box:
                    a = _BoxV(a.body, env)
                elif ka is not Const:
                    a = _Thunk(a, env)
                args.append(a)
                t = t.fn
                continue
            if k is Lam:
                if not args:
                    return _Clo(t, env)
                contract()
                env = {**env, t.var: args.pop()}
                t = t.body
                continue
            if k is Var:
                f = env.get(t.name, t)
                kf = type(f)
                if kf is _Thunk:
                    t, env = f.term, f.env
                    continue
                if kf is _Clo and args:
                    t, env = f.lam, f.env
                    continue
            elif k is Let:
                b = ev(t.bound, env, [])
                if type(b) is _BoxV:
                    contract()
                    env = {**env, t.var: _Thunk(b.body, b.env)}
                    t = t.body
                    continue
                f = let_at_a_distance(t, b, env)
            elif k is Box:
                f = _BoxV(t.body, env)
            else:
                f = t
            break
        if not args:
            return f
        kf = type(f)
        if kf is Const or kf is Var:
            return _Ne(f, tuple(reversed(args)))
        if kf is _Ne:
            return _Ne(f.head, f.args + tuple(reversed(args)))
        while args:
            f = apply(f, args.pop())
        return f

    def apply(f, a):
        kf = type(f)
        if kf is _Clo:
            contract()
            return ev(f.lam.body, {**f.env, f.lam.var: a}, [])
        if kf is _Ne:
            return _Ne(f.head, f.args + (a,))
        if kf is _SLet and type(_stack_end(f)) is _Clo:
            return _SLet(f.var, f.bound, apply(f.body, a))
        return _Ne(f, (a,))

    def let_at_a_distance(t, b, env):
        """let !x = b in t.body, where the bound's value b is no box."""
        end = _stack_end(b)
        if type(end) is _BoxV:
            contract()
            v = ev(t.body, {**env, t.var: _Thunk(end.body, end.env)}, [])
            lets = []
            while b is not end:
                lets.append(b)
                b = b.body
            for s in reversed(lets):
                v = _SLet(s.var, s.bound, v)
            return v
        x = Var(t.var)
        bound[id(x)] = x
        return _SLet(x, b, ev(t.body, {**env, t.var: x}, []))

    def readback(v):
        """The term of v with source names, renamed by _name_binders if
        an occurrence would be captured (a clash)."""
        out = []
        todo = [v]
        free = set()    # names of the free variables met
        scope = {}      # name -> Var of the innermost open binder so named
        exits = []      # per open binder, what its name meant before
        binders = {}    # id of a read-back Lam/Let -> the Var it binds
        clash = False
        while todo:
            v = todo.pop()
            k = type(v)
            if k is _Thunk:
                v = ev(v.term, v.env, [])
                k = type(v)
            if k is tuple:          # a pending step
                tag = v[0]
                if tag is App:
                    n = v[1]
                    args = out[-n:]
                    del out[-n:]
                    f = out.pop()
                    for a in args:
                        f = App(f, a)
                    out.append(f)
                elif tag is Box:
                    out.append(Box(out.pop()))
                elif tag is Var:    # open a binder's scope
                    x = v[1]
                    exits.append(scope.get(x.name))
                    scope[x.name] = x
                else:               # close a Lam or Let
                    x = v[1]
                    before = exits.pop()
                    if before is None:
                        del scope[x.name]
                    else:
                        scope[x.name] = before
                    body = out.pop()
                    node = (Lam(x.name, body, v[2]) if tag is Lam
                            else Let(x.name, out.pop(), body))
                    binders[id(node)] = x
                    out.append(node)
            elif k is Const:
                out.append(v)
            elif k is Var:
                if id(v) in bound:
                    clash = clash or scope.get(v.name) is not v
                else:
                    free.add(v.name)
                    clash = clash or v.name in scope
                out.append(v)
            elif k is _Ne:
                todo.append((App, len(v.args)))
                todo.extend(reversed(v.args))
                todo.append(v.head)
            elif k is _Clo:
                lam = v.lam
                x = Var(lam.var)
                bound[id(x)] = x
                todo.append((Lam, x, lam.hint))
                todo.append(ev(lam.body, {**v.env, lam.var: x}, []))
                todo.append((Var, x))
            elif k is _BoxV:
                todo.append((Box,))
                todo.append(_Thunk(v.body, v.env))
            else:  # _SLet
                todo.append((Let, v.var))
                todo.append(v.body)
                todo.append((Var, v.var))
                todo.append(v.bound)
        nf = out[0]
        return _name_binders(nf, binders, bound, free) if clash else nf

    try:
        return readback(ev(t, {}, []))
    except RecursionError:
        raise too_deep(t, "normalize") from None
    finally:
        # ev, apply and let_at_a_distance reach each other through their
        # closures: clear that cycle, so that the closures and what they
        # hold go when this call returns
        ev = apply = let_at_a_distance = None
