"""Beta reduction at a distance and normalization.

A redex fires through a prefix of let-binders: L<\\x.t> u reduces to
L<t{x:=u}>, and let !x = L<!u> in t reduces to L<t{x:=u}>, where L is a
stack of let-binders.

`normalize` computes normal forms by evaluation (NbE): it evaluates the
term once, in an environment, into values, and reads the values back
into terms.  The values are

- closures: a Lam plus the environment of its free variables;
- box values: a Box body plus its environment.  `let !x` binds x to the
  body, which is evaluated once, at the first use of x (call by need:
  Wadsworth's graph reduction, Launchbury's natural semantics).  x is
  bound to a thunk that records the value and the contractions it took
  (to a closure at once if the body is a Lam).  Evaluation enters the
  thunk on an argument stack of its own under an update frame, which
  takes the value when the stack runs out, so forcing adds no Python
  recursion.  Read-back builds a thunk's term once if no variable occurs
  in it (so no name in it depends on where it is read), such as a tree
  of constants, and uses that term at every later occurrence;
- neutrals: a head applied to argument values.  The head is a constant,
  a variable that nothing will replace (a free variable of the term, or
  the binder of a Lam or stuck let being read back), or a stuck value: a
  box, or a stuck let whose let-stack does not end in a Lam;
- stuck lets: let !y = v in w, where v is not a let-stack ending in a
  box, so y is never replaced.

Both at-a-distance rules act on stuck lets: applying a let-stack that
ends in a closure applies the closure inside the stack, and a `let !x`
whose bound is a let-stack ending in a box binds x to the box inside the
stack.  Evaluation is a Krivine-style loop: the arguments of an
application wait on a stack and are evaluated only when used, so only the
redexes the normal form needs are contracted, and neither evaluation nor
read-back recurses on the depth of an application spine.  A let's bound
is evaluated by a nested call, so bounds nested past Python's recursion
limit raise `core.TooDeep`, a LamtransError.

Fuel counts contractions: each closure application and each let of a box
costs one unit, and `normalize` raises `OutOfFuel` unless the normal form
is reached with fewer than `fuel` of them.  That is the budget of the
small-step loop too, which spends one iteration per contraction plus one
to see that the result is normal.  A reuse of a let-bound body is charged
the contractions that its first evaluation, or its first read-back, took,
inner thunks included.  So the count is that of evaluating the body again
at each use, as leftmost-outermost reduction copies and contracts it, and
`OutOfFuel` comes at the same fuel as without sharing; arguments are
evaluated only where they are used, so `normalize` needs no more fuel
than the small-step loop.  The tests check both.

Read-back keeps each binder's source name and each Lam's hint.  A binder
is renamed (x to x_1, ...) only when its name would capture a free
occurrence in its body, so a normal term reads back == to itself.

Two reference normalizers live with the tests
(`tests/reference_reduction.py`): the small-step loop, which finds the
next redex from the root, contracts it and repeats, and this evaluator
without sharing (call by name).  The tests check `normalize` against
both."""

from __future__ import annotations

from .core import (App, Box, Const, Lam, LamtransError, Let, Var,
                   fresh_name, too_deep)


class OutOfFuel(LamtransError):
    pass


# ---------------------------------------------------------------------------
# Normalization by evaluation


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
    """An application's argument not evaluated yet; evaluated wherever it
    is used, which in an affine term is at most once."""
    __slots__ = ("term", "env")

    def __init__(self, term, env):
        self.term = term
        self.env = env


class _Need:
    """A let-bound box body, evaluated at its first use only.  `value` is
    its weak-head value once forced (None before) and `cost` the
    contractions that took; `nf` is its read-back term if no variable
    occurs in it and `rcost` what that first read-back spent."""
    __slots__ = ("term", "env", "value", "cost", "nf", "rcost")

    def __init__(self, term, env):
        self.term = term
        self.env = env
        self.value = self.nf = None


def _shared(body, env):
    """What `let !x` binds x to for a box body: a closure if the body is a
    Lam (its value, reached without a contraction), else a _Need."""
    return _Clo(body, env) if type(body) is Lam else _Need(body, env)


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


def normalize(t, fuel=10_000_000):
    """The normal form of t, computed by evaluation and read-back."""
    if fuel <= 0:
        raise OutOfFuel(f"no normal form within {fuel} steps")
    left = fuel
    # Each binder of the read-back term (a Lam read back from a closure, or
    # a stuck let) gets a fresh Var object, named as in the source, that
    # stands for it in values and in the term; `bound` holds them by id.
    bound = {}

    def spend(n=1):
        nonlocal left
        left -= n
        if left <= 0:
            raise OutOfFuel(f"no normal form within {fuel} steps")

    def ev(t, env, args, need=None):
        """The value of t in env applied to the values on args, which
        holds the next argument on top and is consumed.  Given a _Need,
        t is its body and its value is recorded."""
        nonlocal left
        # the update frames of the let-bound bodies being forced: a body
        # is evaluated on an args stack of its own, and its frame holds
        # (the _Need, the args stack it was entered with, the fuel left)
        frames = None if need is None else [(need, [], left)]
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
                    f = _Clo(t, env)
                    while not args:
                        if not frames:
                            return f
                        s, args, before = frames.pop()
                        s.value, s.cost = f, before - left
                left -= 1
                if not left:
                    raise OutOfFuel(f"no normal form within {fuel} steps")
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
                if kf is _Need:
                    if f.value is None:
                        frames = frames or []
                        frames.append((f, args, left))
                        t, env, args = f.term, f.env, []
                        continue
                    spend(f.cost)
                    f = f.value
                    if type(f) is _Clo and args:
                        t, env = f.lam, f.env
                        continue
            elif k is Let:
                b = ev(t.bound, env, [])
                if type(b) is _BoxV:
                    spend()
                    env = {**env, t.var: _shared(b.body, b.env)}
                    t = t.body
                    continue
                f = let_at_a_distance(t, b, env)
            elif k is Box:
                f = _BoxV(t.body, env)
            else:
                f = t
            break
        while True:
            if args:
                kf = type(f)
                if kf is Const or kf is Var:
                    f = _Ne(f, tuple(reversed(args)))
                elif kf is _Ne:
                    f = _Ne(f.head, f.args + tuple(reversed(args)))
                else:
                    while args:
                        f = apply(f, args.pop())
            if not frames:
                return f
            s, args, before = frames.pop()
            s.value, s.cost = f, before - left

    def apply(f, a):
        kf = type(f)
        if kf is _Clo:
            spend()
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
            spend()
            v = ev(t.body, {**env, t.var: _shared(end.body, end.env)}, [])
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
        nvars = 0       # variable occurrences read back so far
        while todo:
            v = todo.pop()
            k = type(v)
            if k is _Thunk:
                v = ev(v.term, v.env, [])
                k = type(v)
            elif k is _Need:
                if v.nf is not None:    # no variable: the same term anywhere
                    spend(v.rcost)
                    out.append(v.nf)
                    continue
                todo.append((_Need, v, left, nvars))
                if v.value is None:
                    v = ev(v.term, v.env, [], v)
                else:
                    spend(v.cost)
                    v = v.value
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
                elif tag is _Need:  # v[1]'s term is read back
                    if nvars == v[3]:
                        v[1].nf, v[1].rcost = out[-1], v[2] - left
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
                nvars += 1
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


def _occurs(key, t, bound):
    """Does t have a free occurrence of key: a binder's Var (by identity),
    or the name of a free variable?"""
    todo = [t]
    while todo:
        t = todo.pop()
        k = type(t)
        if k is Var:
            if t is key or (t.name == key and id(t) not in bound):
                return True
        elif k is App:
            todo.append(t.fn)
            todo.append(t.arg)
        elif k is Let:
            todo.append(t.bound)
            todo.append(t.body)
        elif k is not Const:
            todo.append(t.body)
    return False


def _name_binders(t, binders, bound, free):
    """Rename the binders of a read-back term that capture: each keeps its
    source name unless that would capture a free occurrence in its body,
    and else takes the first fresh variant of it."""
    scope = {x: x for x in free}   # name -> the binder's Var or free name
    names = {}                     # id of a binder's Var -> its Var now
    exits = []                     # per open binder, what its name meant
    out = []
    todo = [t]

    def enter(node, body):
        x = binders[id(node)]
        name = x.name
        if name in scope and _occurs(scope[name], body, bound):
            name = fresh_name(name, scope)
        names[id(x)] = Var(name)
        exits.append(scope.get(name))
        scope[name] = x
        return name

    while todo:
        t = todo.pop()
        k = type(t)
        if k is tuple:
            tag = t[0]
            if tag is App:
                arg = out.pop()
                out.append(App(out.pop(), arg))
            elif tag is Box:
                out.append(Box(out.pop()))
            elif tag == "bound done":
                let = t[1]
                todo.append((Let, enter(let, let.body), None))
                todo.append(let.body)
            else:                   # close a Lam or Let named t[1]
                before = exits.pop()
                if before is None:
                    del scope[t[1]]
                else:
                    scope[t[1]] = before
                body = out.pop()
                out.append(Lam(t[1], body, t[2]) if tag is Lam
                           else Let(t[1], out.pop(), body))
        elif k is Var:
            out.append(names.get(id(t), t))
        elif k is App:
            todo.append((App,))
            todo.append(t.arg)
            todo.append(t.fn)
        elif k is Lam:
            todo.append((Lam, enter(t, t.body), t.hint))
            todo.append(t.body)
        elif k is Box:
            todo.append((Box,))
            todo.append(t.body)
        elif k is Let:
            todo.append(("bound done", t))
            todo.append(t.bound)
        else:
            out.append(t)
    return out[0]
