"""Term helpers that only the tests use: alpha-equivalence, positions,
size and free variables of a term, linearity of a typed term, random closed
normal terms of purely affine types, the identity transducer,
eta-reduction and the recursive term printer.  The code is kept as it was
in `lamtrans.core`, `lamtrans.gls`, `lamtrans.transducer` and
`lamtrans.reduction`; only its imports changed, and the printer's name."""

from __future__ import annotations

from lamtrans.core import (App, Box, Const, Lam, LamtransError, Let, Var,
                           children, with_children)
from lamtrans.gls import NoNullaryOutputLetter, arg_types
from lamtrans.transducer import LambdaTransducerSpec
from lamtrans.typecheck import Arrow, O


def positions(t):
    """All subterm positions in preorder."""
    out = [()]
    for i, c in enumerate(children(t)):
        out.extend((i,) + p for p in positions(c))
    return out


def term_size(t):
    return 1 + sum(term_size(c) for c in children(t))


def free_vars(t, bound=None):
    bound = bound or frozenset()
    if isinstance(t, Var):
        return set() if t.name in bound else {t.name}
    if isinstance(t, Lam):
        return free_vars(t.body, bound | {t.var})
    if isinstance(t, Let):
        return free_vars(t.bound, bound) | free_vars(t.body, bound | {t.var})
    out = set()
    for c in children(t):
        out |= free_vars(c, bound)
    return out


def alpha_eq(t, u):
    """Equality up to renaming of bound variables."""

    def go(t, u, env_t, env_u, depth):
        if type(t) is not type(u):
            return False
        if isinstance(t, Const):
            return t.name == u.name
        if isinstance(t, Var):
            return env_t.get(t.name, t.name) == env_u.get(u.name, u.name)
        if isinstance(t, Lam):
            return go(t.body, u.body,
                      {**env_t, t.var: depth}, {**env_u, u.var: depth}, depth + 1)
        if isinstance(t, App):
            return (go(t.fn, u.fn, env_t, env_u, depth)
                    and go(t.arg, u.arg, env_t, env_u, depth))
        if isinstance(t, Box):
            return go(t.body, u.body, env_t, env_u, depth)
        if isinstance(t, Let):
            return (go(t.bound, u.bound, env_t, env_u, depth)
                    and go(t.body, u.body,
                           {**env_t, t.var: depth}, {**env_u, u.var: depth},
                           depth + 1))
        return False

    return go(t, u, {}, {}, 0)


def is_linear(ann):
    """True when every lambda-bound variable is used exactly once: every
    Lam position is the binder of a lam occurrence."""
    used = {pos + off for pos, (kind, off)
            in enumerate(zip(ann.var_kind, ann.occ_binder)) if kind == "lam"}
    return all(pos in used for pos, t in enumerate(ann.nodes)
               if t.__class__ is Lam)


def sample_normal_term(A, alphabet, rng, size=8):
    """A random closed normal term of purely affine type A over the given
    output alphabet.  Variables are used at most once."""
    ell = alphabet.nullary()
    if ell is None:
        raise NoNullaryOutputLetter("need a rank-0 letter to sample terms")

    def go(A, env, budget):
        # env: list of (name, arg-type-list) still available
        if isinstance(A, Arrow):
            x = f"v{len(env)}_"
            body, env2 = go(A.right, env + [(x, arg_types(A.left))], budget)
            return Lam(x, body, A.left), [e for e in env2 if e[0] != x]
        # A == o: emit a constant or call an available variable
        choices = ["const"]
        if env and budget > 0:
            choices += ["var"] * 2
        if rng.choice(choices) == "var":
            i = rng.randrange(len(env))
            x, args = env[i]
            env = env[:i] + env[i + 1:]
            t = Var(x)
            for B in args:
                sub, env = go(B, env, budget - 1)
                t = App(t, sub)
            return t, env
        if budget <= 0:
            return Const(ell), env
        name, rank = alphabet.letters[rng.randrange(len(alphabet.letters))]
        if budget <= 1 and rank > 0:
            name, rank = ell, 0
        t = Const(name)
        for _ in range(rank):
            sub, env = go(O, env, budget - 1 - rank)
            t = App(t, sub)
        return t, env

    t, _ = go(A, [], size)
    return t


def identity_transducer(alphabet, name="identity"):
    rules = {}
    for letter, rank in alphabet.letters:
        t = Const(letter)
        args = [f"y{i}_" for i in range(rank)]
        for a in args:
            t = App(t, Var(a))
        for a in reversed(args):
            t = Lam(a, t)
        rules[letter] = t
    return LambdaTransducerSpec(alphabet, alphabet, O, rules,
                                Lam("x0_", Var("x0_")), name=name)


def eta_reduce(t):
    """Exhaustively eta-reduce: \\x. f x -> f when x not free in f."""
    t = with_children(t, [eta_reduce(c) for c in children(t)])
    if (isinstance(t, Lam) and isinstance(t.body, App)
            and isinstance(t.body.arg, Var) and t.body.arg.name == t.var
            and t.var not in free_vars(t.body.fn)):
        return eta_reduce(t.body.fn)
    return t


def term_to_str_by_recursion(t, mark=None, direction=None):
    """Render a term.  When mark (a position) is given, the subterm there is
    wrapped in >...< (down) or <...> (up) according to direction."""

    def deco(s, here):
        if mark is not None and here == mark:
            if direction == "up":
                return "<" + s + ">"
            return ">" + s + "<"
        return s

    def go(t, here, level):
        # level: 0 = term (lam/let ok), 1 = app position, 2 = atom position
        if isinstance(t, (Const, Var)):
            return deco(t.name, here)
        if isinstance(t, Box):
            inner = go(t.body, here + (0,), 2)
            return deco("!" + inner, here)
        if isinstance(t, Lam):
            s = "\\" + t.var + ". " + go(t.body, here + (0,), 0)
            s = deco(s, here)
            return "(" + s + ")" if level > 0 else s
        if isinstance(t, Let):
            s = ("let !" + t.var + " = " + go(t.bound, here + (0,), 0)
                 + " in " + go(t.body, here + (1,), 0))
            s = deco(s, here)
            return "(" + s + ")" if level > 0 else s
        if isinstance(t, App):
            s = go(t.fn, here + (0,), 1) + " " + go(t.arg, here + (1,), 2)
            s = deco(s, here)
            return "(" + s + ")" if level > 1 else s
        raise LamtransError(f"not a term: {t!r}")

    try:
        return go(t, (), 0)
    finally:
        go = None       # no cycle through go's closure
