"""The `?` translation of almost-affine simply typed terms into the affine
calculus with `!`, with the simple-type inference it rests on: a
construction of the paper that the tests check (acceptance criterion 9),
and that no command runs.  The code is kept as it was in
`lamtrans.transducer`; only its imports changed."""

from __future__ import annotations

from lamtrans.core import (App, Box, Const, Lam, LamtransError, Let, Var,
                           children, fresh_name)
from lamtrans.typecheck import (Arrow, Bang, O, TypingError, subst_base,
                                type_to_str)
from reference_terms import free_vars


class NotAlmostAffine(LamtransError):
    pass


# ---------------------------------------------------------------------------
# Simple-type inference for plain lambda-terms (no ! anywhere), used by the
# translation below.  Metavariables left over default to the base type.

class _Meta:
    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None


def _find(A):
    while isinstance(A, _Meta) and A.ref is not None:
        A = A.ref
    return A


def _unify(A, B):
    A, B = _find(A), _find(B)
    if A is B:
        return
    if isinstance(A, _Meta):
        A.ref = B
        return
    if isinstance(B, _Meta):
        B.ref = A
        return
    if isinstance(A, Arrow) and isinstance(B, Arrow):
        _unify(A.left, B.left)
        _unify(A.right, B.right)
        return
    if A == B:
        return
    raise TypingError(f"cannot unify {_resolve(A)} and {_resolve(B)}")


def _resolve(A):
    A = _find(A)
    if isinstance(A, _Meta):
        return O
    if isinstance(A, Arrow):
        return Arrow(_resolve(A.left), _resolve(A.right))
    return A


def infer_simple_types(t, alphabet, target=None):
    """Infer simple types over {o, -o} for a term without ! or let.
    Returns (result type, {position: type}).  Underdetermined positions
    default to o."""
    types = {}

    def go(t, pos, env):
        if isinstance(t, Const):
            A = O
            for _ in range(alphabet.rank(t.name)):
                A = Arrow(O, A)
        elif isinstance(t, Var):
            if t.name not in env:
                raise TypingError(f"unbound variable {t.name!r}")
            A = env[t.name]
        elif isinstance(t, Lam):
            a = _Meta()
            b = go(t.body, pos + (0,), {**env, t.var: a})
            A = Arrow(a, b)
        elif isinstance(t, App):
            fA = go(t.fn, pos + (0,), env)
            aA = go(t.arg, pos + (1,), env)
            b = _Meta()
            _unify(fA, Arrow(aA, b))
            A = b
        else:
            raise TypingError("! and let are not simple terms")
        types[pos] = A
        return A

    A = go(t, (), {})
    if target is not None:
        _unify(A, target)
    return _resolve(A), {p: _resolve(B) for p, B in types.items()}


# ---------------------------------------------------------------------------
# Translating almost-affine simply typed terms into the affine calculus

def _count_occurrences(t, name, stop_at_shadow=True):
    if isinstance(t, Var):
        return 1 if t.name == name else 0
    if isinstance(t, Lam) and t.var == name:
        return 0
    if isinstance(t, Let) and t.var == name:
        return _count_occurrences(t.bound, name)
    return sum(_count_occurrences(c, name) for c in children(t))


def lam_bang(x, t):
    """Sugar for abstracting a boxed variable: \\y. let !x = y in t."""
    y = fresh_name(x + "_", free_vars(t))
    return Lam(y, Let(x, Var(y), t), Bang(O))


def wn_translate(t, alphabet, target=None):
    """Make a simply typed term affine by boxing its base-type variables.
    Repeated variables must have base type (raises NotAlmostAffine
    otherwise); the result has type A{o := !o} when t : A."""
    _, types = infer_simple_types(t, alphabet, target)

    def go(t, pos):
        if isinstance(t, Const):
            k = alphabet.rank(t.name)
            body = Const(t.name)
            names = [f"x{i}_" for i in range(1, k + 1)]
            for x in names:
                body = App(body, Var(x))
            body = Box(body)
            for x in reversed(names):
                body = lam_bang(x, body)
            return body
        if isinstance(t, Var):
            if types[pos] == O:
                return Box(Var(t.name))
            return Var(t.name)
        if isinstance(t, Lam):
            binder_ty = types[pos].left
            if binder_ty == O:
                return lam_bang(t.var, go(t.body, pos + (0,)))
            if _count_occurrences(t.body, t.var) > 1:
                raise NotAlmostAffine(
                    f"variable {t.var!r} of type {type_to_str(binder_ty)} "
                    "is used more than once")
            return Lam(t.var, go(t.body, pos + (0,)),
                       subst_base(binder_ty, Bang(O)))
        if isinstance(t, App):
            return App(go(t.fn, pos + (0,)), go(t.arg, pos + (1,)))
        raise NotAlmostAffine("! and let may not occur in the source term")

    return go(t, ())
