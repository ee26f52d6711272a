"""Types, the affine typing judgement, type navigation, and the
classification of types and terms into restriction tiers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

from .core import (App, Box, Const, Lam, LamtransError, Let, SyntaxErr, Var,
                   _tokenize, number_term, rebuild, term_to_str,
                   token_position, too_deep, with_children)


class TypingError(LamtransError):
    pass


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class Base:
    pass


@dataclass(frozen=True)
class Arrow:
    left: "Type"
    right: "Type"


@dataclass(frozen=True)
class Bang:
    inner: "Type"


Type = object
O = Base()


def type_to_str(A):
    """The text of a type, written without recursion."""
    out, todo = [], [(A, 0)]
    while todo:
        A, level = todo.pop()
        # level: 0 = full type, 1 = left of an arrow / under a bang
        if A.__class__ is str:
            out.append(A)
        elif isinstance(A, Base):
            out.append("o")
        elif isinstance(A, Bang):
            out.append("!")
            todo.append((A.inner, 1))
        elif isinstance(A, Arrow):
            if level > 0:
                out.append("(")
                todo.append((")", 0))
            todo += ((A.right, 0), (" -o ", 0), (A.left, 1))
        else:
            raise LamtransError(f"not a type: {A!r}")
    return "".join(out)


def parse_type(text, at=(1, 1)):
    """Parse a type; syntax errors count their position from `at`, and a
    type nested too deeply raises TooDeep, as in parse_term."""
    toks = _tokenize(text, at)
    where = partial(token_position, text, at)   # of the i-th token
    try:
        A, i = _parse_arrow(toks, 0, where)
    except RecursionError:
        raise too_deep("type", "parse") from None
    if i != len(toks):
        raise SyntaxErr(f"trailing input after type: {toks[i]!r}", *where(i))
    return A


def _parse_arrow(toks, i, where):
    A, i = _parse_type_atom(toks, i, where)
    if i < len(toks) and toks[i] == "-o":
        B, i = _parse_arrow(toks, i + 1, where)
        return Arrow(A, B), i
    return A, i


def _parse_type_atom(toks, i, where):
    if i >= len(toks):
        raise SyntaxErr("expected a type")
    tok = toks[i]
    if tok == "o":
        return O, i + 1
    if tok == "!":
        A, i = _parse_type_atom(toks, i + 1, where)
        return Bang(A), i
    if tok == "(":
        A, j = _parse_arrow(toks, i + 1, where)
        if j >= len(toks) or toks[j] != ")":
            raise SyntaxErr("expected ')' in type", *where(i))
        return A, j + 1
    raise SyntaxErr(f"unexpected token {tok!r} in type", *where(i))


def _parts_first(A, known):
    """The parts of type A, A too, for which known(part) is false, each
    after the parts it holds, without recursion; the caller makes known()
    true for each part it is handed before it asks for the next."""
    todo = [A]
    while todo:
        T = todo[-1]
        if known(T):
            todo.pop()
            continue
        cls = T.__class__
        parts = ((T.left, T.right) if cls is Arrow else
                 (T.inner,) if cls is Bang else ())
        missing = [P for P in parts if not known(P)]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        yield T


def subst_base(A, B):
    """A with every occurrence of the base type replaced by B."""
    done = {}   # id of a part of A -> that part with B for the base type
    for T in _parts_first(A, lambda T: id(T) in done):
        cls = T.__class__
        if cls is Base:
            done[id(T)] = B
        elif cls is Arrow:
            done[id(T)] = Arrow(done[id(T.left)], done[id(T.right)])
        elif cls is Bang:
            done[id(T)] = Bang(done[id(T.inner)])
        else:
            raise LamtransError(f"not a type: {T!r}")
    return done[id(A)]


def type_height(A):
    return _type_facts(A)[1]


def navigate(A, tape):
    """Follow a multiplicative tape (string over 'p'/'o', read left to
    right) down a type.  Returns None when the tape does not fit."""
    for step in tape:
        while isinstance(A, Bang):
            A = A.inner
        if not isinstance(A, Arrow):
            return None
        A = A.left if step == "o" else A.right
    while isinstance(A, Bang):
        A = A.inner
    return A


@cache
def const_type(rank):
    """o -o ... -o o with `rank` arrows; one object per rank, so that its
    facts (_type_facts) are found once."""
    A = O
    for _ in range(rank):
        A = Arrow(O, A)
    return A


# ---------------------------------------------------------------------------
# Restriction tiers

TIER_NAMES = ["purely-affine", "almost-purely-affine", "almost-depth-1",
              "general"]


def classify_type(A):
    """Tier of a type: 0 if it has no !, 1 if every ! sits on the base
    type, 2 if every ! sits on a tier-<=1 type, 3 otherwise."""
    return _type_facts(A)[0]


def _type_facts(A):
    """(classify_type, type_height) of a type.  They are kept in the type
    object once found: the types of a program share most of their parts,
    and the token machine's set-up asks for them at every position."""
    facts = getattr(A, "_facts", None)
    if facts is not None:
        return facts
    for T in _parts_first(A, lambda T: hasattr(T, "_facts")):
        cls = T.__class__
        if cls is Base:
            facts = (0, 0)
        elif cls is Arrow:
            (ltier, lheight), (rtier, rheight) = T.left._facts, T.right._facts
            facts = (max(ltier, rtier), 1 + max(lheight, rheight))
        elif cls is Bang:
            tier, height = T.inner._facts
            if T.inner.__class__ is Base:
                tier = 1
            else:
                tier = 2 if tier <= 1 else 3
            facts = (tier, height)
        else:
            raise LamtransError(f"not a type: {T!r}")
        object.__setattr__(T, "_facts", facts)
    return A._facts


# ---------------------------------------------------------------------------
# Typing

@dataclass
class Annotated:
    """A typed term together with per-position information gathered by the
    checker.  A position is its preorder number (core.number_term), and
    every table is a list with one slot per position, None where it has
    no entry.  A program assembled from its spec's blocks
    (iam.LocalBlocks.program) also has its iam.TermInfo facts as
    `record`: (down, up, depths, tier, height)."""
    term: object
    type: object
    # pos -> the subterm there, and its children as offsets from pos
    nodes: list = field(init=False, default_factory=list)
    kids: list = field(init=False, default_factory=list)
    # pos -> Type
    types: list = field(init=False, default_factory=list)
    # var occ pos -> its binder, as an offset from pos; None for theta
    occ_binder: list = field(init=False, default_factory=list)
    # var occ pos -> "lam"|"let"|"theta"
    var_kind: list = field(init=False, default_factory=list)
    # types of unrestricted vars
    theta_types: list = field(init=False, default_factory=list)
    # a program's TermInfo facts, assembled with its tables; None if walked
    record: tuple = field(init=False, default=None)


def typecheck(term, ty=None, alphabet=None, theta=None, consts=None):
    """Check (or synthesize, when ty is None) the type of a closed-ish
    term.  Constants draw their types from the output alphabet (rank-k
    letter : o -o ... -o o) or from an explicit consts map.  theta maps
    free unrestricted variable names to types.  A program whose root its
    spec tagged `_program` (its iam.LocalBlocks and the input tree;
    transducer.program_term), typed from an empty environment with the
    constants of the spec's output alphabet, none of them retyped, against
    o or no type, is not walked: its tables are assembled from the blocks
    (iam.LocalBlocks.program)."""
    tag = getattr(term, "_program", None)     # (spec.blocks, tau)
    if (tag is not None and not theta and tag[0].output == alphabet
            and (not consts or consts.keys().isdisjoint(alphabet.ranks))
            and (ty is None or ty == O)):
        return tag[0].program(term, tag[1])
    ann = Annotated(term, None)
    ann.nodes, ann.kids = number_term(term)
    kids, n = ann.kids, len(ann.kids)
    types = ann.types = [None] * n
    occ_binder = ann.occ_binder = [None] * n
    var_kind = ann.var_kind = [None] * n
    theta_types = ann.theta_types
    used = [False] * n      # Lam pos -> whether an occurrence was typed
    ctypes = dict(consts or {})
    if alphabet is not None:
        for name, rank in alphabet.letters:
            ctypes.setdefault(name, const_type(rank))

    # environment: name -> ("lam"|"let"|"theta", Type, binder pos)
    env0 = {}
    for name, A in (theta or {}).items():
        env0[name] = ("theta", A, None)
        theta_types.append(A)

    def lookup_const(name):
        if name not in ctypes:
            raise TypingError(f"unknown constant {name!r}")
        return ctypes[name]

    def typed(t, pos, env, A=None):
        """The type of t at pos: synthesized when A is None, else checked
        to be A."""
        cls = t.__class__
        if cls is Const:
            B = types[pos] = lookup_const(t.name)
        elif cls is Var:
            if t.name not in env:
                raise TypingError(f"unbound variable {t.name!r}")
            kind, B, bpos = env[t.name]
            # checked before anything is written: rollback takes every
            # lam occurrence it clears to have marked its binder used
            if kind == "lam" and used[bpos]:
                raise TypingError(f"affine variable {t.name!r} used twice")
            types[pos] = B
            var_kind[pos] = kind
            if bpos is not None:
                occ_binder[pos] = bpos - pos
                if kind == "lam":
                    used[bpos] = True
        elif cls is App:
            fn, arg = pos + 1, pos + kids[pos][1]
            if A is None:
                fA = typed(t.fn, fn, env)
                if not isinstance(fA, Arrow):
                    raise TypingError(
                        f"applied term has non-arrow type "
                        f"{type_to_str(fA)}: {term_to_str(t.fn)}")
                typed(t.arg, arg, env, fA.left)
                B = types[pos] = fA.right
            else:
                # prefer synthesizing the function; fall back to
                # synthesizing the argument when the function is an
                # unannotated redex
                mark = len(theta_types)
                try:
                    B = typed(t, pos, env)
                except TypingError:
                    rollback(pos, mark)
                    typed(t.fn, fn, env, Arrow(typed(t.arg, arg, env), A))
                    B = types[pos] = A
        elif cls is Lam:
            if A is None:
                if t.hint is None:
                    raise TypingError(
                        f"cannot synthesize the type of {term_to_str(t)}")
                left = t.hint
            elif isinstance(A, Arrow):
                left = A.left
            else:
                raise TypingError(
                    f"lambda cannot have type {type_to_str(A)}")
            saved = _bind(env, t.var, ("lam", left, pos))
            try:
                B = typed(t.body, pos + 1, env,
                          None if A is None else A.right)
            finally:
                _unbind(env, t.var, saved)
            B = types[pos] = Arrow(left, B) if A is None else A
        elif cls is Box:
            if A is not None and not isinstance(A, Bang):
                raise TypingError(f"box cannot have type {type_to_str(A)}")
            B = typed(t.body, pos + 1, _boxed(env),
                      None if A is None else A.inner)
            B = types[pos] = Bang(B) if A is None else A
        elif cls is Let:
            bound = typed(t.bound, pos + 1, env)
            if not isinstance(bound, Bang):
                raise TypingError(
                    f"let-bound term has non-! type {type_to_str(bound)}: "
                    f"{term_to_str(t.bound)}")
            theta_types.append(bound.inner)
            saved = _bind(env, t.var, ("let", bound.inner, pos))
            try:
                B = types[pos] = typed(t.body, pos + kids[pos][1], env, A)
            finally:
                _unbind(env, t.var, saved)
        else:
            raise TypingError(f"not a term: {t!r}")
        if A is None:
            return B
        if B is not A and B != A:
            raise TypingError(
                f"expected {type_to_str(A)}, got {type_to_str(B)}: "
                f"{term_to_str(t)}")
        return A

    def rollback(pos, mark):
        """Undo what a failed trial at pos wrote: it wrote only the slots
        of the positions pos covers, the used marks of the binders of its
        lam occurrences, some of them outside those positions, and the
        theta types past `mark`, the size of that list before it."""
        end = _end(kids, pos)
        for occ in range(pos, end):
            if var_kind[occ] == "lam":
                used[occ + occ_binder[occ]] = False
        types[pos:end] = occ_binder[pos:end] = var_kind[pos:end] = \
            [None] * (end - pos)
        del theta_types[mark:]

    # typed recurses on the term; past Python's recursion limit the term
    # is reported as too deep (core.TooDeep)
    try:
        ann.type = typed(term, 0, env0, ty)
    except RecursionError:
        raise too_deep(term, "typecheck") from None
    finally:
        # typed reaches itself through its closure: clear that cycle, so
        # that the closures and what they hold go when this call returns
        typed = None
    return ann


def _end(kids, pos):
    """The position after the last one the subterm at pos covers, found
    down its last children."""
    while kids[pos]:
        pos += kids[pos][-1]
    return pos + 1


def _boxed(env):
    """The environment inside a box: affine variables are not in scope."""
    return {k: v for k, v in env.items() if v[0] != "lam"}


def _bind(env, name, entry):
    saved = env.get(name)
    env[name] = entry
    return saved


def _unbind(env, name, saved):
    if saved is None:
        env.pop(name, None)
    else:
        env[name] = saved


def fill_hints(ann):
    """Return ann.term with every lambda's binder-type hint filled in from
    the typing derivation, so the result synthesizes without a target."""
    types = ann.types

    def hinted(pos, t, cs):
        if t.__class__ is Lam:
            return Lam(t.var, cs[0], types[pos].left)
        return with_children(t, cs)

    return rebuild(ann.nodes, ann.kids, hinted)


# ---------------------------------------------------------------------------
# Term classification

def term_tier(types, boxed, theta_types):
    """Restriction tier of a typed term, given the types at its positions,
    the (type, number of enclosing boxes) of each position inside a box,
    and the types of its unrestricted variables.  Structural part: at each
    box-nesting level, the types appearing there must sit one tier lower
    per surrounding box.  Global part: the unrestricted variables must all
    be base-typed (tier <= 1) or all of tier <= 1 types (tier <= 2)."""
    tier = max(map(classify_type, types), default=0)
    # a position inside b boxes counts the tier of its type raised by b,
    # at most 3
    for A, boxes in boxed:
        tier = max(tier, min(3, classify_type(A) + boxes))
    if theta_types:
        if all(A == O for A in theta_types):
            tier = max(tier, 1)
        elif all(classify_type(A) <= 1 for A in theta_types):
            tier = max(tier, 2)
        else:
            tier = 3
    return tier
