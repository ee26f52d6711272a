"""The program checker as it was before its trial synthesis got an undo
log: a test-only oracle for `lamtrans.typecheck.typecheck` and
`lamtrans.iam.TermInfo`.

`typecheck` copies all six annotation tables before each trial it may
have to undo, threads the set of affine binders each subterm uses, and
fills box depths in a separate pass (`Annotated.depths`).  `classify_term`
is the tier rule in one walk of its own, and `ReferenceTermInfo` builds
the machine's dispatch records from those depths.  Its positions are
paths, tuples of child indices from the root, where the checker now
numbers them in preorder.  The code is kept as it was; only its imports
changed, and `ReferenceTermInfo` keeps the path form of
`TermInfo.bound_is_base`."""

from __future__ import annotations

from dataclasses import dataclass, field

from lamtrans.core import (App, Box, Const, Lam, Let, Var, children,
                           term_to_str, too_deep)
from lamtrans.iam import (APP, BASE_BOX, BOX, CONST, FREE_VAR, LAM, LAM_VAR,
                          LET, LET_VAR, TermInfo)
from lamtrans.typecheck import (Arrow, Bang, O, TypingError, classify_type,
                                const_type, type_height, type_to_str)


@dataclass
class Annotated:
    """A typed term together with per-position information gathered by the
    checker."""
    term: object
    type: object
    types: dict = field(default_factory=dict)        # pos -> Type
    depths: dict = field(default_factory=dict)       # pos -> box depth
    occ_binder: dict = field(default_factory=dict)   # var occ pos -> binder pos
    lam_occ: dict = field(default_factory=dict)      # Lam pos -> occ pos | None
    let_occs: dict = field(default_factory=dict)     # Let pos -> [occ pos]
    var_kind: dict = field(default_factory=dict)     # var occ pos -> "lam"|"let"|"theta"
    theta_types: list = field(default_factory=list)  # types of unrestricted vars


def typecheck(term, ty=None, alphabet=None, theta=None, consts=None):
    """Check (or synthesize, when ty is None) the type of a closed-ish
    term.  Constants draw their types from the output alphabet (rank-k
    letter : o -o ... -o o) or from an explicit consts map.  theta maps
    free unrestricted variable names to types."""
    ann = Annotated(term, None)
    ctypes = dict(consts or {})
    if alphabet is not None:
        for name, rank in alphabet.letters:
            ctypes.setdefault(name, const_type(rank))

    # environment: name -> ("lam"|"let"|"theta", Type, binder pos)
    env0 = {}
    for name, A in (theta or {}).items():
        env0[name] = ("theta", A, None)
        ann.theta_types.append(A)

    def record(pos, A):
        ann.types[pos] = A

    def lookup_const(name):
        if name not in ctypes:
            raise TypingError(f"unknown constant {name!r}")
        return ctypes[name]

    def synth(t, pos, env):
        """Returns (type, used) where used is the set of affine binder
        positions consumed."""
        if isinstance(t, Const):
            A = lookup_const(t.name)
            record(pos, A)
            return A, set()
        if isinstance(t, Var):
            if t.name not in env:
                raise TypingError(f"unbound variable {t.name!r}")
            kind, A, bpos = env[t.name]
            record(pos, A)
            ann.var_kind[pos] = kind
            if bpos is not None:
                ann.occ_binder[pos] = bpos
                if kind == "lam":
                    if ann.lam_occ.get(bpos) is not None:
                        raise TypingError(
                            f"affine variable {t.name!r} used twice")
                    ann.lam_occ[bpos] = pos
                else:
                    ann.let_occs[bpos].append(pos)
            if kind == "lam":
                return A, {bpos}
            return A, set()
        if isinstance(t, App):
            fA, fu = synth(t.fn, pos + (0,), env)
            if not isinstance(fA, Arrow):
                raise TypingError(
                    f"applied term has non-arrow type {type_to_str(fA)}: "
                    f"{term_to_str(t.fn)}")
            au = check(t.arg, fA.left, pos + (1,), env)
            if fu & au:
                raise TypingError("affine variable used in both sides of an "
                                  f"application: {term_to_str(t)}")
            record(pos, fA.right)
            return fA.right, fu | au
        if isinstance(t, Lam):
            if t.hint is None:
                raise TypingError(
                    f"cannot synthesize the type of {term_to_str(t)}")
            bpos = pos
            saved = _bind(ann, env, t.var, ("lam", t.hint, bpos))
            ann.lam_occ.setdefault(bpos, None)
            try:
                B, u = synth(t.body, pos + (0,), env)
            finally:
                _unbind(env, t.var, saved)
            u.discard(bpos)
            A = Arrow(t.hint, B)
            record(pos, A)
            return A, u
        if isinstance(t, Box):
            inner_env = {k: v for k, v in env.items() if v[0] != "lam"}
            A, u = synth(t.body, pos + (0,), inner_env)
            record(pos, Bang(A))
            return Bang(A), u
        if isinstance(t, Let):
            bA, bu = _synth_or_check_bang(t, pos, env)
            bpos = pos
            ann.let_occs.setdefault(bpos, [])
            ann.theta_types.append(bA.inner)
            saved = _bind(ann, env, t.var, ("let", bA.inner, bpos))
            try:
                B, tu = synth(t.body, pos + (1,), env)
            finally:
                _unbind(env, t.var, saved)
            if bu & tu:
                raise TypingError("affine variable used in both parts of a "
                                  f"let: {term_to_str(t)}")
            record(pos, B)
            return B, bu | tu
        raise TypingError(f"not a term: {t!r}")

    def _synth_or_check_bang(t, pos, env):
        A, u = synth(t.bound, pos + (0,), env)
        if not isinstance(A, Bang):
            raise TypingError(
                f"let-bound term has non-! type {type_to_str(A)}: "
                f"{term_to_str(t.bound)}")
        return A, u

    def check(t, A, pos, env):
        if isinstance(t, Lam):
            if not isinstance(A, Arrow):
                raise TypingError(
                    f"lambda cannot have type {type_to_str(A)}")
            bpos = pos
            saved = _bind(ann, env, t.var, ("lam", A.left, bpos))
            ann.lam_occ.setdefault(bpos, None)
            try:
                u = check(t.body, A.right, pos + (0,), env)
            finally:
                _unbind(env, t.var, saved)
            u.discard(bpos)
            record(pos, A)
            return u
        if isinstance(t, Box):
            if not isinstance(A, Bang):
                raise TypingError(f"box cannot have type {type_to_str(A)}")
            inner_env = {k: v for k, v in env.items() if v[0] != "lam"}
            u = check(t.body, A.inner, pos + (0,), inner_env)
            record(pos, A)
            return u
        if isinstance(t, Let):
            bA, bu = _synth_or_check_bang(t, pos, env)
            bpos = pos
            ann.let_occs.setdefault(bpos, [])
            ann.theta_types.append(bA.inner)
            saved = _bind(ann, env, t.var, ("let", bA.inner, bpos))
            try:
                tu = check(t.body, A, pos + (1,), env)
            finally:
                _unbind(env, t.var, saved)
            if bu & tu:
                raise TypingError("affine variable used in both parts of a "
                                  f"let: {term_to_str(t)}")
            record(pos, A)
            return bu | tu
        if isinstance(t, App):
            # prefer synthesizing the function; fall back to synthesizing
            # the argument when the function is an unannotated redex
            snap = (dict(ann.types), dict(ann.occ_binder), dict(ann.lam_occ),
                    {k: list(v) for k, v in ann.let_occs.items()},
                    dict(ann.var_kind), list(ann.theta_types))
            try:
                B, u = synth(t, pos, env)
            except TypingError:
                (ann.types, ann.occ_binder, ann.lam_occ, ann.let_occs,
                 ann.var_kind, ann.theta_types) = snap
                aA, au = synth(t.arg, pos + (1,), env)
                fu = check(t.fn, Arrow(aA, A), pos + (0,), env)
                if fu & au:
                    raise TypingError(
                        "affine variable used in both sides of an "
                        f"application: {term_to_str(t)}")
                record(pos, A)
                return fu | au
            if B != A:
                raise TypingError(
                    f"expected {type_to_str(A)}, got {type_to_str(B)}: "
                    f"{term_to_str(t)}")
            return u
        B, u = synth(t, pos, env)
        if B != A:
            raise TypingError(
                f"expected {type_to_str(A)}, got {type_to_str(B)}: "
                f"{term_to_str(t)}")
        return u

    # synth and check recurse on the term; past Python's recursion limit
    # the term is reported as too deep (core.TooDeep)
    try:
        if ty is None:
            A, _ = synth(term, (), env0)
            ann.type = A
        else:
            check(term, ty, (), env0)
            ann.type = ty
    except RecursionError:
        raise too_deep(term, "typecheck") from None

    _fill_depths(ann)
    return ann


def _bind(ann, env, name, entry):
    saved = env.get(name)
    env[name] = entry
    return saved


def _unbind(env, name, saved):
    if saved is None:
        env.pop(name, None)
    else:
        env[name] = saved


def _fill_depths(ann):
    """Depth of a position = number of enclosing boxes whose contents are
    not of base type."""
    depths, types = ann.depths, ann.types
    todo = [(ann.term, (), 0)]
    while todo:
        t, pos, depth = todo.pop()
        depths[pos] = depth
        if isinstance(t, Box) and types.get(pos + (0,)) != O:
            depth += 1
        for i, c in enumerate(children(t)):
            todo.append((c, pos + (i,), depth))


# ---------------------------------------------------------------------------
# Term classification

def classify_term(ann):
    """Restriction tier of a typed term.  Structural part: at each
    box-nesting level, the types appearing there must sit one tier lower
    per surrounding box.  Global part: the unrestricted variables must all
    be base-typed (tier <= 1) or all of tier <= 1 types (tier <= 2)."""
    types = ann.types
    tiers = {id(A): A for A in types.values()}
    for key, A in tiers.items():
        tiers[key] = classify_type(A)
    tier = max(tiers.values(), default=0)
    # a position inside b boxes counts the tier of its type raised by b,
    # at most 3
    todo = [(ann.term, (), 0)]
    while todo:
        t, pos, boxes = todo.pop()
        if boxes:
            tier = max(tier, min(3, tiers[id(types[pos])] + boxes))
        if isinstance(t, Box):
            boxes += 1
        for i, c in enumerate(children(t)):
            todo.append((c, pos + (i,), boxes))
    if ann.theta_types:
        if all(A == O for A in ann.theta_types):
            tier = max(tier, 1)
        elif all(classify_type(A) <= 1 for A in ann.theta_types):
            tier = max(tier, 2)
        else:
            tier = 3
    return tier


class ReferenceTermInfo(TermInfo):
    """TermInfo's records built from a reference annotation, its depths
    read from `ann.depths`."""

    def __init__(self, ann):
        self.ann = ann
        self.term = ann.term
        self.types = types = ann.types
        self.depths = depths = ann.depths
        self.occ_binder = occ_binder = ann.occ_binder
        self.lam_occ = ann.lam_occ
        self.var_kind = var_kind = ann.var_kind
        self.nodes = nodes = {}
        self.down = down = {}
        self.up = up = {}
        occurrences = []
        todo = [(ann.term, (), None)]
        while todo:
            t, pos, up[pos] = todo.pop()
            nodes[pos] = t
            cls = t.__class__
            if cls is App or cls is Let:
                kids = (pos + (0,), pos + (1,))
                tag = APP if cls is App else LET
                first, second = (t.fn, t.arg) if cls is App else \
                    (t.bound, t.body)
                todo.append((second, kids[1], (tag, 1, pos, kids[0])))
                todo.append((first, kids[0], (tag, 0, pos, kids[1])))
                down[pos] = (tag, kids, None)
            elif cls is Lam or cls is Box:
                kids = (pos + (0,),)
                if cls is Lam:
                    tag = LAM
                else:
                    tag = BASE_BOX if types[pos].inner == O else BOX
                todo.append((t.body, kids[0], (tag, 0, pos, None)))
                down[pos] = (tag, kids, None)   # LAM's occurrence: below
            elif cls is Var:
                occurrences.append(pos)
            elif cls is Const:
                k = self.rank(pos)
                down[pos] = (CONST, (), (t.name, ("p",) * k, tuple(
                    ("p",) * i + ("o",) for i in range(k))))
        # a variable's record names its binder as interned: the binder's
        # first child is interned in its record, and that child's up
        # record holds the binder
        for pos in occurrences:
            kind = var_kind[pos]
            if kind == "theta":
                down[pos] = (FREE_VAR, (), None)
                continue
            bound = down[occ_binder[pos]][1][0]
            binder = up[bound][2]
            if kind == "lam":
                down[pos] = (LAM_VAR, (), binder)
                down[binder] = (LAM, (bound,), pos)
            else:
                down[pos] = (LET_VAR, (), (bound, self.bound_is_base(binder),
                                           depths[pos], depths[binder]))
        self.height = max(type_height(A) for A in
                          {id(A): A for A in types.values()}.values())
        self.tier = classify_term(ann)

    def bound_is_base(self, let_pos):
        A = self.types[let_pos + (0,)]
        return isinstance(A, Bang) and A.inner == O

