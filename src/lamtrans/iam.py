"""Token machines over typed terms.

Four variants of the same bidirectional token-passing machine, in
increasing order of the term tier they support:

  * "pa"  -- plain machine for !-free terms (direction, position, tape)
  * "apa" -- adds rules for boxes and lets whose boxes contain base data
  * "d1"  -- two-stack machine (tape may hold logged positions; a log
             tracks the current box nesting)
  * "ss"  -- single-stack machine (bounded multiplicative tape, one flat
             stack of logged positions, and a nesting counter)

All variants emit output through the tree-generating machine interface:
stepping a configuration yields either a configuration or an output node
whose children are configurations."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (App, Box, Const, Lam, LamtransError, Let, Var,
                   term_to_str)
from . import treegen
from .treegen import FNode, Machine
from .typecheck import Arrow, Bang, O, navigate, term_tier, type_height


class ClassificationTooHigh(LamtransError):
    pass


class InternalInvariantError(LamtransError):
    """A configuration the machine's correctness argument rules out."""


class InvariantViolation(LamtransError):
    pass


VARIANT_MAX_TIER = {"pa": 0, "apa": 1, "d1": 2, "ss": 2}   # highest tier run


@dataclass(slots=True, unsafe_hash=True)
class LogEntry:
    """A logged position: where a jump came from, together with the log
    that was current there."""
    pos: tuple
    log: tuple  # tuple of LogEntry


@dataclass(slots=True, unsafe_hash=True)
class StackEntry:
    """Flat-stack form of a logged position: the source position and the
    group of entries that were sitting above it."""
    pos: tuple
    entries: tuple  # tuple of StackEntry


@dataclass(slots=True, unsafe_hash=True)
class Config:
    direction: str  # "down" | "up"
    pos: tuple
    tape: tuple     # entries are "p", "o", LogEntry (d1) -- top first
    log: tuple = ()     # d1: tuple of LogEntry; ss: tuple of StackEntry
    flag: int = 0       # ss only: current box nesting


def mult_tape(tape):
    """The multiplicative symbols of a tape, logged entries skipped."""
    return "".join(e for e in tape if e in ("p", "o"))


# What a position holds, as the machine's rules tell positions apart.
(APP, LAM, LAM_VAR, LET_VAR, FREE_VAR, BASE_BOX, BOX, LET,
 CONST) = range(9)


class TermInfo:
    """Per-position facts about the program term, precomputed from a
    typing derivation.

    One walk builds two dispatch records for every position, one for each
    direction the focus can move in:

      * `down[pos] = (tag, children, arg)`: the position's tag above, its
        child positions, and by tag: for LAM the occurrence of the bound
        variable (None if unused), for LAM_VAR its binder, for LET_VAR
        (bound term, whether it has type !o, box depth of the occurrence,
        box depth of the binder), for CONST (name, the tape prefix ("p",)
        * rank it consumes, the tape prefixes of its rank children);
      * `up[pos] = (parent tag, role, parent, sibling)`, where role is
        the position's index among its parent's children and sibling the
        parent's other child; None at the root.

    Every position in the records is the very tuple that keys them, so a
    lookup of a position the machine built compares keys by identity.

    The same walk fills `depths[pos]`, the box depth of each position (the
    number of enclosing boxes whose contents are not of base type), and
    finds the term's restriction `tier` (typecheck.term_tier) and `height`,
    the largest type height at any position."""

    def __init__(self, ann):
        self.ann = ann
        self.term = ann.term
        self.types = types = ann.types
        self.occ_binder = occ_binder = ann.occ_binder
        self.var_kind = var_kind = ann.var_kind
        self.depths = depths = {}
        self.down = down = {}
        self.up = up = {}
        occurrences = []
        boxed = []      # (type, enclosing boxes) of the positions in a box
        # the walk carries the box depth of a position (the enclosing boxes
        # whose contents are not of base type) and its count of all
        # enclosing boxes
        todo = [(ann.term, (), None, 0, 0)]
        while todo:
            t, pos, up[pos], depth, boxes = todo.pop()
            depths[pos] = depth
            if boxes:
                boxed.append((types[pos], boxes))
            cls = t.__class__
            if cls is App or cls is Let:
                kids = (pos + (0,), pos + (1,))
                tag = APP if cls is App else LET
                first, second = (t.fn, t.arg) if cls is App else \
                    (t.bound, t.body)
                todo.append((second, kids[1], (tag, 1, pos, kids[0]), depth,
                             boxes))
                todo.append((first, kids[0], (tag, 0, pos, kids[1]), depth,
                             boxes))
                down[pos] = (tag, kids, None)
            elif cls is Lam or cls is Box:
                kids = (pos + (0,),)
                if cls is Lam:
                    tag = LAM
                elif types[pos].inner == O:
                    tag = BASE_BOX
                else:
                    tag, depth = BOX, depth + 1
                todo.append((t.body, kids[0], (tag, 0, pos, None), depth,
                             boxes + (cls is Box)))
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
        distinct = {id(A): A for A in types.values()}.values()
        self.height = max(map(type_height, distinct))
        self.tier = term_tier(distinct, boxed, ann.theta_types)

    def rank(self, pos):
        A = self.types[pos]
        k = 0
        while isinstance(A, Arrow):
            k += 1
            A = A.right
        return k

    def bound_is_base(self, let_pos):
        A = self.types[let_pos + (0,)]
        return isinstance(A, Bang) and A.inner == O


class IamMachine(Machine):
    def __init__(self, info, variant="pa"):
        if variant not in VARIANT_MAX_TIER:
            raise LamtransError(f"unknown machine variant {variant!r}")
        self.info = info
        if self.info.tier > VARIANT_MAX_TIER[variant]:
            from .typecheck import TIER_NAMES
            raise ClassificationTooHigh(
                f"term tier is {TIER_NAMES[self.info.tier]}; the {variant!r} "
                "machine does not support it")
        self.variant = variant

    def initial(self):
        return Config("down", (), ())

    # -- the rules ----------------------------------------------------------

    def advance(self, cfg, budget):
        """The machine's rules, as one loop over the fields of the current
        configuration held in local variables (treegen.Machine.advance).
        A Config is built only for the children of an output node and where
        the loop stops; `step` is this loop run for one step."""
        info_down, info_up, v = self.info.down, self.info.up, self.variant
        down = cfg.direction == "down"
        pos, tape, log, flag = cfg.pos, cfg.tape, cfg.log, cfg.flag
        n = 0
        while n < budget:
            if down:
                tag, kids, arg = info_down[pos]
                if tag == APP:
                    pos, tape = kids[0], ("p",) + tape
                elif tag == LAM:
                    top = tape[0] if tape else None
                    if top == "p":
                        pos, tape = kids[0], tape[1:]
                    elif top == "o" and arg is not None:
                        down, pos, tape = False, arg, tape[1:]
                    else:
                        break   # with "o": the bound variable is never used
                elif tag == LAM_VAR:
                    down, pos, tape = False, arg, ("o",) + tape
                elif tag == CONST:
                    name, args, outs = arg
                    k = len(args)
                    if tape[:k] != args:
                        break
                    rest = tape[k:]
                    return FNode(name, tuple([
                        Config("up", pos, o + rest, log, flag) for o in outs
                    ])), Config("down", pos, tape, log, flag), n + 1
                elif tag == LET:
                    pos = kids[1]
                elif tag == LET_VAR:
                    bound, base, bn, bm = arg
                    if v == "pa":
                        raise InternalInvariantError("let rules in the plain "
                                                     "machine")
                    if v == "apa":
                        pos = bound
                    elif base:
                        if v == "ss" and flag != bn:
                            raise InternalInvariantError("nesting counter "
                                                         "out of sync")
                        # forget the log entries for the boxes being exited
                        pos, log = bound, log[bn - bm:]
                        if v == "ss":
                            flag = bm
                    elif bm != 0:
                        raise InternalInvariantError("non-base let binder "
                                                     "under a box")
                    elif v == "d1":
                        tape = (LogEntry(pos, log),) + tape
                        pos, log = bound, ()
                    else:
                        log = (StackEntry(pos, log[:flag]),) + log[flag:]
                        pos, flag = bound, 0
                elif tag == BASE_BOX or tag == BOX and v == "apa":
                    pos = kids[0]
                elif tag == BOX:
                    if v == "d1":
                        if log:
                            raise InternalInvariantError("entering a box with "
                                                         "a nonempty log")
                        if not tape or not isinstance(tape[0], LogEntry):
                            break
                        pos, tape, log = kids[0], tape[1:], (tape[0],)
                    # ss: mark that the top stack entry now plays the log role
                    elif flag != 0:
                        raise InternalInvariantError("entering a box with "
                                                     "nonzero nesting counter")
                    else:
                        pos, flag = kids[0], 1
                else:
                    break       # free unrestricted variable: no rule
            else:
                up = info_up[pos]
                if up is None:
                    break
                ptag, role, parent, sibling = up
                if ptag == APP and role == 1:
                    down, pos, tape = True, sibling, ("o",) + tape
                elif ptag == APP:
                    top = tape[0] if tape else None
                    if top == "p":
                        pos, tape = parent, tape[1:]
                    elif top == "o":
                        down, pos, tape = True, sibling, tape[1:]
                    else:
                        break
                elif ptag == LAM:
                    pos, tape = parent, ("p",) + tape
                elif ptag == LET and role == 1:
                    pos = parent
                # coming back out of a shared resource: jump to the
                # occurrence that requested it
                elif ptag == LET and (v == "pa" or v == "apa"):
                    raise InternalInvariantError("focus on a let-bound term "
                                                 "going up")
                elif ptag == LET and v == "d1":
                    if log:
                        raise InternalInvariantError("leaving a bound term "
                                                     "with a nonempty log")
                    if not tape or not isinstance(tape[0], LogEntry):
                        raise InternalInvariantError("no logged position to "
                                                     "return to")
                    entry = tape[0]
                    pos, tape, log = entry.pos, tape[1:], entry.log
                elif ptag == LET:
                    if flag != 0 or not log:
                        raise InternalInvariantError("no logged position to "
                                                     "return to")
                    entry = log[0]
                    if not isinstance(entry, StackEntry):
                        raise InternalInvariantError("malformed stack")
                    pos, log, flag = (entry.pos, entry.entries + log[1:],
                                      len(entry.entries))
                # leaving a box
                elif v == "pa" or v == "apa" or ptag == BASE_BOX:
                    raise InternalInvariantError("box contents exited upward")
                elif v == "d1":
                    if len(log) != 1:
                        raise InternalInvariantError("exiting a box with a "
                                                     "log of length != 1")
                    pos, tape, log = parent, (log[0],) + tape, ()
                elif flag != 1:
                    raise InternalInvariantError("exiting a box with nesting "
                                                 "counter != 1")
                else:
                    pos, flag = parent, 0
            n += 1
        return None, Config("down" if down else "up", pos, tape, log, flag), n

    # -- rendering and invariants -----------------------------------------

    def render(self, cfg):
        term = term_to_str(self.info.term, mark=cfg.pos,
                           direction=cfg.direction)
        s = f'({term}, "{render_tape(cfg.tape)}"'
        if self.variant == "d1":
            s += f', "{render_tape(cfg.log)}"'
        elif self.variant == "ss":
            s += f', "{render_tape(cfg.log)}", {cfg.flag}'
        return s + ")"

    def check_invariants(self, cfg):
        info = self.info
        m = mult_tape(cfg.tape)
        if len(m) > info.height:
            raise InvariantViolation(
                f"multiplicative tape longer than {info.height}: {m!r}")
        odd = m.count("o") % 2 == 1
        if (cfg.direction == "up") != odd:
            raise InvariantViolation(
                f"direction/parity mismatch: {cfg.direction} with tape {m!r}")
        if navigate(info.types[cfg.pos], m) != O:
            raise InvariantViolation(
                f"tape {m!r} does not point at base data in type of focus")
        if self.variant == "d1" and len(cfg.log) != info.depths[cfg.pos]:
            raise InvariantViolation("log length != box depth of focus")
        if self.variant == "ss" and cfg.flag != info.depths[cfg.pos]:
            raise InvariantViolation("nesting counter != box depth of focus")


def render_tape(tape):
    out = []
    for e in tape:
        if e in ("p", "o"):
            out.append(e)
        else:
            pos = ".".join(map(str, e.pos)) or "e"
            inner = e.log if isinstance(e, LogEntry) else e.entries
            out.append("{" + pos + "|" + render_tape(inner) + "}")
    return "".join(out)


def pick_variant(tier):
    """The first of pa, apa and ss whose tier limit covers `tier`."""
    for variant in ("pa", "apa", "ss"):
        if tier <= VARIANT_MAX_TIER[variant]:
            return variant
    raise ClassificationTooHigh(
        "no token machine supports unrestricted terms")


def iam_machine(ann, variant="auto"):
    """The token machine for a typed closed term of base type; "auto"
    picks the variant from the term's tier."""
    info = TermInfo(ann)
    if variant == "auto":
        variant = pick_variant(info.tier)
    return IamMachine(info, variant)


def run_iam(ann, variant="auto", fuel=10_000_000, check=False):
    """Run a token machine on a typed closed term of base type."""
    machine = iam_machine(ann, variant)
    if not check:
        return treegen.run(machine, machine.initial(), fuel)
    paused = treegen.drive(machine, machine.initial(), fuel, "leftmost", True)
    try:
        while True:
            _, kids, i, _ = next(paused)
            machine.check_invariants(kids[i])
    except StopIteration as stop:
        return stop.value
