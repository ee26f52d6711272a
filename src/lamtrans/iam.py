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

from .core import (App, Box, Const, Lam, LamtransError, Let, Var, children,
                   term_to_str)
from . import treegen
from .treegen import FNode, Machine
from .typecheck import (Arrow, Bang, O, classify_term, navigate, type_height)


class ClassificationTooHigh(LamtransError):
    pass


class InternalInvariantError(LamtransError):
    """A configuration the machine's correctness argument rules out."""


class InvariantViolation(LamtransError):
    pass


VARIANT_MAX_TIER = {"pa": 0, "apa": 1, "d1": 2, "ss": 2}


@dataclass(frozen=True)
class LogEntry:
    """A logged position: where a jump came from, together with the log
    that was current there."""
    pos: tuple
    log: tuple  # tuple of LogEntry


@dataclass(frozen=True)
class StackEntry:
    """Flat-stack form of a logged position: the source position and the
    group of entries that were sitting above it."""
    pos: tuple
    entries: tuple  # tuple of StackEntry


@dataclass(frozen=True)
class Config:
    direction: str  # "down" | "up"
    pos: tuple
    tape: tuple     # entries are "p", "o", LogEntry (d1) -- top first
    log: tuple = ()     # d1: tuple of LogEntry; ss: tuple of StackEntry
    flag: int = 0       # ss only: current box nesting


def mult_tape(tape):
    """The multiplicative symbols of a tape, logged entries skipped."""
    return "".join(e for e in tape if e in ("p", "o"))


class TermInfo:
    """Per-position facts about the program term, precomputed from a
    typing derivation."""

    def __init__(self, ann):
        self.ann = ann
        self.term = ann.term
        self.nodes = {}

        def walk(t, pos):
            self.nodes[pos] = t
            for i, c in enumerate(children(t)):
                walk(c, pos + (i,))

        walk(ann.term, ())
        self.types = ann.types
        self.depths = ann.depths
        self.occ_binder = ann.occ_binder
        self.lam_occ = ann.lam_occ
        self.var_kind = ann.var_kind
        self.height = max(type_height(A) for A in ann.types.values())
        self.tier = classify_term(ann)

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
    def __init__(self, ann, variant="pa"):
        if variant not in VARIANT_MAX_TIER:
            raise LamtransError(f"unknown machine variant {variant!r}")
        self.info = ann if isinstance(ann, TermInfo) else TermInfo(ann)
        if self.info.tier > VARIANT_MAX_TIER[variant]:
            from .typecheck import TIER_NAMES
            raise ClassificationTooHigh(
                f"term tier is {TIER_NAMES[self.info.tier]}; the {variant!r} "
                "machine does not support it")
        self.variant = variant

    def initial(self):
        return Config("down", (), ())

    # -- dispatch ----------------------------------------------------------

    def step(self, cfg):
        if cfg.direction == "down":
            return self._down(cfg)
        return self._up(cfg)

    def _down(self, cfg):
        info, v = self.info, self.variant
        pos, tape = cfg.pos, cfg.tape
        t = info.nodes[pos]

        if isinstance(t, App):
            return self._cfg(cfg, "down", pos + (0,), ("p",) + tape)

        if isinstance(t, Lam):
            if not tape:
                return None
            top, rest = tape[0], tape[1:]
            if top == "p":
                return self._cfg(cfg, "down", pos + (0,), rest)
            if top == "o":
                occ = info.lam_occ.get(pos)
                if occ is None:
                    return None  # bound variable never used: dead branch
                return self._cfg(cfg, "up", occ, rest)
            return None

        if isinstance(t, Var):
            kind = info.var_kind[pos]
            if kind == "lam":
                return self._cfg(cfg, "up", info.occ_binder[pos],
                                 ("o",) + tape)
            if kind == "let":
                return self._down_let_var(cfg, pos, tape)
            return None  # free unrestricted variable: no rule

        if isinstance(t, Box):
            base = info.types[pos].inner == O
            if v == "apa" or base:
                return self._cfg(cfg, "down", pos + (0,), tape)
            if v == "d1":
                if cfg.log:
                    raise InternalInvariantError("entering a box with a "
                                                 "nonempty log")
                if not tape or not isinstance(tape[0], LogEntry):
                    return None
                return self._cfg(cfg, "down", pos + (0,), tape[1:],
                                 log=(tape[0],))
            # ss: mark that the top stack entry now plays the log role
            if cfg.flag != 0:
                raise InternalInvariantError("entering a box with nonzero "
                                             "nesting counter")
            return self._cfg(cfg, "down", pos + (0,), tape, flag=1)

        if isinstance(t, Let):
            return self._cfg(cfg, "down", pos + (1,), tape)

        if isinstance(t, Const):
            k = info.rank(pos)
            if len(tape) < k or any(e != "p" for e in tape[:k]):
                return None
            rest = tape[k:]
            kids = tuple(
                self._cfg(cfg, "up", pos, ("p",) * i + ("o",) + rest)
                for i in range(k))
            return FNode(t.name, kids)

        return None

    def _down_let_var(self, cfg, pos, tape):
        info, v = self.info, self.variant
        binder = info.occ_binder[pos]
        bound_pos = binder + (0,)
        base = info.bound_is_base(binder)
        if v == "pa":
            raise InternalInvariantError("let rules in the plain machine")
        if v == "apa":
            return self._cfg(cfg, "down", bound_pos, tape)
        n, m = info.depths[pos], info.depths[binder]
        if v == "d1":
            if base:
                # forget the log entries for the boxes being exited
                return self._cfg(cfg, "down", bound_pos, tape,
                                 log=cfg.log[n - m:])
            if m != 0:
                raise InternalInvariantError("non-base let binder under a box")
            entry = LogEntry(pos, cfg.log)
            return self._cfg(cfg, "down", bound_pos, (entry,) + tape, log=())
        # ss
        if base:
            if cfg.flag != n:
                raise InternalInvariantError("nesting counter out of sync")
            return self._cfg(cfg, "down", bound_pos, tape,
                             log=cfg.log[n - m:], flag=m)
        if m != 0:
            raise InternalInvariantError("non-base let binder under a box")
        k = cfg.flag
        entry = StackEntry(pos, cfg.log[:k])
        return self._cfg(cfg, "down", bound_pos, tape,
                         log=(entry,) + cfg.log[k:], flag=0)

    def _up(self, cfg):
        info, v = self.info, self.variant
        pos, tape = cfg.pos, cfg.tape
        if not pos:
            return None
        parent, role = pos[:-1], pos[-1]
        pt = info.nodes[parent]

        if isinstance(pt, App) and role == 0:
            if not tape:
                return None
            top, rest = tape[0], tape[1:]
            if top == "p":
                return self._cfg(cfg, "up", parent, rest)
            if top == "o":
                return self._cfg(cfg, "down", parent + (1,), rest)
            return None
        if isinstance(pt, App) and role == 1:
            return self._cfg(cfg, "down", parent + (0,), ("o",) + tape)
        if isinstance(pt, Lam):
            return self._cfg(cfg, "up", parent, ("p",) + tape)
        if isinstance(pt, Let) and role == 1:
            return self._cfg(cfg, "up", parent, tape)

        if isinstance(pt, Let) and role == 0:
            # coming back out of a shared resource: jump to the occurrence
            # that requested it
            if v in ("pa", "apa"):
                raise InternalInvariantError("focus on a let-bound term "
                                             "going up")
            if v == "d1":
                if cfg.log:
                    raise InternalInvariantError("leaving a bound term with "
                                                 "a nonempty log")
                if not tape or not isinstance(tape[0], LogEntry):
                    raise InternalInvariantError("no logged position to "
                                                 "return to")
                entry, rest = tape[0], tape[1:]
                return self._cfg(cfg, "up", entry.pos, rest, log=entry.log)
            if cfg.flag != 0 or not cfg.log:
                raise InternalInvariantError("no logged position to return to")
            entry, rest = cfg.log[0], cfg.log[1:]
            if not isinstance(entry, StackEntry):
                raise InternalInvariantError("malformed stack")
            return self._cfg(cfg, "up", entry.pos, tape,
                             log=entry.entries + rest,
                             flag=len(entry.entries))

        if isinstance(pt, Box):
            base = info.types[parent].inner == O
            if v in ("pa", "apa") or base:
                raise InternalInvariantError("box contents exited upward")
            if v == "d1":
                if len(cfg.log) != 1:
                    raise InternalInvariantError("exiting a box with a log "
                                                 "of length != 1")
                return self._cfg(cfg, "up", parent, (cfg.log[0],) + tape,
                                 log=())
            if cfg.flag != 1:
                raise InternalInvariantError("exiting a box with nesting "
                                             "counter != 1")
            return self._cfg(cfg, "up", parent, tape, flag=0)

        return None

    def _cfg(self, old, direction, pos, tape, log=None, flag=None):
        return Config(direction, pos, tape,
                      old.log if log is None else log,
                      old.flag if flag is None else flag)

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
    if tier <= 0:
        return "pa"
    if tier == 1:
        return "apa"
    if tier == 2:
        return "ss"
    raise ClassificationTooHigh(
        "no token machine supports unrestricted terms")


def run_iam(ann, variant="auto", fuel=10_000_000, check=False):
    """Run a token machine on a typed closed term of base type."""
    info = ann if isinstance(ann, TermInfo) else TermInfo(ann)
    if variant == "auto":
        variant = pick_variant(info.tier)
    machine = IamMachine(info, variant)
    if not check:
        return treegen.run(machine, machine.initial(), fuel)
    return _run_checked(machine, fuel)


def _run_checked(machine, fuel):
    class Checked(Machine):
        def step(self, cfg):
            machine.check_invariants(cfg)
            return machine.step(cfg)

        def render(self, cfg):
            return machine.render(cfg)

    return treegen.run(Checked(), machine.initial(), fuel)
