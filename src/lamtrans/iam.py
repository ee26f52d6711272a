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
from functools import cached_property

from .core import (App, Box, Const, Lam, LamtransError, Let, Var, marked,
                   render_term)
from . import treegen
from .treegen import FNode, Machine
from .typecheck import (TIER_NAMES, Annotated, Arrow, Bang, O, navigate,
                        term_tier, type_height, typecheck)


class ClassificationTooHigh(LamtransError):
    pass


class InternalInvariantError(LamtransError):
    """A configuration the machine's correctness argument rules out."""


class InvariantViolation(LamtransError):
    pass


VARIANT_MAX_TIER = {"pa": 0, "apa": 1, "d1": 2, "ss": 2}   # highest tier run


# A log entry keeps its hash once computed: a log nests as deep as the
# input is long, and an unpaused run hashes the configurations it memoizes
# (treegen.drive), so a hash that walked the whole nest each time would
# cost each memoized chain that depth.

@dataclass
class LogEntry:
    """A logged position: where a jump came from, together with the log
    that was current there."""
    __slots__ = ("pos", "log", "_hash")
    pos: int
    log: tuple  # tuple of LogEntry

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.pos, self.log))
            return h


@dataclass
class StackEntry:
    """Flat-stack form of a logged position: the source position and the
    group of entries that were sitting above it."""
    __slots__ = ("pos", "entries", "_hash")
    pos: int
    entries: tuple  # tuple of StackEntry

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.pos, self.entries))
            return h


@dataclass(slots=True, unsafe_hash=True)
class Config:
    direction: str  # "down" | "up"
    pos: int        # a TermInfo position
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
    typing derivation.  A position is its preorder number
    (core.number_term), and every table is a list indexed by it.

    Two dispatch records are built for every position, one for each
    direction the focus can move in.  Every position they name is an
    offset from the record's own, so a term's records do not depend on
    where it sits:

      * `down[pos] = (tag, children, arg)`: the position's tag above, its
        children, and by tag: for LAM the occurrence of the bound
        variable (None if unused), for LAM_VAR its binder, for LET_VAR
        (bound term, whether it has type !o, box depth of the occurrence,
        box depth of the binder), for CONST (name, the tape prefix ("p",)
        * rank it consumes, the tape prefixes of its rank children);
      * `up[pos] = (parent tag, role, parent, sibling)`, where role is
        the position's index among its parent's children and sibling the
        parent's other child; None at the root.

    `types`, `occ_binder` and `var_kind` are typecheck's lists
    (typecheck.Annotated), taken as they are.  The same pass fills
    `depths[pos]`, the box depth of each position (the number of enclosing
    boxes whose contents are not of base type), and finds the term's
    restriction `tier` (typecheck.term_tier) and `height`, the largest
    type height at any position.  A program assembled from its spec's
    blocks (LocalBlocks.program) brings all of these as its
    typecheck.Annotated.record, and nothing is walked.  `path(pos)` is
    the position as a tuple of child indices from the root, for text."""

    def __init__(self, ann):
        self.term = ann.term
        self.types = types = ann.types
        self.occ_binder = occ_binder = ann.occ_binder
        self.var_kind = var_kind = ann.var_kind
        if ann.record is not None:
            self.down, self.up, self.depths, self.tier, self.height = \
                ann.record
            return
        n = len(ann.nodes)
        self.depths = depths = [0] * n
        self.down = down = [None] * n
        self.up = [None] * n
        kids = ann.kids
        occurrences = []
        boxed = []      # (type, enclosing boxes) of the positions in a box
        self._walk(ann, occurrences, boxed)
        for pos in occurrences:
            kind = var_kind[pos]
            if kind == "theta":
                down[pos] = (FREE_VAR, (), None)
                continue
            off = occ_binder[pos]
            binder = pos + off
            if kind == "lam":
                down[pos] = (LAM_VAR, (), off)
                down[binder] = (LAM, kids[binder], -off)
            else:
                down[pos] = (LET_VAR, (), (off + 1,
                                           self.bound_is_base(binder),
                                           depths[pos], depths[binder]))
        # the types of a term are few objects each at many positions
        distinct = dict(zip(map(id, types), types)).values()
        thetas = ann.theta_types
        thetas = dict(zip(map(id, thetas), thetas)).values()
        self.height = max(map(type_height, distinct), default=0)
        self.tier = term_tier(distinct, boxed, thetas)

    def _walk(self, ann, occurrences, boxed):
        """Build the records of every position, but for the LAM and
        variable records that __init__ finishes once every occurrence is
        known.  A parent comes before its children, so it hands them its
        box depth and its count of enclosing boxes."""
        nodes, kids = ann.nodes, ann.kids
        types, depths, down, up = self.types, self.depths, self.down, self.up
        boxes = [0] * len(nodes)    # all the boxes enclosing a position
        for pos in range(len(nodes)):
            t = nodes[pos]
            depth, b = depths[pos], boxes[pos]
            if b:
                boxed.append((types[pos], b))
            cls = t.__class__
            if cls is App or cls is Let:
                tag = APP if cls is App else LET
                pair = kids[pos]
                k = pair[1]
                first, second = pos + 1, pos + k
                up[first] = (tag, 0, -1, k - 1)
                up[second] = (tag, 1, -k, 1 - k)
                depths[first] = depths[second] = depth
                boxes[first] = boxes[second] = b
                down[pos] = (tag, pair, None)
            elif cls is Lam or cls is Box:
                if cls is Lam:
                    tag = LAM
                elif types[pos].inner == O:
                    tag = BASE_BOX
                else:
                    tag, depth = BOX, depth + 1
                body = pos + 1
                up[body] = (tag, 0, -1, None)
                depths[body], boxes[body] = depth, b + (cls is Box)
                down[pos] = (tag, kids[pos], None)  # LAM's occurrence: below
            elif cls is Var:
                occurrences.append(pos)
            elif cls is Const:
                k = self.rank(pos)
                down[pos] = (CONST, (), (t.name, ("p",) * k, tuple(
                    ("p",) * i + ("o",) for i in range(k))))

    def rank(self, pos):
        A = self.types[pos]
        k = 0
        while isinstance(A, Arrow):
            k += 1
            A = A.right
        return k

    def bound_is_base(self, let_pos):
        A = self.types[let_pos + 1]     # the bound term, its first child
        return isinstance(A, Bang) and A.inner == O

    def path(self, pos):
        """The child indices from the root to a position."""
        up, steps = self.up, []
        record = up[pos]
        while record is not None:
            steps.append(record[1])
            pos += record[2]
            record = up[pos]
        return tuple(reversed(steps))

    def number(self, path):
        """The position at a path of child indices from the root."""
        pos = 0
        for i in path:
            pos += self.down[pos][1][i]
        return pos


# ---------------------------------------------------------------------------
# Local terms: every position of a program lies in the out-term or in one
# node's copy of its letter's rule, so a spec is typed block by block.

PH = "<>"


def placeholder(i):
    return Const(f"{PH}{i}")


@dataclass(eq=False)
class Block:
    """One typed local term: the out-term applied to one placeholder (kind
    "U"), or a letter's rule applied to one placeholder per child (kind
    "T").  Its compiled states show `term`, the subterm at position
    `start`, whose positions are numbered from `start` on.  `ph` maps the
    provenance of coming back up from a placeholder's node to the
    placeholder's position, `moves` maps that position to the head move
    down onto the node, and `occ` maps the path of each occurrence of a
    variable let-bound to a non-base term (the occurrences a pebble names)
    to its position.  `head` holds the tables of its positions before the
    placeholders, which come last: the applications to them and the rule
    or out-term, which LocalBlocks.program appends to a program's tables
    once per input node.  They are typecheck's nodes (from the rule or
    out-term on), kids, types, occ_binder, var_kind and theta_types, and
    info's down, up and depths."""
    kind: str
    term: object
    start: int
    info: TermInfo
    ph: dict
    moves: dict
    occ: dict
    head: tuple

    @cached_property
    def text(self):
        """`term`'s text and the span of each of its positions
        (core.render_term), rendered on first use."""
        return render_term(self.term)


class LocalBlocks:
    """The blocks of a lambda-transducer: the out-term's `u` and each
    letter's `t[letter]`, iterated in that order, and the largest type
    height among them.  A placeholder has the memory type, so the
    memory's tier and height count in every block.  A program's tables
    are assembled from the blocks' heads (program)."""

    def __init__(self, spec):
        consts = {f"{PH}{i}": spec.memory
                  for i in range(max([r for _, r in spec.input.letters],
                                     default=0) + 1)}

        def block(kind, term, start, local, places):
            """places: the (provenance, move, path) of each placeholder,
            to which `local` applies the out-term or the letter's rule."""
            ann = typecheck(local, alphabet=spec.output, consts=consts)
            info = TermInfo(ann)
            k = len(places)     # applications, then as many placeholders
            end = len(ann.nodes) - k
            ph = {prov: info.number(path) for prov, _, path in places}
            return Block(kind, term, start, info, ph,
                         {ph[prov]: move for prov, move, _ in places},
                         {info.path(pos): pos
                          for pos, var in enumerate(info.var_kind)
                          if var == "let" and not info.bound_is_base(
                              pos + info.occ_binder[pos])},
                         (ann.nodes[k:end], ann.kids[:end], ann.types[:end],
                          ann.occ_binder[:end], ann.var_kind[:end],
                          ann.theta_types, info.down[:end], info.up[:end],
                          info.depths[:end]))

        self.u = block("U", spec.norm_out, 1,
                       App(spec.norm_out, placeholder(0)),
                       [("self", "stay", (1,))])
        self.t = {}
        for a, k in spec.input.letters:
            t = spec.norm_rules[a]
            for i in range(1, k + 1):
                t = App(t, placeholder(i))
            self.t[a] = block("T", t, 0, t, [
                (("from-child", i), ("to-child", i), (0,) * (k - i) + (1,))
                for i in range(1, k + 1)])
        self.height = max(b.info.height for b in self)
        self.output = spec.output

    def __iter__(self):
        yield self.u
        yield from self.t.values()

    def program(self, term, tau):
        """The typecheck.Annotated of `term`, the program of the input
        tree tau (transducer.program_term), typed against o under the
        output alphabet: typecheck's tables and, as its `record`, the
        TermInfo facts (down, up, depths, tier, height), assembled in one
        preorder pass over tau instead of by walking the program.  The
        program's root starts every table, then the out-block's head.
        Each input node extends every table by its letter block's head,
        at the offset where its expansion starts, and patches what depends
        on that offset: the records of the application whose argument it
        is (its `kids` and `down` and its function child's `up`) and its
        own root's `up`.  The theta types come in preorder, the order
        typecheck meets them, and the tier and height are the largest of
        the blocks used."""
        nodes, kids, types, occ_binder, var_kind, theta_types, down, up, \
            depths = map(list, self.u.head)
        nodes.insert(0, term)
        blocks = self.t
        used = {}
        todo = [(tau, term.arg, 0)]     # input node, its term, its parent
        while todo:
            node, t, parent = todo.pop()
            pos = len(kids)
            off = pos - parent
            kids[parent] = pair = (1, off)
            down[parent] = (APP, pair, None)
            up[parent + 1] = (APP, 0, -1, off - 1)
            block = used[node.label] = blocks[node.label]
            head = block.head
            cs = node.children
            k = len(cs)
            for i in range(k):  # the application at pos + i takes child k-i
                nodes.append(t)
                todo.append((cs[k - 1 - i], t.arg, pos + i))
                t = t.fn
            nodes += head[0]
            kids += head[1]
            types += head[2]
            occ_binder += head[3]
            var_kind += head[4]
            theta_types += head[5]
            down += head[6]
            up += head[7]
            depths += head[8]
            up[pos] = (APP, 1, -off, 1 - off)
        infos = [self.u.info, *(block.info for block in used.values())]
        ann = Annotated(term, types[0])
        ann.nodes, ann.kids, ann.types, ann.occ_binder, ann.var_kind, \
            ann.theta_types = nodes, kids, types, occ_binder, var_kind, \
            theta_types
        ann.record = (down, up, depths, max(info.tier for info in infos),
                      max(info.height for info in infos))
        return ann


class IamMachine(Machine):
    def __init__(self, info, variant):
        if variant not in VARIANT_MAX_TIER:
            raise LamtransError(f"unknown machine variant {variant!r}")
        self.info = info
        if self.info.tier > VARIANT_MAX_TIER[variant]:
            raise ClassificationTooHigh(
                f"term tier is {TIER_NAMES[self.info.tier]}; the {variant!r} "
                "machine does not support it")
        self.variant = variant

    def initial(self):
        return Config("down", 0, ())

    # -- the rules ----------------------------------------------------------

    def advance(self, cfg, budget):
        """The machine's rules, as one loop over the fields of the current
        configuration held in local variables (treegen.Machine.advance).
        A Config is built only for the children of an output node and where
        the loop stops; `step` is this loop run for one step.  A record
        names positions as offsets from its own, and a first child is the
        next position.  A let-bound variable of base type (every one on
        apa) enters its bound term with the tape it came with and the log
        of the binder, whichever occurrence it is: the loop stops at the
        configuration that step reaches and returns it as a shared point
        (treegen.Machine.advance)."""
        info_down, info_up, v = self.info.down, self.info.up, self.variant
        down = cfg.direction == "down"
        pos, tape, log, flag = cfg.pos, cfg.tape, cfg.log, cfg.flag
        if pos.__class__ is not int or not 0 <= pos < len(info_down):
            raise LamtransError(f"no position {pos!r} in the program term")
        n = 0
        while n < budget:
            if down:
                tag, kids, arg = info_down[pos]
                if tag == APP:
                    pos, tape = pos + 1, ("p",) + tape
                elif tag == LAM:
                    top = tape[0] if tape else None
                    if top == "p":
                        pos, tape = pos + 1, tape[1:]
                    elif top == "o" and arg is not None:
                        down, pos, tape = False, pos + arg, tape[1:]
                    else:
                        break   # with "o": the bound variable is never used
                elif tag == LAM_VAR:
                    down, pos, tape = False, pos + arg, ("o",) + tape
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
                    pos += kids[1]
                elif tag == LET_VAR:
                    bound, base, bn, bm = arg
                    if v == "pa":
                        raise InternalInvariantError("let rules in the plain "
                                                     "machine")
                    if v == "apa" or base:
                        if v == "ss" and flag != bn:
                            raise InternalInvariantError("nesting counter "
                                                         "out of sync")
                        # forget the log entries for the boxes being exited
                        # (apa has none); every occurrence of the variable
                        # enters the bound term here, so runs meet here
                        pos, log = pos + bound, log[bn - bm:]
                        if v == "ss":
                            flag = bm
                        cfg = Config("down", pos, tape, log, flag)
                        return cfg, cfg, n + 1
                    elif bm != 0:
                        raise InternalInvariantError("non-base let binder "
                                                     "under a box")
                    elif v == "d1":
                        tape = (LogEntry(pos, log),) + tape
                        pos, log = pos + bound, ()
                    else:
                        log = (StackEntry(pos, log[:flag]),) + log[flag:]
                        pos, flag = pos + bound, 0
                elif tag == BASE_BOX or tag == BOX and v == "apa":
                    pos += 1
                elif tag == BOX:
                    if v == "d1":
                        if log:
                            raise InternalInvariantError("entering a box with "
                                                         "a nonempty log")
                        if not tape or not isinstance(tape[0], LogEntry):
                            break
                        pos, tape, log = pos + 1, tape[1:], (tape[0],)
                    # ss: mark that the top stack entry now plays the log role
                    elif flag != 0:
                        raise InternalInvariantError("entering a box with "
                                                     "nonzero nesting counter")
                    else:
                        pos, flag = pos + 1, 1
                else:
                    break       # free unrestricted variable: no rule
            else:
                up = info_up[pos]
                if up is None:
                    break
                ptag, role, parent, sibling = up
                if ptag == APP and role == 1:
                    down, pos, tape = True, pos + sibling, ("o",) + tape
                elif ptag == APP:
                    top = tape[0] if tape else None
                    if top == "p":
                        pos, tape = pos + parent, tape[1:]
                    elif top == "o":
                        down, pos, tape = True, pos + sibling, tape[1:]
                    else:
                        break
                elif ptag == LAM:
                    pos, tape = pos + parent, ("p",) + tape
                elif ptag == LET and role == 1:
                    pos += parent
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
                    pos, tape, log = pos + parent, (log[0],) + tape, ()
                elif flag != 1:
                    raise InternalInvariantError("exiting a box with nesting "
                                                 "counter != 1")
                else:
                    pos, flag = pos + parent, 0
            n += 1
        return None, Config("down" if down else "up", pos, tape, log, flag), n

    # -- rendering and invariants -----------------------------------------

    @cached_property
    def text(self):
        """The program's text and the span of each of its positions
        (core.render_term), rendered on first use."""
        return render_term(self.info.term)

    def render(self, cfg):
        """A configuration as a trace shows it: the program with its focus
        marked (core.marked), then the tape, and the log and counter of
        the variants that have them.  The program is rendered once, on
        the first call, and each call marks the focus by slicing; a run
        that is not traced renders nothing."""
        path = self.info.path
        text, spans = self.text
        term = marked(text, spans[cfg.pos], cfg.direction)
        s = f'({term}, "{render_tape(cfg.tape, path)}"'
        if self.variant == "d1":
            s += f', "{render_tape(cfg.log, path)}"'
        elif self.variant == "ss":
            s += f', "{render_tape(cfg.log, path)}", {cfg.flag}'
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


def render_tape(tape, path):
    """A tape or log as text, each logged position written as its path
    (`path`, a TermInfo's) with dots."""
    out = []
    for e in tape:
        if e in ("p", "o"):
            out.append(e)
        else:
            pos = ".".join(map(str, path(e.pos))) or "e"
            inner = e.log if isinstance(e, LogEntry) else e.entries
            out.append("{" + pos + "|" + render_tape(inner, path) + "}")
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
    """Run a token machine on a typed closed term of base type.  With
    `check`, the run pauses before each step, which it then takes as a
    one-step `advance`, to check the invariants of the configuration about
    to be stepped."""
    machine = iam_machine(ann, variant)
    if not check:
        return treegen.run(machine, machine.initial(), fuel)
    paused = treegen.drive(machine, machine.initial(), fuel, True)
    try:
        while True:
            machine.check_invariants(next(paused)[0])
    except StopIteration as stop:
        return stop.value
