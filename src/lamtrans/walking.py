"""Tree-walking transducers with provenance, their reversibility analysis,
and invisible-pebble tree transducers, run by one walking machine.

A walking configuration records the current state, the node of the input
tree the head sits on, and where the head arrived from (its provenance:
the parent, the node itself, or the i-th child).  Transitions map
(letter, state, provenance) to an output tree whose leaves are
(state, move) pairs; at the root a separate map applies which never
receives a from-parent key and never emits a to-parent move.

Pebble transducers additionally carry a stack of colored pebbles placed on
input nodes; only a top pebble lying on the current node is observable,
and a transition may ignore it (pebble ANY).  Putting and removing pebbles
are moves that stay put.  A tree-walking transducer is the pebble
transducer that never puts a pebble, so one machine runs both: its
configurations carry a pebble stack that stays empty for a TWT."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .core import LamtransError, RankedAlphabet, SyntaxErr, tree_to_str
from .transducer import (ALPHABET_LINES, SpecError, load_file,
                         parse_directives, parse_int)
from .treegen import FNode, Machine


class NotReversible(LamtransError):
    pass


# Provenance values: "from-parent", "self", ("from-child", i) with i >= 1.
# Move values: "to-parent", "stay", ("to-child", i), ("put", color),
# "remove".  The pebble moves only occur in pebble transducers.

def prov_to_str(p):
    if isinstance(p, tuple):
        return f"from-child {p[1]}"
    return p


def move_to_str(m):
    if isinstance(m, tuple):
        return (f"to-child {m[1]}" if m[0] == "to-child" else f"put {m[1]}")
    return m


# The pebble of an IPTT transition that applies whatever pebble is visible
# (or none); a transition for the exact pebble takes precedence.
ANY = "*"

# The kinds of move a plan record makes.
STAY, TO_PARENT, TO_CHILD, PUT, REMOVE = range(5)


# ---------------------------------------------------------------------------
# Specs

class SharedRecord(tuple):
    """A plan record whose (state, move) leaf occurs more than once in its
    (letter, is-root) map: two configurations can step to the configuration
    that its move reaches, so the machine stops there (a shared point, see
    treegen)."""
    __slots__ = ()


class WalkingSpec:
    """The validation, plans and writer of both spec classes, over
    transitions(): (key, is_root, pebble, image) for each transition, where
    a key starts with (letter, state, provenance) and a TWT's pebble is
    ANY.  A subclass stores the transitions, writes its own delta_lines(),
    and says whether it has `pebbles` and which `colors` it declares.

    The transitions are checked and planned for WalkingMachine in one pass
    when the spec is built, so the tables must not change afterwards.  A
    state or color that the spec's file format cannot hold, a state list
    that names a state twice and an initial state that it does not name
    are refused then too, so that every spec reads back as to_str writes
    it.
    `plans` maps each (letter, is-root) to a map from (state, provenance)
    to a dict from the pebble (a color, None, or ANY) to the plan of the
    image: the image with each (state, move) leaf decoded to its (state,
    move kind, argument) record (see `_record`).  A dict whose only pebble
    is ANY -- every one in a TWT -- is replaced by its plan.

    The records are counted, then marked.  The walk that plans the images
    counts each record of a (letter, is-root) map, bare or in an image;
    then each plan that is one record counted more than once -- a
    duplicated leaf, as `inverse` finds them -- becomes a SharedRecord.
    Two configurations can step to the configuration its move reaches, so
    the machine stops there and the run's memo starts a chain there (a
    shared point, see treegen).  A leaf of a bigger image is not marked:
    a chain starts at each one anyway.  The marks are in no file format,
    and a reversible spec, having no duplicated leaf, has none."""

    def __post_init__(self):
        for i, c in enumerate(self.colors):
            try:
                problem = _color_problem(c, self.colors[:i])
            except SyntaxErr:       # a quote that none closes
                problem = f"color {c!r} is not one word"
            if problem:
                raise SpecError(f"{self.name}: {problem}")
        if len(set(self.states)) < len(self.states):
            q = next(q for i, q in enumerate(self.states)
                     if q in self.states[:i])
            raise SpecError(f"{self.name}: duplicate state {q!r}")
        if self.initial not in self.states:
            raise SpecError(f"{self.name}: initial state {self.initial!r} "
                            f"is not among the states")
        names = dict.fromkeys(self.states)  # every state named, in order
        maps = {}   # (letter, is-root) -> (its plans, its records' counts)
        for key, is_root, z, img in self.transitions():
            a, q, p = key[:3]
            names[q] = None
            if a not in self.input:
                raise SpecError(f"{self.name}: unknown letter {a!r}")
            if is_root and p == "from-parent":
                raise SpecError(f"{self.name}: root map keyed by "
                                f"from-parent: {key}")
            if z not in (None, ANY) and z not in self.colors:
                raise SpecError(f"{self.name}: unknown color {z!r}")
            got = maps.get((a, is_root))
            if got is None:
                got = maps[a, is_root] = {}, {}
            by_state, counts = got
            by_state.setdefault((q, p), {})[z] = self._plan(
                img, key, is_root, names, counts)
        self.plans = {m: by_state for m, (by_state, _) in maps.items()}
        for by_state, counts in maps.values():
            if max(counts.values(), default=0) > 1:     # else no marks
                for by_pebble in by_state.values():
                    for z, plan in by_pebble.items():
                        if plan.__class__ is tuple and counts[plan] > 1:
                            by_pebble[z] = SharedRecord(plan)
            for key, by_pebble in by_state.items():
                if len(by_pebble) == 1 and ANY in by_pebble:
                    by_state[key] = by_pebble[ANY]
        for q in names:
            if "#" in q:
                raise SpecError(f"{self.name}: state {q!r} holds '#', which "
                                f"starts a comment in a spec file")
            if "".join(q.splitlines()) != q:
                raise SpecError(f"{self.name}: state {q!r} holds a line "
                                f"break, which ends a spec file's line")

    def _plan(self, img, key, is_root, names, counts):
        """The plan of the image of transition `key`, made in one walk that
        checks each node's arity, notes each leaf's state in `names` and
        decodes each leaf (_record).  The walk takes children from right
        to left, and an arity mismatch anywhere in the image is refused
        before the leftmost leaf that cannot be decoded.

        The same walk counts each record it decodes in `counts`, the
        record counts of the transition's map, from which the map's plans
        are marked once they are all made."""
        if img.__class__ is not FNode:
            names[img[0]] = None
            record = self._record(img, key, is_root)
            counts[record] = counts.get(record, 0) + 1
            return record
        rank, bad = self.output.rank, None
        # (node, its children's plans so far, rightmost first); the first
        # entry holds the image
        stack = [(FNode(None, (img,)), [])]
        while True:
            t, done = stack[-1]
            if len(done) < len(t.children):
                c = t.children[-1 - len(done)]
                if c.__class__ is FNode:
                    if len(c.children) != rank(c.label):
                        raise SpecError(f"{self.name}: arity mismatch at "
                                        f"{c.label!r}")
                    stack.append((c, []))
                    continue
                names[c[0]] = None
                try:
                    c = self._record(c, key, is_root)
                except SpecError as e:
                    bad = e
                else:
                    counts[c] = counts.get(c, 0) + 1
                done.append(c)
                continue
            stack.pop()
            if not stack:
                if bad:
                    raise bad
                return done[0]
            stack[-1][1].append(FNode(t.label, tuple(reversed(done))))

    def _record(self, leaf, key, is_root):
        """The record of a (state, move) leaf of the image of transition
        `key`: (state, move kind, argument), the argument being the 0-based
        child of TO_CHILD and the color of PUT.  Refuses a move that is
        none of the known ones, or one that the transition cannot make."""
        q, m = leaf
        if m == "stay":
            return q, STAY, None
        if m == "to-parent":
            if is_root:
                raise SpecError(f"{self.name}: root image moves "
                                f"to-parent: {key}")
            return q, TO_PARENT, None
        if m == "remove" or isinstance(m, tuple) and len(m) == 2 and \
                m[0] == "put":
            if not self.pebbles:
                raise SpecError(f"{self.name}: pebble move in a tree-walking "
                                f"transducer: {key[0]} {key[1]}")
            if m == "remove":
                return q, REMOVE, None
            if m[1] not in self.colors:
                raise SpecError(f"{self.name}: unknown color {m[1]!r}")
            return q, PUT, m[1]
        if not (isinstance(m, tuple) and len(m) == 2 and m[0] == "to-child"
                and isinstance(m[1], int)):
            raise SpecError(f"{self.name}: unknown move {m!r}")
        rank = self.input.rank(key[0])
        if not 1 <= m[1] <= rank:
            raise SpecError(f"{self.name}: move to-child {m[1]} at letter "
                            f"{key[0]!r} of rank {rank}")
        return q, TO_CHILD, m[1] - 1

    @cached_property
    def stays(self):
        """The chains of stays, built on first use: for each (letter,
        is-root), a map from a state q entered at "self" to (the state that
        ends the chain of unmarked STAY record plans from (q, "self"), the
        chain's length k >= 1).  A chain stops before a plan that is a dict
        by visible pebble, an image, a record of another move, a marked
        record (SharedRecord) or a missing key, so where it ends depends on
        neither the node nor the pebbles, and a jump along it never passes
        a shared point.  A chain that comes back to a state it has passed
        never ends, and is left out: its stays are taken one at a time
        until the fuel runs out."""
        out = {}
        for key, by_state in self.plans.items():
            chains = out[key] = {}
            for (start, p), plan in by_state.items():
                if p != "self":
                    continue
                seen = {start}
                while plan.__class__ is tuple and plan[1] == STAY:  # unmarked
                    q = plan[0]
                    if q in seen:       # a cycle of stays
                        break
                    seen.add(q)
                    plan = by_state.get((q, "self"))
                else:
                    if len(seen) > 1:
                        chains[start] = q, len(seen) - 1
        return out

    @cached_property
    def inverse(self):
        """The reversibility analysis, built on first use.  A spec is
        reversible when, letter by letter, every (state, move) leaf occurs
        at most once across the map's images -- and then as the only leaf
        of its image.  If it is not, this is a Witness: the first duplicated
        leaf, else the first image with two leaves.  If it is, this maps
        (letter, is-root) to a dict from each leaf to the key of the
        transition whose image holds it."""
        by_map = {}
        for key, is_root, _, img in self.transitions():
            by_map.setdefault((key[0], is_root), []).append((key, img))
        duplicated = multi = None
        out = {}
        for (a, is_root), entries in by_map.items():
            map_name = f"{'delta-root' if is_root else 'delta'}[{a}]"
            seen = out[a, is_root] = {}
            for key, img in sorted(entries, key=key_text):
                leaves = image_leaves(img)
                for leaf in leaves:
                    if leaf in seen and duplicated is None:
                        duplicated = Witness(map_name, seen[leaf], key, leaf)
                    if len(leaves) > 1 and multi is None:
                        multi = Witness(map_name, key, key, leaf)
                    seen.setdefault(leaf, key)
        return duplicated or multi or out

    def to_str(self):
        """The spec in its file format; a subclass writes its delta
        lines."""
        lines = [f"input {self.input.to_str()}",
                 f"output {self.output.to_str()}"]
        if self.pebbles:
            lines.append("colors { " + ", ".join(self.colors) + " }")
        for q in self.states:
            suffix = " init" if q == self.initial else ""
            lines.append(f"state {quote_state(q)}{suffix}")
        lines.extend(self.delta_lines())
        return "\n".join(lines) + "\n"


@dataclass
class TwtSpec(WalkingSpec):
    input: RankedAlphabet
    output: RankedAlphabet
    states: list
    initial: str
    delta: dict        # (letter, state, prov) -> FNode | (state, move) leaf
    delta_root: dict   # same keys, prov != "from-parent"
    name: str = "twt"
    pebbles = False
    colors = ()

    def transitions(self):
        for is_root, table in ((False, self.delta), (True, self.delta_root)):
            for key, img in table.items():
                yield key, is_root, ANY, img

    def delta_lines(self):
        for kind, table in [("delta", self.delta),
                            ("delta-root", self.delta_root)]:
            for (a, q, p), img in sorted(table.items(), key=key_text):
                yield (f"{kind} {a} {quote_state(q)} {prov_to_str(p)}"
                       f" = {image_to_str(img)}")


@dataclass
class IpttSpec(WalkingSpec):
    input: RankedAlphabet
    output: RankedAlphabet
    states: list
    initial: str
    colors: list
    # (letter, state, prov, is_root, color | None | ANY) -> image
    delta: dict
    name: str = "iptt"
    pebbles = True

    def transitions(self):
        for key, img in self.delta.items():
            yield key, key[3], key[4], img

    def delta_lines(self):
        for (a, q, p, is_root, z), img in sorted(self.delta.items(),
                                                 key=key_text):
            yield (f"delta {a} {quote_state(q)} {prov_to_str(p)} "
                   f"{'root' if is_root else 'nonroot'} "
                   f"pebble {z if z is not None else 'NONE'}"
                   f" = {image_to_str(img)}")


def key_text(entry):
    """The sort key of a (transition key, image) pair: the key's text.  No
    key's text is a prefix of another's, so this is the order of the
    pairs' own text, without writing out images of any depth."""
    return str(entry[0])


def image_leaves(img):
    """The (state, move) leaves of an image, left to right."""
    out, todo = [], [img]
    while todo:
        t = todo.pop()
        if t.__class__ is FNode:
            todo.extend(reversed(t.children))
        else:
            out.append(t)
    return out


def image_map_leaves(img, f):
    """The image with each leaf replaced by f(leaf), called left to
    right."""
    if img.__class__ is not FNode:
        return f(img)
    stack = [(img, [])]
    while True:
        t, done = stack[-1]
        if len(done) < len(t.children):
            c = t.children[len(done)]
            if c.__class__ is FNode:
                stack.append((c, []))
            else:
                done.append(f(c))
            continue
        stack.pop()
        built = FNode(t.label, tuple(done))
        if not stack:
            return built
        stack[-1][1].append(built)


# ---------------------------------------------------------------------------
# Running

@dataclass(slots=True, unsafe_hash=True)
class WalkConfig:
    state: str
    prov: object
    node: int             # the node's number in WalkingMachine.nodes
    pebbles: tuple = ()   # (color, node number) pairs, top first


class WalkingMachine(Machine):
    """Runs a TwtSpec or an IpttSpec on an input tree.

    The input is indexed once, and checked against the spec's input
    alphabet in the same walk (a tree that does not fit gets
    Tree.validate's error): `nodes[i]` is (the spec's plans for node
    i's letter and rootness, the parent's number, the first child's
    number, the provenance of arriving at the parent from node i, the
    letter, the spec's stay chains for the letter and rootness); the root
    is node 0 and the children of a node get consecutive numbers, larger
    than the node's.  A configuration, and each pebble, names its node by
    that number, so a move is an index step and the machine keeps nothing
    but `spec` and `nodes`.  `path` gives a node's position, for the text
    `render` writes."""

    def __init__(self, spec, tau):
        self.spec = spec
        plans, stays, none = spec.plans, spec.stays, {}
        ranks, fits = spec.input.ranks, True
        self.nodes = nodes = [None]
        todo = [(tau, 0, None, None)]
        while todo:
            t, i, parent, back = todo.pop()
            first, arity = len(nodes), len(t.children)
            if ranks.get(t.label) != arity:
                fits = False
            key = t.label, parent is None
            nodes[i] = (plans.get(key, none), parent, first, back, t.label,
                        stays.get(key, none))
            nodes.extend([None] * arity)
            todo.extend([(c, first + k, i, ("from-child", k + 1))
                         for k, c in enumerate(t.children)])
        if not fits:
            tau.validate(spec.input)

    def initial(self):
        return WalkConfig(self.spec.initial, "self", 0)

    def path(self, i):
        """The position of node i: its child indices from the root down."""
        out = []
        while i:
            _, i, _, back, *_ = self.nodes[i]
            out.append(back[1] - 1)
        return tuple(reversed(out))

    def advance(self, cfg, budget):
        """treegen.Machine.advance, as one loop over the fields of the
        current configuration, at node i, held in local variables; `step`
        is its one-step run.  Wherever a state is entered at "self" (in
        `cfg`, or by a stay, put or remove), its chain of stays (see
        WalkingSpec.stays) is taken in one jump, counted as its k steps,
        when the budget has room for all of them; otherwise its stays are
        taken one at a time.  The move of a SharedRecord reaches a
        configuration that another configuration can step to as well:
        the loop stops there and returns it as a shared point."""
        state, prov, i, pebbles = cfg.state, cfg.prov, cfg.node, cfg.pebbles
        nodes = self.nodes
        if i.__class__ is not int or not 0 <= i < len(nodes):
            raise SpecError(f"no node {i!r} in the input")
        entry = nodes[i]
        n = 0
        if prov == "self":
            jump = entry[5].get(state)
            if jump is not None and jump[1] <= budget:
                state, n = jump
        while n < budget:
            plan = entry[0].get((state, prov))
            if plan.__class__ is dict:      # an IPTT's: by the visible pebble
                z = pebbles[0][0] if pebbles and pebbles[0][1] == i else None
                plan = plan.get(z, plan.get(ANY))
            if plan is None:
                break
            n += 1
            cls = plan.__class__
            if cls is FNode:
                return self._image(plan, i, pebbles), \
                    WalkConfig(state, prov, i, pebbles), n
            q, kind, arg = plan
            if kind == TO_CHILD:
                state, prov, i = q, "from-parent", entry[2] + arg
                entry = nodes[i]
            elif kind == TO_PARENT:
                state, prov, i = q, entry[3], entry[1]
                entry = nodes[i]
            else:
                if kind == STAY:
                    state = q
                elif kind == PUT:
                    state, pebbles = q, ((arg, i),) + pebbles
                elif pebbles and pebbles[0][1] == i:     # REMOVE
                    state, pebbles = q, pebbles[1:]
                else:
                    raise SpecError("remove with no visible pebble")
                prov = "self"
                if cls is tuple:
                    jump = entry[5].get(q)
                    if jump is not None and n + jump[1] <= budget:
                        state, n = jump[0], n + jump[1]
                    continue
            if cls is not tuple:
                cfg = WalkConfig(state, prov, i, pebbles)
                return cfg, cfg, n
        return None, WalkConfig(state, prov, i, pebbles), n

    def _image(self, plan, i, pebbles):
        """The image plan `plan` with each leaf record replaced by the
        configuration that its move reaches from node i: the moves of
        `advance`, without a jump, as each leaf starts a chain of its
        own."""
        entry = self.nodes[i]

        def leaf(record):
            q, kind, arg = record
            if kind == STAY:
                return WalkConfig(q, "self", i, pebbles)
            if kind == TO_CHILD:
                return WalkConfig(q, "from-parent", entry[2] + arg, pebbles)
            if kind == TO_PARENT:
                return WalkConfig(q, entry[3], entry[1], pebbles)
            if kind == PUT:
                return WalkConfig(q, "self", i, ((arg, i),) + pebbles)
            if pebbles and pebbles[0][1] == i:     # REMOVE
                return WalkConfig(q, "self", i, pebbles[1:])
            raise SpecError("remove with no visible pebble")
        return image_map_leaves(plan, leaf)

    def render(self, cfg):
        out = (f"{cfg.state} {prov_to_str(cfg.prov)} "
               f"@{self._path_text(cfg.node)}")
        if not self.spec.pebbles:
            return out
        peb = " ".join(f"{c}@{self._path_text(i)}" for c, i in cfg.pebbles)
        return f"{out} [{peb}]"

    def _path_text(self, i):
        return ".".join(map(str, self.path(i))) or "e"


# the names callers use for the machine of each spec kind
TwtMachine = IpttMachine = WalkingMachine


# ---------------------------------------------------------------------------
# Reversibility

@dataclass
class Witness:
    map_name: str
    key1: tuple
    key2: tuple
    leaf: tuple

    def __str__(self):
        q, m = self.leaf
        where = (f"keys {self.key1} and {self.key2}"
                 if self.key1 != self.key2 else f"key {self.key1}")
        return (f"leaf ({q}, {move_to_str(m)}) duplicated in map "
                f"{self.map_name}, {where}")


def check_reversible(spec):
    """Whether the spec is reversible (see WalkingSpec.inverse): (True,
    None) or (False, witness)."""
    inverse = spec.inverse
    if isinstance(inverse, Witness):
        return False, inverse
    return True, None


def predecessor(machine, cfg):
    """The unique configuration that steps to cfg in a reversible spec,
    or None for the initial configuration / anything unreached."""
    inverse = machine.spec.inverse
    if isinstance(inverse, Witness):
        raise NotReversible(str(inverse))
    nodes, i = machine.nodes, cfg.node
    _, parent, first, back, *_ = nodes[i]
    if cfg.prov == "from-parent":
        if parent is None:
            return None
        prev, want = parent, ("to-child", back[1])
    elif cfg.prov == "self":
        prev, want = i, "stay"
    else:
        prev, want = first + cfg.prov[1] - 1, "to-parent"
        if prev >= len(nodes) or nodes[prev][1] != i:
            return None
    key = inverse.get((nodes[prev][4], prev == 0), {}).get((cfg.state, want))
    return None if key is None else WalkConfig(key[1], key[2], prev)


# ---------------------------------------------------------------------------
# Text format

def quote_state(q):
    if q.replace("_", "a").replace("-", "a").isalnum():
        return q
    return '"' + q.replace("\\", "\\\\").replace('"', '\\"') + '"'


# a token of a walking-spec line: a quoted name with backslash escapes, one
# of (),= or a word; a quote that no other one closes is an error
_WTOKEN = re.compile(r'"((?:\\.|[^"\\])*)"|([(),=])|([^\s(),="]+)|"', re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)


def _wtokenize(text):
    """The tokens of a walking-spec line: ("str", name) for a quoted name,
    (c, c) for c one of (),= and ("word", w) for a word."""
    toks = []
    for m in _WTOKEN.finditer(text):
        name, punct, word = m.groups()
        if word is not None:
            toks.append(("word", word))
        elif punct is not None:
            toks.append((punct, punct))
        elif name is not None:
            toks.append(("str", _ESCAPE.sub(r"\1", name)))
        else:
            raise SyntaxErr("unterminated quoted state name")
    return toks


class _ImageParser:
    def __init__(self, toks, output):
        self.toks = toks
        self.i = 0
        self.output = output

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def eat(self, kind=None):
        if self.i >= len(self.toks):
            raise SyntaxErr("unexpected end of transition image")
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise SyntaxErr(f"expected {kind!r}, got {tok[1]!r}")
        self.i += 1
        return tok

    def end(self, what):
        """Refuses the tokens left after the line's last part."""
        if self.i < len(self.toks):
            raise SyntaxErr(f"trailing input after {what}: "
                            f"{self.toks[self.i][1]!r}")

    def image(self):
        """An image, the rest of the line: a (state, move) leaf or an
        output letter with its images as children, parsed with a stack of
        unclosed nodes."""
        open_nodes = []     # (label, children so far) of each unclosed node
        while True:
            kind, val = self.peek()
            if kind == "(":
                self.eat()
                q = self.state()
                self.eat(",")
                m = self.move()
                self.eat(")")
                node = (q, m)
            elif kind in ("word", "str"):
                self.eat()
                if val not in self.output:
                    raise SyntaxErr(f"unknown output letter {val!r}")
                if self.peek()[0] == "(":
                    self.eat()
                    open_nodes.append((val, []))
                    continue
                node = FNode(val, ())
            else:
                raise SyntaxErr(f"unexpected token {val!r} in transition "
                                f"image")
            # hand the finished image to its parent, closing parents as we go
            while open_nodes:
                open_nodes[-1][1].append(node)
                if self.peek()[0] == ",":
                    self.eat()
                    break
                self.eat(")")
                label, kids = open_nodes.pop()
                node = FNode(label, tuple(kids))
            else:
                self.end("transition image")
                return node

    def state(self):
        kind, val = self.eat()
        if kind not in ("word", "str"):
            raise SyntaxErr(f"expected a state name, got {val!r}")
        return val

    def move(self):
        _, val = self.eat("word")
        if val in ("to-parent", "stay", "remove"):
            return val
        if val == "to-child":
            return ("to-child", parse_int(self.eat("word")[1]))
        if val == "put":
            return ("put", self.eat("word")[1])
        raise SyntaxErr(f"unknown move {val!r}")


def image_to_str(img):
    return tree_to_str(img, FNode, lambda leaf: f"({quote_state(leaf[0])}, "
                                                f"{move_to_str(leaf[1])})")


def _parse_prov(parser):
    _, val = parser.eat("word")
    if val in ("from-parent", "self"):
        return val
    if val == "from-child":
        return ("from-child", parse_int(parser.eat("word")[1]))
    raise SyntaxErr(f"unknown provenance {val!r}")


def _state_line(rest, got, at):
    """`state NAME [init]`: the name and whether it is initial."""
    p = _ImageParser(_wtokenize(rest), None)
    q, init = p.state(), p.peek()[1] == "init"
    if init:
        p.eat()
    p.end("state line")
    return q, init


def _transition_key(rest, got):
    """The parser over a transition line, advanced past its
    `LETTER STATE PROVENANCE` start, and that start."""
    if "input" not in got or "output" not in got:
        raise SyntaxErr("alphabets must come before transitions")
    p = _ImageParser(_wtokenize(rest), got["output"])
    a = p.eat()[1]
    if a not in got["input"]:
        raise SyntaxErr(f"unknown letter {a!r}")
    return p, a, p.state(), _parse_prov(p)


def _twt_delta_line(rest, got, at):
    p, a, q, prov = _transition_key(rest, got)
    p.eat("=")
    return (a, q, prov), p.image()


def _iptt_delta_line(rest, got, at):
    p, a, q, prov = _transition_key(rest, got)
    _, rootness = p.eat("word")
    if rootness not in ("root", "nonroot"):
        raise SyntaxErr(f"expected root|nonroot, got {rootness!r}")
    if p.eat("word")[1] != "pebble":
        raise SyntaxErr("expected 'pebble'")
    _, z = p.eat("word")
    p.eat("=")
    return (a, q, prov, rootness == "root", None if z == "NONE" else z), \
        p.image()


def _colors_line(rest, got, at):
    """`colors { a, b, c }`: the colors (see _color_problem)."""
    body = rest.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise SyntaxErr("expected colors { a, b, c }")
    body = body[1:-1].strip()
    colors = [c.strip() for c in body.split(",")] if body else []
    for i, c in enumerate(colors):
        problem = _color_problem(c, colors[:i])
        if problem:
            raise SyntaxErr(problem)
    return colors


def _color_problem(c, earlier):
    """Why c cannot follow the colors `earlier` in a colors line, or None:
    a color is one word that a `pebble` key and a `put` move can name, not
    the file's words for no pebble (NONE) and any pebble (*), and without
    the '#' that starts a comment."""
    if not c:
        return "empty entry in colors list"
    if _wtokenize(c) != [("word", c)]:
        return f"color {c!r} is not one word"
    if c in ("NONE", ANY):
        return f"{c!r} is not a color name"
    if "#" in c:
        return f"color {c!r} holds '#', which starts a comment"
    if c in earlier:
        return f"duplicate color {c!r}"
    return None


def _parse_walking(text, name, handlers, tables):
    """The directive values, the state list and the initial state of a
    .twt or .iptt file whose transition directives are `tables`."""
    got = parse_directives(text, name,
                           {**ALPHABET_LINES, "state": _state_line,
                            **handlers},
                           required=("input", "output", "state"),
                           repeated=("state",) + tables)
    initial = [q for q, init in got["state"] if init]
    if not initial:
        raise SpecError(f"{name}: missing initial state")
    return got, [q for q, _ in got["state"]], initial[-1]


def parse_twt(text, name="twt"):
    got, states, initial = _parse_walking(
        text, name, {"delta": _twt_delta_line, "delta-root": _twt_delta_line},
        ("delta", "delta-root"))
    return TwtSpec(got["input"], got["output"], states, initial,
                   dict(got["delta"]), dict(got["delta-root"]), name=name)


def parse_iptt(text, name="iptt"):
    got, states, initial = _parse_walking(
        text, name, {"colors": _colors_line, "delta": _iptt_delta_line},
        ("delta",))
    return IpttSpec(got["input"], got["output"], states, initial,
                    got.get("colors", []), dict(got["delta"]), name=name)


def load_twt(path):
    return load_file(parse_twt, path)


def load_iptt(path):
    return load_file(parse_iptt, path)
