"""Compiling lambda-transducers to walking machines.

The token machine over out(instantiated-input) only ever looks at a
bounded window: which rule block the focus is in, where inside that block,
and a bounded tape.  That window is a finite state, the block's tree node
is the head position, and block boundaries are head moves.  Compilation
therefore synthesizes each walking transition by running a single token
step on a local representative term: the block's rule term applied to
placeholder constants (one per child), or the output-extraction term
applied to one placeholder: the spec's blocks (iam.LocalBlocks), typed
when the spec was loaded.

One compiler serves both targets; the token-machine variant picks the
target.  The almost-purely-affine machine ("apa", tiers up to
almost-purely-affine) never pushes, and the result is a tree-walking
transducer.  The single-stack machine ("ss", tiers up to almost-depth-1)
turns its stack of logged positions into the pebble stack of an
invisible-pebble transducer (one pebble per stack entry, placed on the node
whose block contains the binder; a group that was folded into an entry
simply stays underneath it, so pushing and popping are a single put or
remove).  A tree-walking transducer is thus the pebble transducer that
never drops a pebble."""

from __future__ import annotations

from .core import LamtransError, marked
from .iam import (LET, VARIANT_MAX_TIER, ClassificationTooHigh, Config,
                  IamMachine, StackEntry, mult_tape)
from .typecheck import TIER_NAMES
from .walking import (ANY, IpttSpec, TwtSpec, image_leaves,
                      image_map_leaves)


# ---------------------------------------------------------------------------
# Compiled states.  A state is a plain value: ("I",), the initial state;
# (kind, direction, block, number, tape, flag), a token inside a block of
# kind "U" or "T" at the preorder number of its position in the block's
# term; ("Nabla", tape), a head about to enter a node; ("Delta", tape), a
# head about to leave a letter's node.

INITIAL = ("I",)


def state_name(state, with_flag):
    """A state's name; only a token state shows its box-depth flag, and
    only when asked to.  A token state shows its block's term with its
    position marked, sliced out of the block's one rendering (Block.text)."""
    if state == INITIAL:
        return "I"
    if len(state) == 2:
        return f'{state[0]}["{state[1]}"]'
    kind, d, block, number, tape, flag = state
    text, spans = block.text
    body = marked(text, spans[number], d)
    return f'{kind}[{d},"{body}","{tape}"' + (f",{flag}]" if with_flag
                                              else "]")


# ---------------------------------------------------------------------------
# Compilation.  In the single-stack machine a stack entry records a jump
# source (a position inside the block of some node) together with the
# group of entries folded under it; the pebble for it sits on that node, its
# color records the local position and the group size, and the group's own
# pebbles simply remain underneath -- so a stack push is one put and a
# stack pop is one remove.

TARGET_VARIANT = {"twt": "apa", "iptt": "ss"}   # target -> token machine


# the tag of the colors of each kind of block; every letter's block shares
# "b", so a color keeps its occurrence's path, which names the same position
# in every skeleton, where a number names one only in its own skeleton
COLOR_TAG = {"U": "u", "T": "b"}


def color_name(tag, pos, n):
    return f"{tag}_{'.'.join(map(str, pos)) or 'e'}x{n}"


def sentinels(n):
    """Stand-ins for the n log entries a local configuration inherits;
    their positions are tuples, never a position's number."""
    return tuple(StackEntry(("sentinel", i), ()) for i in range(n))


class WalkingCompiler:
    """Compiles a lambda-transducer with the given token-machine variant:
    "apa" builds a TWT, "ss" an IPTT whose state names also carry the box
    depth."""

    def __init__(self, spec, variant):
        self.pebbles = variant == "ss"
        limit = VARIANT_MAX_TIER[variant]
        if spec.tier > limit:
            raise ClassificationTooHigh(
                f"{spec.name} is {spec.tier_name()}; "
                f"{'pebble' if self.pebbles else 'walking'} compilation "
                f"needs {TIER_NAMES[limit]} or lower")
        self.spec = spec
        self.blocks = spec.blocks
        self.machines = {block: IamMachine(block.info, variant)
                         for block in self.blocks}
        # a letter's token states carry the first block with their term,
        # and twins[block] lists the letters whose blocks have that term
        self.first, self.twins = {self.blocks.u: self.blocks.u}, {}
        for a, block in self.blocks.t.items():
            first = next((b for b in self.twins if b.term == block.term),
                         block)
            self.first[block] = first
            self.twins.setdefault(first, []).append(a)
        self.colors = {}    # name -> (block kind, occurrence path, n)
        if self.pebbles:
            for block in self.blocks:
                for path, pos in block.occ.items():
                    n = block.info.depths[pos]
                    self.colors[color_name(COLOR_TAG[block.kind], path,
                                           n)] = (block.kind, path, n)

    def entries(self, state):
        """The (letter, provenance, is-root, block, local configuration)
        keys that a state can be entered under.  The out-term's block
        lives at the root only, and a token state of a letter's block is
        entered at the nodes of every letter whose block has its term."""
        b, letters = self.blocks, self.spec.input.letters
        if state == INITIAL:
            for a, _ in letters:
                yield a, "self", True, b.u, Config("down", 0, ())
        elif state[0] == "Nabla":
            cfg = Config("down", 0, tuple(state[1]))
            for a, _ in letters:
                yield a, "self", True, b.t[a], cfg
                yield a, "from-parent", False, b.t[a], cfg
        elif state[0] == "Delta":
            tape = tuple(state[1])
            root = Config("up", b.u.ph["self"], tape)
            for a, k in letters:
                yield a, "self", True, b.u, root
                block = b.t[a]
                for i in range(1, k + 1):
                    prov = ("from-child", i)
                    cfg = Config("up", block.ph[prov], tape)
                    yield a, prov, True, block, cfg
                    yield a, prov, False, block, cfg
        else:
            kind, d, block, number, tape, flag = state
            cfg = Config(d, block.start + number, tuple(tape),
                         sentinels(flag), flag)
            if kind == "U":
                for a, _ in letters:
                    yield a, "self", True, block, cfg
            else:
                for a in self.twins[block]:
                    yield a, "self", True, b.t[a], cfg
                    yield a, "self", False, b.t[a], cfg

    def _local_state(self, block, cfg, is_root):
        """Classify a configuration's position in its block, ignoring the
        stack; returns (state, move) or None."""
        tape = mult_tape(cfg.tape)
        if len(tape) > self.blocks.height:
            return None  # tape overflow: leave the key undefined
        move = block.moves.get(cfg.pos)
        if move is not None:    # a placeholder: the head enters its node
            if cfg.direction != "down" or cfg.flag != 0:
                return None
            return ("Nabla", tape), move
        if cfg.pos == 0:        # the root: the head leaves a letter's node
            if block.kind == "U" or cfg.direction != "up" or cfg.flag != 0:
                return None
            return ("Delta", tape), "stay" if is_root else "to-parent"
        return (block.kind, cfg.direction, self.first[block],
                cfg.pos - block.start, tape, cfg.flag), "stay"

    def classify(self, block, res, is_root, log):
        """Turn a one-step result in a block, started with the given log,
        into a transition image of (state, move) leaves, or None when the
        key must stay undefined.  A configuration is its own leaf."""
        if res is None:
            return None
        if res.__class__ is Config:
            return self._leaf(block, res, is_root, log)
        img = image_map_leaves(
            res, lambda cfg: self._leaf(block, cfg, is_root, log))
        return None if None in image_leaves(img) else img

    def _leaf(self, block, cfg, is_root, log):
        """The (state, move) leaf of one configuration of a step result, or
        None."""
        if cfg.log == log:
            return self._local_state(block, cfg, is_root)
        # a stack push: top entry folds the popped sentinel group
        if (cfg.log and isinstance(cfg.log[0], StackEntry)
                and isinstance(cfg.log[0].pos, int)):
            top = cfg.log[0]
            k = len(top.entries)
            if top.entries == log[:k] and cfg.log[1:] == log[k:]:
                loc = self._local_state(block, cfg, is_root)
                if loc is None or loc[1] != "stay":
                    return None
                return (loc[0], ("put", color_name(
                    COLOR_TAG[block.kind], block.info.path(top.pos), k)))
        # anything else (e.g. discarding entries that sit on other nodes)
        # cannot be realized with pebbles
        return None

    def _is_shared_return(self, block, cfg):
        """Does this configuration pop a logged position (the one case
        whose behavior depends on the visible pebble)?"""
        up = block.info.up[cfg.pos]
        if cfg.direction != "up" or up is None:
            return False
        ptag, role, parent, _ = up
        return ptag == LET and role == 0 \
            and not block.info.bound_is_base(cfg.pos + parent)

    def _returns(self, block, cfg, is_root):
        """The focus sits on a shared bound term going up: the visible
        pebble names the occurrence to jump back to (and how many log
        entries it had folded under it).  Yields (color, image) pairs."""
        if cfg.flag != 0:
            return
        binder = cfg.pos + block.info.up[cfg.pos][2]
        for z, (kind, path, n) in self.colors.items():
            occ = block.occ.get(path) if kind == block.kind else None
            if occ is None or occ + block.info.occ_binder[occ] != binder:
                continue
            back = Config("up", occ, cfg.tape, sentinels(n), n)
            loc = self._local_state(block, back, is_root)
            if loc is not None and loc[1] == "stay":
                yield z, (loc[0], "remove")

    def compile(self):
        """The walking machine: a TwtSpec for "apa", an IpttSpec for "ss".
        Both come from one table keyed by (letter, state, provenance,
        is-root, pebble), where a transition that does not look at the
        visible pebble is stored once under the pebble ANY.  A state
        entered under several keys steps each (block, local configuration)
        once; the step's result is classified per key, since where a head
        leaving a node goes depends on whether it is the root."""
        spec = self.spec
        table, names, seen, worklist = {}, {}, set(), []
        steps = {}      # (block, local configuration) -> one step's result

        def named(state):
            """The state's name.  Each state is named once, and one whose
            name is new joins the worklist."""
            nm = names.get(state)
            if nm is None:
                nm = names[state] = state_name(state, self.pebbles)
                if nm not in seen:
                    seen.add(nm)
                    worklist.append(state)
            return nm

        def leaf(pair):
            return named(pair[0]), pair[1]

        named(INITIAL)
        while worklist:
            state = worklist.pop()
            q = names[state]
            for a, prov, is_root, block, cfg in self.entries(state):
                if self.pebbles and self._is_shared_return(block, cfg):
                    for z, img in self._returns(block, cfg, is_root):
                        table[a, q, prov, is_root, z] = \
                            image_map_leaves(img, leaf)
                    continue
                res = steps.get((block, cfg), steps)
                if res is steps:
                    res = steps[block, cfg] = self.machines[block].step(cfg)
                img = self.classify(block, res, is_root, cfg.log)
                if img is not None:
                    table[a, q, prov, is_root, ANY] = \
                        image_map_leaves(img, leaf)
        states = ["I"] + sorted(seen - {"I"})
        if self.pebbles:
            return IpttSpec(spec.input, spec.output, states, "I",
                            sorted(self.colors), table,
                            name=spec.name + "->iptt")
        delta, delta_root = {}, {}
        for (a, q, prov, is_root, _), img in table.items():
            (delta_root if is_root else delta)[a, q, prov] = img
        return TwtSpec(spec.input, spec.output, states, "I", delta,
                       delta_root, name=spec.name + "->twt")


def compile_walking(spec, target):
    """A .lt spec compiled to a "twt" or an "iptt"."""
    if target not in TARGET_VARIANT:
        raise LamtransError(f"unknown compile target {target!r}")
    return WalkingCompiler(spec, TARGET_VARIANT[target]).compile()


def compile_to_twt(spec):
    return compile_walking(spec, "twt")


def compile_to_iptt(spec):
    return compile_walking(spec, "iptt")

