"""Compiling lambda-transducers to walking machines.

The token machine over out(instantiated-input) only ever looks at a
bounded window: which rule block the focus is in, where inside that block,
and a bounded tape.  That window is a finite state, the block's tree node
is the head position, and block boundaries are head moves.  Compilation
therefore synthesizes each walking transition by running a single token
step on a local representative term: the block's rule term applied to
placeholder constants (one per child), or the output-extraction term
applied to one placeholder.

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

from dataclasses import dataclass

from .core import App, Const, LamtransError, term_to_str
from .iam import (LET, VARIANT_MAX_TIER, ClassificationTooHigh, Config,
                  IamMachine, StackEntry, TermInfo, mult_tape)
from .treegen import FNode
from .typecheck import TIER_NAMES, typecheck
from .walking import (ANY, IpttSpec, TwtSpec, WalkConfig, image_leaves,
                      image_map_leaves)


class UnreachableShape(LamtransError):
    pass


# ---------------------------------------------------------------------------
# Compiled-state naming

# Every state renders given the out-term and whether to show the box-depth
# flag; only the token states use them.

@dataclass(frozen=True)
class SimI:
    def render(self, u_term, with_flag):
        return "I"


@dataclass(frozen=True)
class SimU:
    d: str
    pos: tuple
    tape: str
    flag: int = 0

    def render(self, u_term, with_flag):
        body = term_to_str(u_term, mark=self.pos, direction=self.d)
        s = f'U[{self.d},"{body}","{self.tape}"'
        if with_flag:
            s += f",{self.flag}"
        return s + "]"


@dataclass(frozen=True)
class SimT:
    d: str
    skel: object    # the skeleton term (rule applied to placeholders)
    pos: tuple
    tape: str
    flag: int = 0

    def render(self, u_term, with_flag):
        body = term_to_str(self.skel, mark=self.pos, direction=self.d)
        s = f'T[{self.d},"{body}","{self.tape}"'
        if with_flag:
            s += f",{self.flag}"
        return s + "]"


@dataclass(frozen=True)
class SimNabla:
    tape: str

    def render(self, u_term, with_flag):
        return f'Nabla["{self.tape}"]'


@dataclass(frozen=True)
class SimDelta:
    tape: str

    def render(self, u_term, with_flag):
        return f'Delta["{self.tape}"]'


# ---------------------------------------------------------------------------
# Local representative terms

PH = "<>"


def placeholder(i):
    return Const(f"{PH}{i}")


def occurrence_numbers(info):
    """The number of each variable occurrence in a term, by its path."""
    return {info.path(pos): pos for pos in info.occ_binder}


class LocalBlocks:
    """The per-letter skeletons and the out-term context, with typed token
    machines over each."""

    def __init__(self, spec, variant):
        self.spec = spec
        self.u_term = spec.norm_out
        consts = {f"{PH}{i}": spec.memory
                  for i in range(max([r for _, r in spec.input.letters],
                                     default=0) + 1)}
        u_local = App(spec.norm_out, placeholder(0))
        self.u_info = TermInfo(typecheck(u_local, alphabet=spec.output,
                                         consts=consts))
        self.u_machine = IamMachine(self.u_info, variant)
        self.u_ph = self.u_info.number((1,))
        self.skel = {}
        self.ph_pos = {}
        self.ph_index = {}
        self.info = {}
        self.machine = {}
        self.u_occ = occurrence_numbers(self.u_info)
        self.occ = {}
        heights = [self.u_info.height]
        for a, k in spec.input.letters:
            t = spec.norm_rules[a]
            for i in range(1, k + 1):
                t = App(t, placeholder(i))
            self.skel[a] = t
            info = TermInfo(typecheck(t, alphabet=spec.output, consts=consts))
            self.ph_pos[a] = {i: info.number((0,) * (k - i) + (1,))
                              for i in range(1, k + 1)}
            self.ph_index[a] = {pos: i for i, pos in self.ph_pos[a].items()}
            self.info[a] = info
            self.machine[a] = IamMachine(info, variant)
            self.occ[a] = occurrence_numbers(info)
            heights.append(info.height)
        self.height = max(heights)


# ---------------------------------------------------------------------------
# Compilation.  In the single-stack machine a stack entry records a jump
# source (a position inside the block of some node) together with the
# group of entries folded under it; the pebble for it sits on that node, its
# color records the local position and the group size, and the group's own
# pebbles simply remain underneath -- so a stack push is one put and a
# stack pop is one remove.

TARGET_VARIANT = {"twt": "apa", "iptt": "ss"}   # target -> token machine


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
        self.blocks = LocalBlocks(spec, variant)
        self.H = self.blocks.height
        # name -> (tag, path, n).  All skeletons share the tag "b", so a
        # color keeps its occurrence's path, which names the same position
        # in every skeleton; a number names one only in its own skeleton
        self.colors = {}
        if self.pebbles:
            self._collect_colors("u", self.blocks.u_info)
            for info in self.blocks.info.values():
                self._collect_colors("b", info)

    def _collect_colors(self, tag, info):
        for pos, kind in info.var_kind.items():
            if kind != "let":
                continue
            binder = info.occ_binder[pos]
            if info.bound_is_base(binder):
                continue
            n = info.depths[pos]
            path = info.path(pos)
            self.colors[color_name(tag, path, n)] = (tag, path, n)

    def name(self, state):
        return state.render(self.blocks.u_term, self.pebbles)

    def _tag_of(self, machine):
        return "u" if machine is self.blocks.u_machine else "b"

    def start_config(self, a, state, prov, is_root):
        """The local machine and configuration a key stands for, or None
        when the key shape is impossible."""
        b = self.blocks
        if isinstance(state, SimI):
            if prov != "self" or not is_root:
                return None
            return b.u_machine, Config("down", 0, ())
        if isinstance(state, SimU):
            if prov != "self" or not is_root:
                return None
            return b.u_machine, Config(state.d,
                                       b.u_info.number((0,) + state.pos),
                                       tuple(state.tape),
                                       sentinels(state.flag), state.flag)
        if isinstance(state, SimNabla):
            if (prov == "self") != is_root or isinstance(prov, tuple):
                return None
            return b.machine[a], Config("down", 0, tuple(state.tape))
        if isinstance(state, SimDelta):
            if prov == "self":
                if not is_root:
                    return None
                return b.u_machine, Config("up", b.u_ph, tuple(state.tape))
            if isinstance(prov, tuple):
                i = prov[1]
                if i not in b.ph_pos[a]:
                    return None
                return b.machine[a], Config("up", b.ph_pos[a][i],
                                            tuple(state.tape))
            return None
        if isinstance(state, SimT):
            if prov != "self" or state.skel != b.skel[a]:
                return None
            return b.machine[a], Config(state.d,
                                        b.info[a].number(state.pos),
                                        tuple(state.tape),
                                        sentinels(state.flag), state.flag)
        return None

    def _local_state(self, machine, cfg, a, is_root):
        """Classify a stepped configuration's position, ignoring the
        stack; returns (state, move) or None."""
        tape = mult_tape(cfg.tape)
        if len(tape) > self.H:
            return None  # tape overflow: leave the key undefined
        b = self.blocks
        path = machine.info.path
        if machine is b.u_machine:
            if cfg.pos == b.u_ph and cfg.direction == "down":
                if cfg.flag != 0:
                    return None
                return (SimNabla(tape), "stay")
            # positions 1 .. u_ph - 1: the out-term, the root's first child
            if 0 < cfg.pos < b.u_ph:
                return (SimU(cfg.direction, path(cfg.pos)[1:], tape,
                             cfg.flag), "stay")
            return None
        # rule-skeleton machine
        if cfg.pos == 0:
            if cfg.direction != "up" or cfg.flag != 0:
                return None
            return (SimDelta(tape), "stay" if is_root else "to-parent")
        i = b.ph_index[a].get(cfg.pos)
        if i is not None:
            if cfg.direction != "down" or cfg.flag != 0:
                return None
            return (SimNabla(tape), ("to-child", i))
        return (SimT(cfg.direction, b.skel[a], path(cfg.pos), tape,
                     cfg.flag), "stay")

    def classify(self, machine, res, a, is_root, log):
        """Turn a one-step result over a local term, started with the given
        log, into a transition image, or None when the key must stay
        undefined."""
        if res is None:
            return None
        if isinstance(res, FNode):
            kids = []
            for c in res.children:
                sub = self.classify(machine, c, a, is_root, log)
                if sub is None:
                    return None
                kids.append(sub)
            return FNode(res.label, tuple(kids))
        cfg = res
        if cfg.log == log:
            return self._local_state(machine, cfg, a, is_root)
        # a stack push: top entry folds the popped sentinel group
        if (cfg.log and isinstance(cfg.log[0], StackEntry)
                and isinstance(cfg.log[0].pos, int)):
            top = cfg.log[0]
            k = len(top.entries)
            if top.entries == log[:k] and cfg.log[1:] == log[k:]:
                loc = self._local_state(machine, cfg, a, is_root)
                if loc is None or loc[1] != "stay":
                    return None
                return (loc[0], ("put", color_name(
                    self._tag_of(machine), machine.info.path(top.pos), k)))
        # anything else (e.g. discarding entries that sit on other nodes)
        # cannot be realized with pebbles
        return None

    def _is_shared_return(self, machine, cfg):
        """Does this configuration pop a logged position (the one case
        whose behavior depends on the visible pebble)?"""
        up = machine.info.up[cfg.pos]
        if cfg.direction != "up" or up is None:
            return False
        ptag, role, parent, _ = up
        return ptag == LET and role == 0 \
            and not machine.info.bound_is_base(parent)

    def _returns(self, machine, cfg, a, is_root):
        """The focus sits on a shared bound term going up: the visible
        pebble names the occurrence to jump back to (and how many log
        entries it had folded under it).  Yields (color, image) pairs."""
        if cfg.flag != 0:
            return
        binder = machine.info.up[cfg.pos][2]
        want_tag = self._tag_of(machine)
        b = self.blocks
        occ_at = b.u_occ if machine is b.u_machine else b.occ[a]
        for z, (tag, path, n) in self.colors.items():
            if tag != want_tag:
                continue
            occ = occ_at.get(path)
            if occ is None or machine.info.occ_binder[occ] != binder:
                continue
            back = Config("up", occ, cfg.tape, sentinels(n), n)
            loc = self._local_state(machine, back, a, is_root)
            if loc is not None and loc[1] == "stay":
                yield z, (loc[0], "remove")

    def compile(self):
        """The walking machine: a TwtSpec for "apa", an IpttSpec for "ss".
        Both come from one table keyed by (letter, state, provenance,
        is-root, pebble), where a transition that does not look at the
        visible pebble is stored once under the pebble ANY."""
        spec = self.spec
        table = {}
        state_of_name = {"I": SimI()}
        worklist = [SimI()]

        def register(key, img):
            table[key] = image_map_leaves(
                img, lambda leaf: (self.name(leaf[0]), leaf[1]))
            for obj, _ in image_leaves(img):
                nm = self.name(obj)
                if nm not in state_of_name:
                    state_of_name[nm] = obj
                    worklist.append(obj)

        while worklist:
            state = worklist.pop()
            q = self.name(state)
            for a, k in spec.input.letters:
                provs = ["self", "from-parent"] + \
                        [("from-child", i) for i in range(1, k + 1)]
                for prov in provs:
                    for is_root in (True, False):
                        if is_root and prov == "from-parent":
                            continue
                        pair = self.start_config(a, state, prov, is_root)
                        if pair is None:
                            continue
                        machine, cfg = pair
                        if (self.pebbles
                                and self._is_shared_return(machine, cfg)):
                            for z, img in self._returns(machine, cfg, a,
                                                        is_root):
                                register((a, q, prov, is_root, z), img)
                            continue
                        img = self.classify(machine, machine.step(cfg), a,
                                            is_root, cfg.log)
                        if img is not None:
                            register((a, q, prov, is_root, ANY), img)
        states = sorted(state_of_name)
        states.remove("I")
        states = ["I"] + states
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
    return WalkingCompiler(spec, TARGET_VARIANT[target]).compile()


def compile_to_twt(spec):
    return compile_walking(spec, "twt")


def compile_to_iptt(spec):
    return compile_walking(spec, "iptt")


# ---------------------------------------------------------------------------
# The simulation map: token configurations over the instantiated program
# mapped onto walking configurations over the input tree

class SimMapper:
    """Maps configurations of the token machine over the instantiated
    program (whose TermInfo is `info`) to configurations of the compiled
    walking machine `machine` over the input."""

    def __init__(self, compiler, machine, info):
        self.c, self.info = compiler, info
        self.nodes = nodes = machine.nodes
        # each input node's block root in out applied to the input: the
        # argument (1,) for the root, and for child i of a rank-k node,
        # k - i function steps then the argument step from its parent's;
        # a parent's number is below its children's
        rank, down = machine.spec.input.rank, info.down
        roots = [down[0][1][1]]
        for _, parent, _, back, _ in nodes[1:]:
            pos = roots[parent]
            for _ in range(rank(nodes[parent][4]) - back[1]):
                pos = down[pos][1][0]
            roots.append(down[pos][1][1])
        self.blocks = {pos: node for node, pos in enumerate(roots)}
        self.root_block = roots[0]

    def map(self, cfg):
        """The configuration of the walking machine that a token
        configuration stands for."""
        c, b, info = self.c, self.c.blocks, self.info
        tape = mult_tape(cfg.tape)
        pos = cfg.pos
        if pos == 0:
            if cfg.direction == "down" and not tape:
                return WalkConfig("I", "self", 0)
            raise UnreachableShape("focus on the whole program going up")
        # positions 1 .. root_block - 1: the out-term
        if pos < self.root_block:
            return WalkConfig(
                c.name(SimU(cfg.direction, info.path(pos)[1:], tape)),
                "self", 0)
        # walk up to the nearest block root; every other position lies
        # under the root block
        up, blocks, rel = info.up, self.blocks, []
        while pos not in blocks:
            _, role, pos, _ = up[pos]
            rel.append(role)
        node = blocks[pos]
        _, parent, _, back, letter = self.nodes[node]
        if not rel:
            if cfg.direction == "down":
                prov = "self" if node == 0 else "from-parent"
                return WalkConfig(c.name(SimNabla(tape)), prov, node)
            if node == 0:
                return WalkConfig(c.name(SimDelta(tape)), "self", 0)
            return WalkConfig(c.name(SimDelta(tape)), back, parent)
        return WalkConfig(
            c.name(SimT(cfg.direction, b.skel[letter], tuple(reversed(rel)),
                        tape)),
            "self", node)
