import hashlib
import random
from bisect import bisect_right

import pytest

from lamtrans import corpus_path
from lamtrans.core import LamtransError, parse_tree
from lamtrans.iam import (Config, IamMachine, TermInfo, mult_tape,
                          pick_variant, run_iam)
from lamtrans.transducer import parse_transducer
from lamtrans.treegen import FNode, Output
from lamtrans import compiler
from lamtrans.compiler import (WalkingCompiler, compile_to_iptt,
                               compile_to_twt, compile_walking, state_name)
from lamtrans.gls import load_gls, make_type_constant, split_state_relabeling
from lamtrans.walking import (ANY, WalkConfig, WalkingMachine,
                              check_reversible, parse_iptt, parse_twt)
from conftest import numeral, random_tree, run_walking, unary
from reference_treegen import frontier_configs, frontier_get, frontier_replace

# Hand-derived first eight configurations of the compiled walking machine
# for count on a(b(c),c); state names render the underlying local token
# configurations.
GOLDEN_TWT_PREFIX = [
    ("I", "self", ()),
    (r'U[down,">\f. f 0<","p"]', "self", ()),
    (r'U[down,"\f. >f 0<",""]', "self", ()),
    (r'U[down,"\f. >f< 0","p"]', "self", ()),
    (r'U[up,"<\f. f 0>","op"]', "self", ()),
    (r'Nabla["p"]', "self", ()),
    (r'T[down,">(\l. \r. \x. l (r x)) <>1< <>2","pp"]', "self", ()),
    (r'T[down,"(>\l. \r. \x. l (r x)<) <>1 <>2","ppp"]', "self", ()),
]


def frontiers(machine, initial):
    f = initial
    out = [f]
    while frontier_configs(f):
        pos = frontier_configs(f)[0]
        res = machine.step(frontier_get(f, pos))
        assert res is not None
        f = frontier_replace(f, pos, res)
        out.append(f)
    return out


def map_leaves(f, fn):
    if isinstance(f, FNode):
        return FNode(f.label, tuple(map_leaves(c, fn) for c in f.children))
    return fn(f)


# ---------------------------------------------------------------------------
# The simulation map: token configurations over the instantiated program
# mapped onto walking configurations over the input tree

class UnreachableShape(LamtransError):
    pass


class SimMapper:
    """Maps configurations of the token machine over the instantiated
    program (whose TermInfo is `info`) to configurations of the compiled
    walking machine `machine` over the input."""

    def __init__(self, compiler, machine, info):
        self.c = compiler
        self.nodes = nodes = machine.nodes
        # each input node's block root in out applied to the input: the
        # argument (1,) for the root, and for child i of a rank-k node,
        # k - i function steps then the argument step from its parent's;
        # a parent's number is below its children's; a record's children
        # are offsets from its own position
        rank, down = machine.spec.input.rank, info.down
        roots = [down[0][1][1]]
        for _, parent, _, back, *_ in nodes[1:]:
            pos = roots[parent]
            for _ in range(rank(nodes[parent][4]) - back[1]):
                pos += down[pos][1][0]
            roots.append(pos + down[pos][1][1])
        # a block numbers its placeholders after all its other positions,
        # which run from its root on as in its local term; so the blocks
        # tile the program from the root block on, and a position lies in
        # the block of the last root not after it
        self.starts = sorted(roots)
        self.node_at = {pos: node for node, pos in enumerate(roots)}

    def map(self, cfg):
        """The configuration of the walking machine that a token
        configuration stands for."""
        b, nodes, pos, node = self.c.blocks, self.nodes, cfg.pos, 0
        if pos == 0:
            if cfg.direction == "down" and not mult_tape(cfg.tape):
                return WalkConfig("I", "self", 0)
            raise UnreachableShape("focus on the whole program going up")
        if pos < self.starts[0]:
            block = b.u     # the out-term, numbered as in its local term
        else:
            start = self.starts[bisect_right(self.starts, pos) - 1]
            node = self.node_at[start]
            block, pos = b.t[nodes[node][4]], pos - start
            if pos == 0 and cfg.direction == "down":
                # entering a node: its parent's block's placeholder
                _, parent, _, back, *_ = nodes[node]
                if parent is None:
                    block, back = b.u, "self"
                else:
                    block, node = b.t[nodes[parent][4]], parent
                pos = block.ph[back]
        loc = self.c._local_state(
            block, Config(cfg.direction, pos, cfg.tape, cfg.log, cfg.flag),
            node == 0)
        if loc is None:
            raise UnreachableShape(f"no walking state for {cfg}")
        state, move = loc
        name = state_name(state, self.c.pebbles)
        _, parent, first, back, *_ = nodes[node]
        if move == "stay":
            return WalkConfig(name, "self", node)
        if move == "to-parent":
            return WalkConfig(name, back, parent)
        return WalkConfig(name, "from-parent", first + move[1] - 1)


def test_compiled_count_twt(count):
    tw = compile_to_twt(count)
    assert len(tw.states) == 46
    ok, _ = check_reversible(tw)
    assert ok
    for s in ["c", "b(c)", "a(b(c),c)", "a(a(c,c),b(b(c)))"]:
        tau = parse_tree(s, count.input)
        res = run_walking(tw, tau)
        assert isinstance(res, Output)
        assert res.tree == count.eval_normalize(tau)


def test_compiled_count_golden_prefix(count):
    tw = compile_to_twt(count)
    tau = parse_tree("a(b(c),c)", count.input)
    m = WalkingMachine(tw, tau)
    cfg = m.initial()
    got = []
    for _ in GOLDEN_TWT_PREFIX:
        got.append((cfg.state, cfg.prov, m.path(cfg.node)))
        res = m.step(cfg)
        cfg = frontier_get(res, frontier_configs(res)[0])
    assert got == GOLDEN_TWT_PREFIX


def test_compiled_twt_steps_match_token_machine(count):
    # the compilation is a step-by-step simulation, so the step counts
    # coincide exactly
    tw = compile_to_twt(count)
    tau = parse_tree("a(b(c),c)", count.input)
    assert run_walking(tw, tau).steps == run_iam(count.program_ann(tau),
                                                 "pa").steps == 52


def test_simulation_square(count, seqnat):
    for spec, s in [(count, "a(b(c),c)"), (seqnat, unary(3)),
                    (count, random_tree(random.Random(40), 40)),
                    (seqnat, unary(10))]:
        tau = parse_tree(s, spec.input)
        comp = WalkingCompiler(spec, "apa")
        tw = comp.compile()
        twm = WalkingMachine(tw, tau)
        iam = IamMachine(TermInfo(spec.program_ann(tau)),
                         pick_variant(spec.tier))
        mapper = SimMapper(comp, twm, iam.info)
        iam_side = [map_leaves(f, mapper.map)
                    for f in frontiers(iam, iam.initial())]
        twt_side = frontiers(twm, twm.initial())
        assert iam_side == twt_side


def test_compiled_seqnat_twt(seqnat):
    tw = compile_to_twt(seqnat)
    ok, witness = check_reversible(tw)
    assert not ok and witness is not None
    for n in range(7):
        tau = parse_tree(unary(n), seqnat.input)
        res = run_walking(tw, tau)
        assert isinstance(res, Output)
        assert res.tree == seqnat.eval_normalize(tau)


def test_twt_compiler_rejects_depth1(bin2bin):
    with pytest.raises(LamtransError):
        compile_to_twt(bin2bin)


def test_compiled_bin2bin_iptt(bin2bin):
    ip = compile_to_iptt(bin2bin)
    for n in range(5):
        tau = parse_tree(numeral(n), bin2bin.input)
        res = run_walking(ip, tau)
        assert isinstance(res, Output)
        assert res.tree == bin2bin.eval_normalize(tau)
        # one pebble operation per stack operation: same step count as the
        # single-stack token machine
        assert res.steps == run_iam(bin2bin.program_ann(tau), "ss").steps


def test_compiled_seqnat_iptt(seqnat):
    ip = compile_to_iptt(seqnat)
    for n in range(7):
        tau = parse_tree(unary(n), seqnat.input)
        assert run_walking(ip, tau).tree == seqnat.eval_normalize(tau)


# Two rank-1 rules whose shared let-variable f sits at the same path in both
# skeletons; the larger first argument of g in rule 1 gives its occurrences
# other numbers.  A pebble color names the occurrence by path, so each
# skeleton keeps its own shared-return transitions.
TWIN = r"""
input  { 0:1, 1:1, e:0 }
output { a:2, c:0 }
memory o -o !(!o -o !o) -o o
rule 0 = \g. \u. \x. let !f = x in g u !(\y. f (f y))
rule 1 = \g. \u. \x. let !f = x in g (a u c) !(\y. f (f y))
rule e = \u. \x. let !f = x in let !z = f !c in a u z
out    = \g. g c !(\y. y)
"""


def test_compiled_iptt_colors_name_occurrences_by_path():
    spec = parse_transducer(TWIN, name="twin")
    ip = compile_to_iptt(spec)
    text = ip.to_str()
    # the IPTT text is pinned byte for byte
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a794acba08dde1f94f70ff45dc3f48b946510970a2cbd06eee7de314e7a6f175"
    assert sum(key[4] != ANY for key in ip.delta) == 10
    for s in ["0(e)", "1(e)", "0(1(e))", "1(0(1(e)))"]:
        tau = parse_tree(s, spec.input)
        res = run_walking(ip, tau)
        assert isinstance(res, Output)
        assert res.tree == spec.eval_normalize(tau)


def test_compiled_specs_serialize(count, bin2bin):
    tw = parse_twt(compile_to_twt(count).to_str())
    tau = parse_tree("a(b(c),c)", count.input)
    assert run_walking(tw, tau).tree == count.eval_normalize(tau)
    ip = parse_iptt(compile_to_iptt(bin2bin).to_str())
    tau = parse_tree(numeral(2), bin2bin.input)
    assert run_walking(ip, tau).tree == bin2bin.eval_normalize(tau)


# sha256 of compile_to_twt(spec).to_str(): the TWT text is pinned byte for
# byte
TWT_SHA256 = {
    "count":
        "1f202ce7a3e7b44554121b313b7670b72874867503d895fef451903bbf6a42b9",
    "seqnat":
        "f36955b5c1a04565a1042e00b50da7099fc2c56fd7ed5b3ab14503c34e46b87e",
    "listcount":
        "f134ed61d683197d48f38a50108a4f3b31305625c3a58a781065a18c7e538777",
}


@pytest.mark.parametrize("fixture", sorted(TWT_SHA256))
def test_compiled_twt_text_is_stable(fixture, request):
    spec = request.getfixturevalue(fixture)
    text = compile_to_twt(spec).to_str()
    assert hashlib.sha256(text.encode()).hexdigest() == TWT_SHA256[fixture]


# Two letters with the same rule: their in-block T states are one state,
# shared because a T state names its skeleton term, not its letter
SAME_RULES = r"""
input  { a:1, b:1, c:0 }
output { S:1, 0:0 }
memory o -o o
rule a = \f. \x. S (f x)
rule b = \f. \x. S (f x)
rule c = \x. S x
out    = \f. f 0
"""


# A shared let-variable in the out-term: the IPTT declares "u" colors
OUT_LETS = r"""
input  { s:1, e:0 }
output { a:2, c:0 }
memory !o -o !(!o -o !o)
rule e = \x. !(\y. y)
rule s = \g. \x. let !f = g x in !(\y. let !z = f (f y) in !(a z z))
out    = \g. let !f = g !c in let !z = f (f !c) in z
"""


# sha256 of compile_walking(spec, target).to_str()
COMPILED_SHA256 = {
    ("same-rules", "twt"):
        "fd2c3116df7f2624354c4be8a2e1a507b6f185ae66f52b7426eff397b8c48a4f",
    ("same-rules", "iptt"):
        "1228b88aee8449d202aac18b2df5b569ab46c2e9790f2a4574f5a08853d2c064",
    # the split letters are named a_qe, ...: the texts pinned before they
    # were a@qe, ..., which no reader takes, differ from these only there
    ("mirror-split", "twt"):
        "a02675b4a2c130d2a736f7e76ba0d260638d5bedd1d56e056a7ce647980388af",
    ("mirror-split", "iptt"):
        "05e26e946c1a3d36d711aa5aba3d3e8821ae96366fbb7f116c72719e78157e98",
    ("out-lets", "iptt"):
        "79f2856609fca3cfce1109ea15aaef88575610c17caf77312efece49f83046e5",
}


@pytest.mark.parametrize("name, target", sorted(COMPILED_SHA256))
def test_compiled_text_of_shared_and_split_rules_is_stable(name, target):
    if name == "mirror-split":
        # the stateless transducer that mirror.gls splits into
        spec = split_state_relabeling(make_type_constant(load_gls(
            corpus_path("mirror.gls"))))[1]
    else:
        spec = parse_transducer({"same-rules": SAME_RULES,
                                 "out-lets": OUT_LETS}[name])
    text = compile_walking(spec, target).to_str()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        COMPILED_SHA256[name, target]


def test_compiled_bin2bin_iptt_stores_pebble_independent_keys_once(bin2bin):
    ip = compile_to_iptt(bin2bin)
    assert len(ip.delta) == 213
    # only the returns from a shared bound term look at the visible pebble
    colored = {key: img for key, img in ip.delta.items() if key[4] != ANY}
    assert len(colored) == 10
    assert all(key[4] in ip.colors and img[1] == "remove"
               for key, img in colored.items())
    text = ip.to_str()
    again = parse_iptt(text)
    assert again.delta == ip.delta
    assert again.to_str() == text


def test_each_compiled_state_is_named_once(count, seqnat, bin2bin,
                                           monkeypatch):
    # the five compiles of the bench's set-up name 259 states in all
    calls = []

    def counting(state, with_flag):
        calls.append(state)
        return state_name(state, with_flag)

    monkeypatch.setattr(compiler, "state_name", counting)
    machines = [compile_to_twt(count), compile_to_iptt(count),
                compile_to_twt(seqnat), compile_to_iptt(seqnat),
                compile_to_iptt(bin2bin)]
    assert sum(len(m.states) for m in machines) == len(calls) == 259


def test_unknown_compile_target_is_named(count):
    with pytest.raises(LamtransError, match="unknown compile target 'twtt'"):
        compile_walking(count, "twtt")
