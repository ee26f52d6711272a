"""Pinned machine behaviour: exact step counts and outputs, byte-exact
`trace` and `compile` output, and the value-class forms of configurations.
A change to how a machine step is computed must not move any of these."""

import hashlib
import random

import pytest

from lamtrans import corpus_path
from lamtrans.cli import load_spec, machine_for, main
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import Tree, parse_tree
from lamtrans.iam import (Config, IamMachine, LogEntry, StackEntry, TermInfo,
                          run_iam)
from lamtrans.treegen import (Diverged, FNode, Machine, Output,
                              frontier_to_str, run, trace_lines)
from lamtrans.walking import WalkConfig, WalkingMachine

from conftest import numeral, random_tree, run_walking, unary

COUNT = corpus_path("count.lt")
SEQNAT = corpus_path("seq-nat.lt")
BIN2BIN = corpus_path("bin2bin.lt")
LISTCOUNT = corpus_path("list-count.lt")


def full(depth):
    """The complete binary a/c tree of the given depth."""
    t = "c"
    for _ in range(depth):
        t = f"a({t},{t})"
    return t


def naturals(n):
    """cons(S(0),cons(S(S(0)),...cons(S^n(0),nil)))"""
    return "".join(f"cons({unary(i)}," for i in range(1, n + 1)) \
        + "nil" + ")" * n


CHAIN = "b(" * 150 + "c" + ")" * 150
TREE200 = random_tree(random.Random(1), 200)

# (spec, backend, input, steps, output)
RUNS = [
    ("bin2bin", "ss", numeral(5), 4468, full(5)),
    ("bin2bin", "d1", numeral(5), 4468, full(5)),
    ("bin2bin", "iptt", numeral(5), 4468, full(5)),
    ("bin2bin", "ss", numeral(6), 8058, full(6)),
    ("bin2bin", "d1", numeral(6), 8058, full(6)),
    ("bin2bin", "iptt", numeral(6), 8058, full(6)),
    ("bin2bin", "ss", numeral(7), 16088, full(7)),
    ("bin2bin", "d1", numeral(7), 16088, full(7)),
    ("bin2bin", "iptt", numeral(7), 16088, full(7)),
    ("count", "pa", CHAIN, 2260, unary(151)),
    ("count", "twt", CHAIN, 2260, unary(151)),
    ("count", "iptt", CHAIN, 2260, unary(151)),
    ("count", "pa", TREE200, 2779, unary(128)),
    ("count", "twt", TREE200, 2779, unary(128)),
    ("count", "iptt", TREE200, 2779, unary(128)),
    ("seq-nat", "apa", unary(22), 3098, naturals(22)),
    ("seq-nat", "twt", unary(22), 3098, naturals(22)),
    ("seq-nat", "iptt", unary(22), 3098, naturals(22)),
]


@pytest.fixture(scope="module")
def specs(count, seqnat, bin2bin):
    return {"count": count, "seq-nat": seqnat, "bin2bin": bin2bin}


@pytest.mark.parametrize(
    "name,backend,text,steps,output", RUNS,
    ids=[f"{r[0]}-{r[1]}-{i}" for i, r in enumerate(RUNS)])
def test_steps_and_output_are_pinned(specs, name, backend, text, steps,
                                     output):
    spec = specs[name]
    tau = parse_tree(text, spec.input)
    if backend in ("twt", "iptt"):
        compiled = (compile_to_twt if backend == "twt"
                    else compile_to_iptt)(spec)
        res = run_walking(compiled, tau)
    else:
        res = run_iam(spec.program_ann(tau), backend)
    assert res.steps == steps
    assert res.tree.to_str() == output


class CountingAdvance(Machine):
    """A machine that counts the calls of the wrapped machine's advance."""

    def __init__(self, machine):
        self.machine = machine
        self.calls = 0

    def advance(self, cfg, budget):
        self.calls += 1
        return self.machine.advance(cfg, budget)


# (spec, input, advance calls of each backend's run): the jobs of the
# bench's wide-output workload and of deep-input, with TREE200 for its
# seeded random tree.  `run` calls advance once per chain it does not find
# in its memo, so these count the chains a run steps.  A chain ends at an
# output node or at a shared point, where two runs can meet: on the token
# machines where an occurrence of a base-type let-bound variable enters
# the bound term, on the walking machines after the move of a duplicated
# leaf.  The token machines' first chain on bin2bin stops at a point that
# the IPTT passes, as the leaf that reaches it there occurs once in its
# map, so the IPTT steps one chain fewer.  count is purely affine and has
# no shared point.
ADVANCES = [
    ("bin2bin", numeral(5), {"ss": 17, "d1": 17, "iptt": 16}),
    ("bin2bin", numeral(6), {"ss": 20, "d1": 20, "iptt": 19}),
    ("bin2bin", numeral(7), {"ss": 23, "d1": 23, "iptt": 22}),
    ("count", CHAIN, {"pa": 152, "twt": 152, "iptt": 152}),
    ("count", TREE200, {"pa": 129, "twt": 129, "iptt": 129}),
    ("seq-nat", unary(22), {"apa": 89, "twt": 89, "iptt": 89}),
]


@pytest.mark.parametrize("name,text,calls", ADVANCES,
                         ids=[f"{a[0]}-{i}" for i, a in enumerate(ADVANCES)])
def test_advance_calls_are_pinned(specs, name, text, calls):
    spec = specs[name]
    tau = parse_tree(text, spec.input)
    for backend, want in calls.items():
        if backend in ("twt", "iptt"):
            compiled = (compile_to_twt if backend == "twt"
                        else compile_to_iptt)(spec)
            machine = WalkingMachine(compiled, tau)
        else:
            machine = IamMachine(TermInfo(spec.program_ann(tau)), backend)
        counted = CountingAdvance(machine)
        res = run(counted, machine.initial())
        assert isinstance(res, Output), backend
        assert counted.calls == want, backend


def test_a_450_deep_chain_runs_checked_and_compiled(count):
    # 450 nodes deep: a program of any depth has its tables assembled
    # (iam.LocalBlocks.program), and the checked runs pause before every
    # step; they check on every step that the tape is no longer than the
    # type height and (d1) that the log equals the box depth
    tau = parse_tree("b(" * 449 + "c" + ")" * 449, count.input)
    ann = count.program_ann(tau)
    runs = [run_iam(ann, variant, check=True) for variant in ("pa", "d1")]
    runs.append(run_walking(compile_to_twt(count), tau))
    assert {(res.tree.to_str(), res.steps) for res in runs} == \
        {(unary(450), runs[0].steps)}


def nesting(entry, known):
    """How deep a LogEntry or StackEntry nests entries, itself included;
    `known` maps the id of each entry measured before to its nesting."""
    todo = [entry]
    while todo:
        e = todo[-1]
        inner = e.log if isinstance(e, LogEntry) else e.entries
        missing = [x for x in inner if id(x) not in known]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        known[id(e)] = 1 + max((known[id(x)] for x in inner), default=0)
    return known[id(entry)]


@pytest.mark.parametrize("variant", ["d1", "ss"])
def test_a_3000_digit_numeral_ends_cleanly(bin2bin, variant):
    # the logged positions nest 3,000 entries deep, and an unpaused run
    # hashes the configurations it memoizes: each entry keeps its hash, so
    # no hash recurses past Python's recursion limit
    digits = "10" * 1500
    tau = parse_tree("(".join(digits) + "(e" + ")" * len(digits),
                     bin2bin.input)
    res = run_iam(bin2bin.program_ann(tau), variant, fuel=200_000)
    assert isinstance(res, Diverged) and res.steps == 200_000
    configs, todo = [], [res.frontier]
    while todo:
        f = todo.pop()
        if isinstance(f, FNode):
            todo.extend(f.children)
        else:
            configs.append(f)
    known = {}
    assert max(nesting(e, known) for cfg in configs
               for e in cfg.tape + cfg.log if e not in ("p", "o")) == 3000


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


TRACES = [
    ("iam", COUNT, "a(b(c),c)",
     "9a5e173b4feb90dbdf06189e2d6e19cb5b14dcb8f3ba5ab019f645be40e13116"),
    ("twt", COUNT, "a(b(c),c)",
     "8b3ae3a213631bc7b217f2a5caa3b56a34fd3c3292bc0bb6b57cb71d11cd4992"),
    ("iptt", COUNT, "a(b(c),c)",
     "b738e31be808a02b889db650a508d7873aabbf71f4e2efee3a426a7e9026a0be"),
    ("iptt", BIN2BIN, "0(1(e))",
     "26dde3436c39f213bdcb08d4e6d15b502a1edf42c329470e1b30c9fdebfb554e"),
    ("iam", BIN2BIN, "0(1(1(e)))",
     "f1ad29cccc47fbe34a22b5c9c66a016eeb06e1423025fc9791cc2dec0da8317e"),
    ("iptt", SEQNAT, "S(S(0))",
     "60faa17857a3e6a8cf769b93b84347bf29c4130fce18ff0072026779b4c5b2bf"),
    ("iam", SEQNAT, "S(S(0))",
     "be03330261e4f8c011e1574e785e2aea04177348c62705a9955749b820f29c2e"),
]


@pytest.mark.parametrize("machine,spec,tree,digest", TRACES,
                         ids=[f"{t[0]}-{i}" for i, t in enumerate(TRACES)])
def test_trace_output_is_pinned(capsys, machine, spec, tree, digest):
    out = run_cli(capsys, "trace", "--machine", machine, spec, tree)
    assert sha256(out) == digest


def test_d1_trace_is_pinned(bin2bin):
    # the two-stack machine's tape holds logged positions, which the trace
    # writes as dotted paths
    tau = parse_tree("0(1(e))", bin2bin.input)
    m = IamMachine(TermInfo(bin2bin.program_ann(tau)), "d1")
    out = "".join(line + "\n" for line in trace_lines(m, m.initial()))
    assert sha256(out) == \
        "7038b2c9f2d51151132a2d9cca41a6d7f8e55ca88be648af1e604979f3116f28"


@pytest.mark.parametrize("spec,digest", [
    (BIN2BIN,
     "a9d7e516b9019c394fc88f86e864c88535d57502984421e2c24c568f585daff4"),
    (SEQNAT,
     "d26e7d8fc19c5740c4a2545570808070b591b69ec03363c6cac5719dc4467938"),
    (COUNT,
     "b4b0610f5d27fbbdfaee924c3c015ec6cc2d922e7826eab3b11f0237f1aed7ab"),
    (LISTCOUNT,
     "6a891540e368e1266b6fa0467b5f5b4acac944aaca78f5ef1e78bb033757b2ed"),
], ids=["bin2bin", "seqnat", "count", "listcount"])
def test_compiled_iptt_text_is_pinned(capsys, spec, digest):
    out = run_cli(capsys, "compile", "--target", "iptt", spec)
    assert sha256(out) == digest


# (spec, exit code, stdout of `lamtrans reversible`): the witness names the
# first duplicated leaf in the order of the maps and of their sorted keys
REVERSIBLE = [
    ("count-twt.twt", 0, "reversible\n"),
    ("seq-nat-twt.twt", 1,
     "not reversible: leaf (num, to-parent) duplicated in map delta[S], "
     "keys ('S', 'num', 'self') and ('S', 'num', ('from-child', 1))\n"),
    ("count.lt", 0, "reversible\n"),
    ("seq-nat.lt", 1,
     'not reversible: leaf (T[down,"(\\g. \\x. let !y = >x< in cons y '
     '(g !(S y))) <>1",""], stay) duplicated in map delta[S], keys '
     '(\'S\', \'T[down,"(\\\\g. \\\\x. let !y = x in cons >y< (g !(S y))) '
     '<>1",""]\', \'self\') and (\'S\', \'T[down,"(\\\\g. \\\\x. let !y = x '
     'in cons y (g !(S >y<))) <>1",""]\', \'self\')\n'),
    ("list-count.lt", 0, "reversible\n"),
]


@pytest.mark.parametrize("spec,code,stdout", REVERSIBLE,
                         ids=[r[0] for r in REVERSIBLE])
def test_reversible_output_is_pinned(capsys, spec, code, stdout):
    assert main(["reversible", corpus_path(spec)]) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == (stdout, "")


# each value with its repr and its fields, as a frozen dataclass shows and
# hashes them
LOG = LogEntry((1, 0), ())
STACK = StackEntry((0,), (StackEntry(("sentinel", 0), ()),))
VALUES = [
    (Config("down", (), ()),
     "Config(direction='down', pos=(), tape=(), log=(), flag=0)"),
    (Config("up", (0, 1), ("p", LOG), (LOG,), 2),
     "Config(direction='up', pos=(0, 1), tape=('p', LogEntry(pos=(1, 0), "
     "log=())), log=(LogEntry(pos=(1, 0), log=()),), flag=2)"),
    (LOG, "LogEntry(pos=(1, 0), log=())"),
    (STACK, "StackEntry(pos=(0,), entries=(StackEntry(pos=('sentinel', 0), "
            "entries=()),))"),
    (WalkConfig("q", "self", ()),
     "WalkConfig(state='q', prov='self', node=(), pebbles=())"),
    (WalkConfig("q", ("from-child", 2), (0,), (("z", (0,)),)),
     "WalkConfig(state='q', prov=('from-child', 2), node=(0,), "
     "pebbles=(('z', (0,)),))"),
    (FNode("a"), "FNode(label='a', children=())"),
    (FNode("S", (Config("up", (1,), ("o",)),)),
     "FNode(label='S', children=(Config(direction='up', pos=(1,), "
     "tape=('o',), log=(), flag=0),))"),
    (Tree("c"), "Tree(label='c', children=())"),
    (Tree("a", (Tree("b", (Tree("c"),)), Tree("c"))),
     "Tree(label='a', children=(Tree(label='b', children=(Tree(label='c', "
     "children=()),)), Tree(label='c', children=())))"),
]


@pytest.mark.parametrize("value,text", VALUES,
                         ids=[type(v).__name__ for v, _ in VALUES])
def test_value_classes_keep_their_frozen_dataclass_forms(value, text):
    fields = tuple(getattr(value, f) for f in value.__dataclass_fields__)
    assert repr(value) == text
    assert hash(value) == hash(fields)
    copy = type(value)(*fields)
    assert copy == value and not copy != value and hash(copy) == hash(value)
    assert value != fields and value != object()
    if fields[-1] == ():
        assert value != type(value)(*fields[:-1], ("x",))


# The fuel edges of `lamtrans run --fuel K`: one step short of the full run
# prints the short Diverged form, the full count prints the output.
FUEL_EDGES = [
    (COUNT, "a(b(c),a(c,b(c)))", 94, "S(S(S(S(S(0)))))"),
    (BIN2BIN, "1(1(e))", 841, "a(a(a(c,c),a(c,c)),a(a(c,c),a(c,c)))"),
]
FUEL_RUNS = [(spec, machine, tree, steps, output)
             for spec, tree, steps, output in FUEL_EDGES
             for machine in ("iam", "twt", "iptt")
             if (spec, machine) != (BIN2BIN, "twt")]   # tier too high


@pytest.mark.parametrize("spec,machine,tree,steps,output", FUEL_RUNS,
                         ids=[f"{r[1]}-{i}" for i, r in enumerate(FUEL_RUNS)])
def test_run_at_the_fuel_edge_is_pinned(capsys, spec, machine, tree, steps,
                                        output):
    for fuel in (steps - 2, steps - 1):
        code = main(["--fuel", str(fuel), "run", "--machine", machine, spec,
                     tree])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == \
            (1, "", f"no output within {fuel} steps\n")
    for fuel in (steps, steps + 1):
        out = run_cli(capsys, "--fuel", str(fuel), "run", "--machine",
                      machine, spec, tree)
        assert out == output + "\n"


# (spec, machine, fuel, sha256 of the frontier a run leaves when its fuel
# runs out, rendered as `trace` renders it)
DIVERGED = [
    (COUNT, "iam", 47,
     "a1c89afb14aabaf920352f16145e790965ce7630893f71e9705f81f5b3748550"),
    (COUNT, "iam", 93,
     "dd3ac9cb561978de3f6fd8747bbc0bda5d51f470e9e7a98f9147c020d74f62ba"),
    (COUNT, "twt", 47,
     "e72bf042464336f9d1c6cdebc413e7c939c51184d7842d1405c8a92728539715"),
    (COUNT, "twt", 93,
     "be453287e88e2257f0e23927fb0471810007ceae6c5010a0f20174989abc6fca"),
    (COUNT, "iptt", 47,
     "2aed5e8a811236da651333a89a7045968f275acdc663d8f9f43d6a5d69db4bed"),
    (COUNT, "iptt", 93,
     "8a10f8b1cb754998b437392b413b665fb0ee0efabbb09bda52ddc8d26c7df9bf"),
    (BIN2BIN, "iam", 420,
     "cbae3173026a233db3ff22f39b271e2bae35b4311dde1c02ef5807cf40383c27"),
    (BIN2BIN, "iam", 840,
     "bc5474d134a0eff61149255ca7b041671480f64a36e6708c3e5403927ee33067"),
    (BIN2BIN, "iptt", 420,
     "13b8cd422a1fac1605e394e9c6615b42cf9c0777b95382663f3d8c2835434e82"),
    (BIN2BIN, "iptt", 840,
     "51ecf37b40399ca78e586e57ed715435bfea0d7c5ef77d2964c7e2c32842d0f4"),
]


@pytest.mark.parametrize("spec,machine,fuel,digest", DIVERGED,
                         ids=[f"{d[1]}-{i}" for i, d in enumerate(DIVERGED)])
def test_frontier_left_when_fuel_runs_out_is_pinned(spec, machine, fuel,
                                                    digest):
    kind, loaded = load_spec(spec)
    tree = dict((s, t) for s, t, _, _ in FUEL_EDGES)[spec]
    m = machine_for(kind, loaded, machine)(parse_tree(tree, loaded.input))
    res = run(m, m.initial(), fuel)
    assert isinstance(res, Diverged) and res.steps == fuel
    assert sha256(frontier_to_str(res.frontier, m.render)) == digest
