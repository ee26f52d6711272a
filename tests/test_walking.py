import random
from functools import partial

import pytest

from lamtrans.cli import gen_tree, main
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import RankedAlphabet, parse_tree
from lamtrans.transducer import SpecError
from lamtrans.treegen import FNode, Output, run as treegen_run
from lamtrans.walking import (ANY, PUT, REMOVE, STAY, TO_CHILD, TO_PARENT,
                              IpttSpec, NotReversible, TwtSpec, WalkConfig,
                              WalkingMachine, check_reversible, image_leaves,
                              image_map_leaves, image_to_str, parse_iptt,
                              parse_twt, predecessor, quote_state)
from conftest import numeral, run_walking, unary
from reference_treegen import frontier_configs, frontier_get


def forward_configs(spec, tau):
    """The configuration sequence of a single-head walking run."""
    m = WalkingMachine(spec, tau)
    cfg = m.initial()
    out = [cfg]
    while True:
        res = m.step(cfg)
        assert res is not None
        leaves = frontier_configs(res)
        if not leaves:
            return out
        assert len(leaves) == 1
        cfg = frontier_get(res, leaves[0])
        out.append(cfg)


def test_count_twt_example(count_twt, count):
    for s in ["c", "b(c)", "a(b(c),c)", "a(a(c,c),b(b(c)))"]:
        tau = parse_tree(s, count_twt.input)
        res = run_walking(count_twt, tau)
        assert isinstance(res, Output)
        assert res.tree == count.eval_normalize(tau)


def test_seqnat_twt_matches_spec(seqnat_twt, seqnat):
    for n in range(1, 7):
        tau = parse_tree(unary(n), seqnat_twt.input)
        res = run_walking(seqnat_twt, tau)
        assert isinstance(res, Output)
        assert res.tree == seqnat.eval_normalize(tau)


def test_bin2unary_iptt(bin2unary):
    for n in range(9):
        tau = parse_tree(numeral(n), bin2unary.input)
        res = run_walking(bin2unary, tau)
        assert isinstance(res, Output)
        assert res.tree.to_str() == unary(n)


def test_count_twt_reversible(count_twt):
    ok, witness = check_reversible(count_twt)
    assert ok and witness is None


def test_seqnat_twt_not_reversible(seqnat_twt):
    ok, witness = check_reversible(seqnat_twt)
    assert not ok
    # the offending leaf is produced by two different transitions
    assert witness.leaf == ("num", "to-parent")
    assert {witness.key1[2], witness.key2[2]} == {"self", ("from-child", 1)}


def test_predecessor_walks_backwards(count_twt):
    tau = parse_tree("a(b(c),c)", count_twt.input)
    cfgs = forward_configs(count_twt, tau)
    back = [cfgs[-1]]
    m = WalkingMachine(count_twt, tau)
    while True:
        prev = predecessor(m, back[-1])
        if prev is None:
            break
        back.append(prev)
    assert back == list(reversed(cfgs))


def test_predecessor_requires_reversibility(seqnat_twt):
    tau = parse_tree(unary(2), seqnat_twt.input)
    m = WalkingMachine(seqnat_twt, tau)
    with pytest.raises(NotReversible):
        predecessor(m, m.initial())


def test_predecessor_of_an_unreached_configuration_is_none(count):
    tw = compile_to_twt(count)
    m = WalkingMachine(tw, parse_tree("a(b(c),c)", count.input))
    # a leaf whose first-child number is another node's
    leaf = next(i for i, (_, _, first, *_) in enumerate(m.nodes)
                if first < len(m.nodes) and m.nodes[first][1] != i)
    q = next(q for q, move in tw.inverse["c", False] if move == "to-parent")
    assert predecessor(m, WalkConfig(q, ("from-child", 1), leaf)) is None
    assert predecessor(m, WalkConfig(q, "from-parent", 0)) is None


def test_an_image_with_two_leaves_is_the_witness():
    spec = parse_twt("""
input { b:1, e:0 }
output { p:2, 0:0 }
state q init
delta-root b q self = p((r, stay),(s, to-child 1))
""")
    ok, witness = check_reversible(spec)
    assert not ok and str(witness) == \
        "leaf (r, stay) duplicated in map delta-root[b], key ('b', 'q', 'self')"


def test_purely_affine_specs_compile_to_reversible_twts(count, listcount):
    # the paper's first theorem on two corpus specs: every seeded run of
    # the compiled TWT walks back, one predecessor at a time, to initial()
    rng = random.Random(12)
    for spec in (count, listcount):
        tw = compile_to_twt(spec)
        assert check_reversible(tw) == (True, None)
        for _ in range(20):
            tau = gen_tree(rng, spec.input, 25)
            cfgs = forward_configs(tw, tau)
            m, back = WalkingMachine(tw, tau), [cfgs[-1]]
            while (prev := predecessor(m, back[-1])) is not None:
                back.append(prev)
            assert back == cfgs[::-1] and back[-1] == m.initial()


def test_walking_specs_handle_deep_images(tmp_path, capsys):
    # a delta-root image nested 3,000 deep parses, writes itself back,
    # is checked for reversibility and runs
    n = 3000
    text = ("input { e:0 }\noutput { S:1, 0:0 }\nstate q init\nstate r\n"
            f"delta-root e q self = {'S(' * n}(r, stay){')' * n}\n"
            "delta-root e r self = 0\n")
    spec = parse_twt(text)
    assert spec.to_str() == text and parse_twt(spec.to_str()) == spec
    assert check_reversible(spec) == (True, None)
    path = tmp_path / "deep.twt"
    path.write_text(text)
    assert main(["run", str(path), "e"]) == 0
    assert capsys.readouterr().out == "S(" * n + "0" + ")" * n + "\n"


def test_twt_serialization_roundtrip(count_twt):
    again = parse_twt(count_twt.to_str())
    tau = parse_tree("a(b(c),c)", count_twt.input)
    assert run_walking(again, tau).tree == run_walking(count_twt, tau).tree
    assert again.to_str() == count_twt.to_str()


def test_iptt_serialization_roundtrip(bin2unary):
    again = parse_iptt(bin2unary.to_str())
    tau = parse_tree(numeral(3), bin2unary.input)
    assert run_walking(again, tau).tree == run_walking(bin2unary, tau).tree
    assert again.to_str() == bin2unary.to_str()


def test_quote_state():
    assert quote_state("q0") == "q0"
    assert quote_state('odd name') == '"odd name"'
    assert quote_state('with "quote"') == r'"with \"quote\""'


def test_image_to_str():
    img = FNode("S", ((("q", "to-parent")),))
    assert image_to_str(img) == "S((q, to-parent))"
    img = FNode("cons", (("num", "stay"), ("spine", ("to-child", 1))))
    assert image_to_str(img) == "cons((num, stay),(spine, to-child 1))"


def test_iptt_exact_pebble_wins_over_any():
    text = """
input { e:0 }
output { S:1, 0:0 }
colors { a }
state q init
state r
delta e q self root pebble NONE = (r, put a)
delta e r self root pebble * = 0
"""
    tau = parse_tree("e", parse_iptt(text).input)
    assert run_walking(parse_iptt(text), tau).tree.to_str() == "0"
    exact = text + "delta e r self root pebble a = S(0)\n"
    assert run_walking(parse_iptt(exact), tau).tree.to_str() == "S(0)"
    # pebble * also covers the case of no visible pebble
    start = text.replace("pebble NONE", "pebble *")
    assert run_walking(parse_iptt(start), tau).tree.to_str() == "0"


def test_twt_rejects_pebble_moves():
    text = """
input { e:0 }
output { 0:0 }
state q init
delta-root e q self = (q, put p)
"""
    with pytest.raises(SpecError, match="pebble move"):
        parse_twt(text)


def plan_leaf(record):
    """The (state, move) leaf a plan record stands for."""
    q, kind, arg = record
    if kind == TO_CHILD:
        return q, ("to-child", arg + 1)
    if kind == PUT:
        return q, ("put", arg)
    return q, {STAY: "stay", TO_PARENT: "to-parent", REMOVE: "remove"}[kind]


def test_plans_pick_the_image_lookup_does(count, bin2bin, count_twt,
                                          bin2unary):
    specs = [compile_to_twt(count), compile_to_iptt(count),
             compile_to_iptt(bin2bin), count_twt, bin2unary]
    for spec in specs:
        # the reference rule: the transition for the exact pebble, else
        # the one for ANY
        table = {(a, q, p, r, z): img
                 for (a, q, p, *_), r, z, img in spec.transitions()}
        for a, q, p, is_root in {key[:4] for key in table}:
            plan = spec.plans[a, is_root][q, p]
            for z in [None, *spec.colors, "undeclared"]:
                picked = plan.get(z, plan.get(ANY)) \
                    if isinstance(plan, dict) else plan
                img = table.get((a, q, p, is_root, z),
                                table.get((a, q, p, is_root, ANY)))
                assert img == (None if picked is None else
                               image_map_leaves(picked, plan_leaf))


def one_state_iptt(image):
    return IpttSpec(RankedAlphabet.of({"b": 1, "e": 0}),
                    RankedAlphabet.of({"0": 0, "p": 2}), ["q"], "q", ["z"],
                    {("b", "q", "self", True, ANY): image})


@pytest.mark.parametrize("move,message", [
    ("remove", "remove with no visible pebble"),
])
def test_walking_step_errors(move, message):
    # the step that would make the move raises, also from inside an image
    for image in [("q", move), FNode("p", (("q", "stay"), ("q", move)))]:
        m = WalkingMachine(one_state_iptt(image), parse_tree("b(e)"))
        with pytest.raises(SpecError) as e:
            m.step(m.initial())
        assert str(e.value) == message


def test_remove_needs_the_top_pebble_on_this_node():
    # a pebble put at the root is not visible at its child, so there is
    # nothing to remove
    spec = parse_iptt("""
input { b:1, e:0 }
output { 0:0 }
colors { z }
state q init
delta b q self root pebble NONE = (r, put z)
delta b r self root pebble z = (s, to-child 1)
delta e s from-parent nonroot pebble NONE = (t, remove)
delta e t self nonroot pebble * = 0
""")
    with pytest.raises(SpecError) as e:
        run_walking(spec, parse_tree("b(e)"))
    assert str(e.value) == "remove with no visible pebble"


@pytest.mark.parametrize("move,message", [
    ("hop", "iptt: unknown move 'hop'"),
    (("hop", 1), "iptt: unknown move ('hop', 1)"),
    (("to-child", 2), "iptt: move to-child 2 at letter 'b' of rank 1"),
    (("to-child", 0), "iptt: move to-child 0 at letter 'b' of rank 1"),
    (("put", "zz"), "iptt: unknown color 'zz'"),
])
def test_unknown_and_out_of_range_moves_are_refused_at_load(move, message):
    # a move no node can make is refused when the spec is built, also from
    # inside an image
    for image in [("q", move), FNode("p", (("q", "stay"), ("q", move)))]:
        with pytest.raises(SpecError) as e:
            one_state_iptt(image)
        assert str(e.value) == message


def one_state_twt(image):
    return TwtSpec(RankedAlphabet.of({"b": 1, "e": 0}),
                   RankedAlphabet.of({"0": 0, "p": 2}), ["q"], "q", {},
                   {("b", "q", "self"): image})


@pytest.mark.parametrize("make", [one_state_twt, one_state_iptt],
                         ids=["twt", "iptt"])
def test_an_image_is_refused_for_its_first_fault(make):
    # an arity mismatch anywhere in an image is refused ahead of any leaf
    # that cannot be decoded, whichever side of it that leaf is on; of two
    # such leaves, the leftmost one is named
    ok = ("q", "stay")
    name = make(ok).name
    hop, hop1 = ("q", "hop"), ("q", ("hop", 1))
    short = FNode("p", (ok,))      # p has rank 2
    for image in [FNode("p", (hop, short)), FNode("p", (short, hop)),
                  FNode("p", (FNode("p", (hop, hop1)), short)),
                  FNode("p", (short, FNode("p", (hop, hop1)))),
                  FNode("p", (hop, FNode("p", (ok, short))))]:
        with pytest.raises(SpecError) as e:
            make(image)
        assert str(e.value) == f"{name}: arity mismatch at 'p'"
    for image, first in [
            (FNode("p", (hop, hop1)), "'hop'"),
            (FNode("p", (hop1, hop)), "('hop', 1)"),
            (FNode("p", (FNode("p", (ok, hop1)), hop)), "('hop', 1)"),
            (FNode("p", (ok, FNode("p", (hop, hop1)))), "'hop'")]:
        with pytest.raises(SpecError) as e:
            make(image)
        assert str(e.value) == f"{name}: unknown move {first}"


def test_root_image_to_parent_is_rejected_when_built(bin2unary, listcount):
    for image in [("q", "to-parent"),
                  FNode("p", (("q", "stay"), ("q", "to-parent")))]:
        with pytest.raises(SpecError, match="root image moves to-parent"):
            one_state_iptt(image)
    assert bin2unary.delta and compile_to_iptt(listcount).delta


def test_step_locates_configurations_it_did_not_make(count):
    # a copy the machine did not make steps as the original does, and a
    # node number the input does not have is refused
    spec = compile_to_iptt(count)
    tau = parse_tree("a(b(c),a(c,b(b(c))))", count.input)
    m, other = WalkingMachine(spec, tau), WalkingMachine(spec, tau)
    cfg, steps = m.initial(), 0
    while True:
        res = m.step(cfg)
        copy = WalkConfig(cfg.state, cfg.prov, cfg.node, cfg.pebbles)
        assert other.step(copy) == res
        steps += 1
        leaves = frontier_configs(res)
        if not leaves:
            break
        cfg = frontier_get(res, leaves[0])
    assert steps > 50
    for node in (len(m.nodes), -1, (0, 1)):
        with pytest.raises(SpecError) as e:
            m.step(WalkConfig(spec.initial, "from-parent", node))
        assert str(e.value) == f"no node {node!r} in the input"


def test_run_remembers_no_stepped_configuration(bin2bin):
    # many heads at once: every configuration is stepped exactly once
    tau = parse_tree("1(0(1(e)))", bin2bin.input)
    m = WalkingMachine(compile_to_iptt(bin2bin), tau)
    res = treegen_run(m, m.initial())
    assert isinstance(res, Output) and res.tree == bin2bin.eval_normalize(tau)


# names a spec file can hold, and ones it cannot
STATE_NAMES = ["q", "q 1", 'say "hi"', "back\\slash", "->", "a-b", "x_y", "",
               "init", "NONE", "stay", "(", ",", "=", " pad ", "tab\t", "é",
               "\\", '"', "q#1", "#", "two\nlines", "cr\r", "ff\x0c"]
GOOD_COLORS = ["o", "p", "z1", "a}", "{a", "é"]
COLORS = GOOD_COLORS + ["a#b", "a b", "NONE", "*", "", "x)", '"', "o"]
IN = RankedAlphabet.of({"a": 2, "b": 1, "c": 0})
OUT = RankedAlphabet.of({"S": 1, "f": 2, "0": 0})


def random_walking_spec(rng, pebbles):
    """The class and arguments of a random TWT or IPTT over IN and OUT
    whose transitions are well formed, with states from STATE_NAMES and
    colors from COLORS."""
    states = rng.sample(STATE_NAMES, rng.randint(1, 4))
    colors = rng.sample(COLORS, rng.randint(0, 3))
    used = states + rng.sample(STATE_NAMES, 1)  # one maybe not declared
    state = partial(rng.choice, used)

    def image(letter, is_root, depth):
        if depth and rng.random() < 0.4:
            label, rank = rng.choice(OUT.letters)
            return FNode(label, tuple(image(letter, is_root, depth - 1)
                                      for _ in range(rank)))
        moves = ["stay"] + [("to-child", i)
                            for i in range(1, IN.rank(letter) + 1)]
        if not is_root:
            moves.append("to-parent")
        if pebbles:
            moves += ["remove"] + [("put", c) for c in colors]
        return state(), rng.choice(moves)

    delta, delta_root = {}, {}
    for _ in range(rng.randint(1, 6)):
        letter, rank = rng.choice(IN.letters)
        is_root = rng.random() < 0.3
        provs = ["self"] + [("from-child", i) for i in range(1, rank + 1)]
        if not is_root:
            provs.append("from-parent")
        key = letter, state(), rng.choice(provs)
        img = image(letter, is_root, 2)
        if pebbles:
            z = rng.choice([None, ANY, *colors])
            delta[key + (is_root, z)] = img
        else:
            (delta_root if is_root else delta)[key] = img
    initial = rng.choice(states)
    if pebbles:
        return IpttSpec, (IN, OUT, states, initial, colors, delta)
    return TwtSpec, (IN, OUT, states, initial, delta, delta_root)


@pytest.mark.parametrize("pebbles", [False, True], ids=["twt", "iptt"])
def test_every_walking_spec_that_builds_reads_back_as_written(pebbles):
    rng = random.Random(24)
    built = 0
    for _ in range(2000):
        cls, args = random_walking_spec(rng, pebbles)
        colors = args[4] if pebbles else []
        tables = args[5:] if pebbles else args[4:]
        names = {*args[2], *(key[1] for table in tables for key in table),
                 *(leaf[0] for table in tables for img in table.values()
                   for leaf in image_leaves(img))}
        # refused just when it names a state or a color no file can hold
        unwritable = [q for q in names
                      if "#" in q or "".join(q.splitlines()) != q]
        bad_colors = [c for c in colors if c not in GOOD_COLORS]
        if unwritable or bad_colors or len(set(colors)) < len(colors):
            with pytest.raises(SpecError):
                cls(*args)
            continue
        spec = cls(*args)
        built += 1
        text = spec.to_str()
        parse = parse_iptt if pebbles else parse_twt
        assert parse(text).to_str() == text, text
    assert built > 300


@pytest.mark.parametrize("make,message", [
    (lambda: TwtSpec(IN, OUT, ["q#1"], "q#1", {}, {}),
     "twt: state 'q#1' holds '#', which starts a comment in a spec file"),
    (lambda: TwtSpec(IN, OUT, ["q"], "q",
                     {("b", "q", "self"): ("two\nlines", "stay")}, {}),
     "twt: state 'two\\nlines' holds a line break, which ends a spec "
     "file's line"),
    (lambda: IpttSpec(IN, OUT, ["q"], "q", ["a", "a#b"], {}),
     "iptt: color 'a#b' holds '#', which starts a comment"),
    (lambda: IpttSpec(IN, OUT, ["q"], "q", ["a b"], {}),
     "iptt: color 'a b' is not one word"),
    (lambda: TwtSpec(IN, OUT, ["q", "spine", "spine"], "q", {}, {}),
     "twt: duplicate state 'spine'"),
    (lambda: IpttSpec(IN, OUT, ["q"], "p", [], {}),
     "iptt: initial state 'p' is not among the states"),
], ids=["hash-state", "line-break-state", "hash-color", "two-word-color",
        "duplicate-state", "initial-not-a-state"])
def test_a_name_no_spec_file_can_hold_is_refused(make, message):
    with pytest.raises(SpecError) as e:
        make()
    assert str(e.value) == message
