import pytest

from lamtrans.core import LamtransError, parse_tree
from lamtrans.iam import (ClassificationTooHigh, Config, IamMachine, LogEntry,
                          StackEntry, TermInfo, mult_tape, pick_variant,
                          run_iam)
from lamtrans.treegen import FNode, Output
from conftest import numeral, unary

# Hand-derived first eleven configurations of the purely affine machine on
# the count program for a(b(c),c): (direction, position, multiplicative
# tape).  The token enters through the output extractor, bounces off the 0
# argument, and descends into the instantiated input.
GOLDEN_PREFIX = [
    ("down", (), ""),
    ("down", (0,), "p"),
    ("down", (0, 0), ""),
    ("down", (0, 0, 0), "p"),
    ("up", (0,), "op"),
    ("down", (1,), "p"),
    ("down", (1, 0), "pp"),
    ("down", (1, 0, 0), "ppp"),
    ("down", (1, 0, 0, 0), "pp"),
    ("down", (1, 0, 0, 0, 0), "p"),
    ("down", (1, 0, 0, 0, 0, 0), ""),
]


def test_pa_machine_golden_prefix(count):
    ann = count.program_ann(parse_tree("a(b(c),c)", count.input))
    m = IamMachine(TermInfo(ann), "pa")
    cfg = m.initial()
    got = []
    for _ in GOLDEN_PREFIX:
        got.append((cfg.direction, m.info.path(cfg.pos), mult_tape(cfg.tape)))
        cfg = m.step(cfg)
        assert isinstance(cfg, Config)
    assert got == GOLDEN_PREFIX


def test_pa_machine_count_output_and_steps(count):
    ann = count.program_ann(parse_tree("a(b(c),c)", count.input))
    res = run_iam(ann, "pa", check=True)
    assert isinstance(res, Output)
    assert res.tree.to_str() == "S(S(S(0)))"
    assert res.steps == 52


def test_apa_machine_matches_normalization(seqnat):
    for n in range(7):
        tau = parse_tree(unary(n), seqnat.input)
        expected = seqnat.eval_normalize(tau)
        res = run_iam(seqnat.program_ann(tau), "apa", check=True)
        assert isinstance(res, Output)
        assert res.tree == expected


def test_apa_machine_frozen_step_count(seqnat):
    tau = parse_tree(unary(3), seqnat.input)
    res = run_iam(seqnat.program_ann(tau), "apa")
    assert res.steps == 115


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_depth1_layouts_bisimilar(bin2bin, n):
    # the two-stack and single-stack layouts take exactly the same steps
    tau = parse_tree(numeral(n), bin2bin.input)
    expected = bin2bin.eval_normalize(tau)
    ann = bin2bin.program_ann(tau)
    d1 = run_iam(ann, "d1", check=True)
    ss = run_iam(ann, "ss", check=True)
    assert isinstance(d1, Output) and isinstance(ss, Output)
    assert d1.tree == expected
    assert ss.tree == expected
    assert d1.steps == ss.steps


def test_variant_gating(count, seqnat, bin2bin):
    seq_ann = seqnat.program_ann(parse_tree(unary(1), seqnat.input))
    with pytest.raises(ClassificationTooHigh):
        IamMachine(TermInfo(seq_ann), "pa")
    bin_ann = bin2bin.program_ann(parse_tree(numeral(1), bin2bin.input))
    with pytest.raises(ClassificationTooHigh):
        IamMachine(TermInfo(bin_ann), "apa")
    # and the purely affine program runs on every variant
    cnt_ann = count.program_ann(parse_tree("c", count.input))
    for variant in ("pa", "apa", "d1", "ss"):
        assert isinstance(run_iam(cnt_ann, variant), Output)


def test_pick_variant():
    assert pick_variant(0) == "pa"
    assert pick_variant(1) == "apa"
    assert pick_variant(2) == "ss"
    with pytest.raises(ClassificationTooHigh):
        pick_variant(3)


def test_variants_agree_across_tiers(count, seqnat):
    tau = parse_tree("a(b(c),c)", count.input)
    ann = count.program_ann(tau)
    outs = {v: run_iam(ann, v).tree for v in ("pa", "apa", "d1", "ss")}
    assert len(set(outs.values())) == 1
    tau = parse_tree(unary(4), seqnat.input)
    ann = seqnat.program_ann(tau)
    outs = {v: run_iam(ann, v).tree for v in ("apa", "d1", "ss")}
    assert len(set(outs.values())) == 1


def test_constant_emission_shape(count):
    # stepping a token sitting on a rank-2 constant with k 'p's on the tape
    # emits the letter and dispatches one token per child
    ann = count.program_ann(parse_tree("a(b(c),c)", count.input))
    res = run_iam(ann, "pa")
    assert res.tree.to_str() == "S(S(S(0)))"


def test_render_mentions_tape(count):
    ann = count.program_ann(parse_tree("c", count.input))
    m = IamMachine(TermInfo(ann), "pa")
    s = m.render(m.initial())
    assert '"' in s and ">" in s


@pytest.mark.parametrize("variant", ["d1", "ss"])
def test_checked_run_checks_each_stepped_configuration(bin2bin, monkeypatch,
                                                       variant):
    # the checks must see exactly the configurations that are stepped, in
    # order, the later links of a chain of bare-configuration results too
    ann = bin2bin.program_ann(parse_tree(numeral(3), bin2bin.input))
    want = run_iam(ann, variant)
    checked, stepped, results = [], [], []
    advance, check = IamMachine.advance, IamMachine.check_invariants

    def spy_advance(self, cfg, budget):
        # a checked run takes its steps one at a time
        assert budget == 1
        stepped.append(cfg)
        results.append(advance(self, cfg, budget))
        return results[-1]

    def spy_check(self, cfg):
        checked.append(cfg)
        check(self, cfg)

    monkeypatch.setattr(IamMachine, "advance", spy_advance)
    monkeypatch.setattr(IamMachine, "check_invariants", spy_check)
    got = run_iam(ann, variant, check=True)
    assert got == want
    assert len(checked) == len(stepped) == got.steps
    assert all(c is s for c, s in zip(checked, stepped))
    assert any(res is None for res, _, _ in results)
    assert sum(isinstance(res, FNode) for res, _, _ in results) > 1


def test_a_position_is_a_number_of_the_term(count):
    # a list index would read -1 as the last position and fail on a tuple
    # with a TypeError; the machine refuses both
    ann = count.program_ann(parse_tree("c", count.input))
    m = IamMachine(TermInfo(ann), "pa")
    size = len(m.info.down)
    m.step(Config("down", size - 1, ()))
    for pos in (-1, size, (), True):
        with pytest.raises(LamtransError, match="no position"):
            m.step(Config("down", pos, ()))


@pytest.mark.parametrize("entry", [LogEntry, StackEntry])
def test_a_log_entry_hashes_once(entry):
    # the memo of an unpaused run hashes configurations as their logs grow,
    # so each entry is hashed when it is new and its log was hashed before;
    # a hash that walked the whole nest would pass the recursion limit here
    n = 5_000
    e = entry(0, ())
    for i in range(1, n):
        hash(e)
        last, e = e, entry(i, (e,))
    assert hash(e) == hash((n - 1, (last,)))
    copy = entry(n - 1, (last,))
    assert copy == e and hash(copy) == hash(e)
