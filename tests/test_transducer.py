import pytest

from lamtrans.cli import main
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import Box, encode_tree, parse_term, parse_tree
from lamtrans.iam import ClassificationTooHigh, run_iam
from lamtrans.reduction import normalize
from lamtrans.transducer import SpecError, compose, parse_transducer
from lamtrans.typecheck import O, parse_type, type_to_str
from conftest import numeral, unary
from reference_terms import alpha_eq, identity_transducer
from reference_translate import (NotAlmostAffine, infer_simple_types,
                                 wn_translate)


def test_corpus_tiers(count, seqnat, bin2bin, listcount):
    assert count.tier_name() == "purely-affine"
    assert seqnat.tier_name() == "almost-purely-affine"
    assert bin2bin.tier_name() == "almost-depth-1"
    assert listcount.tier_name() == "purely-affine"


def test_count_example(count):
    tau = parse_tree("a(b(c),c)", count.input)
    assert count.eval_normalize(tau).to_str() == "S(S(S(0)))"
    assert run_iam(count.program_ann(tau)).tree.to_str() == "S(S(S(0)))"


def test_seqnat_examples(seqnat):
    tau = parse_tree(unary(2), seqnat.input)
    assert seqnat.eval_normalize(tau).to_str() == \
        "cons(S(0),cons(S(S(0)),nil))"
    assert seqnat.eval_normalize(parse_tree("0", seqnat.input)).to_str() \
        == "nil"


def test_bin2bin_example(bin2bin):
    # 0(0(1(0(e)))) encodes two; the output is the complete binary tree
    # with seven nodes
    tau = parse_tree("0(0(1(0(e))))", bin2bin.input)
    assert bin2bin.eval_normalize(tau).to_str() == "a(a(c,c),a(c,c))"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_bin2bin_output_size(bin2bin, n):
    tau = parse_tree(numeral(n), bin2bin.input)
    assert bin2bin.eval_normalize(tau).size() == 2 ** (n + 1) - 1


def test_to_str_roundtrip(count, seqnat, bin2bin):
    for spec in (count, seqnat, bin2bin):
        again = parse_transducer(spec.to_str())
        tau = parse_tree("c" if "c" in spec.input else numeral(1)
                         if "e" in spec.input else unary(2), spec.input)
        assert again.eval_normalize(tau) == spec.eval_normalize(tau)


def test_missing_rule_rejected():
    with pytest.raises(SpecError, match="^transducer: missing rule for input "
                       "letter 'c'$"):
        parse_transducer("input { c:0 }\noutput { c:0 }\nmemory o\n"
                         "out = \\x. x\n")
    # a rule read before the input alphabet is checked with the whole spec
    with pytest.raises(SpecError, match="^transducer: rule for unknown "
                       "letter 'd'$"):
        parse_transducer("output { c:0 }\nrule c = c\nrule d = c\n"
                         "input { c:0 }\nmemory o\nout = \\x. x\n")
    # but a term needs the output alphabet it is written over
    with pytest.raises(SpecError, match="^transducer:1: the output alphabet "
                       "must come before terms$"):
        parse_transducer("rule c = c\ninput { c:0 }\noutput { c:0 }\n"
                         "memory o\nout = \\x. x\n")


def test_ill_typed_rule_rejected():
    with pytest.raises(SpecError):
        parse_transducer("input { c:0 }\noutput { d:0 }\nmemory o\n"
                         "rule c = \\x. x\nout = \\x. x\n")


# Where a spec's tier comes from: the largest tier among its blocks.  A
# normal form's types are made of the memory type's parts, so a rule or the
# out-term raises the tier above the memory type's only by nesting boxes
# around a let-bound variable of non-base type.
TIER_HEAD = "input { a:1, c:0 }\noutput { S:1, 0:0 }\n"
TIER_SPECS = {
    # no box and no let: tier 2 from !(!o -o o) in the memory type
    "memory": "memory !(!o -o o) -o o\n"
              "rule a = \\f. f\nrule c = \\x. 0\nout = \\g. 0\n",
    # rule a uses f, of a tier-1 type, inside two boxes
    "rule": "memory !(!o -o o)\n"
            "rule a = \\x. let !f = x in !(\\y. let !w = y in f !(S (f !w)))\n"
            "rule c = !(\\y. 0)\nout = \\x. let !f = x in f !0\n",
    # so does the out-term
    "out": "memory !(!o -o o)\nrule a = \\m. m\n"
           "rule c = !(\\y. let !w = y in S w)\n"
           "out = \\x. let !f = x in f !(S (f !(S (f !0))))\n",
}


@pytest.mark.parametrize("source, tier, block_tiers", [
    ("memory", "almost-depth-1", [2, 2, 2]),
    ("rule", "general", [2, 3, 2]),
    ("out", "general", [3, 2, 2]),
])
def test_tier_comes_from_the_blocks(source, tier, block_tiers):
    spec = parse_transducer(TIER_HEAD + TIER_SPECS[source], name=source)
    # blocks in order: the out-term's, then a's and c's
    assert [block.info.tier for block in spec.blocks] == block_tiers
    assert spec.tier_name() == tier


def test_a_general_spec_classifies_and_does_not_compile(tmp_path, capsys):
    path = tmp_path / "general.lt"
    path.write_text(TIER_HEAD + TIER_SPECS["rule"])
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == "general\n"
    spec = parse_transducer(path.read_text(), name="general.lt")
    for compile_to, needs in [(compile_to_twt, "walking compilation needs "
                               "almost-purely-affine"),
                              (compile_to_iptt, "pebble compilation needs "
                               "almost-depth-1")]:
        with pytest.raises(ClassificationTooHigh,
                           match=f"^general.lt is general; {needs} or lower"):
            compile_to(spec)


def test_identity_transducer(count):
    ident = identity_transducer(count.input)
    for s in ["c", "a(b(c),c)", "a(a(c,c),b(b(c)))"]:
        tau = parse_tree(s, count.input)
        assert ident.eval_normalize(tau) == tau


def test_compose_memory_and_tier(seqnat, listcount):
    comp = compose(seqnat, listcount)
    # !o with o := (o -o o) substituted
    assert type_to_str(comp.memory) == "!(o -o o) -o o -o o"
    assert comp.tier_name() == "almost-depth-1"


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_compose_agrees_with_pipeline(seqnat, listcount, k):
    comp = compose(seqnat, listcount)
    tau = parse_tree(unary(k), seqnat.input)
    pipeline = listcount.eval_normalize(seqnat.eval_normalize(tau))
    assert comp.eval_normalize(tau) == pipeline
    assert run_iam(comp.program_ann(tau)).tree == pipeline


def test_compose_with_identity_is_neutral(count):
    ident = identity_transducer(count.output)
    comp = compose(count, ident)
    tau = parse_tree("a(b(c),c)", count.input)
    assert comp.eval_normalize(tau) == count.eval_normalize(tau)


def test_compose_alphabet_mismatch(count, seqnat):
    # seq-nat emits lists but count reads {a, b, c}
    with pytest.raises(SpecError):
        compose(seqnat, count)


# -- translation of simply typed terms --------------------------------------

def test_infer_simple_types(count):
    t = parse_term(r"\f. \x. f (f x)", count.input)
    A, _ = infer_simple_types(t, count.input)
    assert A == parse_type("(o -o o) -o o -o o")


def test_translate_base_term(count):
    # t normalizes to the encoding of b(b(c)); ?t to its boxed encoding
    t = parse_term(r"(\x. b (b x)) c", count.input)
    trans = wn_translate(t, count.input)
    expected = parse_tree("b(b(c))", count.input)
    assert alpha_eq(normalize(trans), Box(encode_tree(expected)))


def test_translate_repeated_base_variable(count):
    t = parse_term(r"(\x. a x x) c", count.input)
    trans = wn_translate(t, count.input)
    assert alpha_eq(normalize(trans),
                    Box(encode_tree(parse_tree("a(c,c)", count.input))))


def test_translate_rejects_repeated_higher_order(count):
    t = parse_term(r"(\f. \x. f (f x)) b c", count.input)
    with pytest.raises(NotAlmostAffine):
        wn_translate(t, count.input)
