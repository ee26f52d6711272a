import random
import re

import pytest

from lamtrans import corpus_path
from lamtrans.cli import main
from lamtrans.compiler import compile_walking
from lamtrans.core import Tree, parse_term, parse_tree
from lamtrans.gls import (conversions, dummy_term, make_type_constant,
                          parse_gls, relabel_letter, split_state_relabeling)
from lamtrans.reduction import normalize
from lamtrans.transducer import SpecError, parse_transducer
from lamtrans.typecheck import O, parse_type, typecheck
from lamtrans.walking import parse_iptt, parse_twt
from reference_terms import (alpha_eq, eta_reduce, is_linear,
                             sample_normal_term)


def random_ac_tree(rng, depth=4):
    if depth == 0 or rng.random() < 0.4:
        return Tree("c", ())
    return Tree("a", (random_ac_tree(rng, depth - 1),
                      random_ac_tree(rng, depth - 1)))


def mirror_oracle(tau, even=True):
    """Direct recursive definition: swap children at even depth."""
    if tau.label == "c":
        return tau
    l, r = (mirror_oracle(t, not even) for t in tau.children)
    return Tree("a", (r, l) if even else (l, r))


def test_mirror_against_oracle(mirror):
    rng = random.Random(1)
    for _ in range(30):
        tau = random_ac_tree(rng)
        assert mirror.run(tau) == mirror_oracle(tau)


def test_mirror_example(mirror):
    tau = parse_tree("a(a(c,c),c)", mirror.input)
    assert mirror.run(tau).to_str() == "a(c,a(c,c))"


def test_gls_to_str_roundtrip(mirror):
    again = parse_gls(mirror.to_str())
    tau = parse_tree("a(c,a(c,c))", mirror.input)
    assert again.run(tau) == mirror.run(tau)


def test_state_types_must_be_purely_affine():
    src = ("input { c:0 }\noutput { c:0 }\n"
           "state q : !o -o o\ninit q\n"
           "rule q c -> = \\x. let !y = x in y\nout = \\f. f !c\n")
    with pytest.raises(Exception):
        parse_gls(src)


def test_ill_typed_rules_name_the_spec_and_rule():
    head = "input { c:0 }\noutput { c:0 }\nstate q : o -o o\ninit q\n"
    with pytest.raises(SpecError, match=re.escape(
            "bad.gls: rule (q,c) does not have type o -o o: expected "
            "o -o o, got o: c")):
        parse_gls(head + "rule q c -> = c\nout = \\f. f c\n",
                  name="bad.gls")
    with pytest.raises(SpecError, match=re.escape(
            "bad.gls: out does not have type (o -o o) -o o: expected o, "
            "got o -o o: f")):
        parse_gls(head + "rule q c -> = \\x. c\nout = \\f. f\n",
                  name="bad.gls")


def test_make_type_constant_preserves_outputs(mirror):
    const = make_type_constant(mirror)
    A0 = const.state_types[const.init]
    assert all(A == A0 for A in const.state_types.values())
    rng = random.Random(2)
    for _ in range(20):
        tau = random_ac_tree(rng)
        assert const.run(tau) == mirror.run(tau)


def test_split_state_relabeling(mirror):
    const = make_type_constant(mirror)
    relabel, trans = split_state_relabeling(const)
    # the relabeling annotates each node with its propagated state
    tau = parse_tree("a(c,c)", mirror.input)
    assert relabel(tau).to_str() == "a_qe(c_qo,c_qo)"
    rng = random.Random(3)
    for _ in range(20):
        t = random_ac_tree(rng)
        assert trans.eval_normalize(relabel(t)) == mirror.run(t)


def test_split_requires_type_constant(mirror):
    src = ("input { b:1, c:0 }\noutput { b:1, c:0 }\n"
           "state q : o -o o\nstate r : o\ninit q\n"
           "rule q b -> r = \\s. \\x. b s\n"
           "rule q c -> = \\x. c\n"
           "rule r b -> r = \\s. s\n"
           "rule r c -> = c\n"
           "out = \\f. f c\n")
    spec = parse_gls(src)
    with pytest.raises(Exception):
        split_state_relabeling(spec)


def test_dummy_term_inhabits_its_type(mirror):
    A = parse_type("(o -o o) -o o -o o")
    d = dummy_term(A, "c")
    ann = typecheck(d, ty=A, alphabet=mirror.output)
    assert ann.type == A


def test_cast_after_iota_is_identity(mirror):
    # cast_q (iota_q t) normalizes back to t (up to eta) for normal t
    rng = random.Random(4)
    from lamtrans.core import App
    _, iota_of, cast_of = conversions(mirror)
    for q in mirror.state_order():
        iota, cast = iota_of(q), cast_of(q)
        A = mirror.state_types[q]
        for _ in range(10):
            t = sample_normal_term(A, mirror.output, rng)
            back = normalize(App(cast, App(iota, t)))
            assert alpha_eq(eta_reduce(back), eta_reduce(t))


def test_iota_is_affine_but_not_linear(mirror):
    q = mirror.init
    iota = conversions(mirror)[1](q)
    ann = typecheck(iota, alphabet=mirror.output)
    assert not is_linear(ann)
    ident = typecheck(parse_term(r"\x. x"), ty=parse_type("o -o o"))
    assert is_linear(ident)


def test_relabel_letter():
    assert relabel_letter("a", "qe") == "a_qe"


def test_split_letters_must_be_distinct():
    # letter a in state q_e and letter a_q in state e would both be a_q_e
    src = ("input { a:1, a_q:1, c:0 }\noutput { c:0 }\n"
           "state q_e : o\nstate e : o\ninit q_e\n"
           "rule q_e a -> e = \\s. s\n"
           "rule e a_q -> e = \\s. s\n"
           "rule e c -> = c\n"
           "out = \\x. x\n")
    with pytest.raises(SpecError, match=re.escape(
            "gls: letter 'a_q' in state 'e' and letter 'a' in state 'q_e' "
            "both split to 'a_q_e'")):
        split_state_relabeling(parse_gls(src))


def test_split_transducer_reads_back_as_written(mirror):
    relabel, trans = split_state_relabeling(make_type_constant(mirror))
    text = trans.to_str()
    back = parse_transducer(text, name=trans.name)
    assert back.to_str() == text
    for target, parse in (("twt", parse_twt), ("iptt", parse_iptt)):
        compiled = compile_walking(trans, target).to_str()
        assert parse(compiled).to_str() == compiled
    rng = random.Random(6)
    for _ in range(10):
        tau = relabel(random_ac_tree(rng))
        assert back.eval_normalize(tau) == trans.eval_normalize(tau)


def test_type_constant_spec_reads_back_as_written(mirror):
    const = make_type_constant(mirror)
    text = const.to_str()
    assert "rule qe a -> qo qo = \\y1_. \\y2_. \\x1_. \\x2_. " \
        "a (y2_ c c) (y1_ c c)\n" in text
    back = parse_gls(text, name=const.name)
    assert back.to_str() == text
    rng = random.Random(7)
    for _ in range(200):
        tau = random_ac_tree(rng)
        assert back.run(tau) == mirror.run(tau)


def test_gls_runs_on_a_comb_deeper_than_the_recursion_limit(
        mirror, capsys, tmp_path):
    # mirror.gls swaps the children of a-nodes at even depth
    tau = want = Tree("c")
    for depth in reversed(range(3000)):
        tau = Tree("a", (Tree("c"), tau))
        want = Tree("a", (want, Tree("c")) if depth % 2 == 0
                    else (Tree("c"), want))
    relabel, trans = split_state_relabeling(make_type_constant(mirror))
    assert mirror.run(tau) == want
    assert make_type_constant(mirror).run(tau) == want
    assert trans.eval_normalize(relabel(tau)) == want
    path = tmp_path / "comb"
    path.write_text(tau.to_str())
    assert main(["run", corpus_path("mirror.gls"), f"@{path}"]) == 0
    assert capsys.readouterr().out == want.to_str() + "\n"
