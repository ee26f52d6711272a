import tracemalloc

import pytest

from lamtrans.core import App, Lam, RankedAlphabet, parse_term, parse_tree
from lamtrans.iam import TermInfo
from lamtrans.typecheck import (Arrow, Bang, O, TIER_NAMES, TypingError,
                                classify_type, const_type, fill_hints,
                                navigate, parse_type, subst_base, type_height,
                                type_to_str, typecheck)

OUT = RankedAlphabet.of({"a": 2, "b": 1, "c": 0, "S": 1, "0": 0})


# -- types ------------------------------------------------------------------

def test_type_parse_print_roundtrip():
    for s in ["o", "o -o o", "!o -o o", "!(!o -o !o) -o o",
              "(o -o o) -o o -o o", "!!o -o o"]:
        assert type_to_str(parse_type(s)) == s


def test_arrow_right_associates():
    assert parse_type("o -o o -o o") == Arrow(O, Arrow(O, O))


def test_bang_binds_tightest():
    assert parse_type("!o -o o") == Arrow(Bang(O), O)


def test_subst_base():
    A = parse_type("!o -o o")
    assert subst_base(A, parse_type("o -o o")) == \
        parse_type("!(o -o o) -o o -o o")


def test_type_height():
    assert type_height(O) == 0
    assert type_height(parse_type("o -o o")) == 1
    assert type_height(parse_type("(o -o o) -o o")) == 2
    assert type_height(parse_type("!(!o -o !o) -o o")) == 2


def test_const_type():
    assert const_type(0) == O
    assert const_type(2) == parse_type("o -o o -o o")


def test_navigate():
    oo = parse_type("o -o o")
    assert navigate(oo, ()) == oo
    assert navigate(oo, ("p",)) == O          # into the result
    assert navigate(oo, ("o",)) == O          # into the argument
    # bang is stripped before anything else
    assert navigate(parse_type("!o"), ()) == O
    assert navigate(parse_type("!(o -o o)"), ("p",)) == O
    # base type with a leftover tape points nowhere
    assert navigate(O, ("p",)) is None


def test_type_passes_work_past_the_recursion_limit():
    k = 5000
    bangs, arrows = O, O
    for _ in range(k):
        bangs, arrows = Bang(bangs), Arrow(arrows, O)
    assert type_to_str(bangs) == "!" * k + "o"
    assert type_to_str(arrows) == \
        "(" * (k - 1) + "o -o o" + ") -o o" * (k - 1)
    assert (classify_type(bangs), type_height(bangs)) == (3, 0)
    assert (classify_type(arrows), type_height(arrows)) == (0, k)
    assert type_to_str(subst_base(bangs, Arrow(O, O))) == \
        "!" * k + "(o -o o)"
    assert navigate(bangs, "") is O
    assert navigate(arrows, "o" * k) is O and navigate(arrows, "p") is O


# -- classification ---------------------------------------------------------

def test_classify_type_tiers():
    assert classify_type(parse_type("(o -o o) -o o")) == 0
    assert classify_type(parse_type("!o -o o")) == 1
    assert classify_type(parse_type("!(!o -o !o) -o o")) == 2
    assert classify_type(parse_type("!(!(o -o o) -o o) -o o")) == 3
    assert TIER_NAMES == ["purely-affine", "almost-purely-affine",
                          "almost-depth-1", "general"]


@pytest.mark.parametrize("src,ty,tier", [
    (r"\l.\r.\x. l (r x)", "(o -o o) -o (o -o o) -o o -o o", 0),
    (r"\g. \x. let !y = x in a y (g !(S y))",
     "(!o -o o) -o !o -o o", 1),
    (r"\g. \x. let !f = x in g !(\y. let !z = f (f y) in !(a z z))",
     "(!(!o -o !o) -o o) -o !(!o -o !o) -o o", 2),
])
def test_classify_term(src, ty, tier):
    ann = typecheck(parse_term(src, OUT), ty=parse_type(ty), alphabet=OUT)
    assert TermInfo(ann).tier == tier


# -- the typechecker itself -------------------------------------------------

def test_affine_variables_used_at_most_once():
    with pytest.raises(TypingError):
        typecheck(parse_term(r"\x. a x x", OUT),
                  ty=parse_type("o -o o"), alphabet=OUT)


def test_second_use_of_an_affine_variable_is_named():
    with pytest.raises(TypingError) as e:
        typecheck(parse_term(r"\x. a x x", OUT),
                  ty=parse_type("o -o o"), alphabet=OUT)
    assert str(e.value) == "affine variable 'x' used twice"


def test_failed_trial_under_a_let_unbinds_its_variable():
    # the trial synthesis of the function fails inside the let's body;
    # the fallback must not see x
    t = parse_term(r"(let !x = !c in \z. z) x", extra_consts=("c",))
    with pytest.raises(TypingError) as e:
        typecheck(t, ty=O, consts={"c": O})
    assert str(e.value) == "unbound variable 'x'"


def test_failed_trial_under_a_lambda_unbinds_its_variable():
    # the trial binds the outer y as affine and fails on the unhinted inner
    # lambda; the box in the fallback must see theta's unrestricted y again
    t = parse_term(r"(\y. \y. c) y !y", extra_consts=("c",))
    outer = t.fn.fn
    t = App(App(Lam(outer.var, outer.body, O), t.fn.arg), t.arg)
    ann = typecheck(t, ty=O, theta={"y": O}, consts={"c": O})
    assert ann.type == O


def test_program_check_memory_is_linear(count):
    # count on the balanced 4,095-node tree: a checker that copies its
    # tables before each trial holds about twice what it returns at peak
    tree = "c"
    for _ in range(11):
        tree = f"a({tree},{tree})"
    term = count.program_term(parse_tree(tree, count.input))
    tracemalloc.start()
    try:
        ann = typecheck(term, ty=O, alphabet=count.output)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ann.type == O
    assert peak <= 1.3 * held


def test_let_bound_variables_may_repeat():
    ann = typecheck(parse_term(r"\y. let !x = y in a x x", OUT),
                    ty=parse_type("!o -o o"), alphabet=OUT)
    assert TermInfo(ann).tier == 1


def test_box_cannot_capture_affine_variables():
    with pytest.raises(TypingError):
        typecheck(parse_term(r"\x. !x"), ty=parse_type("o -o !o"),
                  alphabet=OUT)


def test_box_may_use_let_variables():
    typecheck(parse_term(r"\y. let !x = y in !x"),
              ty=parse_type("!o -o !o"), alphabet=OUT)


def test_unbound_variable_rejected():
    with pytest.raises(TypingError):
        typecheck(parse_term("x"), ty=O, alphabet=OUT)


def test_wrong_type_rejected():
    with pytest.raises(TypingError):
        typecheck(parse_term("c", OUT), ty=parse_type("o -o o"),
                  alphabet=OUT)


def test_fill_hints_makes_term_synthesizable():
    t = parse_term(r"\f. f 0", OUT)
    ann = typecheck(t, ty=parse_type("(o -o o) -o o"), alphabet=OUT)
    hinted = fill_hints(ann)
    # no target type needed any more
    ann2 = typecheck(hinted, alphabet=OUT)
    assert ann2.type == parse_type("(o -o o) -o o")


def test_an_undone_trial_frees_the_binder_it_used():
    # checked against o, the application first synthesizes its function,
    # which uses x and then fails on the unhinted \f. f; the retry checks
    # the function against o -o o and must find x unused again, though x
    # is bound outside the trial's positions
    t = parse_term(r"\x. (let !u = x in \f. f) c", OUT)
    A = parse_type("!o -o o")
    ann = typecheck(t, ty=A, alphabet=OUT)
    assert ann.type == A
    # the retry's slots alone: x at 3 and f at 5, each bound by a lambda
    assert ann.var_kind == [None, None, None, "lam", None, "lam", None]
    assert ann.occ_binder == [None, None, None, -3, None, -1, None]
