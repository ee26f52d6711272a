import random

import pytest

import lamtrans.gls
import lamtrans.transducer
from lamtrans import corpus_path
from lamtrans.cli import gen_tree
from lamtrans.core import (App, Box, Const, Lam, Let, RankedAlphabet,
                           TooDeep, Var, children, decode_tree, parse_term,
                           parse_tree)
from lamtrans.gls import load_gls, make_type_constant, split_state_relabeling
from lamtrans.reduction import OutOfFuel, normalize
from lamtrans.transducer import compose, load_transducer
from lamtrans.typecheck import Arrow, O, typecheck
from conftest import numeral, unary
from reference_terms import (alpha_eq, eta_reduce, sample_normal_term,
                             term_size)
from reference_reduction import (beta_step, find_redex, is_normal,
                                 normalize_by_steps)

OUT = RankedAlphabet.of({"a": 2, "b": 1, "c": 0, "S": 1, "0": 0})


def t(src):
    return parse_term(src, OUT)


def test_basic_beta():
    assert beta_step(t(r"(\x. x) c")) == t("c")
    assert normalize(t(r"(\f. \x. f (f x)) b c")) == t("b (b c)")


def test_beta_at_a_distance_through_let():
    # the lambda sits under a let; the application still fires, keeping
    # the let wrapped around the contractum
    r = beta_step(t(r"(let !y = !c in \x. a x y) c"))
    assert alpha_eq(r, t(r"let !y = !c in a c y"))


def test_let_bang_at_a_distance():
    r = beta_step(t(r"let !x = (let !y = !c in !(b y)) in a x x"))
    assert alpha_eq(r, t(r"let !y = !c in a (b y) (b y)"))


def test_let_substitutes_all_occurrences():
    assert normalize(t(r"let !x = !c in a x x")) == t("a c c")


def test_find_redex_leftmost_outermost():
    u = t(r"((\x. x) c) ((\y. y) c)")
    assert find_redex(u, order="leftmost") == (0,)
    assert find_redex(u, order="rightmost-innermost") == (1,)
    assert find_redex(t("a c c")) is None


def test_is_normal():
    assert is_normal(t("a c c"))
    assert not is_normal(t(r"(\x. x) c"))


def test_out_of_fuel():
    with pytest.raises(OutOfFuel):
        normalize(t(r"(\f. \x. f (f x)) b ((\x. x) c)"), fuel=1)


def test_eta_reduce():
    assert eta_reduce(t(r"\x. b x")) == t("b")
    assert alpha_eq(eta_reduce(t(r"\f. \x. f x")), t(r"\f. f"))
    # not an eta-redex when the variable occurs in the function part
    assert eta_reduce(t(r"\x. a x x")) == t(r"\x. a x x")


def test_leftmost_and_rightmost_agree_on_corpus(count, seqnat, bin2bin):
    cases = [(count, "a(b(c),c)"), (count, "a(a(c,c),b(c))"),
             (seqnat, unary(4)), (bin2bin, numeral(3))]
    for spec, s in cases:
        v = spec.program_term(parse_tree(s, spec.input))
        left = normalize_by_steps(v, order="leftmost")
        right = normalize_by_steps(v, order="rightmost-innermost")
        assert alpha_eq(left, right)
        assert alpha_eq(normalize(v), left)


def test_fuel_bound_on_corpus(count, seqnat):
    # well-typed corpus programs normalize comfortably within 10 * size^2
    for spec, s in [(count, "a(b(c),c)"), (seqnat, unary(5))]:
        v = spec.program_term(parse_tree(s, spec.input))
        normalize(v, fuel=10 * term_size(v) ** 2)


def test_subject_reduction_along_a_run(count):
    v = count.program_term(parse_tree("a(b(c),c)", count.input))
    while not is_normal(v):
        typecheck(v, ty=O, alphabet=count.output)
        v = beta_step(v)
    assert decode_tree(v).to_str() == "S(S(S(0)))"


# -- normalization by evaluation against the small-step reference ----------

def reference_steps(t):
    """The small-step normal form of t and the number of steps to it."""
    n = 0
    while (nxt := beta_step(t)) is not None:
        t, n = nxt, n + 1
    return t, n


def test_nbe_agrees_with_reference_on_corpus_programs(count, seqnat,
                                                      bin2bin, listcount):
    rng = random.Random(4)
    # bin2bin's output is doubly exponential in its input's size
    for spec, size in ((count, 12), (seqnat, 8), (bin2bin, 4),
                       (listcount, 12)):
        for _ in range(6):
            tau = gen_tree(rng, spec.input, rng.randint(1, size))
            v = spec.program_term(tau)
            ref, steps = reference_steps(v)
            # NbE contracts no more redexes than the reference, so the
            # reference's budget (steps + 1) is enough
            assert alpha_eq(normalize(v, steps + 1), ref)


def test_nbe_agrees_with_reference_on_mirror_pipelines(mirror):
    const = make_type_constant(mirror)
    relabel, split = split_state_relabeling(const)
    rng = random.Random(5)
    for _ in range(6):
        tau = gen_tree(rng, mirror.input, rng.randint(1, 9))
        for v in (App(mirror.norm_out, mirror.build(tau)),
                  App(const.norm_out, const.build(tau)),
                  split.program_term(relabel(tau))):
            assert alpha_eq(normalize(v), normalize_by_steps(v))


def lam_hints(t):
    """The hints of t's lambdas, in preorder."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Lam):
            out.append(t.hint)
        todo.extend(reversed(children(t)))
    return out


def elaboration_terms(monkeypatch):
    """Every term normalized while elaborating the corpus."""
    seen = []

    def recording(t, fuel=10_000_000):
        seen.append(t)
        return normalize(t, fuel)

    monkeypatch.setattr(lamtrans.transducer, "normalize", recording)
    monkeypatch.setattr(lamtrans.gls, "normalize", recording)
    specs = {name: load_transducer(corpus_path(name))
             for name in ("count.lt", "seq-nat.lt", "bin2bin.lt",
                          "list-count.lt")}
    mirror = load_gls(corpus_path("mirror.gls"))
    compose(specs["seq-nat.lt"], specs["list-count.lt"])
    split_state_relabeling(make_type_constant(mirror))
    assert len(seen) >= 30
    return seen


def test_nbe_equals_reference_on_elaboration(monkeypatch):
    # same names and the same lambda hints as the reference, not just
    # alpha-equivalent
    for t in elaboration_terms(monkeypatch):
        nf = normalize(t)
        ref = normalize_by_steps(t)
        assert nf == ref
        assert lam_hints(nf) == lam_hints(ref)


def test_normal_terms_read_back_unchanged(count, seqnat, bin2bin, listcount,
                                          mirror):
    terms = [mirror.norm_out, *mirror.norm_rules.values()]
    for spec in (count, seqnat, bin2bin, listcount):
        terms += [spec.norm_out, *spec.norm_rules.values()]
    rng = random.Random(6)
    for A in (O, Arrow(O, O), Arrow(Arrow(O, O), Arrow(O, O)),
              Arrow(O, Arrow(O, O))):
        terms += [sample_normal_term(A, mirror.output, rng, size=10)
                  for _ in range(10)]
    for t in terms:
        nf = normalize(t)
        assert nf == t
        assert lam_hints(nf) == lam_hints(t)


def test_read_back_keeps_hints():
    u = App(Lam("f", Lam("x", App(Var("f"), Var("x")), "A"), "B"),
            Lam("y", Var("y"), "C"))
    nf = normalize(u)
    assert nf == Lam("x", Var("x"))
    assert nf.hint == "A"


@pytest.mark.parametrize("src,expected", [
    # the inner x only shadows the outer one: both keep their names
    (r"(\f. \x. f x) (\y. \x. x)", r"\x. \x. x"),
    # the inner x would capture the outer one
    (r"(\f. \x. f x) (\y. \x. y)", r"\x. \x_1. x"),
    # the binder would capture the free variable x
    (r"(\y. \x. y x) x", r"\x_1. x x_1"),
    (r"(\y. let !x = g in y x) x", r"let !x_1 = g in x x_1"),
    # only the capturing binder is renamed, not the inner x that shadows
    (r"(\y. \x. y (\x. x)) x", r"\x_1. x (\x. x)"),
])
def test_read_back_renames_only_to_avoid_capture(src, expected):
    assert normalize(parse_term(src)) == parse_term(expected)


@pytest.mark.parametrize("norm", [normalize, normalize_by_steps])
def test_out_of_fuel_message(norm):
    u = t(r"(\f. \x. f (f x)) b c")     # two contractions
    with pytest.raises(OutOfFuel, match=r"^no normal form within 2 steps$"):
        norm(u, fuel=2)
    assert norm(u, fuel=3) == t("b (b c)")


@pytest.mark.parametrize("src,expected", [
    # the renamed binder must not be captured by a binder inside the body
    (r"(\z. \x. \x_1. z x) x", r"\u. \v. x u"),
    (r"(let !x = g in \x_1. x) x", r"let !u = g in u"),
    # a later let-binder of the same name ends the renaming
    (r"(let !x = a in let !x = b in \y. x) x", r"let !u = a in let !v = b in v"),
    # the renaming reaches the bounds of the later let-binders
    (r"(let !y = c in let !z = !y in \w. z) y", r"let !u = c in u"),
])
def test_reduction_renames_without_capture(src, expected):
    u = parse_term(src)
    assert alpha_eq(normalize_by_steps(u), parse_term(expected))
    assert alpha_eq(normalize(u), parse_term(expected))


def random_term(rng, depth, bound):
    """A random, possibly ill-typed and open, term with !/let; the binder
    names repeat, so shadowing and renaming are common."""
    r = rng.random()
    if depth <= 0 or r < 0.2:
        if bound and rng.random() < 0.5:
            return Var(rng.choice(bound))
        if rng.random() < 0.3:
            return Var(rng.choice(["x", "y", "g"]))
        return Const(rng.choice(["a", "b", "c"]))
    x = rng.choice(["x", "y", "z", "x_1"])
    if r < 0.45:
        return App(random_term(rng, depth - 1, bound),
                   random_term(rng, depth - 1, bound))
    if r < 0.65:
        return Lam(x, random_term(rng, depth - 1, bound + [x]), hint=x)
    if r < 0.8:
        return Box(random_term(rng, depth - 1, bound))
    return Let(x, random_term(rng, depth - 1, bound),
               random_term(rng, depth - 1, bound + [x]))


def test_nbe_agrees_with_reference_on_random_terms():
    rng = random.Random(7)
    checked = 0
    while checked < 2000:
        u = random_term(rng, rng.randint(1, 6), [])
        try:
            ref = normalize_by_steps(u, fuel=60)
        except OutOfFuel:
            continue
        _, steps = reference_steps(u)
        nf = normalize(u, steps + 1)
        assert alpha_eq(nf, ref)
        assert normalize(ref) == ref
        checked += 1


def test_deeply_nested_lets_raise_too_deep():
    # evaluating a let's bound is a nested call: past Python's recursion
    # limit the error is a LamtransError naming the term's depth
    u = Box(Const("c"))
    for _ in range(5000):
        u = Let("x", u, Box(Var("x")))
    with pytest.raises(TooDeep, match="term of depth 5002"):
        normalize(u)
