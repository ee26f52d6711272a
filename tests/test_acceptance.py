"""Acceptance gate: ten end-to-end criteria, one reported line each.

Run with -s to see the per-criterion PASS/FAIL lines."""

import random
import time

from lamtrans.cli import difftest_backends, gen_tree
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import (Box, RankedAlphabet, encode_tree, parse_term,
                           parse_tree)
from lamtrans.gls import (conversions, make_type_constant,
                          split_state_relabeling)
from lamtrans.iam import IamMachine, TermInfo, run_iam
from lamtrans.reduction import normalize
from lamtrans.transducer import compose
from lamtrans.treegen import Output
from lamtrans.typecheck import O, typecheck
from lamtrans.walking import check_reversible, predecessor

from conftest import numeral, run_walking, unary
from test_compiler import GOLDEN_TWT_PREFIX, frontiers
from test_iam import GOLDEN_PREFIX
from test_walking import forward_configs
from reference_terms import alpha_eq, eta_reduce, sample_normal_term
from reference_translate import wn_translate
from reference_treegen import frontier_configs, frontier_get
from lamtrans.walking import WalkingMachine
from lamtrans.iam import Config, mult_tape


def report(n, desc, ok):
    print(f"\ncriterion {n:2d}: {'PASS' if ok else 'FAIL'} -- {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_01_example_reproduction(count, seqnat, bin2bin,
                                           count_twt):
    ok = True
    # count via all four backends
    tau = parse_tree("a(b(c),c)", count.input)
    want = parse_tree("S(S(S(0)))", count.output)
    tw = compile_to_twt(count)
    ok &= count.eval_normalize(tau) == want
    ok &= run_iam(count.program_ann(tau), "apa").tree == want
    ok &= run_walking(tw, tau).tree == want
    ok &= run_walking(count_twt, tau).tree == want
    # seq-nat for n <= 6 via three backends
    tw = compile_to_twt(seqnat)
    for n in range(7):
        tau = parse_tree(unary(n), seqnat.input)
        want = seqnat.eval_normalize(tau)
        ok &= run_iam(seqnat.program_ann(tau), "apa").tree == want
        ok &= run_walking(tw, tau).tree == want
    # bin2bin on the four-digit input via both stack layouts and the
    # compiled pebble machine
    tau = parse_tree("0(0(1(0(e))))", bin2bin.input)
    want = parse_tree("a(a(c,c),a(c,c))", bin2bin.output)
    ann = bin2bin.program_ann(tau)
    ok &= bin2bin.eval_normalize(tau) == want
    ok &= run_iam(ann, "d1").tree == want
    ok &= run_iam(ann, "ss").tree == want
    ok &= run_walking(compile_to_iptt(bin2bin), tau).tree == want
    report(1, "worked examples reproduced on every backend", ok)


def test_criterion_02_golden_traces(count):
    tau = parse_tree("a(b(c),c)", count.input)
    m = IamMachine(TermInfo(count.program_ann(tau)), "pa")
    cfg, got = m.initial(), []
    for _ in GOLDEN_PREFIX:
        got.append((cfg.direction, m.info.path(cfg.pos), mult_tape(cfg.tape)))
        cfg = m.step(cfg)
    ok = got == GOLDEN_PREFIX
    tm = WalkingMachine(compile_to_twt(count), tau)
    cfg, got = tm.initial(), []
    for _ in GOLDEN_TWT_PREFIX:
        got.append((cfg.state, cfg.prov, tm.path(cfg.node)))
        res = tm.step(cfg)
        cfg = frontier_get(res, frontier_configs(res)[0])
    ok = ok and got == GOLDEN_TWT_PREFIX
    report(2, "token and compiled walking traces match the hand-derived "
              "goldens", ok)


def test_criterion_03_encodings_evaluate_to_themselves():
    alpha = RankedAlphabet.of({"a": 2, "b": 1, "c": 0})
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        tau = gen_tree(rng, alpha, 30)
        ann = typecheck(encode_tree(tau), ty=O, alphabet=alpha)
        res = run_iam(ann, "pa")
        ok &= isinstance(res, Output) and res.tree == tau
    report(3, "100 random encoded trees evaluate to themselves on the "
              "purely affine machine", ok)


def test_criterion_04_invariants_hold_on_every_run(count, seqnat, bin2bin):
    ok = True
    runs = ([(count, s, v) for v in ("pa", "apa", "d1", "ss")
             for s in ("c", "b(c)", "a(b(c),c)", "a(a(c,c),b(b(c)))")]
            + [(seqnat, unary(n), v) for v in ("apa", "d1", "ss")
               for n in range(7)]
            + [(bin2bin, numeral(n), v) for v in ("d1", "ss")
               for n in range(5)])
    for spec, s, variant in runs:
        tau = parse_tree(s, spec.input)
        res = run_iam(spec.program_ann(tau), variant, check=True)
        ok &= isinstance(res, Output)
    report(4, "per-step invariant checks pass on every recorded run", ok)


def test_criterion_05_reversibility(count, seqnat_twt):
    tw = compile_to_twt(count)
    rev, _ = check_reversible(tw)
    tau = parse_tree("a(b(c),c)", count.input)
    cfgs = forward_configs(tw, tau)
    back = [cfgs[-1]]
    m = WalkingMachine(tw, tau)
    while (prev := predecessor(m, back[-1])) is not None:
        back.append(prev)
    ok = rev and back == list(reversed(cfgs))
    bad, witness = check_reversible(seqnat_twt)
    ok = ok and not bad and witness.leaf == ("num", "to-parent") \
        and witness.key1 != witness.key2
    report(5, "compiled count machine walks backwards; hand seq-nat "
              "machine rejected with a duplication witness", ok)


def test_criterion_06_stack_layout_bisimulation(bin2bin):
    ok = True
    for n in range(5):
        tau = parse_tree(numeral(n), bin2bin.input)
        ann = bin2bin.program_ann(tau)
        d1, ss = run_iam(ann, "d1"), run_iam(ann, "ss")
        ok &= d1.tree == ss.tree and d1.steps == ss.steps
        ok &= d1.tree.size() == 2 ** (n + 1) - 1
    report(6, "two-stack and single-stack layouts bisimulate; output "
              "sizes are 2^(n+1)-1", ok)


def test_criterion_07_composition(seqnat, listcount):
    comp = compose(seqnat, listcount)
    ok = comp.tier <= 2
    for k in range(7):
        tau = parse_tree(unary(k), seqnat.input)
        want = listcount.eval_normalize(seqnat.eval_normalize(tau))
        ok &= comp.eval_normalize(tau) == want
        ok &= run_iam(comp.program_ann(tau)).tree == want
    report(7, "syntactic composition matches the two-stage pipeline and "
              "stays within depth one", ok)


def test_criterion_08_state_conversions(mirror):
    from lamtrans.core import App, Tree
    rng = random.Random(8)
    ok = True
    _, iota_of, cast_of = conversions(mirror)
    for q in mirror.state_order():
        iota, cast = iota_of(q), cast_of(q)
        for _ in range(10):
            t = sample_normal_term(mirror.state_types[q], mirror.output, rng)
            back = normalize(App(cast, App(iota, t)))
            ok &= alpha_eq(eta_reduce(back), eta_reduce(t))
    const = make_type_constant(mirror)
    relabel, trans = split_state_relabeling(const)

    def rand_tree(depth=4):
        if depth == 0 or rng.random() < 0.4:
            return Tree("c", ())
        return Tree("a", (rand_tree(depth - 1), rand_tree(depth - 1)))

    for _ in range(20):
        tau = rand_tree()
        want = mirror.run(tau)
        ok &= const.run(tau) == want
        ok &= trans.eval_normalize(relabel(tau)) == want
    report(8, "state-type conversions are inverse on normal forms and "
              "preserve the computed function", ok)


def _random_almost_affine(rng, alpha, depth=3):
    """A closed base-type term over alpha with beta redexes whose repeated
    variables all have base type."""
    def base(depth, env):
        if env and rng.random() < 0.4:
            return rng.choice(env)
        name, rank = rng.choice(
            [(n, r) for n, r in alpha.letters if r <= depth])
        return name + "".join(f" ({base(depth - 1, env)})"
                              for _ in range(rank))

    def term(depth, env):
        if depth == 0 or rng.random() < 0.3:
            return base(2, env)
        x = f"v{depth}"
        body = term(depth - 1, env + [x] * 2)   # repetition allowed: base
        arg = term(depth - 1, env)
        return f"(\\{x}. {body}) ({arg})"

    return parse_term(term(depth, []), alpha)


def test_criterion_09_translation_claim(count):
    rng = random.Random(9)
    alpha = count.input
    ok = True
    done = 0
    while done < 20:
        t = _random_almost_affine(rng, alpha)
        nf = normalize(t)
        trans = wn_translate(t, alpha)
        typecheck(trans, alphabet=alpha)
        ok &= alpha_eq(normalize(trans), Box(nf))
        done += 1
    report(9, "the boxing translation of 20 almost-affine terms "
              "normalizes to the boxed normal form", ok)


def test_criterion_10_differential_fuzz(count, seqnat, bin2bin, mirror):
    start = time.time()
    plan = [("lt", count, 100, 30), ("lt", seqnat, 100, 12),
            ("lt", bin2bin, 50, 4), ("gls", mirror, 50, 12)]
    ok = True
    total = 0
    for kind, spec, cases, size in plan:
        backends = difftest_backends(kind, spec, 10_000_000)
        rng = random.Random(1234)
        for _ in range(cases):
            tau = gen_tree(rng, spec.input, size)
            results = [run(tau) for _, run in backends]
            trees = [r.tree if isinstance(r, Output) else None
                     for r in results]
            ok &= all(t == trees[0] and t is not None for t in trees)
            total += 1
    elapsed = time.time() - start
    ok = ok and total == 300 and elapsed < 60
    report(10, f"300 fuzzed inputs agree across all backends in "
               f"{elapsed:.1f}s", ok)
