"""The entry points that the CLI and the bench call leave no reference
cycle behind: what a call builds is freed when it returns, not at the next
pass of the cyclic garbage collector.  A closure that calls itself (a
local recursive `go`) is such a cycle unless it is cleared on return."""

import gc
import random
from types import SimpleNamespace

import pytest

from lamtrans import corpus_path
from lamtrans.cli import gen_tree
from lamtrans.compiler import compile_to_iptt, compile_to_twt
from lamtrans.core import parse_tree, term_to_str
from lamtrans.gls import load_gls, make_type_constant, split_state_relabeling
from lamtrans.iam import IamMachine, TermInfo
from lamtrans.reduction import normalize
from lamtrans.transducer import load_transducer
from lamtrans.treegen import run, trace_lines
from lamtrans.typecheck import O, fill_hints, typecheck

from conftest import numeral, run_walking


def iam_run(s):
    tau = parse_tree(numeral(5), s.bin2bin.input)
    m = IamMachine(TermInfo(s.bin2bin.program_ann(tau)), "ss")
    return run(m, m.initial())


def trace(s):
    tau = parse_tree(numeral(2), s.bin2bin.input)
    m = IamMachine(TermInfo(s.bin2bin.program_ann(tau)), "ss")
    return list(trace_lines(m, m.initial()))


def program(s):
    return s.bin2bin.program_term(parse_tree(numeral(5), s.bin2bin.input))


# name -> a call given the loaded specs
CALLS = {
    "load_transducer": lambda s: load_transducer(corpus_path("bin2bin.lt")),
    "compile_to_iptt": lambda s: compile_to_iptt(s.bin2bin),
    "compile_to_twt": lambda s: compile_to_twt(s.count),
    "program_term": program,    # tagged with its blocks and tree, not typed
    "normalize": lambda s: normalize(program(s)),
    "term_to_str": lambda s: term_to_str(program(s)),
    "gen_tree": lambda s: gen_tree(random.Random(1), s.bin2bin.input, 12),
    "typecheck": lambda s: typecheck(program(s), O, s.bin2bin.output),
    "fill_hints":
        lambda s: fill_hints(typecheck(program(s), O, s.bin2bin.output)),
    "iam_run": iam_run,
    "walking_run":
        lambda s: run_walking(s.iptt, parse_tree(numeral(5), s.iptt.input)),
    "trace": trace,
    "load_gls": lambda s: load_gls(corpus_path("mirror.gls")),
    "gls_run": lambda s: s.mirror.run(parse_tree("a(c,a(c,c))",
                                                 s.mirror.input)),
    "type_constant_and_split":
        lambda s: split_state_relabeling(make_type_constant(s.mirror)),
}


@pytest.fixture(scope="module")
def specs(count, bin2bin, mirror):
    return SimpleNamespace(count=count, bin2bin=bin2bin, mirror=mirror,
                           iptt=compile_to_iptt(bin2bin))


@pytest.mark.parametrize("name", list(CALLS))
def test_entry_points_leave_no_reference_cycles(name, specs):
    call = CALLS[name]
    call(specs)     # warm up: caches and first-use tables
    gc.collect()
    gc.disable()
    try:
        call(specs)
        assert gc.collect() == 0
    finally:
        gc.enable()
