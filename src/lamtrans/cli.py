"""Command-line front end.

Spec files are recognized by extension: .lt (lambda-transducer), .gls
(stateful GLS form), .twt (tree-walking transducer), .iptt (invisible
pebble transducer).  Trees are given inline ("a(b(c),c)") or as @file.
Exit status: 0 on success/agreement, 1 on mismatch or error, 2 on usage
errors."""

from __future__ import annotations

import argparse
import random
import sys
import time

from .core import LamtransError, Tree, parse_tree
from .treegen import Diverged, Output, Stuck
from . import treegen


class NoNullaryLetter(LamtransError):
    pass


def gen_tree(rng, alphabet, bound):
    """A random tree of size <= bound; rank-0 letters are forced when the
    budget runs out."""
    nullary = [(n, r) for n, r in alphabet.letters if r == 0]
    if not nullary:
        raise NoNullaryLetter(f"no rank-0 letter in {alphabet.to_str()}")

    def go(budget):
        pool = [(n, r) for n, r in alphabet.letters if r < budget] or nullary
        name, rank = pool[rng.randrange(len(pool))]
        kids = []
        budget -= 1
        for i in range(rank):
            share = budget // (rank - i)
            sub = go(max(1, share))
            budget -= sub.size()
            kids.append(sub)
        return Tree(name, tuple(kids))

    try:
        return go(max(1, bound))
    finally:
        go = None       # no cycle through go's closure


def load_spec(path):
    from . import gls, transducer, walking
    if path.endswith(".lt"):
        return "lt", transducer.load_transducer(path)
    if path.endswith(".gls"):
        return "gls", gls.load_gls(path)
    if path.endswith(".twt"):
        return "twt", walking.load_twt(path)
    if path.endswith(".iptt"):
        return "iptt", walking.load_iptt(path)
    raise LamtransError(f"unrecognized spec extension: {path}")


def read_tree(arg, alphabet=None):
    if arg.startswith("@"):
        with open(arg[1:]) as f:
            arg = f.read()
    return parse_tree(arg, alphabet)


def no_output(res):
    """One line saying why a Stuck or Diverged run has no output."""
    if isinstance(res, Stuck):
        return f"stuck after {res.steps} steps at leaf {list(res.pos)}"
    assert isinstance(res, Diverged)
    return f"no output within {res.steps} steps"


# difftest prints a disagreeing output of at most this many nodes
SHOWN_NODES = 10_000


def shown(res):
    """A difftest result as one line: a tree's text, or, for a tree of
    more than SHOWN_NODES node occurrences (a shared subtree counts at
    each of them, by a walk that stops there), a line that says so."""
    if not isinstance(res, Tree):
        return res
    n, todo = 0, [res]
    while todo:
        n += 1
        if n > SHOWN_NODES:
            return f"a tree of more than {SHOWN_NODES} nodes, not shown"
        todo.extend(todo.pop().children)
    return res.to_str()


def write_output(text, path):
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def machine_result(res):
    if isinstance(res, Output):
        print(res.tree.to_str())
        return 0
    print(no_output(res), file=sys.stderr)
    return 1


# -- subcommands ------------------------------------------------------------

def cmd_typecheck(args):
    kind, spec = load_spec(args.spec)
    from .typecheck import type_to_str
    if kind == "lt":
        print(f"ok: memory {type_to_str(spec.memory)}, {spec.tier_name()}")
    elif kind == "gls":
        tys = ", ".join(f"{q}:{type_to_str(A)}"
                        for q, A in sorted(spec.state_types.items()))
        print(f"ok: states {tys}")
    else:
        print(f"ok: {len(spec.states)} states")
    return 0


def cmd_classify(args):
    kind, spec = load_spec(args.spec)
    if kind != "lt":
        print(f"classify expects a .lt spec, got {args.spec}",
              file=sys.stderr)
        return 1
    print(spec.tier_name())
    return 0


# the one machine that runs a spec of each kind but .lt, which runs on any
OWN_MACHINE = {"gls": "normalize", "twt": "twt", "iptt": "iptt"}


def spec_machine(kind, machine, lt_default):
    """The machine that runs a spec of this kind: `machine` when given,
    else lt_default for a .lt spec and its own machine for any other."""
    own = OWN_MACHINE.get(kind)
    if machine is None:
        return own or lt_default
    if own not in (None, machine):
        raise LamtransError(f"{machine} cannot run a .{kind} spec, only "
                            f"{own} can")
    return machine


def machine_for(kind, spec, machine):
    """A function from an input tree to the machine that runs the spec on
    it; `machine` ("iam", "twt" or "iptt") is one that runs the spec's
    kind (spec_machine)."""
    if kind == "lt" and machine == "iam":
        from .iam import iam_machine
        return lambda tau: iam_machine(spec.program_ann(tau))
    from .walking import WalkingMachine
    if kind == "lt":
        from .compiler import compile_walking
        spec = compile_walking(spec, machine)
    return lambda tau: WalkingMachine(spec, tau)


def backend(kind, spec, machine, fuel):
    """A function from an input tree to its result on one backend."""
    if kind == "lt" and machine == "normalize":
        return lambda tau: Output(spec.eval_normalize(tau, fuel), 0)
    make = machine_for(kind, spec, machine)

    def run(tau):
        m = make(tau)
        return treegen.run(m, m.initial(), fuel)
    return run


def cmd_run(args):
    kind, spec = load_spec(args.spec)
    tau = read_tree(args.tree, spec.input)
    machine = spec_machine(kind, args.machine, "normalize")
    if kind == "gls":
        print(spec.run(tau, args.fuel).to_str())
        return 0
    return machine_result(backend(kind, spec, machine, args.fuel)(tau))


def cmd_normalize(args):
    args.machine = "normalize"
    return cmd_run(args)


def cmd_compile(args):
    kind, spec = load_spec(args.spec)
    if kind != "lt":
        print("compile expects a .lt spec", file=sys.stderr)
        return 1
    from .compiler import compile_walking
    write_output(compile_walking(spec, args.target).to_str(), args.output)
    return 0


def cmd_trace(args):
    kind, spec = load_spec(args.spec)
    tau = read_tree(args.tree, spec.input)
    if kind == "gls":
        print("trace does not support .gls specs", file=sys.stderr)
        return 1
    m = machine_for(kind, spec, spec_machine(kind, args.machine, "iam"))(tau)
    for line in treegen.trace_lines(m, m.initial(), args.fuel):
        print(line)
    return 0


def cmd_reversible(args):
    from . import walking
    from .compiler import compile_walking
    kind, spec = load_spec(args.spec)
    if kind == "lt":
        spec = compile_walking(spec, "twt")
    elif kind != "twt":
        print("reversible expects a .twt or .lt spec", file=sys.stderr)
        return 1
    ok, witness = walking.check_reversible(spec)
    if ok:
        print("reversible")
        return 0
    print(f"not reversible: {witness}")
    return 1


def cmd_compose(args):
    from .transducer import compose, load_transducer
    f = load_transducer(args.first)
    g = load_transducer(args.second)
    write_output(compose(f, g).to_str(), args.output)
    return 0


def difftest_backends(kind, spec, fuel):
    if kind == "lt":
        from .compiler import TARGET_VARIANT
        from .iam import VARIANT_MAX_TIER
        names = ["normalize", "iam"] + [
            target for target, variant in TARGET_VARIANT.items()
            if spec.tier <= VARIANT_MAX_TIER[variant]]
        return [(n, backend(kind, spec, n, fuel)) for n in names]
    if kind == "gls":
        from .gls import make_type_constant, split_state_relabeling
        const = make_type_constant(spec)
        relabel, trans = split_state_relabeling(const)
        return [
            ("gls", lambda tau: Output(spec.run(tau, fuel), 0)),
            ("type-constant", lambda tau: Output(const.run(tau, fuel), 0)),
        ] + [(f"relabel+{n}", lambda tau, run=run: run(relabel(tau)))
             for n, run in difftest_backends("lt", trans, fuel)]
    raise LamtransError("difftest expects .lt or .gls specs")


def cmd_difftest(args):
    start = time.time()
    status = 0
    for path in args.spec:
        kind, spec = load_spec(path)
        backends = difftest_backends(kind, spec, args.fuel)
        rng = random.Random(args.seed)
        agree = 0
        for i in range(args.cases):
            tau = gen_tree(rng, spec.input, args.size)
            results = []
            for bname, run in backends:
                # a Tree, or one line saying why there is none
                try:
                    res = run(tau)
                except LamtransError as e:
                    res = f"error: {e}"
                else:
                    res = (res.tree if isinstance(res, Output)
                           else no_output(res))
                results.append((bname, res))
            baseline = results[0][1]
            bad = [(n, r) for n, r in results[1:]
                   if not isinstance(r, Tree) or r != baseline]
            if bad or not isinstance(baseline, Tree):
                status = 1
                print(f"{path}: case {i} ({tau.to_str()}) disagrees:")
                for n, r in results[:1] + bad:
                    print(f"  {n}: {shown(r)}")
            else:
                agree += 1
        print(f"{path}: {agree}/{args.cases} agree "
              f"({', '.join(n for n, _ in backends)})")
    print(f"total {time.time() - start:.2f}s")
    return status


def count(text):
    """A count given on the command line: an integer, at least 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return n


def main(argv=None):
    p = argparse.ArgumentParser(
        prog="lamtrans",
        description="lambda-transducers, token machines, and tree-walking "
                    "compilation")
    p.add_argument("--fuel", type=count, default=10_000_000,
                   help="maximum number of machine/rewrite steps")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("typecheck", help="load and typecheck a spec")
    sp.add_argument("spec")
    sp.set_defaults(fn=cmd_typecheck)

    sp = sub.add_parser("classify", help="print a transducer's tier")
    sp.add_argument("spec")
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("normalize", help="evaluate by normalization")
    sp.add_argument("spec")
    sp.add_argument("tree")
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("run", help="evaluate a spec on a tree")
    sp.add_argument("--machine", choices=["normalize", "iam", "twt", "iptt"],
                    help="default: normalize for a .lt spec, the one "
                         "machine that runs any other")
    sp.add_argument("spec")
    sp.add_argument("tree")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("compile", help="compile a .lt spec to a walking "
                                        "machine")
    sp.add_argument("--target", required=True, choices=["twt", "iptt"])
    sp.add_argument("-o", "--output")
    sp.add_argument("spec")
    sp.set_defaults(fn=cmd_compile)

    sp = sub.add_parser("trace", help="stream a run as JSON lines")
    sp.add_argument("--machine", choices=["iam", "twt", "iptt"],
                    help="default: iam for a .lt spec, the one machine "
                         "that runs any other")
    sp.add_argument("spec")
    sp.add_argument("tree")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("difftest", help="run all applicable backends on "
                                         "random inputs")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cases", type=count, default=100)
    sp.add_argument("--size", type=count, default=12,
                    help="maximum input tree size")
    sp.add_argument("spec", nargs="+")
    sp.set_defaults(fn=cmd_difftest)

    sp = sub.add_parser("compose", help="compose two .lt specs")
    sp.add_argument("-o", "--output")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.set_defaults(fn=cmd_compose)

    sp = sub.add_parser("reversible", help="check reversibility")
    sp.add_argument("spec")
    sp.set_defaults(fn=cmd_reversible)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except LamtransError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
