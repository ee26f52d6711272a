"""Closed-loop benchmark of the lamtrans backends.

Run from the repository root:

    python3 bench/run.py --workload wide-output --seed 1 --seconds 40 --trace 0

One process, one thread, one job at a time.  A job is one input tree, given
as text, run on one backend: parse, run, render.  Each rendered output is
compared with an independent reference computed by bench/reference.py.
Each cycle sets up twice and then makes one pass over all of the workload's
jobs; cycles repeat until the next one would overrun --seconds.  Times are
scaled to a reference host speed by a Speedometer that samples the host's
speed while the jobs run.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every job twice,
untraced and then traced, and reports the per-layer metrics, which it
derives from the spans recorded in the traced runs; the spans of the last
pass are written to .bench_out/.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a
readable summary goes to standard error.  See bench/README.md for the
workloads and what each metric is expected to show."""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "lamtrans" / "corpus"
OUT_DIR = ROOT / ".bench_out"

sys.path[:0] = [str(HERE), str(SRC)]
import reference as ref  # noqa: E402

try:
    from lamtrans import (compiler, core, gls, iam, reduction,  # noqa: E402
                          transducer, treegen, typecheck, walking)
except ImportError as e:
    sys.exit(f"bench: cannot import lamtrans from {SRC}: {e}")
if not Path(core.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: lamtrans was imported from {core.__file__}, "
             f"not from {SRC}")

FUEL = 10_000_000
SETUPS_PER_PASS = 2
MIN_PASSES = 2
TICK_S = 0.05       # how often the speedometer times the calibration work
CAL_REF_S = 150e-6  # calibration time that defines the reference host speed
RECENT = 4          # samples that give the speed of a job shorter than a tick

# spec -> (corpus file, input letters, reference, backends); the backends
# are those cli.difftest_backends runs for the spec's tier, with the
# token-machine variant named
SPECS = {
    "count": ("count.lt", [("a", 2), ("b", 1), ("c", 0)], ref.count_ref,
              ("normalize", "iam-pa", "twt", "iptt")),
    "seq-nat": ("seq-nat.lt", [("S", 1), ("0", 0)], ref.seq_nat_ref,
                ("normalize", "iam-apa", "twt", "iptt")),
    "bin2bin": ("bin2bin.lt", [("0", 1), ("1", 1), ("e", 0)],
                ref.bin2bin_ref, ("normalize", "iam-ss", "iam-d1", "iptt")),
    "mirror": ("mirror.gls", [("a", 2), ("c", 0)], ref.mirror_ref,
               ("gls", "type-constant", "relabel+transducer")),
}


def kind(backend):
    """Which end-to-end time a backend's jobs count towards."""
    if backend.startswith("iam-"):
        return "iam"
    return "walking" if backend in ("twt", "iptt") else "normalize"


# -- workloads ----------------------------------------------------------------
# Every input stays far below the depth at which parsing exceeds Python's
# recursion limit (a 1,500-deep unary tree already fails), so a fix for that
# leaves the timed work unchanged.

def wide_output(rng):
    """Outputs of up to 255 nodes from programs at most 4 digits deep."""
    return [("bin2bin", ref.numeral(format(v, "b"))) for v in (5, 6, 7)]


def deep_input(rng):
    """Program terms whose depth grows with the input; narrow outputs."""
    return [("count", ref.random_tree(rng, SPECS["count"][1], 200)),
            ("count", ref.chain("b", "c", 150)),
            ("seq-nat", ref.chain("S", "0", 22))]


def many_small(rng):
    """Sub-millisecond jobs where per-job set-up and GLS carry the run.
    Input sizes are spread evenly up to each bound, and bin2bin runs every
    numeral of at most 3 nodes equally often, so that a seed changes only
    tree shapes and job order, not how much work a pass holds."""
    inputs = [(name, ref.random_tree(rng, SPECS[name][1], 1 + i % bound))
              for name, bound in (("count", 12), ("seq-nat", 8),
                                  ("mirror", 12))
              for i in range(300)]
    numerals = ["", "0", "1", "00", "01", "10", "11"]
    return inputs + [("bin2bin", ref.numeral(numerals[i % len(numerals)]))
                     for i in range(300)]


WORKLOADS = {"wide-output": wide_output, "deep-input": deep_input,
             "many-small": many_small}


@dataclass(frozen=True)
class Job:
    spec: str
    backend: str
    text: str
    expected: str


def make_jobs(workload, seed):
    rng = random.Random(seed)
    jobs = [Job(name, backend, ref.to_str(tree), SPECS[name][2](tree))
            for name, tree in WORKLOADS[workload](rng)
            for backend in SPECS[name][3]]
    rng.shuffle(jobs)
    return jobs


# -- calls into the layers ----------------------------------------------------

class Untraced:
    """Calls straight through: the untraced runs."""
    job = None

    def call(self, name, fn, *args):
        return fn(*args)

    def run(self, layer, machine):
        return treegen.run(machine, machine.initial(), FUEL)


class TimedSteps(treegen.Machine):
    """A machine whose step times the wrapped machine's step."""

    def __init__(self, machine):
        self.machine = machine
        self.seconds = 0.0

    def step(self, cfg):
        start = perf_counter()
        res = self.machine.step(cfg)
        self.seconds += perf_counter() - start
        return res

    def render(self, cfg):
        return self.machine.render(cfg)


class Tracer:
    """Records a span (name, start, end, parent span, job) around every
    layer call.  Machine steps are too many to keep one span each: each
    treegen.run span instead carries the number of steps inside it and
    their total time."""

    def __init__(self):
        self.spans = []
        self.steps = {}     # treegen.run span id -> (layer, steps, seconds)
        self.open = [None]
        self.job = None

    def call(self, name, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        self.open.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.open.pop()
            self.spans[sid] = (name, start, end, self.open[-1], self.job)

    def run(self, layer, machine):
        timed = TimedSteps(machine)
        sid = len(self.spans)
        res = self.call("treegen.run", treegen.run, timed, machine.initial(),
                        FUEL)
        self.steps[sid] = (layer, res.steps, timed.seconds)
        return res

    def totals(self):
        """Per span name: total time, self time and number of calls; per
        machine layer: steps and their time."""
        total, own, calls = Counter(), Counter(), Counter()
        inner = defaultdict(float)
        for sid, (layer, n, secs) in self.steps.items():
            inner[sid] += secs
            total[layer + ".step"] += secs
            calls[layer + ".steps"] += n
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                inner[parent] += end - start
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - inner[sid]
            calls[name] += 1
        return total, own, calls

    def write(self, path):
        with open(path, "w") as f:
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "job": job}
                if sid in self.steps:
                    layer, n, secs = self.steps[sid]
                    rec.update(step_layer=layer, steps=n, step_s=secs)
                f.write(json.dumps(rec) + "\n")


class JobFailed(Exception):
    pass


def finish(t, res):
    if not isinstance(res, treegen.Output):
        raise JobFailed(f"{type(res).__name__} after {res.steps} steps")
    return t.call("core.to_str", res.tree.to_str), res.steps


def parse(t, text, alphabet):
    return t.call("core.parse_tree", core.parse_tree, text, alphabet)


def normalized(t, term):
    nf = t.call("reduction.normalize", reduction.normalize, term, FUEL)
    tree = t.call("core.decode_tree", core.decode_tree, nf)
    return t.call("core.to_str", tree.to_str), 0


def normalize_job(spec):
    def run(t, text):
        tau = parse(t, text, spec.input)
        return normalized(t, t.call("transducer.program_term",
                                    spec.program_term, tau))
    return run


def iam_job(spec, variant):
    def run(t, text):
        tau = parse(t, text, spec.input)
        term = t.call("transducer.program_term", spec.program_term, tau)
        ann = t.call("typecheck.program", typecheck.typecheck, term,
                     typecheck.O, spec.output)
        info = t.call("iam.terminfo", iam.TermInfo, ann)
        return finish(t, t.run("iam", iam.IamMachine(info, variant)))
    return run


def walking_job(machine_cls, compiled):
    def run(t, text):
        tau = parse(t, text, compiled.input)
        return finish(t, t.run("walking", machine_cls(compiled, tau)))
    return run


def gls_job(spec):
    def run(t, text):
        tree = t.call("gls.run", spec.run, parse(t, text, spec.input), FUEL)
        return t.call("core.to_str", tree.to_str), 0
    return run


def relabel_job(source, relabel, split):
    def run(t, text):
        tau = t.call("gls.relabel", relabel, parse(t, text, source.input))
        return normalized(t, t.call("transducer.program_term",
                                    split.program_term, tau))
    return run


def setup(names, t):
    """Load and elaborate every spec the workload uses and build its
    compiled machines and GLS conversions.  Returns the job runners by
    (spec, backend) and the sizes of the compiled machines."""
    runners, sizes = {}, Counter()
    for name in names:
        path = str(CORPUS / SPECS[name][0])
        if name == "mirror":
            spec = t.call("gls.load", gls.load_gls, path)
            const = t.call("gls.type_constant", gls.make_type_constant, spec)
            relabel, split = t.call("gls.split", gls.split_state_relabeling,
                                    const)
            runners[name, "gls"] = gls_job(spec)
            runners[name, "type-constant"] = gls_job(const)
            runners[name, "relabel+transducer"] = relabel_job(spec, relabel,
                                                              split)
            continue
        spec = t.call("transducer.load", transducer.load_transducer, path)
        for backend in SPECS[name][3]:
            if backend == "normalize":
                runners[name, backend] = normalize_job(spec)
            elif backend.startswith("iam-"):
                runners[name, backend] = iam_job(spec, backend[4:])
            elif backend == "twt":
                tw = t.call("compiler.twt", compiler.compile_to_twt, spec)
                sizes["twt_transitions"] += len(tw.delta) + len(tw.delta_root)
                sizes["states"] += len(tw.states)
                runners[name, backend] = walking_job(walking.TwtMachine, tw)
            else:
                ip = t.call("compiler.iptt", compiler.compile_to_iptt, spec)
                sizes["iptt_transitions"] += len(ip.delta)
                sizes["states"] += len(ip.states)
                runners[name, backend] = walking_job(walking.IpttMachine, ip)
    return runners, sizes


# -- host speed ---------------------------------------------------------------

class Speedometer:
    """Scales measured times to a reference host speed.

    On a shared host the same Python code runs up to 1.6-1.9x slower for
    stretches of a second to several minutes, and CPU time slows as much
    as wall time, so no statistic over one run's raw times is steady from
    run to run.  While the speedometer is on, an interval timer interrupts
    the running job every TICK_S and times reference.calibration_work, the
    bench's own fixed pure-Python work.  A measured interval is scaled by
    the host's speed during it, the mean of CAL_REF_S / sample over the
    samples taken inside it (over the latest RECENT samples if it is too
    short to hold one), and the time spent sampling is taken out.  A time
    in seconds is therefore the time the work takes on a host where the
    calibration work takes CAL_REF_S, and a change to lamtrans, which the
    calibration work does not use, moves it like a raw time."""

    def __init__(self):
        self.speeds = []
        self.sampling = 0.0     # seconds spent in samples so far

    def sample(self, *_):
        start = perf_counter()
        took = []
        for _ in range(3):
            t0 = perf_counter()
            ref.calibration_work()
            took.append(perf_counter() - t0)
        self.speeds.append(CAL_REF_S / min(took))
        self.sampling += perf_counter() - start

    def __enter__(self):
        for _ in range(RECENT):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return perf_counter(), self.sampling, len(self.speeds)

    def speed(self, mark):
        """The host's mean speed since mark, relative to the reference."""
        return statistics.fmean(self.speeds[mark[2]:]
                                or self.speeds[-RECENT:])

    def since(self, mark):
        """Scaled seconds since mark, sampling left out."""
        start, sampling, _ = mark
        raw = perf_counter() - start - (self.sampling - sampling)
        return raw * self.speed(mark)


# -- passes -------------------------------------------------------------------

@dataclass
class Pass:
    latencies: list      # seconds per untraced job run, in job order
    steps: Counter       # machine steps of the untraced runs, by kind
    failures: list
    tracer: Tracer | None = None
    traced: list = field(default_factory=list)  # seconds per traced run
    speed: float = 1.0   # host speed over the pass, for the tracer's spans


def run_pass(jobs, runners, speed, tracer=None):
    """One pass over the jobs, timed by the speedometer.  Given a tracer,
    each job runs twice back to back, untraced and then traced, so that the
    tracing overhead is taken from pairs of runs close in time."""
    p = Pass([], Counter(), [], tracer)
    start = speed.mark()
    modes = [(Untraced(), p.latencies)]
    if tracer is not None:
        modes.append((tracer, p.traced))
    for i, job in enumerate(jobs):
        run = runners[job.spec, job.backend]
        for t, latencies in modes:
            t.job = i
            mark = speed.mark()
            try:
                out, n = t.call("job", run, t, job.text)
            except Exception as e:  # a job that raises counts as failed
                out, n = f"{type(e).__name__}: {e}", 0
            latencies.append(speed.since(mark))
            if t is not tracer:
                p.steps[kind(job.backend)] += n
            if out != job.expected:
                p.failures.append(f"{job.spec} {job.backend} "
                                  f"{job.text[:60]}: got {out[:80]}")
    p.speed = speed.speed(start)
    return p


def per_job(runs):
    """Each job's median latency over several passes' latency lists, in job
    order."""
    return [statistics.median(ts) for ts in zip(*runs)]


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(3)


def check_deterministic(setups, passes):
    """Compiled sizes and per-pass step counts must repeat exactly."""
    sizes = {tuple(sorted(s.items())) for _, s, _, _ in setups}
    if len(sizes) != 1:
        fail(f"compiled machine sizes differ between set-ups: {sizes}")
    counts = {(len(p.latencies), p.steps["iam"], p.steps["walking"])
              for p in passes}
    for p in passes:
        if p.tracer is not None:
            calls = p.tracer.totals()[2]
            counts.add((len(p.traced), calls["iam.steps"],
                        calls["walking.steps"]))
    if len(counts) != 1:
        fail(f"(jobs, iam.steps, walking.steps) differ between runs of the "
             f"same jobs: {sorted(counts)}")


# -- metrics ------------------------------------------------------------------

END_TO_END = {"setup_s": "s", "run_s": "s", "machine_s": "s",
              "normalize_s": "s", "job_p50_ms": "ms", "job_p99_ms": "ms",
              "peak_rss_mib": "MiB", "machine_transitions": "count"}

# per-layer metric -> unit; a name ending in _s is the mean per pass (or per
# set-up) of the total time of the spans of that name
PER_LAYER = {
    "core.parse_tree_s": "s", "core.decode_tree_s": "s", "core.to_str_s": "s",
    "transducer.load_s": "s", "transducer.program_term_s": "s",
    "typecheck.program_s": "s",
    "iam.terminfo_s": "s", "iam.step_s": "s", "iam.steps": "count",
    "iam.us_per_step": "us",
    "walking.step_s": "s", "walking.steps": "count",
    "walking.us_per_step": "us",
    "treegen.run_s": "s", "treegen.driver_s": "s",
    "treegen.driver_us_per_step": "us",
    "reduction.normalize_s": "s", "reduction.calls": "count",
    "compiler.twt_s": "s", "compiler.iptt_s": "s",
    "compiler.twt_transitions": "count", "compiler.iptt_transitions": "count",
    "compiler.states": "count",
    "gls.load_s": "s", "gls.type_constant_s": "s", "gls.split_s": "s",
    "gls.run_s": "s", "gls.relabel_s": "s",
    "trace.overhead_ratio": "ratio",
}


def end_to_end(jobs, setups, passes):
    times = per_job(p.latencies for p in passes)
    q = statistics.quantiles(times, n=100, method="inclusive")
    sizes = setups[0][1]
    return {
        "setup_s": statistics.median(s for s, _, _, _ in setups),
        "run_s": sum(times),
        "machine_s": sum(t for j, t in zip(jobs, times)
                         if kind(j.backend) != "normalize"),
        "normalize_s": sum(t for j, t in zip(jobs, times)
                           if kind(j.backend) == "normalize"),
        "job_p50_ms": q[49] * 1e3,
        "job_p99_ms": q[98] * 1e3,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine_transitions":
            sizes["twt_transitions"] + sizes["iptt_transitions"],
    }


def mean_totals(traced):
    """Mean over (tracer, host speed) pairs of each span name's total time
    and self time, both scaled by the speed, and its number of calls."""
    total, own, calls = Counter(), Counter(), Counter()
    for t, speed in traced:
        a, b, c = t.totals()
        total.update({k: v * speed for k, v in a.items()})
        own.update({k: v * speed for k, v in b.items()})
        calls.update(c)
    n = len(traced)
    return ({k: v / n for k, v in total.items()},
            {k: v / n for k, v in own.items()},
            {k: v / n for k, v in calls.items()})


def per_layer(setups, passes):
    total, own, calls = mean_totals([(p.tracer, p.speed) for p in passes])
    setup_total, _, _ = mean_totals([(t, v) for _, _, t, v in setups])
    sizes = setups[0][1]
    m = {name: setup_total.get(name[:-2], 0.0) + total.get(name[:-2], 0.0)
         for name in PER_LAYER if name.endswith("_s")}
    m["treegen.driver_s"] = own.get("treegen.run", 0.0)
    for layer in ("iam", "walking"):
        n = m[layer + ".steps"] = calls.get(layer + ".steps", 0)
        m[layer + ".us_per_step"] = (m[layer + ".step_s"] / n * 1e6
                                     if n else 0.0)
    n = m["iam.steps"] + m["walking.steps"]
    m["treegen.driver_us_per_step"] = (m["treegen.driver_s"] / n * 1e6
                                       if n else 0.0)
    m["reduction.calls"] = calls.get("reduction.normalize", 0)
    m["compiler.twt_transitions"] = sizes["twt_transitions"]
    m["compiler.iptt_transitions"] = sizes["iptt_transitions"]
    m["compiler.states"] = sizes["states"]
    m["trace.overhead_ratio"] = (sum(per_job(p.traced for p in passes))
                                 / sum(per_job(p.latencies for p in passes)))
    return {name: m[name] for name in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ref.self_test()
    jobs = make_jobs(args.workload, args.seed)
    names = sorted({j.spec for j in jobs})

    # Set-up runs again before every pass, so that its samples spread over
    # the run like the passes do; each pass uses the latest set-up.
    setups, passes = [], []
    start = perf_counter()
    with Speedometer() as speed:
        while True:
            cycle = perf_counter()
            for _ in range(SETUPS_PER_PASS):
                t = Tracer() if args.trace else Untraced()
                t.job = "setup"
                gc.collect()
                mark = speed.mark()
                runners, sizes = setup(names, t)
                setups.append((speed.since(mark), sizes, t,
                               speed.speed(mark)))
            gc.collect()
            passes.append(run_pass(jobs, runners, speed,
                                   Tracer() if args.trace else None))
            now = perf_counter()
            if (len(passes) >= MIN_PASSES
                    and now - start + (now - cycle) > args.seconds):
                break
    check_deterministic(setups, passes)

    if args.trace:
        metrics, units = per_layer(setups, passes), PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        passes[-1].tracer.write(
            OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, units = end_to_end(jobs, setups, passes), END_TO_END

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) + len(p.traced) for p in passes)
    for f in failures[:5]:
        print(f"bench: failed: {f}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {len(jobs)} jobs x "
          f"{len(passes)} passes, {len(setups)} set-ups; failed "
          f"{len(failures)}/{attempted} (failed_ratio "
          f"{len(failures) / attempted:.4f}); per pass iam.steps "
          f"{passes[0].steps['iam']}, walking.steps "
          f"{passes[0].steps['walking']}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
