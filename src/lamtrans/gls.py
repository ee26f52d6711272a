"""Stateful top-down transducers that build a typed lambda-term and then
normalize it (GLS-transducers), plus the constructions that flatten them:
making all state types equal, and splitting the state into a relabeling of
the input followed by a stateless lambda-transducer."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (App, Const, Lam, LamtransError, RankedAlphabet, SyntaxErr,
                   Var, apply_tree, decode_tree, term_to_str, Tree)
from .reduction import normalize
from .transducer import (ALPHABET_LINES, LambdaTransducerSpec, SpecError,
                         line_term, load_file, normal_form, out_line,
                         parse_directives, suffix_at)
from .typecheck import Arrow, O, classify_type, parse_type, type_to_str


class NoNullaryOutputLetter(LamtransError):
    pass


@dataclass
class GlsSpec:
    input: RankedAlphabet
    output: RankedAlphabet
    state_types: dict                 # state name -> purely affine Type
    init: str
    rules: dict                       # (state, letter) -> (Term, [child states])
    out: object                       # Term : A_init -o o
    name: str = "gls"
    norm_rules: dict = field(init=False, default_factory=dict)
    norm_out: object = field(init=False, default=None)

    def __post_init__(self):
        if self.init not in self.state_types:
            raise SpecError(f"{self.name}: unknown initial state {self.init!r}")
        for q, A in self.state_types.items():
            if classify_type(A) != 0:
                raise SpecError(
                    f"{self.name}: state {q} has non-purely-affine type "
                    f"{type_to_str(A)}")
        for (q, a), (t, qs) in self.rules.items():
            if q not in self.state_types:
                raise SpecError(f"{self.name}: rule for unknown state {q!r}")
            if a not in self.input:
                raise SpecError(f"{self.name}: rule for unknown letter {a!r}")
            if len(qs) != self.input.rank(a):
                raise SpecError(
                    f"{self.name}: rule ({q},{a}) lists {len(qs)} child "
                    f"states for a rank-{self.input.rank(a)} letter")
            ty = self.state_types[q]
            for qc in reversed(qs):
                if qc not in self.state_types:
                    raise SpecError(f"{self.name}: rule ({q},{a}) names "
                                    f"unknown state {qc!r}")
                ty = Arrow(self.state_types[qc], ty)
            self.norm_rules[(q, a)] = normal_form(
                t, ty, self.output, f"{self.name}: rule ({q},{a})")
        self.norm_out = normal_form(
            self.out, Arrow(self.state_types[self.init], O), self.output,
            f"{self.name}: out")

    # -- running -----------------------------------------------------------

    def build(self, tau):
        """The term tau-arrow-down : A_init, tau checked against the input
        alphabet as apply_tree builds it.  apply_tree visits the nodes in
        preorder, so the states still to visit are a stack."""
        states = [self.init]

        def head(a):
            key = (states.pop(), a)
            if key not in self.norm_rules:
                raise SpecError(f"{self.name}: no rule for state {key[0]!r} "
                                f"at letter {a!r}")
            states.extend(reversed(self.rules[key][1]))
            return self.norm_rules[key]

        return apply_tree(tau, head, self.input)

    def run(self, tau, fuel=10_000_000):
        return decode_tree(normalize(App(self.norm_out, self.build(tau)),
                                     fuel))

    def state_order(self):
        return sorted(self.state_types)

    def to_str(self):
        lines = [f"input {self.input.to_str()}",
                 f"output {self.output.to_str()}"]
        for q in self.state_order():
            lines.append(f"state {q} : {type_to_str(self.state_types[q])}")
        lines.append(f"init {self.init}")
        for (q, a), (t, qs) in sorted(self.rules.items()):
            lines.append(f"rule {q} {a} -> {' '.join(qs)} = {term_to_str(t)}")
        lines.append(f"out = {term_to_str(self.out)}")
        return "\n".join(lines) + "\n"


def _state_line(rest, got, at):
    q, _, ty = rest.partition(":")
    return q.strip(), parse_type(ty, suffix_at(rest, ty, at))


def _rule_line(rest, got, at):
    head, _, src = rest.partition("=")
    if not src:
        raise SyntaxErr("expected 'rule Q A -> Q1 ... QK = TERM'")
    head, _, childs = head.partition("->")
    parts = head.split()
    if len(parts) != 2:
        raise SyntaxErr("expected 'rule Q A -> ... = TERM'")
    if "input" in got and parts[1] not in got["input"]:
        raise SyntaxErr(f"rule for unknown letter {parts[1]!r}")
    return (parts[0], parts[1]), (line_term(rest, src, got, at),
                                  childs.split())


def parse_gls(text, name="gls"):
    got = parse_directives(
        text, name,
        {**ALPHABET_LINES, "state": _state_line,
         "init": lambda rest, *_: rest.strip(), "rule": _rule_line,
         "out": out_line},
        required=("input", "output", "init", "out"),
        repeated=("state", "rule"))
    return GlsSpec(got["input"], got["output"], dict(got["state"]),
                   got["init"], dict(got["rule"]), got["out"], name=name)


def load_gls(path):
    return load_file(parse_gls, path)


# ---------------------------------------------------------------------------
# Making the state types equal

def arg_types(A):
    """Argument list of a purely affine type A = D1 -o ... -o Dn -o o."""
    out = []
    while isinstance(A, Arrow):
        out.append(A.left)
        A = A.right
    if A != O:
        raise LamtransError(f"not an argument type: {type_to_str(A)}")
    return out


def dummy_term(A, ell):
    """A closed inhabitant of any purely affine type: discard all the
    arguments and emit the nullary letter ell."""
    args = arg_types(A)
    t = Const(ell)
    for i in reversed(range(len(args))):
        t = Lam(f"x{i + 1}_", t, args[i])
    return t


def conversions(spec):
    """The shared state type A of a type-constant rebuild -- the
    concatenation of all states' argument segments, in state order -- and
    builders for each state's conversions iota(q) : A_q -o A, which selects
    the state's own segment, and cast(q) : A -o A_q, which pads the rest
    with dummy arguments."""
    ell = spec.output.nullary()
    if ell is None:
        raise NoNullaryOutputLetter(
            f"{spec.name}: the output alphabet has no rank-0 letter")
    order = spec.state_order()
    segments = {q: arg_types(spec.state_types[q]) for q in order}
    all_args = [B for q in order for B in segments[q]]
    offsets = {}
    s = 0
    for q in order:
        offsets[q] = s
        s += len(segments[q])
    A = O
    for B in reversed(all_args):
        A = Arrow(B, A)

    names = [f"x{i + 1}_" for i in range(len(all_args))]

    def iota(q):
        # \z. \x1 ... xN. z x_{s+1} ... x_{s+k}
        body = Var("z_")
        for i in range(offsets[q], offsets[q] + len(segments[q])):
            body = App(body, Var(names[i]))
        for i in reversed(range(len(all_args))):
            body = Lam(names[i], body, all_args[i])
        return Lam("z_", body, spec.state_types[q])

    def cast(q):
        # \y. \x1 ... xk. y dummy ... x1 ... xk ... dummy
        k = len(segments[q])
        body = Var("y_")
        for i, B in enumerate(all_args):
            lo, hi = offsets[q], offsets[q] + k
            if lo <= i < hi:
                body = App(body, Var(names[i - lo]))
            else:
                body = App(body, dummy_term(B, ell))
        for i in reversed(range(k)):
            body = Lam(names[i], body, segments[q][i])
        return Lam("y_", body, A)

    return A, iota, cast


def make_type_constant(spec, name=None):
    """Rebuild a GLS-transducer so every state shares one type (see
    conversions).  Each rule is wrapped in the conversion terms, and the
    spec keeps and writes the normal forms."""
    A, iota, cast = conversions(spec)
    new_rules = {}
    for (q, a), (t, qs) in spec.rules.items():
        body = spec.norm_rules[(q, a)]
        for i, qc in enumerate(qs):
            body = App(body, App(cast(qc), Var(f"y{i + 1}_")))
        body = App(iota(q), body)
        for i in reversed(range(len(qs))):
            body = Lam(f"y{i + 1}_", body, A)
        new_rules[(q, a)] = (body, qs)
    new_out = Lam("y_", App(spec.norm_out, App(cast(spec.init), Var("y_"))), A)
    const = GlsSpec(spec.input, spec.output,
                    {q: A for q in spec.state_order()}, spec.init, new_rules,
                    new_out, name=name or spec.name + "+const")
    # print the normal forms, as transducer.compose does: the wrapped
    # terms type only through their binders' hints, which the text drops
    const.rules = {key: (const.norm_rules[key], qs)
                   for key, (_, qs) in const.rules.items()}
    const.out = const.norm_out
    return const


# ---------------------------------------------------------------------------
# Splitting the state off as a relabeling

def relabel_letter(a, q):
    """The letter of the split alphabet for letter a in state q: an
    identifier, so that the split transducer's text reads back."""
    return f"{a}_{q}"


def split_state_relabeling(spec):
    """For a type-constant spec: a function annotating each input node
    with its top-down propagated state, and a stateless lambda-transducer
    over the annotated alphabet that finishes the job."""
    order = spec.state_order()
    A0 = spec.state_types[spec.init]
    for q in order:
        if spec.state_types[q] != A0:
            raise SpecError(f"{spec.name}: state types are not all equal; "
                            "apply make_type_constant first")

    def relabel(tau):
        ranks = spec.input.ranks
        out = Tree(None)
        todo = [(tau, spec.init, out)]
        while todo:     # each new node is filled in before its children
            node, q, new = todo.pop()
            rule = spec.rules.get((q, node.label))
            if rule is None or ranks[node.label] != len(node.children):
                # a tree that does not fit gets Tree.validate's error; a
                # node of the wrong rank never fits, so only a missing rule
                # gets this one
                tau.validate(spec.input)
                raise SpecError(f"{spec.name}: no rule for state {q!r} at "
                                f"letter {node.label!r}")
            new.label = relabel_letter(node.label, q)
            new.children = kids = tuple([Tree(None) for _ in node.children])
            todo.extend(reversed(list(zip(node.children, rule[1], kids))))
        return out

    letters = []
    rules = {}
    named = {}      # split letter -> the (state, letter) it stands for
    for (q, a), (t, qs) in sorted(spec.rules.items()):
        b = relabel_letter(a, q)
        if b in named:
            raise SpecError(
                f"{spec.name}: letter {named[b][1]!r} in state "
                f"{named[b][0]!r} and letter {a!r} in state {q!r} both "
                f"split to {b!r}")
        named[b] = (q, a)
        letters.append((b, spec.input.rank(a)))
        rules[b] = spec.norm_rules[(q, a)]
    trans = LambdaTransducerSpec(
        RankedAlphabet(tuple(letters)), spec.output, A0, rules,
        spec.norm_out, name=spec.name + "+split")
    return relabel, trans
