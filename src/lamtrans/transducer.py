"""Lambda-transducers: tree-to-tree functions given by a memory type, one
transition term per input letter, and an output-extraction term.

A transducer with memory A maps each rank-k input letter a to a closed
term t_a : A -o ... -o A -o A and provides out : A -o o.  Running it on a
tree means instantiating every node by its transition term, applying out,
and evaluating the resulting closed base-type term -- by normalization or
by a token machine."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (App, Const, Lam, LamtransError, RankedAlphabet, SyntaxErr,
                   Var, decode_tree, instantiate, is_ident, number_term,
                   parse_term, rebuild, term_to_str, with_children)
from .iam import LocalBlocks
from .reduction import normalize
from .typecheck import (Arrow, O, TIER_NAMES, TypingError, fill_hints,
                        parse_type, subst_base, type_to_str, typecheck)


class SpecError(LamtransError):
    pass


def rule_type(memory, rank):
    A = memory
    for _ in range(rank):
        A = Arrow(memory, A)
    return A


def normal_form(t, ty, alphabet, what):
    """The normal form of a source term of type ty, every binder hinted
    with its type so that it synthesizes that type; `what` names the term
    in the SpecError for a term of another type."""
    try:
        ann = typecheck(t, ty=ty, alphabet=alphabet)
    except TypingError as e:
        raise SpecError(f"{what} does not have type {type_to_str(ty)}: "
                        f"{e}") from e
    return normalize(fill_hints(ann))


@dataclass
class LambdaTransducerSpec:
    input: RankedAlphabet
    output: RankedAlphabet
    memory: object                      # Type
    rules: dict                         # letter -> source Term
    out: object                         # source Term
    name: str = "transducer"
    # filled by _elaborate: normalized, hint-carrying forms, the typed
    # local terms and the largest tier among them
    norm_rules: dict = field(init=False, default_factory=dict)
    norm_out: object = field(init=False, default=None)
    blocks: LocalBlocks = field(init=False, default=None)
    tier: int = field(init=False, default=0)

    def __post_init__(self):
        self._elaborate()

    def _elaborate(self):
        for letter, rank in self.input.letters:
            if letter not in self.rules:
                raise SpecError(f"{self.name}: missing rule for input letter "
                                f"{letter!r}")
            self.norm_rules[letter] = normal_form(
                self.rules[letter], rule_type(self.memory, rank), self.output,
                f"{self.name}: rule {letter}")
        for letter in self.rules:
            if letter not in self.input:
                raise SpecError(f"{self.name}: rule for unknown letter "
                                f"{letter!r}")
        self.norm_out = normal_form(self.out, Arrow(self.memory, O),
                                    self.output, f"{self.name}: out")
        self.blocks = LocalBlocks(self)
        self.tier = max(block.info.tier for block in self.blocks)

    def tier_name(self):
        return TIER_NAMES[self.tier]

    # -- running -----------------------------------------------------------

    def program_term(self, tau):
        """out applied to tau instantiated, its root tagged `_program`
        with this spec's blocks and tau, from which typecheck assembles
        the program's tables (iam.LocalBlocks.program) each time it is
        typed against o under the output alphabet.  Nothing else is kept
        on the program, and normalizing it assembles nothing."""
        term = App(self.norm_out, instantiate(tau, self.norm_rules,
                                              self.input))
        object.__setattr__(term, "_program", (self.blocks, tau))
        return term

    def program_ann(self, tau):
        return typecheck(self.program_term(tau), ty=O, alphabet=self.output)

    def eval_normalize(self, tau, fuel=10_000_000):
        return decode_tree(normalize(self.program_term(tau), fuel))

    def to_str(self):
        lines = [f"input {self.input.to_str()}",
                 f"output {self.output.to_str()}",
                 f"memory {type_to_str(self.memory)}"]
        for letter, _ in self.input.letters:
            lines.append(f"rule {letter} = {term_to_str(self.rules[letter])}")
        lines.append(f"out = {term_to_str(self.out)}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Spec files

def _strip(line):
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


def parse_alphabet_block(text, where=""):
    """The alphabet `{ letter:rank, ... }`; each letter is an identifier, so
    that a tree text can spell it."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise SyntaxErr(f"expected {{ letter:rank, ... }} {where}")
    body = text[1:-1].strip()
    letters = []
    if body:
        for part in body.split(","):
            if ":" not in part:
                raise SyntaxErr(f"expected letter:rank, got {part!r} {where}")
            name, rank = part.split(":", 1)
            name = name.strip()
            if not is_ident(name):
                raise SyntaxErr(f"letter {name!r} {where} is not an "
                                "identifier")
            letters.append((name, parse_int(rank.strip())))
    return RankedAlphabet(tuple(letters))


def parse_int(text):
    """The number a spec line writes as text."""
    try:
        return int(text)
    except ValueError:
        raise SyntaxErr(f"expected a number, got {text!r}") from None


def parse_directives(text, name, handlers, required=(), repeated=()):
    """Parse a spec file of `DIRECTIVE REST` lines; '#' starts a comment.
    handlers[DIRECTIVE](REST, got, at) parses one line given the values of
    the lines before it, collected in got: the value of each directive, or
    the list of all values for those in `repeated`, each a (key, ...) pair;
    `at` is the (line, column) of REST in the file, for the positions of
    syntax errors.  Returns got.  A bad line, a second line of a directive
    not in `repeated`, or a repeated directive's key given twice raises
    SpecError 'name:lineno: ...'; a `required` directive that never occurs
    raises 'name: missing ...'."""
    got = {key: [] for key in repeated}
    seen = {key: set() for key in repeated}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        key, _, rest = line.partition(" ")
        at = lineno, len(raw) - len(raw.lstrip()) + len(key) + 2
        try:
            if key not in handlers:
                raise SyntaxErr(f"unknown directive {key!r}")
            value = handlers[key](rest, got, at)
        except LamtransError as e:
            raise SpecError(f"{name}:{lineno}: {e}") from e
        if key in repeated:
            if value[0] in seen[key]:
                raise SpecError(f"{name}:{lineno}: duplicate {key} "
                                f"{value[0]!r}")
            seen[key].add(value[0])
            got[key].append(value)
        elif key in got:
            raise SpecError(f"{name}:{lineno}: duplicate '{key}' line")
        else:
            got[key] = value
    for key in required:
        if got.get(key) in (None, []):
            raise SpecError(f"{name}: missing '{key}' line")
    return got


# the alphabet lines every spec file starts with
ALPHABET_LINES = {
    "input": lambda rest, *_: parse_alphabet_block(rest, "after 'input'"),
    "output": lambda rest, *_: parse_alphabet_block(rest, "after 'output'"),
}


def suffix_at(rest, part, at):
    """The file position of `part`, an end of the directive text `rest`
    that starts at `at`."""
    return at[0], at[1] + len(rest) - len(part)


def line_term(rest, src, got, at):
    """The term `src`, the end of a directive line, over the output
    alphabet."""
    if "output" not in got:
        raise SyntaxErr("the output alphabet must come before terms")
    return parse_term(src, got["output"], at=suffix_at(rest, src, at))


def out_line(rest, got, at):
    """`out = TERM`, the '=' optional: the term."""
    src = rest.strip()
    return line_term(rest, src[1:] if src.startswith("=") else src, got, at)


def _rule_line(rest, got, at):
    letter, _, src = rest.partition("=")
    letter = letter.strip()
    if not letter or not src:
        raise SyntaxErr("expected 'rule LETTER = TERM'")
    if "input" in got and letter not in got["input"]:
        raise SyntaxErr(f"rule for unknown letter {letter!r}")
    return letter, line_term(rest, src, got, at)


def parse_transducer(text, name="transducer"):
    got = parse_directives(
        text, name,
        {**ALPHABET_LINES,
         "memory": lambda rest, got, at: parse_type(rest, at),
         "rule": _rule_line, "out": out_line},
        required=("input", "output", "memory", "out"), repeated=("rule",))
    return LambdaTransducerSpec(got["input"], got["output"], got["memory"],
                                dict(got["rule"]), got["out"], name=name)


def load_file(parse, path):
    """Parse the spec file at path, naming it by its path in errors."""
    with open(path) as f:
        return parse(f.read(), name=str(path))


def load_transducer(path):
    return load_file(parse_transducer, path)


# ---------------------------------------------------------------------------
# Composition

def subst_consts(t, mapping):
    """Replace constants by closed terms, at any depth (core.rebuild)."""
    def substituted(pos, t, cs):
        if t.__class__ is Const and t.name in mapping:
            return mapping[t.name]
        return with_children(t, cs)

    return rebuild(*number_term(t), substituted)


def compose(f, g, name=None):
    """The transducer computing g-after-f, built by substituting g's
    transition terms for the output constants inside f's."""
    if f.output.letters != g.input.letters:
        raise SpecError(
            f"cannot compose: {f.name} outputs {f.output.to_str()} but "
            f"{g.name} reads {g.input.to_str()}")
    memory = subst_base(f.memory, g.memory)
    gmap = {letter: g.norm_rules[letter] for letter, _ in g.input.letters}
    rules = {letter: subst_consts(f.norm_rules[letter], gmap)
             for letter, _ in f.input.letters}
    x = Var("x0_")
    out = Lam("x0_", App(g.norm_out, App(subst_consts(f.norm_out, gmap), x)),
              memory)
    spec = LambdaTransducerSpec(f.input, g.output, memory, rules, out,
                                name=name or f"{f.name};{g.name}")
    # print the normalized forms: unlike the raw substituted terms they
    # re-typecheck without annotations, so the spec round-trips through
    # its file format
    spec.rules = dict(spec.norm_rules)
    spec.out = spec.norm_out
    return spec

