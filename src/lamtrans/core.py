"""Ranked alphabets, trees and their printer, affine lambda-term syntax and
positions, tree encodings, and concrete-syntax parsing/printing."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field


class LamtransError(Exception):
    """Base class for all errors raised by this library."""


class SyntaxErr(LamtransError):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"{msg} (line {line}, column {col})"
        super().__init__(msg)
        self.line = line
        self.col = col


class NotAnEncoding(LamtransError):
    pass


class TooDeep(LamtransError):
    """A term nests too deeply for a pass that recurses on it."""


def too_deep(t, doing):
    """The TooDeep error for a pass (`doing`, a verb) that ran out of
    Python's recursion limit on t: a term, or the word for text that does
    not parse into one yet."""
    what = t if isinstance(t, str) else f"term of depth {term_depth(t)}"
    return TooDeep(f"{what} nests too deeply to {doing} within Python's "
                   f"recursion limit of {sys.getrecursionlimit()}")


# ---------------------------------------------------------------------------
# Ranked alphabets and trees

@dataclass(frozen=True)
class RankedAlphabet:
    letters: tuple  # tuple of (name, rank) pairs, order-preserving
    # built from letters: each name's rank, and whether every name is an
    # identifier, which is all a tree text can spell
    ranks: dict = field(init=False, repr=False, compare=False)
    spellable: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ranks = dict(self.letters)
        if not ranks:
            raise LamtransError("alphabet must contain at least one letter")
        if len(ranks) != len(self.letters):
            raise LamtransError("duplicate letter in alphabet")
        for n, r in self.letters:
            if not n or n.startswith("<>"):
                raise LamtransError(f"invalid letter name {n!r}")
            if r < 0:
                raise LamtransError(f"negative rank for {n}")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "spellable", all(map(is_ident, ranks)))

    @staticmethod
    def of(mapping):
        return RankedAlphabet(tuple(mapping.items()))

    def rank(self, name):
        r = self.ranks.get(name)
        if r is None:
            raise LamtransError(f"unknown letter {name!r}")
        return r

    def __contains__(self, name):
        return name in self.ranks

    def nullary(self):
        """First rank-0 letter, or None."""
        for n, r in self.letters:
            if r == 0:
                return n
        return None

    def to_str(self):
        return "{ " + ", ".join(f"{n}:{r}" for n, r in self.letters) + " }"


class _Hash:
    """Stands in for an object whose hash is already known, so that
    hashing a tuple of them combines the known hashes."""
    __slots__ = ("h",)

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


class Node:
    """The == and hash of the tree classes (Tree, treegen.FNode): what a
    frozen dataclass of (label, children) gives, computed with an explicit
    stack, so trees of any depth work.  Both recurse into the children of
    the receiver's own class; any other child is compared and hashed as
    it is.  == compares a pair of nodes marked `reused` (see Tree) once,
    and hash hashes each distinct node once."""
    __slots__ = ()

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is not cls:
            return NotImplemented
        todo = [(self, other)]
        met = set()     # (id, id) of each pair of reused nodes met
        while todo:
            a, b = todo.pop()
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if x is y:
                    continue
                if x.__class__ is cls and y.__class__ is cls:
                    if x.reused and y.reused:
                        # a pair met before is compared, or on todo
                        pair = id(x), id(y)
                        if pair in met:
                            continue
                        met.add(pair)
                    todo.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        cls = self.__class__
        known = {}      # id of a node below self -> _Hash of it
        todo = [self]
        while todo:
            t = todo[-1]
            if id(t) in known:
                todo.pop()
                continue
            missing = [c for c in t.children
                       if c.__class__ is cls and id(c) not in known]
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            known[id(t)] = _Hash(hash((t.label, tuple(
                known[id(c)] if c.__class__ is cls else c
                for c in t.children))))
        return known[id(self)].h


@dataclass(eq=False, init=False)
class Tree(Node):
    """A ranked tree; as an output, a DAG whose nodes may be held at
    several places.  Its producers (`treegen.drive`'s memo, `decode_tree`)
    set `reused` on a node with children when they put it at a second
    place.  `to_str` then writes that node's text once, `size` counts its
    subtree once and `==` compares a pair of reused nodes once, while each
    still counts every occurrence.  `reused` is a slot set in `__init__`,
    not a dataclass field, so ==, hash and repr see only the label and the
    children, and a DAG without marks prints and counts as before."""
    __slots__ = ("label", "children", "reused")
    label: str
    children: tuple

    # == and hash come from Node; size, to_str and validate also walk the
    # tree with an explicit stack.

    def __init__(self, label, children=()):
        self.label = label
        self.children = children
        self.reused = False

    def size(self):
        """The number of node occurrences."""
        n = 0
        sizes = {}      # id of a reused node -> its size
        todo = [self]
        while todo:
            t = todo.pop()
            if t.__class__ is not Tree:     # (id, n there): a reused node
                sizes[t[0]] = n - t[1]      # and its subtree are counted
                continue
            if t.reused:
                k = sizes.get(id(t))
                if k is not None:
                    n += k
                    continue
                todo.append((id(t), n))
            n += 1
            todo.extend(t.children)
        return n

    def to_str(self):
        return tree_to_str(self, Tree, str)

    def validate(self, alphabet):
        todo = [self]
        while todo:
            t = todo.pop()
            cs = t.children
            if len(cs) != alphabet.rank(t.label):
                raise LamtransError(
                    f"letter {t.label} has rank {alphabet.rank(t.label)}, "
                    f"got {len(cs)} children")
            if cs:
                todo.extend(cs[::-1])


_COMMA, _CLOSE = object(), object()    # stand for "," and ")" on the stack
_JOIN = object()    # below a reused node's pieces, over (its id, their start)


def tree_to_str(t, node, leaf):
    """The text label(child,...) of a tree whose inner nodes are objects
    of class `node` (with a label, a children tuple and a `reused` mark).
    Any other object in it is a leaf, written as leaf(it).  The text of a
    node marked `reused` is joined once, where it first occurs, kept until
    the call returns, and put in as one piece wherever the node occurs
    again, so the nodes below it are walked once, not at each occurrence.
    Works on trees of any depth."""
    out, todo = [], [t]
    texts = None    # id of a reused node -> its text, once one is met
    while todo:
        t = todo.pop()
        if t.__class__ is not node:
            if t is _COMMA:
                out.append(",")
            elif t is _CLOSE:
                out.append(")")
            elif t is _JOIN:
                key, start = todo.pop()
                text = "".join(out[start:])
                del out[start:]
                out.append(text)
                texts[key] = text
            else:
                out.append(leaf(t))
            continue
        cs = t.children
        if not cs:
            out.append(t.label)
            continue
        if t.reused:
            if texts is None:
                texts = {}
            key = id(t)
            text = texts.get(key)
            if text is not None:
                out.append(text)
                continue
            todo.append((key, len(out)))
            todo.append(_JOIN)
        out.append(t.label + "(")
        todo.append(_CLOSE)
        if len(cs) == 1:        # a unary node: no commas to place
            todo.append(cs[0])
            continue
        for i in range(len(cs) - 1, 0, -1):
            todo.append(cs[i])
            todo.append(_COMMA)
        todo.append(cs[0])
    return "".join(out)


def parse_tree(text, alphabet=None):
    """The tree a text writes as label(child,...), with whitespace and
    '#' comments anywhere between tokens.  Given an alphabet, each node's
    rank is checked as the node closes, and a tree that does not fit gets
    Tree.validate's error; a syntax error comes first."""
    toks = _scan(text)
    toks.append("")     # the end of the text
    ranks = {} if alphabet is None else alphabet.ranks
    every = alphabet is None or not alphabet.spellable  # check every label
    fits = True
    i = 0
    open_nodes = []     # (label, rank, children so far) of each unclosed node
    while True:
        label = toks[i]
        rank = ranks.get(label)
        if (rank is None or every) and not is_ident(label):
            _tree_syntax_error(text, "expected a tree label")
        i += 1
        if toks[i] == "(":
            i += 1
            open_nodes.append((label, rank, []))
            continue
        if rank != 0:
            fits = False
        node = Tree(label)
        # hand the finished node to its parent, closing parents as we go
        while open_nodes:
            open_nodes[-1][2].append(node)
            tok = toks[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                _tree_syntax_error(text, "expected ')' in tree")
            label, rank, children = open_nodes.pop()
            if rank != len(children):
                fits = False
            node = Tree(label, tuple(children))
        else:
            break
    if toks[i]:
        _tree_syntax_error(text, "trailing input after tree", i)
    if not fits and alphabet is not None:
        node.validate(alphabet)
    return node


def _tree_syntax_error(text, msg, i=None):
    """Raises the SyntaxErr of a tree text that parse_tree refused with msg
    at its token i: _tokenize's own error if the text has one, else msg,
    which names token i and gives its line and column when i is given."""
    toks = _tokenize(text)
    if i is None:
        raise SyntaxErr(msg)
    raise SyntaxErr(f"{msg}: {toks[i]!r}", *token_position(text, (1, 1), i))


# ---------------------------------------------------------------------------
# Terms
#
# Child indices used in positions:
#   Lam: 0 = body      App: 0 = fn, 1 = arg
#   Box: 0 = body      Let: 0 = bound term, 1 = body

@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    var: str
    body: "Term"
    # optional binder-type hint (filled by generators, ignored for equality)
    hint: object = field(default=None, compare=False)


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Box:
    body: "Term"


@dataclass(frozen=True)
class Let:
    var: str
    bound: "Term"
    body: "Term"


Term = object  # union of the six classes above

RESERVED = ("let", "in")


def children(t):
    if isinstance(t, Lam):
        return [t.body]
    if isinstance(t, App):
        return [t.fn, t.arg]
    if isinstance(t, Box):
        return [t.body]
    if isinstance(t, Let):
        return [t.bound, t.body]
    return []


def with_children(t, cs):
    if isinstance(t, Lam):
        return Lam(t.var, cs[0], t.hint)
    if isinstance(t, App):
        return App(cs[0], cs[1])
    if isinstance(t, Box):
        return Box(cs[0])
    if isinstance(t, Let):
        return Let(t.var, cs[0], cs[1])
    return t


def rebuild(nodes, kids, node):
    """The term numbered by (nodes, kids) (number_term) built anew, each
    position as node(pos, its subterm, its children built anew).  Built
    from the last position to the first, children before parents, so
    terms of any depth work."""
    built = [None] * len(nodes)
    for pos in range(len(nodes) - 1, -1, -1):
        built[pos] = node(pos, nodes[pos], [built[pos + k] for k in kids[pos]])
    return built[0]


def number_term(term):
    """The positions of a term as preorder numbers: the root is 0 and a
    node's first child comes right after it.  Returns the subterm at each
    number and its children as offsets from it (1 for the first child), so
    the lists of a subterm do not depend on where it sits."""
    nodes, kids = [], []
    todo = [(term, None)]   # (subterm, the node it is the second child of)
    while todo:
        t, parent = todo.pop()
        i = len(nodes)
        nodes.append(t)
        if parent is not None:
            kids[parent] = (1, i - parent)
        cls = t.__class__
        if cls is App or cls is Let:
            kids.append(None)   # filled in when the second child comes
            todo.append((t.arg if cls is App else t.body, i))
            todo.append((t.fn if cls is App else t.bound, None))
        elif cls is Lam or cls is Box:
            kids.append((1,))
            todo.append((t.body, None))
        else:
            kids.append(())
    return nodes, kids


def term_depth(t):
    """Nodes on the longest root-to-leaf path of t."""
    depth = 0
    todo = [(t, 1)]
    while todo:
        t, d = todo.pop()
        depth = max(depth, d)
        todo.extend((c, d + 1) for c in children(t))
    return depth


def fresh_name(base, avoid):
    if base not in avoid:
        return base
    i = 1
    while f"{base}_{i}" in avoid:
        i += 1
    return f"{base}_{i}"


# ---------------------------------------------------------------------------
# Printing

def render_term(t):
    """The text of a term and, for each of its positions in preorder
    (number_term's order), the [start, end) of the text that a mark there
    wraps: the subterm's own text, inside the parentheses around it.  One
    walk with an explicit stack, so a term of any depth renders."""
    out, spans, n = [], [], 0
    # a (subterm, level) to render, a string to write, or the number of a
    # position whose text ends here; level: 0 = term (lam/let ok), 1 = app
    # position, 2 = atom position
    todo = [(t, 0)]
    while todo:
        item = todo.pop()
        cls = item.__class__
        if cls is str:
            out.append(item)
            n += len(item)
            continue
        if cls is int:
            spans[item] = (spans[item], n)
            continue
        t, level = item
        cls = t.__class__
        if cls is Const or cls is Var:
            spans.append((n, n + len(t.name)))
            out.append(t.name)
            n += len(t.name)
            continue
        if cls is Box:
            head, rest = "!", [(t.body, 2)]
        elif cls is Lam:
            head, rest = "\\" + t.var + ". ", [(t.body, 0)]
        elif cls is Let:
            head = "let !" + t.var + " = "
            rest = [(t.body, 0), " in ", (t.bound, 0)]
        elif cls is App:
            head, rest = "", [(t.arg, 2), " ", (t.fn, 1)]
        else:
            raise LamtransError(f"not a term: {t!r}")
        if level > (1 if cls is App else 0) and cls is not Box:
            out.append("(")
            n += 1
            todo.append(")")
        todo.append(len(spans))
        todo += rest
        spans.append(n)
        out.append(head)
        n += len(head)
    return "".join(out), spans


def marked(text, span, direction):
    """A rendered term's text with the span [start, end) of one position
    wrapped in >...< (down) or <...> (up), by two slices."""
    start, end = span
    left, right = ("<", ">") if direction == "up" else (">", "<")
    return text[:start] + left + text[start:end] + right + text[end:]


def term_to_str(t):
    """The text of a term (render_term)."""
    return render_term(t)[0]


# ---------------------------------------------------------------------------
# Parsing

def is_ident(s):
    return s.replace("_", "a").isalnum() and s not in RESERVED


# the tokens of tree, term and type text, and its '#' comments
_TOKEN = re.compile(r"#[^\n]*|-o|\w+|\S")
_PUNCT = frozenset("\\.!()=,{}:@<>")


def _scan(text):
    """The tokens of a tree, term or type text, its comments dropped."""
    toks = _TOKEN.findall(text)
    if "#" in text:
        toks = [tok for tok in toks if tok[0] != "#"]
    return toks


def _tokenize(text, at=(1, 1)):
    """The tokens of `text` (_scan).  A character that is not white space
    and in no word, comment, `-o` or punctuation is refused with its (line,
    column), counted from `at`, the position of the text's first
    character."""
    toks = _scan(text)
    for i, tok in enumerate(toks):
        if len(tok) == 1 and tok not in _PUNCT and not is_ident(tok):
            raise SyntaxErr(f"unexpected character {tok!r}",
                            *token_position(text, at, i))
    return toks


def token_position(text, at, i):
    """The (line, column) of the i-th token of `text` (see _tokenize),
    counted from `at`, the position of its first character: found again
    from the text, for an error only."""
    off = [m.start() for m in _TOKEN.finditer(text) if m[0][0] != "#"][i]
    line, col = at
    nl = text.rfind("\n", 0, off)
    if nl < 0:
        return line, col + off
    return line + text.count("\n", 0, off), off - nl


class _TermParser:
    def __init__(self, text, at, alphabet=None, extra_consts=()):
        self.text, self.at = text, at
        self.toks = _tokenize(text, at)
        self.i = 0
        self.alphabet = alphabet
        self.extra = set(extra_consts)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def err(self, msg):
        if self.i < len(self.toks):
            raise SyntaxErr(msg, *token_position(self.text, self.at, self.i))
        raise SyntaxErr(msg + " (at end of input)")

    def eat(self, tok=None):
        if self.i >= len(self.toks):
            self.err(f"expected {tok!r}")
        got = self.toks[self.i]
        if tok is not None and got != tok:
            self.err(f"expected {tok!r}, got {got!r}")
        self.i += 1
        return got

    def term(self, bound):
        if self.peek() == "\\":
            self.eat()
            name = self.ident()
            self.eat(".")
            return Lam(name, self.term(bound | {name}))
        if self.peek() == "let":
            self.eat()
            self.eat("!")
            name = self.ident()
            self.eat("=")
            bnd = self.term(bound)
            self.eat("in")
            return Let(name, bnd, self.term(bound | {name}))
        return self.app(bound)

    def app(self, bound):
        t = self.atom(bound)
        while self.peek() in ("\\",) or self._at_atom():
            t = App(t, self.atom(bound))
        return t

    def _at_atom(self):
        p = self.peek()
        return p is not None and (p == "(" or p == "!" or is_ident(p))

    def atom(self, bound):
        p = self.peek()
        if p == "(":
            self.eat()
            t = self.term(bound)
            self.eat(")")
            return t
        if p == "!":
            self.eat()
            return Box(self.atom(bound))
        if p == "\\":
            # allow a lambda directly as the last applicand: "f \\x. t"
            return self.term(bound)
        if p is not None and is_ident(p):
            if p in bound or self.alphabet is None and p not in self.extra:
                return Var(self.eat())
            if p not in self.extra and p not in self.alphabet:
                self.err(f"unknown constant {p!r}")
            return Const(self.eat())
        self.err("expected a term")

    def ident(self):
        p = self.peek()
        if p is None or not is_ident(p):
            self.err("expected an identifier")
        return self.eat()


def parse_term(text, alphabet=None, extra_consts=(), at=(1, 1)):
    """Parse a term.  Identifiers matching letters of the given output
    alphabet (or extra_consts) become constants; bound names become
    variables; anything else is a free variable if no alphabet is given,
    an error otherwise.  Syntax errors give their (line, column) counted
    from `at`, the position of the text's first character; a term nested
    past Python's recursion limit raises TooDeep."""
    p = _TermParser(text, at, alphabet, extra_consts)
    try:
        t = p.term(frozenset())
    except RecursionError:
        raise too_deep("term", "parse") from None
    if p.i != len(p.toks):
        p.err("trailing input after term")
    return t


# ---------------------------------------------------------------------------
# Tree encodings

def apply_tree(tau, head, alphabet=None):
    """The term head(a) t_1 ... t_k for each node a(c_1, ..., c_k) of tau,
    where t_i is the term of c_i; head is called in preorder.  Given an
    alphabet, the same walk checks each node's rank, and a tree that does
    not fit gets Tree.validate's error, also where head raised on it."""
    ranks = {} if alphabet is None else alphabet.ranks
    fits = True
    out = []
    todo = [tau]
    try:
        while todo:
            node = todo.pop()
            if type(node) is tuple:     # (head term, rank): children are done
                t, k = node
                if k == 1:
                    out[-1] = App(t, out[-1])
                    continue
                cut = len(out) - k
                for c in out[cut:]:
                    t = App(t, c)
                del out[cut:]
                out.append(t)
                continue
            cs = node.children
            if ranks.get(node.label) != len(cs):
                fits = False
            if cs:
                todo.append((head(node.label), len(cs)))
                todo.extend(reversed(cs))
            else:
                out.append(head(node.label))
    except (KeyError, LamtransError):     # what a head raises
        if alphabet is not None:
            tau.validate(alphabet)
        raise
    if not fits and alphabet is not None:
        tau.validate(alphabet)
    return out[0]


def encode_tree(tau):
    """The applicative encoding of a tree as a closed normal term of type o."""
    return apply_tree(tau, Const)


def decode_tree(t):
    """Inverse of encode_tree; raises NotAnEncoding on anything else.  An
    App met twice is decoded once, so the tree shares the subtrees that
    the term shares."""
    out = []
    todo = [t]
    done = {}                       # id of an App decoded -> its Tree
    while todo:
        t = todo.pop()
        k = type(t)
        if k is App:
            i = id(t)
            tree = done.get(i)
            if tree is not None:
                tree.reused = True
                out.append(tree)
                continue
            args = []
            while type(t) is App:
                args.append(t.arg)
                t = t.fn
            if type(t) is not Const:
                break
            todo.append((i, t.name, len(args)))
            todo += args            # the last argument first
        elif k is Const:
            out.append(Tree(t.name))
        elif k is tuple:            # (id, label, rank): children are done
            i, label, n = t
            if n == 1:
                tree = Tree(label, (out.pop(),))
            else:
                cut = len(out) - n
                tree = Tree(label, tuple(out[cut:]))
                del out[cut:]
            done[i] = tree
            out.append(tree)
        else:
            break
    else:
        return out[0]
    raise NotAnEncoding(f"not an applicative constant term: {term_to_str(t)}")


def instantiate(tau, family, alphabet=None):
    """Replace each constant of encode_tree(tau) by its family term, tau
    checked against the alphabet if one is given (see apply_tree)."""
    try:
        return apply_tree(tau, family.__getitem__, alphabet)
    except KeyError as e:
        raise LamtransError(
            f"no family entry for letter {e.args[0]!r}") from None
