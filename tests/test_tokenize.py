"""The scanners of tree, term and type text (`core._tokenize`, with
`core.token_position` for a token's line and column) and of walking-spec
lines (`walking._wtokenize`) against the character loops they replaced
(reference_parse): on the corpus files, their lines and seeded mutants of
them, each pair gives the same tokens at the same (line, column), or the
same SyntaxErr message."""

import random

from lamtrans import corpus_path
from lamtrans.compiler import compile_walking
from lamtrans.core import SyntaxErr, _tokenize, token_position
from lamtrans.transducer import load_transducer
from lamtrans.walking import _wtokenize
import reference_parse

from test_parse_tree import CORPUS, POOL

# what a mutation inserts or puts in place of a character
MUTANT_POOL = [*POOL, '"', "\\"]


def corpus_files():
    """Every corpus file's text, and count.lt compiled to each walking
    format, whose state names are quoted and hold backslashes."""
    texts = []
    for fname in CORPUS:
        with open(corpus_path(fname)) as f:
            texts.append(f.read())
    spec = load_transducer(corpus_path("count.lt"))
    return texts + [compile_walking(spec, target).to_str()
                    for target in ("twt", "iptt")]


def corpus_lines():
    return [line for text in corpus_files() for line in text.splitlines()]


def mutate(text, rng):
    """text with a character inserted, deleted, replaced or swapped with
    its neighbour; what goes in comes from MUTANT_POOL."""
    i = rng.randrange(len(text) + 1)
    op = rng.choice(["insert", "delete", "replace", "swap"])
    if op == "insert" or i == len(text):
        return text[:i] + rng.choice(MUTANT_POOL) + text[i:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    if op == "replace":
        return text[:i] + rng.choice(MUTANT_POOL) + text[i + 1:]
    return text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]


def tokens(text, at):
    """The new scanner's tokens of text, each with its (line, column)."""
    try:
        return [(tok, *token_position(text, at, i))
                for i, tok in enumerate(_tokenize(text, at))]
    except SyntaxErr as e:
        return str(e)


def reference_tokens(text, at):
    try:
        return reference_parse._tokenize(text, *at)
    except SyntaxErr as e:
        return str(e)


def wtokens(tokenize, text):
    try:
        return tokenize(text)
    except SyntaxErr as e:
        return str(e)


def assert_same(text, rng):
    """Scans text with both pairs of scanners, from a random origin;
    returns what the new ones gave."""
    at = rng.randint(1, 500), rng.randint(1, 80)
    got = tokens(text, at), wtokens(_wtokenize, text)
    assert got[0] == reference_tokens(text, at), (text, at)
    assert got[1] == wtokens(reference_parse._wtokenize, text), text
    return got


def test_corpus_texts_scan_as_before():
    rng = random.Random(24)
    texts = corpus_files() + corpus_lines()
    assert len(texts) > 200
    for text in texts:
        assert_same(text, rng)


def test_mutants_scan_as_before():
    rng = random.Random(20261019)
    texts = corpus_lines()
    seen = set()
    for _ in range(20_000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        got, wgot = assert_same(text, rng)
        seen.add(got.split(" (")[0] if isinstance(got, str) else "tokens")
        if wgot == "unterminated quoted state name":
            seen.add("unterminated")
    # both kinds of error came up, and texts that scan
    assert seen >= {"tokens", "unexpected character '$'",
                    "unexpected character '\"'", "unterminated"}


def test_positions_count_from_the_origin():
    text = "a  (\n  b, # c\n\tc)\r\n -o"
    assert tokens(text, (3, 7)) == [
        ("a", 3, 7), ("(", 3, 10), ("b", 4, 3), (",", 4, 4), ("c", 5, 2),
        (")", 5, 3), ("-o", 6, 2)]
    assert tokens("ab\n $", (2, 5)) == \
        "unexpected character '$' (line 3, column 2)"
