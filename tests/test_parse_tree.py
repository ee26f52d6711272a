"""`core.parse_tree` against the loop it replaced (reference_parse), which
ran the term tokenizer over the text and validated the finished tree in a
second walk: on the same text, with and without an alphabet, both give the
same Tree, or the same exception class and message."""

import importlib.util
import random
import re
from pathlib import Path

import pytest

from lamtrans import corpus_path
from lamtrans.core import RankedAlphabet, parse_tree
from reference_parse import parse_tree as reference_parse_tree

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ["bin2bin.lt", "count.lt", "list-count.lt", "seq-nat.lt",
          "mirror.gls", "count-twt.twt", "seq-nat-twt.twt", "bin2unary.iptt"]
# what a mutation inserts or puts in place of a character
POOL = [*"(),#\n\t -o_é$", "-o", "let", "in"]


def bench_reference():
    """bench/reference.py, the bench's tree generators, loaded from its
    file."""
    spec = importlib.util.spec_from_file_location(
        "bench_reference", ROOT / "bench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_alphabets():
    """The input and output alphabets of every corpus spec, by the text of
    their lines."""
    out = {}
    for fname in CORPUS:
        with open(corpus_path(fname)) as f:
            for line in f:
                word, _, rest = line.partition(" ")
                if word in ("input", "output"):
                    letters = re.findall(r"(\w+):(\d+)", rest)
                    out[rest.strip()] = RankedAlphabet(
                        tuple((n, int(r)) for n, r in letters))
    return list(out.values())


def tree_texts():
    """The tree texts of the corpus comments, and trees like those of the
    bench workloads over the letters of the bench specs."""
    texts = []
    for fname in CORPUS:
        with open(corpus_path(fname)) as f:
            texts += re.findall(r"\w+\([\w(),]*\)", f.read())
    ref = bench_reference()
    rng = random.Random(23)
    for letters in ([("a", 2), ("b", 1), ("c", 0)], [("S", 1), ("0", 0)],
                    [("a", 2), ("c", 0)]):
        texts += [ref.to_str(ref.random_tree(rng, letters, size))
                  for size in (1, 2, 3, 5, 8, 12, 30)]
    texts += [ref.to_str(ref.chain("b", "c", 15)),
              ref.to_str(ref.chain("S", "0", 22))]
    texts += [ref.to_str(ref.numeral(format(v, "b"))) for v in range(8)]
    return texts


def mutate(text, rng):
    """text with a character inserted, deleted, replaced or swapped with
    its neighbour; what goes in comes from POOL."""
    i = rng.randrange(len(text) + 1)
    op = rng.choice(["insert", "delete", "replace", "swap"])
    if op == "insert" or i == len(text):
        return text[:i] + rng.choice(POOL) + text[i:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    if op == "replace":
        return text[:i] + rng.choice(POOL) + text[i + 1:]
    return text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]


def outcome(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except Exception as e:      # the class and message are compared
        return type(e), str(e)


def assert_same(text, alphabets):
    for alphabet in [None, *alphabets]:
        assert outcome(parse_tree, text, alphabet) == \
            outcome(reference_parse_tree, text, alphabet), (text, alphabet)


def test_the_texts_and_alphabets_are_found():
    assert len(corpus_alphabets()) >= 5
    assert {"a(b(c),c)", "1(0(e))"} <= set(tree_texts())


def test_mutants_of_corpus_and_bench_trees_parse_as_before():
    rng = random.Random(20261019)
    texts, alphabets = tree_texts(), corpus_alphabets()
    # letters no tree text can spell: each label is then checked on its own
    alphabets.append(RankedAlphabet.of({"a@q": 1, "in": 0, "(": 0, "-o": 1,
                                        "c": 0, "a": 2}))
    kinds = set()
    for _ in range(3000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        assert_same(text, alphabets)
        got = outcome(parse_tree, text, None)
        kinds.add(got[1].split(" (")[0].split(":")[0]
                  if isinstance(got, tuple) else "tree")
    # every syntax error of a tree text, and trees, came up
    assert kinds >= {"tree", "expected a tree label", "expected ')' in tree",
                     "trailing input after tree", "unexpected character '$'",
                     "unexpected character '-'"}


@pytest.mark.parametrize("text", [
    "S(" * 10_000 + "0" + ")" * 10_000,
    "w(" + ",".join(["c"] * 10_000) + ")",
    "S(" * 10_000 + "1" + ")" * 10_000,
    "w(" + ",".join(["c"] * 9_999) + ",S(c))",
], ids=["deep-chain", "wide", "deep-unknown-leaf", "wide-ill-ranked"])
def test_deep_and_wide_trees_parse_as_before(text):
    assert_same(text, [RankedAlphabet.of({"S": 1, "0": 0}),
                       RankedAlphabet.of({"w": 10_000, "c": 0, "S": 1})])
