"""Seeded mutants of the corpus spec files: each one either loads and
writes its own text back, or is refused with a LamtransError that names
the spec."""

import random
import re

from lamtrans import corpus_path
from lamtrans.core import LamtransError
from lamtrans.gls import parse_gls
from lamtrans.transducer import parse_transducer
from lamtrans.walking import parse_iptt, parse_twt

PARSERS = {"lt": parse_transducer, "gls": parse_gls, "twt": parse_twt,
           "iptt": parse_iptt}
CORPUS = ["bin2bin.lt", "count.lt", "list-count.lt", "seq-nat.lt",
          "mirror.gls", "count-twt.twt", "seq-nat-twt.twt", "bin2unary.iptt"]
TOKEN = re.compile(r"[\w-]+|\S")


def mutate(lines, pool, rng):
    """A copy of `lines` with one line deleted, duplicated or swapped with
    another, or one token of a line inserted, deleted or replaced by a
    token from `pool`."""
    lines = list(lines)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    op = rng.choice(["delete", "duplicate", "swap", "token"])
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(j, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        spans = [m.span() for m in TOKEN.finditer(lines[i])]
        if not spans:
            return lines
        start, end = rng.choice(spans)
        new = rng.choice(pool)
        line = lines[i]
        lines[i] = rng.choice([line[:start] + new + " " + line[start:],
                               line[:start] + line[end:],
                               line[:start] + new + line[end:]])
    return lines


def test_spec_readers_refuse_by_name_or_round_trip():
    rng = random.Random(20241017)
    texts = {}
    for fname in CORPUS:
        with open(corpus_path(fname)) as f:
            texts[fname] = f.read().splitlines()
    loaded = refused = 0
    for _ in range(1000):
        fname = rng.choice(CORPUS)
        parse = PARSERS[fname.rsplit(".", 1)[1]]
        lines = texts[fname]
        pool = TOKEN.findall("\n".join(lines))
        for _ in range(rng.randint(1, 2)):
            lines = mutate(lines, pool, rng)
        text = "\n".join(lines) + "\n"
        try:
            spec = parse(text, name=fname)
        except LamtransError as e:
            assert str(e).startswith(f"{fname}:"), (str(e), text)
            refused += 1
            continue
        again = spec.to_str()
        assert parse(again, name=fname).to_str() == again, text
        loaded += 1
    assert loaded > 100 and refused > 100
