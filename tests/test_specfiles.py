"""Every spec-file format reports errors the same way: a bad line as
'name:lineno: ...', a missing required line as 'name: missing ...'."""

import re
import sys

import pytest

from lamtrans import corpus_path
from lamtrans.core import RankedAlphabet
from lamtrans.gls import make_type_constant, parse_gls, split_state_relabeling
from lamtrans.transducer import SpecError, parse_transducer
from lamtrans.walking import parse_iptt, parse_twt


# a directive of each format that may occur on many lines, one key a line
REPEATED = {"count.lt": "rule", "mirror.gls": "state",
            "count-twt.twt": "delta-root", "bin2unary.iptt": "delta"}
# a line that makes each format's spec name a letter or state it never
# declares, by being added (or, if the spec has it, dropped), and the refusal
UNDECLARED = {
    "count.lt": ("rule d = c", "rule for unknown letter 'd'"),
    "mirror.gls": ("state qo : o -o o", "rule (qe,a) names unknown state 'qo'"),
    "count-twt.twt": ("delta-root d q self = 0", "unknown letter 'd'"),
    "bin2unary.iptt": ("delta d q0 self root pebble NONE = 0",
                       "unknown letter 'd'"),
}


@pytest.mark.parametrize("fname, parse, required", [
    ("count.lt", parse_transducer, "memory"),
    ("mirror.gls", parse_gls, "init"),
    ("count-twt.twt", parse_twt, "state"),
    ("bin2unary.iptt", parse_iptt, "state"),
])
def test_spec_file_errors(fname, parse, required):
    with open(corpus_path(fname)) as f:
        lines = f.read().splitlines()
    parse("\n".join(lines), name=fname)
    bad = "\n".join(lines + ["bogus 1 2"])
    where = re.escape(f"{fname}:{len(lines) + 1}: ")
    with pytest.raises(SpecError, match=f"^{where}unknown directive 'bogus'"):
        parse(bad, name=fname)
    dropped = "\n".join(line for line in lines
                        if not line.startswith(required + " "))
    with pytest.raises(SpecError,
                       match=re.escape(f"{fname}: missing '{required}' line")):
        parse(dropped, name=fname)
    repeated = REPEATED[fname]
    again = next(line for line in lines if line.startswith(repeated + " "))
    with pytest.raises(SpecError, match=f"^{where}duplicate {repeated} "):
        parse("\n".join(lines + [again]), name=fname)
    i = next(i for i, line in enumerate(lines) if line.startswith("input "))
    bad_rank = lines[:i] + [lines[i].replace(":", ":x", 1)] + lines[i + 1:]
    with pytest.raises(SpecError, match=re.escape(
            f"{fname}:{i + 1}: expected a number, got 'x")):
        parse("\n".join(bad_rank), name=fname)
    # the alphabet's own checks name the line too
    negative = lines[:i] + [lines[i].replace(":", ":-", 1)] + lines[i + 1:]
    with pytest.raises(SpecError, match=f"^{re.escape(f'{fname}:{i + 1}: ')}"
                       "negative rank for "):
        parse("\n".join(negative), name=fname)
    # a directive that is not repeated may occur on one line only
    with pytest.raises(SpecError, match=f"^{where}duplicate 'input' line$"):
        parse("\n".join(lines + [lines[i]]), name=fname)
    # a letter or state that is never declared: on its line where there is
    # one, else in the spec
    line, message = UNDECLARED[fname]
    if line in lines:
        bad, at = [other for other in lines if other != line], f"{fname}: "
    else:
        bad, at = lines + [line], f"{fname}:{len(lines) + 1}: "
    with pytest.raises(SpecError, match=f"^{re.escape(at + message)}$"):
        parse("\n".join(bad), name=fname)


@pytest.mark.parametrize("parse, line, message", [
    (parse_twt, "delta a q from-child x = (q, stay)",
     "expected a number, got 'x'"),
    (parse_iptt, "delta a q self root pebble NONE = (q, to-child y)",
     "expected a number, got 'y'"),
    (parse_twt, "delta-root a q self = (q, stay) ) junk",
     "trailing input after transition image: ')'"),
    (parse_iptt, "delta a q self nonroot pebble NONE = S((q, stay)) junk",
     "trailing input after transition image: 'junk'"),
    (parse_twt, "state r init whatever",
     "trailing input after state line: 'whatever'"),
    (parse_twt, "state q", "duplicate state 'q'"),
    (parse_iptt, "colors { z, z }", "duplicate color 'z'"),
    (parse_iptt, "colors { a b }", "color 'a b' is not one word"),
    (parse_iptt, "colors { NONE }", "'NONE' is not a color name"),
    (parse_iptt, "colors { * }", "'*' is not a color name"),
    (parse_iptt, "colors { z,, y }", "empty entry in colors list"),
    (parse_iptt, "colors { z, y, }", "empty entry in colors list"),
    (parse_iptt, "colors { , z }", "empty entry in colors list"),
    (parse_iptt, "colors { , }", "empty entry in colors list"),
], ids=["from-child-x", "to-child-y", "after-leaf", "after-node",
        "after-init", "state-twice", "color-twice", "color-two-words",
        "color-none", "color-any", "color-empty", "color-trailing-comma",
        "color-leading-comma", "color-comma-only"])
def test_walking_spec_lines_are_read_to_their_end(parse, line, message):
    text = f"input {{ a:1, e:0 }}\noutput {{ S:1, 0:0 }}\nstate q init\n{line}"
    with pytest.raises(SpecError, match=f"^x:4: {re.escape(message)}$"):
        parse(text, name="x")


@pytest.mark.parametrize("line, colors", [
    ("colors { }", []), ("colors {}", []), ("colors { z }", ["z"]),
    ("colors { a, b, c }", ["a", "b", "c"]), ("colors {z,y}", ["z", "y"]),
])
def test_walking_colors_lines_that_load(line, colors):
    text = f"input {{ a:1, e:0 }}\noutput {{ S:1, 0:0 }}\nstate q init\n{line}"
    assert parse_iptt(text, name="x").colors == colors


def test_corpus_iptt_colors_load_unchanged(bin2unary):
    assert bin2unary.colors == ["a", "b", "c"]


# nesting past Python's recursion limit, and its refusal
DEEP = 2000
TOO_DEEP = (" nests too deeply to parse within Python's recursion limit of "
            f"{sys.getrecursionlimit()}")


@pytest.mark.parametrize("fname, parse, old, new, message", [
    ("count.lt", parse_transducer, r"rule b = \f. \x. S (f x)",
     r"rule b = \x. T x", "7: unknown constant 'T' (line 7, column 14)"),
    ("count.lt", parse_transducer, "memory o -o o", "  memory o -o )",
     "5: unexpected token ')' in type (line 5, column 15)"),
    ("count.lt", parse_transducer, r"out    = \f. f 0", r"out  \f. f 0 (",
     "9: expected a term (at end of input)"),
    ("mirror.gls", parse_gls, r"rule qe c -> = \x. c", r"rule qe d -> = \x. c",
     "11: rule for unknown letter 'd'"),
    ("mirror.gls", parse_gls, "state qo : o -o o", "state qo : o o",
     "7: trailing input after type: 'o' (line 7, column 14)"),
    ("count.lt", parse_transducer, r"rule b = \f. \x. S (f x)",
     r"rule b = \f. \x. S (f " + "(" * DEEP + "x" + ")" * DEEP + ")",
     "7: term" + TOO_DEEP),
    ("count.lt", parse_transducer, "memory o -o o",
     "memory " + "o -o " * DEEP + "o", "5: type" + TOO_DEEP),
    ("count.lt", parse_transducer, "memory o -o o",
     "memory " + "!" * DEEP + "o", "5: type" + TOO_DEEP),
    ("mirror.gls", parse_gls, "state qo : o -o o",
     "state qo : " + "o -o " * DEEP + "o", "7: type" + TOO_DEEP),
], ids=["term", "memory-type", "out-term", "gls-letter", "state-type",
        "deep-term", "deep-memory-arrows", "deep-memory-bangs",
        "deep-state-type"])
def test_term_and_type_errors_give_the_file_line_and_column(fname, parse, old,
                                                            new, message):
    with open(corpus_path(fname)) as f:
        text = f.read()
    assert old in text
    with pytest.raises(SpecError) as e:
        parse(text.replace(old, new), name=fname)
    assert str(e.value) == f"{fname}:{message}"



@pytest.mark.parametrize("parse", [parse_transducer, parse_gls, parse_twt,
                                   parse_iptt],
                         ids=["lt", "gls", "twt", "iptt"])
@pytest.mark.parametrize("line, message", [
    ("input { in:0, b:1 }", "letter 'in' after 'input' is not an identifier"),
    ("input { a-b:0 }", "letter 'a-b' after 'input' is not an identifier"),
    ("input { a@q:1, c:0 }",
     "letter 'a@q' after 'input' is not an identifier"),
    ("input { b:1, :0 }", "letter '' after 'input' is not an identifier"),
    ("output { S:1, let:0 }",
     "letter 'let' after 'output' is not an identifier"),
], ids=["reserved", "dash", "at", "empty", "output-reserved"])
def test_a_letter_no_tree_can_spell_is_refused_on_its_line(parse, line,
                                                           message):
    # such a spec used to load, and then refuse every tree that used the
    # letter with a syntax error
    text = f"# header\n{line}\n"
    with pytest.raises(SpecError, match=f"^x:2: {re.escape(message)}$"):
        parse(text, name="x")


def test_in_process_alphabets_keep_letters_no_tree_can_spell(mirror):
    assert not RankedAlphabet.of({"a@qe": 2, "c": 0}).spellable
    # the split transducer's letters are identifiers, so its text reads back
    relabel, trans = split_state_relabeling(make_type_constant(mirror))
    assert "a_qe" in trans.input and trans.input.spellable
    assert mirror.input.spellable
