"""Every spec-file format reports errors the same way: a bad line as
'name:lineno: ...', a missing required line as 'name: missing ...'."""

import re

import pytest

from lamtrans import corpus_path
from lamtrans.gls import parse_gls
from lamtrans.transducer import SpecError, parse_transducer
from lamtrans.walking import parse_iptt, parse_twt


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
