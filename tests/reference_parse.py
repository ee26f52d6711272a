"""Test-only references for the parsers' scanners and tree parser: the
character loops that tokenized tree, term and type text (`_tokenize`, which
gave each token its line and column) and walking-spec lines
(`_wtokenize`), and the `parse_tree` that ran `_tokenize` over the whole
text, parsed the tree from its tokens and then validated the finished tree
against the alphabet in a second walk.  The code is kept as it was in
`lamtrans.core` and `lamtrans.walking`; only its imports changed."""

from __future__ import annotations

from lamtrans.core import SyntaxErr, Tree, is_ident as _is_ident


def _tokenize(text, line=1, col=1):
    """The tokens of `text` with their (line, column), counted from the
    position (line, col) of its first character."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("-o", i):
            toks.append(("-o", line, col))
            i += 2
            col += 2
            continue
        if c in "\\.!()=,{}:@<>":
            toks.append((c, line, col))
            i += 1
            col += 1
            continue
        raise SyntaxErr(f"unexpected character {c!r}", line, col)
    return toks


def _wtokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise SyntaxErr("unterminated quoted state name")
            toks.append(("str", "".join(buf)))
            i = j + 1
            continue
        if c in "(),=":
            toks.append((c, c))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in '(),="':
            j += 1
        toks.append(("word", text[i:j]))
        i = j
    return toks


def parse_tree(text, alphabet=None):
    toks = _tokenize(text)
    n = len(toks)
    i = 0
    open_nodes = []     # (label, children so far) of each unclosed node
    tree = None
    while tree is None:
        if i >= n or not _is_ident(toks[i][0]):
            raise SyntaxErr("expected a tree label")
        label = toks[i][0]
        i += 1
        if i < n and toks[i][0] == "(":
            i += 1
            open_nodes.append((label, []))
            continue
        node = Tree(label)
        # hand the finished node to its parent, closing parents as we go
        while open_nodes:
            open_nodes[-1][1].append(node)
            if i < n and toks[i][0] == ",":
                i += 1
                break
            if i >= n or toks[i][0] != ")":
                raise SyntaxErr("expected ')' in tree")
            i += 1
            label, children = open_nodes.pop()
            node = Tree(label, tuple(children))
        else:
            tree = node
    if i < n:
        raise SyntaxErr(f"trailing input after tree: {toks[i][0]!r}",
                        toks[i][1], toks[i][2])
    if alphabet is not None:
        tree.validate(alphabet)
    return tree
