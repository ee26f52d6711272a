"""Test-only reference for `lamtrans.core.parse_tree`: the loop that ran the
term tokenizer over the whole text, parsed the tree from its tokens and
then validated the finished tree against the alphabet in a second walk.
The code is kept as it was in `lamtrans.core`; only its imports
changed."""

from __future__ import annotations

from lamtrans.core import SyntaxErr, Tree, _tokenize, is_ident as _is_ident


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
