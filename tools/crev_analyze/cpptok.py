"""Token stream for the crev_analyze C++ front end.

This is a lexer, not a parser: it produces identifiers, numbers,
literals, and punctuators with line numbers, drops preprocessor lines
wholesale, and harvests `analyze: <rule>-ok` waiver annotations from
comments. Everything else (scopes, functions, calls) is recovered by
token-level pattern matching in extract.py / callgraph.py; the
soundness caveats of that approach are documented in DESIGN.md
section 16.
"""

import re
from collections import namedtuple

#: kind is one of "id", "num", "str", "chr", "punct".
Token = namedtuple("Token", ["kind", "text", "line"])

#: Waiver annotation: `analyze: <rule>-ok`.
ANNOT = re.compile(r"analyze:\s*([a-z][a-z0-9-]*)-ok")

_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<lcomment>//[^\n]*)
    | (?P<bcomment>/\*.*?\*/)
    | (?P<rawstr>R"(?P<rdelim>[^()\\\s]{0,16})\(.*?\)(?P=rdelim)")
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<chr>'(?:[^'\\\n]|\\.)*')
    | (?P<num>\.?\d(?:[\w.]|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||
                [-+*/%&|^!=<>]=|.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KIND_BY_GROUP = {
    "rawstr": "str",
    "str": "str",
    "chr": "chr",
    "num": "num",
    "id": "id",
    "punct": "punct",
}


def _blank_preprocessor(text):
    """Blank out preprocessor directives (including continuation
    lines) so macro bodies never masquerade as definitions."""
    out = []
    in_directive = False
    for line in text.split("\n"):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            out.append("")
        else:
            out.append(line)
    return "\n".join(out)


def tokenize(text):
    """Return (tokens, annotations).

    annotations maps 1-based line number -> set of waiver rule names
    found in comments on that line.
    """
    text = _blank_preprocessor(text)
    tokens = []
    annotations = {}
    line = 1
    pos = 0
    for m in _TOKEN.finditer(text):
        assert m.start() == pos, "lexer lost sync at offset %d" % pos
        pos = m.end()
        group = m.lastgroup
        if group == "rdelim":  # inner group of rawstr
            group = "rawstr"
        frag = m.group(0)
        if group in ("lcomment", "bcomment"):
            for am in ANNOT.finditer(frag):
                at = line + frag[: am.start()].count("\n")
                annotations.setdefault(at, set()).add(am.group(1))
        elif group != "ws":
            tokens.append(Token(_KIND_BY_GROUP[group], frag, line))
        line += frag.count("\n")
    return tokens, annotations
