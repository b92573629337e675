"""Lexical and structural analysis of Verilog source.

This is deliberately not a grammar-complete parser: the scoring fallback
branch must produce useful signal for *syntactically invalid* code that a
strict parser would reject.  Everything here is token-level and total --
any byte string in, deterministic facts out, no exceptions.

Known limitations (by design, bounded effort):
  * incomplete-conditional detection looks only at top-level if/else inside
    combinational always blocks;
  * statement-extent scanning is heuristic for blocks without begin/end;
  * generate loops, functions and tasks are tokenized but not modeled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


class TokKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    PUNCT = "punct"
    STRING = "string"
    COMMENT = "comment"
    DIRECTIVE = "directive"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Token:
    kind: TokKind
    text: str
    pos: int


class Sensitivity(Enum):
    COMBINATIONAL = "combinational"
    EDGE_TRIGGERED = "edge_triggered"
    UNKNOWN = "unknown"


@dataclass
class AlwaysBlockFacts:
    sensitivity: Sensitivity
    uses_blocking: bool = False
    uses_nonblocking: bool = False
    has_incomplete_conditional: bool = False
    assigned_signals: set[str] = field(default_factory=set)
    # Names read inside the block body (everything that is not an
    # assignment target).  Feeds the combinational-feedback rule.
    read_signals: set[str] = field(default_factory=set)


@dataclass
class StructuralFacts:
    has_module_decl: bool = False
    has_endmodule: bool = False
    module_name: str | None = None
    port_count: int = 0
    always_blocks: list[AlwaysBlockFacts] = field(default_factory=list)
    assign_count: int = 0
    case_without_default: int = 0
    begin_end_balanced: bool = True
    driven_signals: dict[str, int] = field(default_factory=dict)
    has_reset_in_sequential: bool = False
    has_port_directions: bool = False
    has_conditional: bool = False
    token_count: int = 0


KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg", "logic",
    "assign", "always", "always_comb", "always_ff", "always_latch", "initial",
    "begin", "end", "if", "else", "case", "casez", "casex", "endcase",
    "default", "posedge", "negedge", "or", "and", "nand", "nor", "xor",
    "xnor", "not", "buf", "parameter", "localparam", "integer", "real",
    "time", "genvar", "generate", "endgenerate", "for", "while", "repeat",
    "forever", "function", "endfunction", "task", "endtask", "signed",
    "wait", "fork", "join", "defparam", "deassign", "force", "release",
})

_ALWAYS_KWS = frozenset({"always", "always_comb", "always_ff", "always_latch"})
_CASE_KWS = frozenset({"case", "casez", "casex"})
_EDGE_KWS = frozenset({"posedge", "negedge"})
_RESET_NAME = re.compile(r"rst|reset", re.IGNORECASE)

# Longest-match-first so multi-char operators win over their prefixes.
_PUNCTS = [
    "===", "!==", "<<<", ">>>", "<=", ">=", "==", "!=", "&&", "||", "**",
    "<<", ">>", "+:", "-:", "::", "->", "~&", "~|", "~^", "^~",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/|/\*.*)
    | (?P<string>"(?:[^"\\\n]|\\.)*(?:"|(?=\n)|$))
    | (?P<number>(?:\d[\d_]*)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+|\d[\d_]*(?:\.\d+)?)
    | (?P<directive>`[A-Za-z_][A-Za-z0-9_]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*|\\[^\s]+|\$[A-Za-z_][A-Za-z0-9_$]*)
    | (?P<punct>""" + "|".join(re.escape(p) for p in _PUNCTS) + r"""|[(){}\[\];,.:=+\-*/%<>!&|^~?@\#'])
    | (?P<space>\s+)
    | (?P<unknown>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Split Verilog source into classified tokens, tolerating any input.

    Comments and string literals become dedicated token kinds; everything
    unrecognized degrades to UNKNOWN rather than failing.
    """
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind_name = m.lastgroup
        if kind_name == "space":
            continue
        text = m.group()
        if kind_name == "ident":
            kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
        else:
            kind = TokKind[kind_name.upper()]
        tokens.append(Token(kind, text, m.start()))
    return tokens


def _code_tokens(tokens: list[Token]) -> list[Token]:
    return [t for t in tokens if t.kind is not TokKind.COMMENT]


def _is_kw(tok: Token, text: str) -> bool:
    return tok.kind is TokKind.KEYWORD and tok.text == text


def _count_ports(toks: list[Token], start: int) -> int:
    """Count port declarations in the list following a module header.

    ``start`` indexes the token right after the module name.  Skips an
    optional ``#( ... )`` parameter block, then counts comma-separated
    segments containing at least one identifier.
    """
    i = start
    n = len(toks)
    if i < n and toks[i].text == "#":
        i += 1
        if i < n and toks[i].text == "(":
            depth = 1
            i += 1
            while i < n and depth > 0:
                if toks[i].text == "(":
                    depth += 1
                elif toks[i].text == ")":
                    depth -= 1
                i += 1
    if i >= n or toks[i].text != "(":
        return 0
    depth = 1
    i += 1
    count = 0
    segment_has_ident = False
    while i < n and depth > 0:
        t = toks[i]
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
            if depth == 0:
                break
        elif t.text == "," and depth == 1:
            if segment_has_ident:
                count += 1
            segment_has_ident = False
        elif t.kind is TokKind.IDENT and depth >= 1:
            segment_has_ident = True
        elif t.text == ";":
            break  # malformed header; stop early
        i += 1
    if segment_has_ident:
        count += 1
    return count


def _scan_statement(toks: list[Token], i: int) -> int:
    """Return the index one past the single statement starting at ``i``.

    Understands begin/end nesting, case/endcase, and if/else chains; stops
    at end of stream for broken input.
    """
    n = len(toks)
    begin_depth = 0
    paren_depth = 0
    case_depth = 0
    while i < n:
        t = toks[i]
        if t.text == "(":
            paren_depth += 1
        elif t.text == ")":
            paren_depth = max(0, paren_depth - 1)
        elif _is_kw(t, "begin"):
            begin_depth += 1
        elif _is_kw(t, "end"):
            begin_depth -= 1
            if begin_depth <= 0:
                # end of a begin-wrapped statement; an else may chain on
                if i + 1 < n and _is_kw(toks[i + 1], "else"):
                    i += 1
                    continue
                return i + 1
        elif t.kind is TokKind.KEYWORD and t.text in _CASE_KWS:
            case_depth += 1
        elif _is_kw(t, "endcase"):
            case_depth = max(0, case_depth - 1)
            if case_depth == 0 and begin_depth <= 0:
                if i + 1 < n and _is_kw(toks[i + 1], "else"):
                    i += 1
                    continue
                return i + 1
        elif t.text == ";" and begin_depth <= 0 and paren_depth == 0 and case_depth == 0:
            if i + 1 < n and _is_kw(toks[i + 1], "else"):
                i += 1
                continue
            return i + 1
        i += 1
    return n


def _lhs_signals(toks: list[Token], op_index: int) -> dict[int, str]:
    """Assignment-target identifiers left of ``toks[op_index]``, by index.

    Walks back over an lvalue: plain name, bit/part select (bracket
    contents are reads, not targets), or a {a, b} concatenation.
    """
    names: dict[int, str] = {}
    i = op_index - 1
    bracket = 0
    brace = 0
    while i >= 0:
        t = toks[i]
        if t.text == "]":
            bracket += 1
        elif t.text == "[":
            bracket = max(0, bracket - 1)
        elif t.text == "}":
            brace += 1
        elif t.text == "{":
            if brace == 0:
                break
            brace -= 1
        elif bracket == 0 and t.kind is TokKind.IDENT:
            names[i] = t.text
            if brace == 0:
                break
        elif bracket == 0 and brace == 0 and t.text not in (",", "."):
            break
        i -= 1
    return names


def _analyze_always(toks: list[Token], kw_index: int) -> tuple[AlwaysBlockFacts, int, bool]:
    """Analyze the always block whose keyword sits at ``kw_index``.

    Returns (facts, index past the block, sensitivity-mentions-reset).
    """
    n = len(toks)
    kw = toks[kw_index].text
    i = kw_index + 1
    sens_tokens: list[Token] = []
    if i < n and toks[i].text == "@":
        i += 1
        if i < n and toks[i].text == "(":
            depth = 1
            i += 1
            while i < n and depth > 0:
                if toks[i].text == "(":
                    depth += 1
                elif toks[i].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                sens_tokens.append(toks[i])
                i += 1
            i += 1
        elif i < n and toks[i].text == "*":
            sens_tokens.append(toks[i])
            i += 1

    has_edge = any(t.kind is TokKind.KEYWORD and t.text in _EDGE_KWS for t in sens_tokens)
    if has_edge:
        sensitivity = Sensitivity.EDGE_TRIGGERED
    elif kw in ("always_comb", "always_latch"):
        sensitivity = Sensitivity.COMBINATIONAL
    elif any(t.text == "*" or t.kind is TokKind.IDENT for t in sens_tokens):
        sensitivity = Sensitivity.COMBINATIONAL
    else:
        sensitivity = Sensitivity.UNKNOWN

    sens_reset = any(
        t.kind is TokKind.IDENT and _RESET_NAME.search(t.text) for t in sens_tokens
    )

    end = _scan_statement(toks, i)
    body = toks[i:end]
    # Strip one outer begin/end so "top level" is depth 0 either way.
    if body and _is_kw(body[0], "begin"):
        body = body[1:]
        if body and _is_kw(body[-1], "end"):
            body = body[:-1]

    facts = AlwaysBlockFacts(sensitivity=sensitivity)
    paren = 0
    begin_depth = 0
    if_count = 0
    else_count = 0
    lhs_indices: set[int] = set()
    for j, t in enumerate(body):
        if t.text == "(":
            paren += 1
        elif t.text == ")":
            paren = max(0, paren - 1)
        elif _is_kw(t, "begin"):
            begin_depth += 1
        elif _is_kw(t, "end"):
            begin_depth = max(0, begin_depth - 1)
        elif paren == 0 and t.kind is TokKind.PUNCT and t.text == "=":
            targets = _lhs_signals(body, j)
            facts.uses_blocking = True
            facts.assigned_signals |= set(targets.values())
            lhs_indices |= set(targets)
        elif paren == 0 and t.kind is TokKind.PUNCT and t.text == "<=":
            targets = _lhs_signals(body, j)
            facts.uses_nonblocking = True
            facts.assigned_signals |= set(targets.values())
            lhs_indices |= set(targets)
        elif paren == 0 and begin_depth == 0 and _is_kw(t, "if"):
            if_count += 1
        elif paren == 0 and begin_depth == 0 and _is_kw(t, "else"):
            else_count += 1
    facts.read_signals = {
        t.text
        for j, t in enumerate(body)
        if t.kind is TokKind.IDENT and j not in lhs_indices and not t.text.startswith("$")
    }

    if (
        sensitivity is Sensitivity.COMBINATIONAL
        and if_count > else_count
        and facts.assigned_signals
    ):
        facts.has_incomplete_conditional = True

    body_reset = any(
        t.kind is TokKind.IDENT and _RESET_NAME.search(t.text) for t in body
    )
    return facts, end, sens_reset or body_reset


def _scan_case(toks: list[Token], start: int, limit: int) -> tuple[int, bool]:
    """Scan the case opened at ``toks[start]`` up to its ``endcase`` (or
    ``limit``); returns (index after it, whether it has its own default)."""
    depth = 1
    has_default = False
    j = start + 1
    while j < limit and depth > 0:
        tok = toks[j]
        if tok.kind is TokKind.KEYWORD:
            if tok.text in _CASE_KWS:
                depth += 1
            elif tok.text == "endcase":
                depth -= 1
            elif tok.text == "default" and depth == 1:
                has_default = True
        j += 1
    return j, has_default


def extract_facts(source: str) -> StructuralFacts:
    """Compute structural facts for arbitrary (possibly broken) Verilog."""
    toks = _code_tokens(tokenize(source))
    facts = StructuralFacts(token_count=len(toks))
    facts.has_conditional = any(
        (t.kind is TokKind.KEYWORD and t.text in ("if", "case", "casez", "casex"))
        or (t.kind is TokKind.PUNCT and t.text == "?")
        for t in toks
    )

    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind is TokKind.KEYWORD:
            if t.text == "module" and not facts.has_module_decl:
                if i + 1 < n and toks[i + 1].kind is TokKind.IDENT:
                    facts.has_module_decl = True
                    facts.module_name = toks[i + 1].text
                    facts.port_count = _count_ports(toks, i + 2)
            elif t.text == "endmodule":
                facts.has_endmodule = True
            elif t.text in ("input", "output", "inout"):
                facts.has_port_directions = True
            elif t.text == "assign":
                facts.assign_count += 1
                j = i + 1
                while j < n and toks[j].text not in ("=", ";"):
                    j += 1
                if j < n and toks[j].text == "=":
                    for name in _lhs_signals(toks, j).values():
                        facts.driven_signals[name] = facts.driven_signals.get(name, 0) + 1
            elif t.text in _CASE_KWS:
                j, has_default = _scan_case(toks, i, n)
                if not has_default:
                    facts.case_without_default += 1
                # skip the whole case; cases inside always bodies are
                # counted in the always branch below.
                i = j
                continue
            elif t.text in _ALWAYS_KWS:
                block, end, mentions_reset = _analyze_always(toks, i)
                facts.always_blocks.append(block)
                for name in block.assigned_signals:
                    facts.driven_signals[name] = facts.driven_signals.get(name, 0) + 1
                if block.sensitivity is Sensitivity.EDGE_TRIGGERED and mentions_reset:
                    facts.has_reset_in_sequential = True
                # nested case-without-default inside the block
                j = i + 1
                while j < end:
                    if toks[j].kind is TokKind.KEYWORD and toks[j].text in _CASE_KWS:
                        j, has_default = _scan_case(toks, j, end)
                        if not has_default:
                            facts.case_without_default += 1
                        continue
                    j += 1
                i = end
                continue
        i += 1

    facts.begin_end_balanced = (
        sum(_is_kw(t, "begin") for t in toks) == sum(_is_kw(t, "end") for t in toks)
    )
    return facts
