"""Coroutine-lifetime AST check: suspension, frames, escapes, blocking.

The flow engine, transfer service and facility adapters are C++20
coroutines over a single-threaded event engine. Three whole classes of
bug there are invisible to the compiler and to TSan (which only sees
executed paths) but are mechanically detectable from structure alone.
DESIGN.md §11 states the conventions as prose; this tool enforces them.

Rules (over src/** by default; comments and strings stripped first):

  lock-across-suspend    a LockGuard/UniqueLock (common/thread_safety.hpp)
                         is live across a co_await/co_yield suspension
                         point. The resuming thread does not own the lock;
                         guards must be scoped between suspensions.
  coroutine-ref-param    a coroutine declares a parameter taken by
                         reference (&, &&) or std::string_view. The frame
                         outlives the call expression; after the first
                         suspension such a parameter dangles. Arguments
                         are taken by value (the GCC 12 convention,
                         flow/engine.hpp) or by pointer with a documented
                         lifetime contract.
  escaping-ref-capture   a lambda that captures locals by reference ([&]
                         or [&x]) escapes the enclosing scope: handed to
                         FlowEngine::register_flow / submit_flow /
                         schedule_periodic, a ThreadPool submit-style
                         sink, an on_complete-style stored callback, or
                         detached as a fire-and-forget coroutine. A
                         coroutine lambda given to parallel_for counts
                         too (it suspends past the synchronous window).
                         `this` captures are allowed: object lifetime is
                         the owner's documented contract; locals never are.
  blocking-in-coroutine  a thread-blocking primitive inside a sim-domain
                         coroutine body: sleep_for/sleep_until,
                         std::this_thread, an explicit .lock(), or a bare
                         condition-variable .wait()/.wait_for()/
                         .wait_until() that is not part of a co_await
                         expression. Blocking the engine thread stalls
                         every in-flight flow.

Engines: the token frontend (default) needs no dependencies; the libclang
frontend (ClangFrontend) takes function boundaries and parameter types
from the real AST. Both feed the same Unit model and rule code.

A single line is exempted with  // astcheck:allow <rule> <reason>  — the
reason is mandatory; a bare allow does not suppress. Per-file exemptions
go in ALLOW below with a justification comment. Corpus files under
tests/astcheck/ mark each seeded violation with  // astcheck:expect <rule>.

This module is the `ast` rule family of tools/alsflow_check.py, which
runs it:  python3 tools/alsflow_check.py --rules ast [--selftest |
--corpus tests/astcheck]. It also holds the tokenizer, scope parser and
Finding/Family records the other families import.
"""

import re
from typing import NamedTuple

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

RULES = (
    "lock-across-suspend",
    "coroutine-ref-param",
    "escaping-ref-capture",
    "blocking-in-coroutine",
)

# Files (relative to the scan root) that may violate a rule, and why.
# Prefer line-level `// astcheck:allow` comments; this table is for
# whole-file exemptions only. Keep it short and justified.
ALLOW = {
    "lock-across-suspend": set(),
    "coroutine-ref-param": set(),
    "escaping-ref-capture": set(),
    "blocking-in-coroutine": set(),
}

GUARD_TYPES = {"LockGuard", "UniqueLock"}

# Callees that store or detach a lambda beyond the caller's scope.
ESCAPING_SINKS = {
    "submit", "register_flow", "submit_flow", "schedule_periodic",
    "on_complete", "set_sink", "detach",
}
# Synchronous fan-out: ref captures are the intended idiom (the call
# blocks until every chunk finishes) — unless the lambda is itself a
# coroutine, in which case its frame outlives the synchronous window.
SYNC_SINKS = {"parallel_for", "parallel_for_chunks"}

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else", "try",
    "co_await", "co_return", "co_yield", "new", "delete", "sizeof",
    "decltype", "noexcept", "alignof", "throw", "case", "goto", "asm",
    "static_assert", "assert", "operator", "constexpr", "requires",
}
CLASS_KEYWORDS = {"class", "struct", "union", "enum"}
TRAILING_QUALIFIERS = {"const", "noexcept", "override", "final", "mutable"}

SUPPRESS = re.compile(r"//\s*astcheck:allow\s+([\w-]+)[ \t]+(\S.*)")
EXPECT = re.compile(r"//\s*astcheck:expect\s+([\w,-]+)")
MACRO_NAME = re.compile(r"^[A-Z][A-Z0-9_]*$")

# ---------------------------------------------------------------------------
# Lexing
# ---------------------------------------------------------------------------


def strip_comments(text, keep_strings=False):
    """Blank out comments and, unless keep_strings, string/char literal
    *contents*, preserving line structure (so line numbers match the raw
    file)."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
            out.append(c if c == "\n" else " ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if (state == "str" and c == '"') or (state == "chr" and c == "'"):
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" or keep_strings else " ")
        i += 1
    return "".join(out)


def blank_preprocessor(code):
    """Blank #-directive lines (including continuations)."""
    lines = code.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            while True:
                cont = lines[i].rstrip().endswith("\\")
                lines[i] = ""
                if not cont or i + 1 >= len(lines):
                    break
                i += 1
        i += 1
    return "\n".join(lines)


TOKEN_RE = re.compile(r"::|->|&&|\|\||<<|>>|[A-Za-z_]\w*|[0-9][\w.]*|\S")


class Tok:
    __slots__ = ("s", "line")

    def __init__(self, s, line):
        self.s = s
        self.line = line

    def __repr__(self):
        return f"{self.s}@{self.line}"


def tokenize(text):
    code = blank_preprocessor(strip_comments(text))
    toks = []
    for line_no, line in enumerate(code.split("\n"), start=1):
        for m in TOKEN_RE.finditer(line):
            toks.append(Tok(m.group(0), line_no))
    return toks


# ---------------------------------------------------------------------------
# Scope parsing (token frontend)
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ("kind", "header", "items", "line", "name", "params",
                 "captures", "sink")

    def __init__(self, kind, header, line):
        self.kind = kind          # file|namespace|class|function|lambda|block
        self.header = header      # tokens since the last boundary
        self.items = []           # Tok | Node, in order
        self.line = line
        self.name = None
        self.params = []          # [(param_text, line)], function/lambda
        self.captures = []        # [(capture_text, line)], lambda
        self.sink = None          # enclosing call name, lambda only


def _match_forward(toks, i, open_s, close_s):
    """Index of the token matching toks[i] (an open_s), or -1."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].s == open_s:
            depth += 1
        elif toks[j].s == close_s:
            depth -= 1
            if depth == 0:
                return j
    return -1


def _match_backward(toks, i, open_s, close_s):
    """Index of the token matching toks[i] (a close_s), or -1."""
    depth = 0
    for j in range(i, -1, -1):
        if toks[j].s == close_s:
            depth += 1
        elif toks[j].s == open_s:
            depth -= 1
            if depth == 0:
                return j
    return -1


def _split_commas(toks):
    """Split a token list on top-level commas (angle-bracket aware)."""
    parts, cur = [], []
    paren = brack = brace = angle = 0
    for t in toks:
        s = t.s
        if s == "(":
            paren += 1
        elif s == ")":
            paren -= 1
        elif s == "[":
            brack += 1
        elif s == "]":
            brack -= 1
        elif s == "{":
            brace += 1
        elif s == "}":
            brace -= 1
        elif s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
        elif s == "," and paren == brack == brace == angle == 0:
            parts.append(cur)
            cur = []
            continue
        cur.append(t)
    if cur:
        parts.append(cur)
    return parts


def _top_level_has(pend, keywords):
    paren = angle = 0
    for t in pend:
        s = t.s
        if s == "(":
            paren += 1
        elif s == ")":
            paren = max(0, paren - 1)
        elif s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
        elif paren == 0 and angle == 0 and s in keywords:
            return True
    return False


LAMBDA_INTRO_PREV = {
    "=", "(", ",", "return", ":", "&&", "||", "!", "?", "co_await",
    "co_return", "co_yield", ";", "{", "}", "<<", ">>", "&", "|",
}


def _try_lambda(pend):
    """Recognise `... [captures] (params) quals {` at the tail of pend.
    Returns (intro_index, captures, params, sink) or None."""
    # Find the last ']' whose matching '[' is a valid lambda introducer.
    for m in range(len(pend) - 1, -1, -1):
        if pend[m].s != "]":
            continue
        b = _match_backward(pend, m, "[", "]")
        if b < 0:
            continue
        prev = pend[b - 1].s if b > 0 else None
        nxt_in = pend[b + 1].s if b + 1 <= m else None
        if prev == "[" or nxt_in == "[":
            continue  # [[attribute]]
        if prev is not None and prev not in LAMBDA_INTRO_PREV:
            continue
        # Validate the remainder: optional (params), then qualifiers or a
        # trailing return type, then end-of-pend (the '{' follows).
        r = m + 1
        params = []
        if r < len(pend) and pend[r].s == "(":
            close = _match_forward(pend, r, "(", ")")
            if close < 0:
                continue
            params = pend[r + 1:close]
            r = close + 1
        ok = True
        while r < len(pend):
            s = pend[r].s
            if s in TRAILING_QUALIFIERS:
                r += 1
            elif s == "->":
                r = len(pend)  # trailing return type: accept the rest
            else:
                ok = False
                break
        if not ok:
            continue
        captures = pend[b + 1:m]
        return b, captures, params, _enclosing_call(pend[:b])
    return None


def _enclosing_call(toks):
    """Name of the innermost unclosed call in toks, or None."""
    stack = []
    for i, t in enumerate(toks):
        if t.s == "(":
            callee = None
            if i > 0 and re.match(r"^[A-Za-z_]\w*$", toks[i - 1].s):
                callee = toks[i - 1].s
            stack.append(callee)
        elif t.s == ")" and stack:
            stack.pop()
    for callee in reversed(stack):
        if callee:
            return callee
    return None


def _try_function(pend):
    """Recognise a function definition header. Returns (name, params) or
    None. Scans for the first top-level `ident (` group, then checks the
    tail is qualifiers / ctor-init-list / trailing return."""
    paren = angle = 0
    for i, t in enumerate(pend):
        s = t.s
        if s == "(" and paren == 0 and angle == 0 and i > 0:
            prev = pend[i - 1].s
            is_name = bool(re.match(r"^[A-Za-z_]\w*$", prev))
            if (is_name and prev not in CONTROL_KEYWORDS
                    and prev not in CLASS_KEYWORDS
                    and not MACRO_NAME.match(prev)):
                close = _match_forward(pend, i, "(", ")")
                if close < 0:
                    return None
                rest = pend[close + 1:]
                j = 0
                while j < len(rest):
                    rs = rest[j].s
                    if rs in TRAILING_QUALIFIERS:
                        j += 1
                    elif rs in ("->", ":", "try"):
                        j = len(rest)  # trailing return / ctor init list
                    elif (MACRO_NAME.match(rs) and j + 1 < len(rest)
                          and rest[j + 1].s == "("):
                        mclose = _match_forward(rest, j + 1, "(", ")")
                        if mclose < 0:
                            return None
                        j = mclose + 1  # attribute macro: ALSFLOW_EXCLUDES(..)
                    else:
                        return None
                return prev, pend[i + 1:close]
        if s == "(":
            paren += 1
        elif s == ")":
            paren = max(0, paren - 1)
        elif s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
    return None


def _classify(pend, line):
    if _top_level_has(pend, {"namespace"}):
        return Node("namespace", pend, line)
    if _top_level_has(pend, CLASS_KEYWORDS):
        return Node("class", pend, line)
    lam = _try_lambda(pend)
    if lam is not None:
        intro, captures, params, sink = lam
        node = Node("lambda", pend, line)
        node.name = "<lambda>"
        node.line = pend[intro].line if intro < len(pend) else line
        node.captures = [(_render(c), c[0].line if c else node.line)
                         for c in _split_commas(captures)]
        node.params = [(_render(p), p[0].line if p else node.line)
                       for p in _split_commas(params)]
        node.sink = sink
        return node
    fn = _try_function(pend)
    if fn is not None:
        name, params = fn
        node = Node("function", pend, line)
        node.name = name
        node.params = [(_render(p), p[0].line if p else line)
                       for p in _split_commas(params)]
        return node
    return Node("block", pend, line)


def _render(toks):
    out = []
    for t in toks:
        if out and re.match(r"^\w", t.s) and re.match(r"^\w", out[-1][-1]):
            out.append(" ")
        out.append(t.s)
    return "".join(out)


def parse_scopes(tokens):
    root = Node("file", [], 1)
    stack = [root]
    pendings = [[]]
    for t in tokens:
        if t.s == "{":
            pend = pendings[-1]
            cur = stack[-1]
            if pend:
                del cur.items[-len(pend):]
            child = _classify(pend, t.line)
            cur.items.append(child)
            pendings[-1] = []
            stack.append(child)
            pendings.append([])
        elif t.s == "}":
            if len(stack) > 1:
                stack.pop()
                pendings.pop()
            pendings[-1] = []
        else:
            stack[-1].items.append(t)
            if t.s == ";":
                pendings[-1] = []
            else:
                pendings[-1].append(t)
    return root


# ---------------------------------------------------------------------------
# Units (the frontend-independent model the rules run on)
# ---------------------------------------------------------------------------


class Unit:
    __slots__ = ("kind", "name", "line", "params", "captures", "sink",
                 "tokens")

    def __init__(self, kind, name, line, params, captures, sink, tokens):
        self.kind = kind          # function | lambda
        self.name = name
        self.line = line
        self.params = params      # [(text, line)]
        self.captures = captures  # [(text, line)]
        self.sink = sink          # callee name | 'detach' | None
        self.tokens = tokens      # direct body tokens, incl. {} of blocks

    @property
    def is_coroutine(self):
        return any(t.s in ("co_await", "co_return", "co_yield")
                   for t in self.tokens)


def _flatten_direct(node):
    """Direct body tokens of a function-like node: its own tokens plus
    nested non-function scopes (braces preserved); child functions and
    lambdas excluded."""
    out = []
    for item in node.items:
        if isinstance(item, Tok):
            out.append(item)
        elif item.kind in ("function", "lambda"):
            continue
        else:
            out.extend(item.header)
            out.append(Tok("{", item.line))
            out.extend(_flatten_direct(item))
            out.append(Tok("}", item.line))
    return out


def collect_units(root):
    units = []

    def walk(node):
        for idx, item in enumerate(node.items):
            if not isinstance(item, Tok):
                if item.kind in ("function", "lambda"):
                    if item.kind == "lambda" and item.sink is None:
                        item.sink = _detach_after(node.items, idx)
                    units.append(Unit(item.kind, item.name, item.line,
                                      item.params, item.captures, item.sink,
                                      _flatten_direct(item)))
                walk(item)

    walk(root)
    return units


def _detach_after(items, idx):
    """Detect `}(args).detach()` following a lambda node."""
    tail = []
    for item in items[idx + 1:]:
        if not isinstance(item, Tok):
            break
        tail.append(item.s)
        if len(tail) > 64 or item.s == ";":
            break
    text = " ".join(tail)
    return "detach" if re.search(r"\)\s*\.\s*detach\s*\(", text) else None


def token_frontend_units(text):
    return collect_units(parse_scopes(tokenize(text)))


# ---------------------------------------------------------------------------
# libclang frontend
# ---------------------------------------------------------------------------


class ClangFrontend:
    """Builds the same Unit model from a real AST. Function boundaries,
    parameter types and lambda nesting come from clang; body scanning
    reuses the shared token stream."""

    FUNCTION_KINDS = None  # filled lazily

    def __init__(self, root):
        import clang.cindex as cindex  # noqa: deferred, optional dep
        self.cindex = cindex
        self.index = cindex.Index.create()
        self.args = ["-std=c++20", "-xc++", "-I", str(root / "src"),
                     "-Wno-everything"]
        k = cindex.CursorKind
        ClangFrontend.FUNCTION_KINDS = {
            k.FUNCTION_DECL, k.CXX_METHOD, k.CONSTRUCTOR, k.DESTRUCTOR,
            k.CONVERSION_FUNCTION, k.FUNCTION_TEMPLATE,
        }
        self.lambda_kind = k.LAMBDA_EXPR
        self.compound = k.COMPOUND_STMT
        self.call_kind = k.CALL_EXPR

    def units(self, path, text):
        tu = self.index.parse(str(path), args=self.args,
                              unsaved_files=[(str(path), text)])
        toks = tokenize(text)
        units = []
        self._walk(tu.cursor, str(path), toks, units, call_stack=[])
        return units

    def _extent_ok(self, cursor, path):
        loc = cursor.location
        return loc.file is not None and loc.file.name == path

    def _body_extent(self, cursor):
        for ch in cursor.get_children():
            if ch.kind == self.compound:
                e = ch.extent
                return (e.start.line, e.start.column,
                        e.end.line, e.end.column)
        return None

    def _walk(self, cursor, path, toks, units, call_stack):
        for ch in cursor.get_children():
            if ch.kind in self.FUNCTION_KINDS and self._extent_ok(ch, path) \
                    and ch.is_definition():
                self._add_unit(ch, "function", path, toks, units, call_stack)
            elif ch.kind == self.lambda_kind and self._extent_ok(ch, path):
                self._add_unit(ch, "lambda", path, toks, units, call_stack)
            else:
                nxt = call_stack
                if ch.kind == self.call_kind:
                    nxt = call_stack + [ch.spelling or ""]
                self._walk(ch, path, toks, units, nxt)

    def _add_unit(self, cursor, kind, path, toks, units, call_stack):
        body = self._body_extent(cursor)
        if body is None:
            return
        lambda_extents = []
        self._collect_lambda_extents(cursor, path, lambda_extents, top=True)
        tokens = [t for t in toks
                  if _in_extent(t, body) and not any(
                      _in_extent(t, le) for le in lambda_extents)]
        params = []
        try:
            for a in cursor.get_arguments():
                ptxt = f"{a.type.spelling} {a.spelling}".strip()
                params.append((ptxt, a.location.line))
        except Exception:  # noqa: templated signatures may not resolve
            pass
        captures, sink = [], None
        if kind == "lambda":
            captures = self._captures(cursor, path)
            for callee in reversed(call_stack):
                if callee == "detach":
                    sink = "detach"
                    break
                if callee:
                    sink = callee
                    break
        name = cursor.spelling or ("<lambda>" if kind == "lambda" else "?")
        units.append(Unit(kind, name, cursor.extent.start.line, params,
                          captures, sink, tokens))
        # Recurse for nested functions/lambdas inside this body.
        self._walk(cursor, path, toks, units, call_stack)

    def _collect_lambda_extents(self, cursor, path, out, top=False):
        for ch in cursor.get_children():
            if ch.kind == self.lambda_kind and self._extent_ok(ch, path):
                e = ch.extent
                out.append((e.start.line, e.start.column,
                            e.end.line, e.end.column))
            else:
                self._collect_lambda_extents(ch, path, out)

    def _captures(self, cursor, path):
        toks = []
        for t in cursor.get_tokens():
            toks.append(Tok(t.spelling, t.location.line))
            if t.spelling == "]":
                break
        if len(toks) >= 2 and toks[0].s == "[":
            inner = toks[1:-1]
            return [(_render(c), c[0].line if c else cursor.extent.start.line)
                    for c in _split_commas(inner)]
        return []


def _in_extent(tok, extent):
    sl, _sc, el, _ec = extent
    return sl <= tok.line <= el


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = str(path)
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)


class Family(NamedTuple):
    """A rule family as tools/alsflow_check.py drives it."""
    name: str           # --rules key; output is titled "<name>check"
    rules: tuple        # the rule ids it reports
    expect: re.Pattern  # corpus marker: // <name>check:expect <rule>[,...]
    analyze: object     # analyze(files, units, root) -> [Finding]
    frontend: type      # libclang frontend: frontend(root).units(path, text),
                        # or None for a family that only matches text
    bad: dict           # rule -> snippets on which that rule must fire
    good: list          # snippets on which no rule may fire
    snippet_wrap: tuple = ("", "")  # (prelude, epilogue) around a snippet


def rule_lock_across_suspend(unit, findings, path):
    depth = 0
    guards = []  # (name, depth, decl_line)
    toks = unit.tokens
    i = 0
    while i < len(toks):
        s = toks[i].s
        if s == "{":
            depth += 1
        elif s == "}":
            depth -= 1
            guards = [g for g in guards if g[1] <= depth]
        elif s in GUARD_TYPES:
            if (i + 2 < len(toks)
                    and re.match(r"^[A-Za-z_]\w*$", toks[i + 1].s)
                    and toks[i + 2].s in ("(", "{")):
                guards.append((toks[i + 1].s, depth, toks[i].line))
        elif s in ("co_await", "co_yield") and guards:
            g = guards[-1]
            findings.append(Finding(
                path, toks[i].line, "lock-across-suspend",
                f"'{g[0]}' ({'LockGuard/UniqueLock'}, declared line {g[2]}) "
                f"is held across this {s} — the resuming thread will not "
                f"own the lock; scope the guard between suspension points"))
        i += 1


REF_PARAM = re.compile(r"(&&?)")


def rule_coroutine_ref_param(unit, findings, path):
    if not unit.is_coroutine:
        return
    for text, line in unit.params:
        if not text or text == "void":
            continue
        bad = None
        if "&" in text:
            bad = "by reference"
        elif "string_view" in text:
            bad = "as std::string_view"
        if bad:
            findings.append(Finding(
                path, line, "coroutine-ref-param",
                f"coroutine '{unit.name}' takes parameter '{text}' {bad} — "
                f"the coroutine frame outlives the call and the parameter "
                f"dangles after the first suspension; take it by value "
                f"(flow/engine.hpp, the GCC 12 convention)"))


def rule_escaping_ref_capture(unit, findings, path):
    if unit.kind != "lambda" or unit.sink is None:
        return
    escaping = unit.sink in ESCAPING_SINKS or (
        unit.sink in SYNC_SINKS and unit.is_coroutine)
    if not escaping:
        return
    for text, line in unit.captures:
        t = text.strip()
        if t == "&" or t.startswith("&"):
            findings.append(Finding(
                path, line, "escaping-ref-capture",
                f"lambda given to '{unit.sink}' captures '{t}' by "
                f"reference but escapes the enclosing scope — the "
                f"referenced local dies before the lambda runs; capture "
                f"by value (or capture `this` under the owner's lifetime "
                f"contract)"))


BLOCKING_SLEEP = {"sleep_for", "sleep_until", "this_thread"}
WAIT_NAMES = {"wait", "wait_for", "wait_until"}


def rule_blocking_in_coroutine(unit, findings, path):
    if not unit.is_coroutine:
        return
    toks = unit.tokens
    stmt_has_co_await = False
    for i, t in enumerate(toks):
        s = t.s
        if s in (";", "{", "}"):
            stmt_has_co_await = False
            continue
        if s == "co_await":
            stmt_has_co_await = True
            continue
        if s in BLOCKING_SLEEP:
            findings.append(Finding(
                path, t.line, "blocking-in-coroutine",
                f"'{s}' inside coroutine '{unit.name}' blocks the engine "
                f"thread and stalls every in-flight flow — use "
                f"sim::delay(engine, seconds)"))
        elif s in (".", "->") and i + 2 < len(toks):
            callee = toks[i + 1].s
            if toks[i + 2].s != "(":
                continue
            if callee == "lock":
                findings.append(Finding(
                    path, toks[i + 1].line, "blocking-in-coroutine",
                    f"explicit '.lock()' inside coroutine '{unit.name}' — "
                    f"a blocked engine thread stalls every flow; use a "
                    f"scoped LockGuard between suspension points"))
            elif callee in WAIT_NAMES and not stmt_has_co_await:
                findings.append(Finding(
                    path, toks[i + 1].line, "blocking-in-coroutine",
                    f"bare '.{callee}()' inside coroutine '{unit.name}' — "
                    f"condition-variable waits block the engine thread; "
                    f"co_await an awaitable instead"))


RULE_FNS = (
    rule_lock_across_suspend,
    rule_coroutine_ref_param,
    rule_escaping_ref_capture,
    rule_blocking_in_coroutine,
)


# ---------------------------------------------------------------------------
# Family entry point
# ---------------------------------------------------------------------------


def analyze_text(text, rel, units):
    findings = []
    for unit in units:
        for fn in RULE_FNS:
            fn(unit, findings, rel)
    raw_lines = text.splitlines()
    kept = []
    for f in findings:
        if rel in ALLOW.get(f.rule, ()):  # whole-file exemption
            continue
        line = raw_lines[f.line - 1] if 0 < f.line <= len(raw_lines) else ""
        m = SUPPRESS.search(line)
        if m and m.group(1) == f.rule:
            continue
        kept.append(f)
    return kept


def analyze(files, units, root):
    """Family entry point over {rel: text}. units[rel] is the libclang unit
    list for that file, or None (or units None) for the token frontend."""
    findings = []
    for rel, text in files.items():
        file_units = units.get(rel) if units else None
        if file_units is None:
            file_units = token_frontend_units(text)
        findings.extend(analyze_text(text, rel, file_units))
    return findings


# ---------------------------------------------------------------------------
# Selftest snippets
# ---------------------------------------------------------------------------

BAD_SNIPPETS = {
    "lock-across-suspend": [
        """sim::Future<int> f() {
             LockGuard lock(mu_);
             co_await sim::delay(eng_, 1.0);
             co_return 1;
           }""",
        """sim::Future<int> f() {
             UniqueLock lk{mu_};
             if (ready_) { co_await ev_; }
             co_return 0;
           }""",
    ],
    "coroutine-ref-param": [
        """sim::Future<Status> f(const std::string& name) {
             co_return Status::success();
           }""",
        """sim::Future<Status> f(std::string_view name) {
             co_await sim::delay(eng_, 1.0);
             co_return Status::success();
           }""",
    ],
    "escaping-ref-capture": [
        """void f() {
             int local = 3;
             pool.submit([&local]() { use(local); });
           }""",
        """void f() {
             int n = 0;
             engine.register_flow("x", [&](FlowContext ctx) {
               return body(ctx, n);
             });
           }""",
    ],
    "blocking-in-coroutine": [
        """sim::Future<int> f() {
             std::this_thread::sleep_for(1s);
             co_return 1;
           }""",
        """sim::Future<int> f() {
             mu_.lock();
             co_return 1;
           }""",
    ],
}

GOOD_SNIPPETS = [
    # Guard scoped to a block before the suspension point.
    """sim::Future<int> f() {
         { LockGuard lock(mu_); cached_ = 1; }
         co_await sim::delay(eng_, 1.0);
         co_return cached_;
       }""",
    # Guard in a non-coroutine accessor.
    """int f() const { LockGuard lock(mu_); return x_; }""",
    # Coroutine taking everything by value.
    """sim::Future<Status> f(std::string name, TaskOptions options) {
         co_return co_await run(std::move(name), options);
       }""",
    # Plain function may take references.
    """Status f(const std::string& name) { return lookup(name); }""",
    # Synchronous parallel_for with ref captures is the intended idiom.
    """void f(std::vector<double>& v) {
         parallel_for(0, v.size(), [&](std::size_t i) { v[i] *= 2.0; });
       }""",
    # Value/this captures may escape.
    """void f() {
         pool.submit([this, n = count_]() { use(n); });
       }""",
    # co_await'ing an awaitable named wait() is not a blocking wait.
    """sim::Future<int> f(int id) {
         co_return co_await cluster_.wait(id);
       }""",
    # Blocking primitives outside coroutines are the lint's business.
    """void worker() {
         while (!stop_) cv_.wait(lk);
       }""",
]


FAMILY = Family("ast", RULES, EXPECT, analyze, ClangFrontend,
                BAD_SNIPPETS, GOOD_SNIPPETS)
