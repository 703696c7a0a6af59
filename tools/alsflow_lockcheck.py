"""alsflow_lockcheck: whole-program lock-order and callback-under-lock checker.

The static half of alsflow's concurrency contract (the dynamic half is the
lock-rank tracker in src/common/lock_rank.*). The tool extracts every
`alsflow::Mutex` declaration and every acquisition site (LockGuard /
UniqueLock / raw .lock()), builds the inter-class lock-acquisition graph —
including acquisitions reached through direct callees and through
`*_locked` helpers annotated ALSFLOW_REQUIRES — and reports:

  lock-cycle           a cycle in the acquisition graph (potential
                       deadlock), with the full witness path
  rank-inversion       an acquisition whose LockRank is >= the rank of a
                       lock already held (the runtime tracker aborts on
                       exactly this; see lock_rank.hpp for the order)
  callback-under-lock  user code invoked while a lock is held: any
                       std::function-typed member/local/param call, an
                       EventSink::on_event, or a Ticket::fulfill — the
                       callee can take arbitrary locks or re-enter
  emit-under-lock      telemetry registry lookups (.counter/.gauge/
                       .histogram) or event emission (.emit) under a lock,
                       directly or through a helper; the registry takes
                       the telemetry lock and the sink runs user code
  unranked-mutex       an alsflow::Mutex declared without a LockRank —
                       invisible to the runtime tracker

Frontends mirror tools/alsflow_astcheck.py (whose tokenizer and scope
parser this file imports): the default token engine is dependency-free;
--engine libclang swaps in clang for function boundaries and class
attribution while sharing the same body analysis. Both engines share the
rule code, so CI can cross-check them on the corpus.

Interprocedural model: per-function summaries (locks acquired, emission /
callback effects) are closed over the call graph to a fixed point; a call
made while a lock is held contributes the callee's *effective* acquires
as graph edges. Receivers are resolved through member/local/param type
tables; unresolvable receivers are skipped (documented false negatives:
calls through expression results, virtual dispatch, lambdas invoked
indirectly). Functions named *_locked without an ALSFLOW_REQUIRES
annotation are assumed to hold every mutex of their class.

Waivers: `// lockcheck:allow <rule>[,<rule>] <reason>` on the flagged
line — or on its own comment line directly above it — suppresses the
finding; the reason is mandatory by convention and reviewed like a cast.

This module is the `lock` rule family of tools/alsflow_check.py:
  python3 tools/alsflow_check.py --rules lock [--selftest |
  --corpus tests/lockcheck]
"""

import re
from pathlib import Path

from alsflow_astcheck import (
    Family, Finding, Tok, _match_forward, _render, _split_commas,
    parse_scopes, tokenize)

ALLOW = re.compile(r"//\s*lockcheck:allow\s+([\w,-]+)")
EXPECT = re.compile(r"//\s*lockcheck:expect\s+([\w,-]+)")
RANK_DEF = re.compile(r"\b(k[A-Z]\w*)\s*=\s*(\d+)")
IDENT = re.compile(r"^[A-Za-z_]\w*$")
ATTR_MACRO = re.compile(r"^ALSFLOW_[A-Z0-9_]*$")
RANK_NAME = re.compile(r"^k[A-Z]\w*$")

RULES = ("lock-cycle", "rank-inversion", "callback-under-lock",
         "emit-under-lock", "unranked-mutex")

GUARD_TYPES = {"LockGuard", "UniqueLock"}
GUARD_OPS = {"lock", "unlock", "native", "owns_lock", "release", "mutex"}
CALLBACK_METHODS = {"on_event", "fulfill"}
EMIT_METHODS = {"counter", "gauge", "histogram", "emit"}

NOT_CALLEES = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "else", "do", "case", "default", "alignof",
    "co_await", "co_return", "co_yield", "assert", "defined",
    "static_assert", "decltype", "noexcept", "typeid",
    "void", "bool", "char", "int", "float", "double", "long", "short",
    "unsigned", "signed", "auto", "size_t",
}
DECL_KEYWORDS = {"mutable", "static", "inline", "constexpr", "thread_local",
                 "volatile", "extern"}
TYPE_TOKENS = {"::", "<", ">", ">>", "&", "*", "const", "unsigned", "signed",
               "long", "short", "struct", "class", "typename",
               "volatile", ","}
STMT_SKIP_HEADS = {"using", "friend", "typedef", "static_assert", "template",
                   "extern", "return", "public", "private", "protected",
                   "enum", "operator", "goto", "break", "continue", "throw",
                   "delete", "case", "default"}


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class MutexDecl:
    __slots__ = ("key", "member", "cls", "rank_name", "rank", "path", "line")

    def __init__(self, key, member, cls, rank_name, rank, path, line):
        self.key = key            # e.g. "Frontend::mu_" or "<file>::g_mutex"
        self.member = member      # declared identifier
        self.cls = cls            # ClassInfo or None (file scope / local)
        self.rank_name = rank_name  # "kServeFrontend" or None
        self.rank = rank          # int or None
        self.path = path
        self.line = line

    def display(self):
        if self.rank_name:
            return f"{self.key} (LockRank::{self.rank_name})"
        return f"{self.key} (unranked)"


class ClassInfo:
    __slots__ = ("name", "path", "line", "members", "mutexes", "requires",
                 "methods")

    def __init__(self, name, path, line):
        self.name = name
        self.path = path
        self.line = line
        self.members = {}   # member name -> type string
        self.mutexes = {}   # member name -> MutexDecl
        self.requires = {}  # method name -> [mutex expr strings]
        self.methods = {}   # method name -> [Func]


class Func:
    __slots__ = ("uid", "name", "kind", "cls_name", "cls", "path", "line",
                 "header", "body", "params", "locals", "local_mutexes",
                 "requires_exprs", "requires_keys", "acquires", "calls",
                 "call_events", "emits", "callbacks", "assumed_locked")

    def __init__(self, uid, name, kind, cls_name, path, line, header, body):
        self.uid = uid
        self.name = name
        self.kind = kind          # "function" | "lambda"
        self.cls_name = cls_name  # class simple name or None
        self.cls = None           # ClassInfo after link()
        self.path = path
        self.line = line
        self.header = header      # token list (signature)
        self.body = body          # flattened direct body tokens
        self.params = {}          # name -> type string
        self.locals = {}          # name -> type string
        self.local_mutexes = {}   # name -> MutexDecl
        self.requires_exprs = []  # from ALSFLOW_REQUIRES, raw expr strings
        self.requires_keys = []   # resolved mutex keys held on entry
        self.acquires = set()     # mutex keys acquired directly (non-try)
        self.calls = set()        # callee uids (for summary closure)
        self.call_events = []     # (callee_uid, line, held_keys_tuple)
        self.emits = False        # body contains a direct emit token
        self.callbacks = False    # body invokes a callback directly
        self.assumed_locked = False  # *_locked heuristic applied


class HeldEntry:
    __slots__ = ("key", "rank", "disp", "line", "via")

    def __init__(self, key, rank, disp, line, via):
        self.key = key
        self.rank = rank
        self.disp = disp
        self.line = line
        self.via = via  # "guard" | "requires" | "assumed" | "raw"


def strip_attr_macros(toks):
    """Drop ALSFLOW_* attribute macros and their argument lists."""
    out, i = [], 0
    while i < len(toks):
        if (ATTR_MACRO.match(toks[i].s) and i + 1 < len(toks)
                and toks[i + 1].s == "("):
            close = _match_forward(toks, i + 1, "(", ")")
            if close < 0:
                return out
            i = close + 1
            continue
        if ATTR_MACRO.match(toks[i].s):
            i += 1
            continue
        out.append(toks[i])
        i += 1
    return out


def find_top_level(toks, wanted):
    """Index of the first token in `wanted` at paren/angle/bracket depth 0."""
    paren = angle = brack = 0
    for i, t in enumerate(toks):
        s = t.s
        if paren == angle == brack == 0 and s in wanted:
            return i
        if s == "(":
            paren += 1
        elif s == ")":
            paren = max(0, paren - 1)
        elif s == "[":
            brack += 1
        elif s == "]":
            brack = max(0, brack - 1)
        elif s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
    return -1


def parse_decl(toks):
    """Try to parse `Type name` from a declaration statement (already
    macro-stripped, initializer removed). Returns (name, type) or None."""
    toks = [t for t in toks if t.s not in DECL_KEYWORDS]
    if len(toks) < 2:
        return None
    name_tok = toks[-1]
    if not IDENT.match(name_tok.s) or name_tok.s in NOT_CALLEES:
        return None
    type_toks = toks[:-1]
    angle = 0
    for t in type_toks:
        s = t.s
        if s == "<":
            angle += 1
        elif s == ">":
            angle = max(0, angle - 1)
        elif s == ">>":
            angle = max(0, angle - 2)
        elif s in ("(", ")") and angle > 0:
            continue  # function types: std::function<void(int)>
        elif not (IDENT.match(s) or s in TYPE_TOKENS):
            return None
    type_str = _render(type_toks)
    if not type_str or type_str in ("auto", "auto&", "auto&&"):
        return None
    return name_tok.s, type_str


def requires_args(toks):
    """ALSFLOW_REQUIRES(args) argument expressions found in a token list."""
    out = []
    for i, t in enumerate(toks):
        if t.s == "ALSFLOW_REQUIRES" and i + 1 < len(toks) \
                and toks[i + 1].s == "(":
            close = _match_forward(toks, i + 1, "(", ")")
            if close > 0:
                for part in _split_commas(toks[i + 2:close]):
                    if part:
                        out.append(_render(part))
    return out


def flatten_body(node):
    """Direct body tokens of a function node, braces of nested plain blocks
    preserved, nested functions and lambdas excluded."""
    out = []
    for item in node.items:
        if isinstance(item, Tok):
            out.append(item)
        elif item.kind in ("function", "lambda"):
            continue
        else:
            out.extend(item.header)
            out.append(Tok("{", item.line))
            out.extend(flatten_body(item))
            out.append(Tok("}", item.line))
    return out


def class_name_from_header(header):
    """Extract the class name from a class-scope header token list."""
    toks = strip_attr_macros(header)
    for i, t in enumerate(toks):
        if t.s in ("class", "struct", "union"):
            name = None
            j = i + 1
            while j < len(toks):
                s = toks[j].s
                if s in (":", "{", "final"):
                    break
                if s == "class":  # `enum class`
                    j += 1
                    continue
                if IDENT.match(s):
                    name = s
                j += 1
            return name
    return None


def method_class_from_header(header, name):
    """Class of an out-of-line definition `Ret Cls::name(...)`, or None."""
    for i, t in enumerate(header):
        if t.s == name and i + 1 < len(header) and header[i + 1].s == "(":
            j = i - 1
            if j >= 0 and header[j].s == "~":
                j -= 1
            if j >= 1 and header[j].s == "::" and IDENT.match(header[j - 1].s):
                return header[j - 1].s
            return None
    return None


class FuncUnit:
    """Frontend-independent function record handed to the Model."""
    __slots__ = ("name", "kind", "cls_name", "line", "header", "body")

    def __init__(self, name, kind, cls_name, line, header, body):
        self.name = name
        self.kind = kind
        self.cls_name = cls_name
        self.line = line
        self.header = header
        self.body = body


class Model:
    def __init__(self, ranks):
        self.ranks = dict(ranks)    # "kName" -> int
        self.classes = {}           # simple name -> [ClassInfo]
        self.funcs = {}             # uid -> Func
        self.free_funcs = {}        # name -> [Func]
        self.file_vars = {}         # path -> {name: type string}
        self.file_mutexes = {}      # path -> {name: MutexDecl}
        self.mutex_index = {}       # member name -> [MutexDecl]
        self.aliases = {}           # using NAME = TYPE
        self.allow = {}             # path -> {line: set(rule)}
        self.findings = []
        self.edges = {}             # (held_key, acq_key) -> (path, line, ctx)

    # -- per-file collection ------------------------------------------------

    def add_file(self, path, text, func_units=None):
        for line_no, line in enumerate(text.splitlines(), start=1):
            m = ALLOW.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                self.allow.setdefault(path, {})[line_no] = rules
        toks = tokenize(text)
        root = parse_scopes(toks)
        # `enum class LockRank` redefinitions (corpus stubs) extend the table.
        if "LockRank" in text:
            for m in RANK_DEF.finditer(text):
                self.ranks.setdefault(m.group(1), int(m.group(2)))
        self._scan_scope(root, None, path)
        if func_units is not None:  # libclang frontend: replace functions
            self._drop_functions(path)
            for u in func_units:
                self._register_func(u, path)

    def _drop_functions(self, path):
        gone = [uid for uid, f in self.funcs.items() if f.path == path]
        for uid in gone:
            del self.funcs[uid]
        for lst in self.free_funcs.values():
            lst[:] = [f for f in lst if f.path != path]

    def _scan_scope(self, node, ci, path):
        buf = []
        for item in node.items:
            if isinstance(item, Tok):
                buf.append(item)
                if item.s == ";":
                    self._handle_stmt(buf[:-1], None, ci, path)
                    buf = []
                continue
            if item.kind == "namespace":
                self._scan_scope(item, None, path)
                buf = []
            elif item.kind == "class":
                header = item.header
                is_enum = any(t.s == "enum" for t in header)
                if is_enum:
                    buf = []
                    continue
                name = class_name_from_header(header)
                child = None
                if name:
                    child = ClassInfo(name, path, item.line)
                    self.classes.setdefault(name, []).append(child)
                self._scan_scope(item, child, path)
                buf = []
            elif item.kind in ("function", "lambda"):
                unit = FuncUnit(item.name or "<lambda>", item.kind,
                                self._cls_for(item, ci), item.line,
                                item.header, flatten_body(item))
                self._register_func(unit, path)
                # nested lambdas / local classes inside the body
                self._scan_nested(item, ci, path)
                buf = []
            else:  # block: a brace-initialized declaration, or stray scope
                self._handle_stmt(buf + item.header, item, ci, path)
                self._scan_nested(item, ci, path)
                buf = []

    def _scan_nested(self, node, ci, path):
        """Register function/lambda/class nodes nested inside `node`."""
        for item in node.items:
            if isinstance(item, Tok):
                continue
            if item.kind in ("function", "lambda"):
                unit = FuncUnit(item.name or "<lambda>", item.kind,
                                self._cls_for(item, ci), item.line,
                                item.header, flatten_body(item))
                self._register_func(unit, path)
                self._scan_nested(item, ci, path)
            elif item.kind == "class":
                name = class_name_from_header(item.header)
                child = None
                if name and not any(t.s == "enum" for t in item.header):
                    child = ClassInfo(name, path, item.line)
                    self.classes.setdefault(name, []).append(child)
                self._scan_scope(item, child, path)
            else:
                self._scan_nested(item, ci, path)

    def _cls_for(self, fn_node, ci):
        if ci is not None:
            return ci.name
        if fn_node.kind == "function" and fn_node.name:
            return method_class_from_header(fn_node.header, fn_node.name)
        return None

    def _register_func(self, unit, path):
        uid = f"{path}:{unit.line}:{unit.name}"
        f = Func(uid, unit.name, unit.kind, unit.cls_name, path, unit.line,
                 unit.header, unit.body)
        f.requires_exprs = requires_args(unit.header)
        for part in _split_commas(strip_attr_macros(unit.header)):
            pass  # params parsed below from the header's paren group
        self._parse_params(f)
        self.funcs[uid] = f
        if unit.cls_name is None and unit.kind == "function":
            self.free_funcs.setdefault(unit.name, []).append(f)

    def _parse_params(self, f):
        header = f.header
        # last top-level '(' group before the body is the parameter list;
        # for `Ret Cls::name(...)` find the '(' following the name.
        for i in range(len(header) - 1, -1, -1):
            if header[i].s == "(":
                close = _match_forward(header, i, "(", ")")
                if close < 0:
                    continue
                for part in _split_commas(header[i + 1:close]):
                    part = strip_attr_macros(part)
                    eq = find_top_level(part, {"="})
                    if eq >= 0:
                        part = part[:eq]
                    d = parse_decl(part)
                    if d:
                        f.params[d[0]] = d[1]
                return

    def _handle_stmt(self, toks, init_node, ci, path):
        """A class-member or file-scope statement (trailing `;` removed;
        init_node is the brace-initializer scope node if one followed)."""
        while len(toks) >= 2 and toks[0].s in ("public", "private",
                                               "protected") \
                and toks[1].s == ":":
            toks = toks[2:]
        if not toks:
            return
        head = toks[0].s
        if head == "using" and len(toks) >= 3 and toks[2].s == "=":
            self.aliases[toks[1].s] = _render(strip_attr_macros(toks[3:]))
            return
        if head in STMT_SKIP_HEADS:
            return
        line = toks[0].line
        reqs = requires_args(toks)
        clean = strip_attr_macros(toks)
        paren = find_top_level(clean, {"("})
        eq = find_top_level(clean, {"="})
        if paren >= 0 and (eq < 0 or paren < eq):
            # method / function declaration: record REQUIRES for later
            if ci is not None and paren > 0 and IDENT.match(
                    clean[paren - 1].s) and reqs:
                ci.requires.setdefault(clean[paren - 1].s, []).extend(reqs)
            return
        decl_toks = clean[:eq] if eq >= 0 else clean
        d = parse_decl(decl_toks)
        if d is None:
            return
        name, type_str = d
        base_type = type_str.replace("const ", "").strip()
        if base_type == "Mutex" or base_type.endswith("::Mutex"):
            init_toks = []
            if init_node is not None:
                init_toks = [t for t in init_node.items
                             if isinstance(t, Tok)]
            elif eq >= 0:
                init_toks = clean[eq + 1:]
            rank_name = None
            for t in init_toks:
                if RANK_NAME.match(t.s) and t.s in self.ranks:
                    rank_name = t.s
                    break
                if RANK_NAME.match(t.s) and rank_name is None:
                    rank_name = t.s  # unknown rank token: named but unvalued
            owner = ci.name if ci is not None else Path(path).name
            md = MutexDecl(f"{owner}::{name}", name, ci, rank_name,
                           self.ranks.get(rank_name), path, line)
            if ci is not None:
                ci.mutexes[name] = md
            else:
                self.file_mutexes.setdefault(path, {})[name] = md
            self.mutex_index.setdefault(name, []).append(md)
            if rank_name is None:
                self.findings.append(Finding(
                    path, line, "unranked-mutex",
                    f"alsflow::Mutex '{md.key}' declared without a LockRank:"
                    " the runtime tracker cannot order it; construct with"
                    " {LockRank::k..., \"name\"} (see"
                    " src/common/lock_rank.hpp)"))
            return
        if ci is not None:
            ci.members[name] = type_str
        else:
            self.file_vars.setdefault(path, {})[name] = type_str

    # -- linking and summaries ---------------------------------------------

    def resolve_class(self, name, from_path):
        cands = self.classes.get(name)
        if not cands:
            return None
        if len(cands) == 1:
            return cands[0]
        same_file = [c for c in cands if c.path == from_path]
        if len(same_file) == 1:
            return same_file[0]
        same_dir = [c for c in cands
                    if Path(c.path).parent == Path(from_path).parent]
        if len(same_dir) == 1:
            return same_dir[0]
        return None

    def expand_alias(self, type_str):
        t = type_str.strip()
        for _ in range(3):
            key = t.replace("const ", "").strip().rstrip("&* ")
            if key in self.aliases:
                t = self.aliases[key]
            else:
                break
        return t

    def is_function_type(self, type_str):
        t = self.expand_alias(type_str).replace(" ", "")
        return "function<" in t

    def type_to_class(self, type_str, from_path):
        t = self.expand_alias(type_str)
        t = t.replace("const ", "").split("<", 1)[0]
        t = t.replace("*", "").replace("&", "").strip()
        if not t:
            return None
        last = t.split("::")[-1].strip()
        if not IDENT.match(last or ""):
            return None
        return self.resolve_class(last, from_path)

    def link(self):
        for f in self.funcs.values():
            if f.cls_name:
                f.cls = self.resolve_class(f.cls_name, f.path)
                if f.cls is not None:
                    f.cls.methods.setdefault(f.name, []).append(f)
        for f in self.funcs.values():
            reqs = list(f.requires_exprs)
            if f.cls is not None:
                reqs += f.cls.requires.get(f.name, [])
            keys = []
            for expr in reqs:
                md = self.resolve_mutex_name(expr.strip(), f)
                if md is not None:
                    keys.append(md.key)
            if not keys and f.name.endswith("_locked") and f.cls is not None \
                    and f.cls.mutexes:
                keys = [md.key for md in f.cls.mutexes.values()]
                f.assumed_locked = True
            f.requires_keys = keys

    def resolve_mutex_name(self, name, f):
        """A bare identifier naming a mutex, in f's context."""
        if name in f.local_mutexes:
            return f.local_mutexes[name]
        if f.cls is not None and name in f.cls.mutexes:
            return f.cls.mutexes[name]
        fm = self.file_mutexes.get(f.path, {})
        if name in fm:
            return fm[name]
        cands = self.mutex_index.get(name, [])
        if len(cands) == 1:
            return cands[0]
        return None

    def var_type(self, name, f):
        if name == "this" and f.cls is not None:
            return f.cls.name
        if name in f.locals:
            return f.locals[name]
        if name in f.params:
            return f.params[name]
        if f.cls is not None and name in f.cls.members:
            return f.cls.members[name]
        fv = self.file_vars.get(f.path, {})
        if name in fv:
            return fv[name]
        return None

    def resolve_chain(self, chain, f):
        """Resolve a receiver chain [a, b, c] to ("mutex", MutexDecl),
        ("type", type_str) or None."""
        if not chain:
            return None
        head = chain[0]
        if len(chain) == 1:
            md = self.resolve_mutex_name(head, f)
            if md is not None:
                return ("mutex", md)
            t = self.var_type(head, f)
            return ("type", t) if t is not None else None
        t = self.var_type(head, f)
        if t is None:
            return None
        for i, part in enumerate(chain[1:], start=1):
            ci = self.type_to_class(t, f.path)
            if ci is None:
                return None
            if i == len(chain) - 1 and part in ci.mutexes:
                return ("mutex", ci.mutexes[part])
            t = ci.members.get(part)
            if t is None:
                return None
        return ("type", t)

    def resolve_mutex_expr(self, toks, f):
        chain = self._chain_from_tokens(toks)
        if chain is None:
            return None
        r = self.resolve_chain(chain, f)
        if r is not None and r[0] == "mutex":
            return r[1]
        return None

    @staticmethod
    def _chain_from_tokens(toks):
        """[a, ., b, ->, c] -> ["a","b","c"]; None if not a simple chain."""
        chain, expect_ident = [], True
        for t in toks:
            if expect_ident:
                if t.s == "*" and not chain:
                    continue  # leading deref: *mu
                if not IDENT.match(t.s):
                    return None
                chain.append(t.s)
                expect_ident = False
            else:
                if t.s not in (".", "->"):
                    return None
                expect_ident = True
        return chain if chain and not expect_ident else None

    def compute_summaries(self):
        """Close acquires / emits / callbacks over the call graph."""
        changed = True
        while changed:
            changed = False
            for f in self.funcs.values():
                for callee_uid in f.calls:
                    g = self.funcs.get(callee_uid)
                    if g is None:
                        continue
                    add = g.acquires - set(g.requires_keys) - f.acquires
                    if add:
                        f.acquires |= add
                        changed = True
                    if g.emits and not f.emits:
                        f.emits = True
                        changed = True
                    if g.callbacks and not f.callbacks:
                        f.callbacks = True
                        changed = True


# ---------------------------------------------------------------------------
# Body analysis
# ---------------------------------------------------------------------------


class BodyAnalyzer:
    def __init__(self, model, f):
        self.m = model
        self.f = f
        self.findings = []

    def collect_locals(self):
        f = self.f
        toks = f.body
        stmt, depth = [], 0
        i = 0
        while i < len(toks):
            t = toks[i]
            s = t.s
            if s == "for" and i + 1 < len(toks) and toks[i + 1].s == "(":
                close = _match_forward(toks, i + 1, "(", ")")
                if close > 0:
                    inner = toks[i + 2:close]
                    colon = find_top_level(inner, {":"})
                    if colon > 0:
                        self._try_local(inner[:colon], None, inner[0].line)
                    i = close + 1
                    stmt = []
                    continue
            if s in ("{", "}"):
                depth += 1 if s == "{" else -1
                stmt = []
            elif s == ";":
                self._finish_stmt(stmt)
                stmt = []
            else:
                stmt.append(t)
            i += 1
        self._finish_stmt(stmt)

    def _finish_stmt(self, stmt):
        if not stmt:
            return
        clean = strip_attr_macros(stmt)
        eq = find_top_level(clean, {"="})
        paren = find_top_level(clean, {"("})
        brace = find_top_level(clean, {"{"})
        init = None
        if eq >= 0 and (paren < 0 or paren > eq):
            init = clean[eq + 1:]
            clean = clean[:eq]
        elif brace > 0 and paren < 0:
            init = clean[brace + 1:]
            clean = clean[:brace]
        elif paren >= 0:
            # `Type name(args)` direct-init declarations are consumed by the
            # guard scanner for guards; skip other forms (too call-like).
            return
        if clean and clean[0].s in STMT_SKIP_HEADS:
            return
        self._try_local(clean, init, clean[0].line if clean else 0)

    def _try_local(self, decl_toks, init_toks, line):
        d = parse_decl(decl_toks)
        if d is None:
            return
        name, type_str = d
        base = type_str.replace("const ", "").strip()
        if base == "Mutex" or base.endswith("::Mutex"):
            rank_name = None
            for t in (init_toks or []):
                if RANK_NAME.match(t.s):
                    rank_name = t.s
                    break
            md = MutexDecl(f"{self.f.name}::{name}", name, None, rank_name,
                           self.m.ranks.get(rank_name), self.f.path, line)
            self.f.local_mutexes[name] = md
            self.m.mutex_index.setdefault(name, []).append(md)
            if rank_name is None:
                self.findings.append(Finding(
                    self.f.path, line, "unranked-mutex",
                    f"alsflow::Mutex '{md.key}' declared without a"
                    " LockRank: the runtime tracker cannot order it"))
            return
        self.f.locals.setdefault(name, type_str)

    # -- the main walk ------------------------------------------------------

    def run(self):
        f, m = self.f, self.m
        held = []    # [HeldEntry], acquisition order
        guards = {}  # var name -> dict(entry=HeldEntry|None, depth, active)
        raw = {}     # expr string -> HeldEntry (raw .lock() acquisitions)
        for key in f.requires_keys:
            md = self._decl_for(key)
            held.append(HeldEntry(
                key, md.rank if md else None,
                md.display() if md else key, f.line,
                "assumed" if f.assumed_locked else "requires"))
        toks = f.body
        depth = 0
        i = 0
        while i < len(toks):
            t = toks[i]
            s = t.s
            if s == "{":
                depth += 1
                i += 1
                continue
            if s == "}":
                depth -= 1
                for var, g in list(guards.items()):
                    if g["depth"] > depth:
                        self._release(held, g)
                        del guards[var]
                i += 1
                continue
            # guard declaration: LockGuard v(expr[, tag]);
            if s in GUARD_TYPES and i + 2 < len(toks) \
                    and IDENT.match(toks[i + 1].s) and toks[i + 2].s == "(":
                close = _match_forward(toks, i + 2, "(", ")")
                if close < 0:
                    break
                var = toks[i + 1].s
                args = _split_commas(toks[i + 3:close])
                tags = _render([t2 for part in args[1:] for t2 in part])
                entry = None
                if args and args[0]:
                    adopt = "adopt_lock" in tags
                    defer = "defer_lock" in tags
                    trylk = "try_to_lock" in tags
                    mexpr = args[0]
                    if not defer:
                        entry = self._acquire(held, mexpr, t.line,
                                              is_try=trylk, is_adopt=adopt)
                guards[var] = {"entry": entry, "depth": depth,
                               "mexpr": args[0] if args else []}
                i = close + 1
                continue
            # identifier followed by '(' -> guard op, call, or noise
            if s == "(" and i > 0 and IDENT.match(toks[i - 1].s):
                name = toks[i - 1].s
                chain, qualified_std = self._receiver_chain(toks, i - 1)
                if chain is not None and len(chain) == 2 \
                        and chain[0] in guards and name in GUARD_OPS:
                    g = guards[chain[0]]
                    if name == "unlock":
                        self._release(held, g)
                        g["entry"] = None
                    elif name == "lock" and g["entry"] is None:
                        g["entry"] = self._acquire(held, g["mexpr"], t.line)
                    i += 1
                    continue
                if not qualified_std and name not in NOT_CALLEES \
                        and not ATTR_MACRO.match(name) \
                        and name not in GUARD_TYPES:
                    member_call = i >= 2 and toks[i - 2].s in (".", "->")
                    self._call(name, chain, held, raw, t.line, member_call)
            i += 1

    def _decl_for(self, key):
        for decls in self.m.mutex_index.values():
            for md in decls:
                if md.key == key:
                    return md
        return None

    def _acquire(self, held, mexpr_toks, line, is_try=False, is_adopt=False):
        m, f = self.m, self.f
        md = m.resolve_mutex_expr(mexpr_toks, f)
        if md is None:
            expr = _render(mexpr_toks)
            entry = HeldEntry(f"<?{expr}>", None, f"'{expr}' (unresolved)",
                              line, "guard")
            held.append(entry)
            return entry
        if not is_try and not is_adopt:
            for h in held:
                if h.key.startswith("<?"):
                    continue
                m.edges.setdefault((h.key, md.key),
                                   (f.path, line, f.name))
                if md.key == h.key:
                    self.findings.append(Finding(
                        f.path, line, "rank-inversion",
                        f"recursive acquisition of {md.display()}"
                        f" (already held since line {h.line});"
                        " alsflow::Mutex is non-recursive and the"
                        " runtime tracker aborts here"))
                elif md.rank is not None and h.rank is not None \
                        and md.rank >= h.rank:
                    self.findings.append(Finding(
                        f.path, line, "rank-inversion",
                        f"acquiring {md.display()} while holding"
                        f" {h.disp} violates strict rank descent"
                        f" (rank {md.rank} >= {h.rank}); see"
                        " src/common/lock_rank.hpp for the order"))
            if not any(h.key == md.key for h in held):
                f.acquires.add(md.key)
        entry = HeldEntry(md.key, md.rank, md.display(), line, "guard")
        held.append(entry)
        return entry

    @staticmethod
    def _release(held, guard):
        entry = guard.get("entry")
        if entry is not None and entry in held:
            held.remove(entry)
            guard["entry"] = None

    def _receiver_chain(self, toks, name_idx):
        """Receiver chain ending at toks[name_idx] (the callee name).
        Returns (chain_list_incl_name | None, is_std_qualified)."""
        chain = [toks[name_idx].s]
        j = name_idx - 1
        while j > 0:
            sep = toks[j].s
            if sep in (".", "->"):
                prev = toks[j - 1].s
                if IDENT.match(prev):
                    chain.insert(0, prev)
                    j -= 2
                    continue
                return None, False  # call on an expression result
            if sep == "::":
                prev = toks[j - 1].s
                if prev == "std" or prev.startswith("std"):
                    return None, True
                if IDENT.match(prev):
                    chain.insert(0, prev)
                    j -= 2
                    continue
                return None, False
            break
        return chain, False

    def _call(self, name, chain, held, raw, line, member_call=False):
        m, f = self.m, self.f
        active = list(held)
        # raw Mutex lock()/unlock() through a resolvable receiver
        if name in ("lock", "unlock", "try_lock") and chain \
                and len(chain) >= 2:
            r = m.resolve_chain(chain[:-1], f)
            if r is not None and r[0] == "mutex":
                expr = ".".join(chain[:-1])
                if name == "unlock":
                    e = raw.pop(expr, None)
                    if e is not None and e in held:
                        held.remove(e)
                else:
                    fake = [Tok(p, line) for part in chain[:-1]
                            for p in (part, ".")][:-1]
                    raw[expr] = self._acquire(held, fake, line,
                                              is_try=(name == "try_lock"))
                return
        held_disp = ", ".join(h.disp for h in active)
        # 1. callback by method name
        if active and name in CALLBACK_METHODS:
            self.findings.append(Finding(
                f.path, line, "callback-under-lock",
                f"invoking completion/sink callback '{name}()' while"
                f" holding {held_disp}: the callee is user code and may"
                " take arbitrary locks or re-enter; fulfill/notify after"
                " releasing (copy the callback out under the lock)"))
        # 2. call through a std::function-typed variable or member
        ftype = None
        if chain is not None:
            if len(chain) == 1:
                ftype = m.var_type(name, f)
            else:
                r = m.resolve_chain(chain, f)
                if r is not None and r[0] == "type":
                    ftype = r[1]
        if active and ftype is not None and m.is_function_type(ftype):
            self.findings.append(Finding(
                f.path, line, "callback-under-lock",
                f"invoking std::function '{'.'.join(chain)}' while holding"
                f" {held_disp}: hoist the call out of the critical section"
                " (copy the function object under the lock, invoke after"
                " release)"))
        # 3. direct telemetry emission / registry lookup
        if active and name in EMIT_METHODS and member_call:
            self.findings.append(Finding(
                f.path, line, "emit-under-lock",
                f"telemetry '{name}()' under {held_disp}: registry lookups"
                " take the telemetry lock and emit() runs the event sink;"
                " record values under the lock, emit after release"))
        # 4. resolved callee: record for interprocedural pass
        callee = self._resolve_callee(name, chain)
        if callee is not None:
            f.calls.add(callee.uid)
            if active:
                f.call_events.append(
                    (callee.uid, line,
                     tuple((h.key, h.rank, h.disp) for h in active
                           if not h.key.startswith("<?"))))

    def _resolve_callee(self, name, chain):
        m, f = self.m, self.f
        if chain is None:
            return None
        if len(chain) == 1:
            if f.cls is not None:
                cands = f.cls.methods.get(name, [])
                if cands:
                    return self._pick(cands)
            cands = m.free_funcs.get(name, [])
            same_file = [c for c in cands if c.path == f.path]
            if len(same_file) >= 1:
                return self._pick(same_file)
            if len(cands) == 1:
                return cands[0]
            return None
        # qualified or member call: resolve the receiver to a class
        head_ci = None
        if len(chain) == 2 and chain[0] in m.classes:
            head_ci = m.resolve_class(chain[0], f.path)  # Cls::method(...)
        if head_ci is None:
            r = m.resolve_chain(chain[:-1], f)
            if r is None or r[0] != "type":
                return None
            head_ci = m.type_to_class(r[1], f.path)
        if head_ci is None:
            return None
        cands = head_ci.methods.get(name, [])
        return self._pick(cands) if cands else None

    @staticmethod
    def _pick(cands):
        # Prefer a definition with a body (out-of-line over declaration).
        for c in cands:
            if c.body:
                return c
        return cands[0] if cands else None

    def scan_direct_effects(self):
        """Mark emits/callbacks that occur anywhere in the body (for the
        interprocedural summaries), independent of lock state here."""
        f, m = self.f, self.m
        toks = f.body
        for i, t in enumerate(toks):
            if t.s == "(" and i > 0 and IDENT.match(toks[i - 1].s):
                name = toks[i - 1].s
                chain, _ = self._receiver_chain(toks, i - 1)
                member_call = i >= 2 and toks[i - 2].s in (".", "->")
                if name in EMIT_METHODS and member_call:
                    f.emits = True
                if name in CALLBACK_METHODS:
                    f.callbacks = True
                if chain is not None:
                    ftype = None
                    if len(chain) == 1:
                        ftype = m.var_type(name, f)
                    else:
                        r = m.resolve_chain(chain, f)
                        if r is not None and r[0] == "type":
                            ftype = r[1]
                    if ftype is not None and m.is_function_type(ftype):
                        f.callbacks = True


# ---------------------------------------------------------------------------
# Whole-program passes
# ---------------------------------------------------------------------------


def interprocedural_findings(model):
    """Edges and findings from calls made while locks were held, using the
    fixed-point summaries."""
    findings = []
    for f in model.funcs.values():
        for callee_uid, line, held in f.call_events:
            g = model.funcs.get(callee_uid)
            if g is None:
                continue
            eff = g.acquires - set(g.requires_keys)
            held_disp = ", ".join(h[2] for h in held)
            for key in sorted(eff):
                md = None
                for decls in model.mutex_index.values():
                    for d in decls:
                        if d.key == key:
                            md = d
                for hkey, hrank, hdisp in held:
                    model.edges.setdefault((hkey, key), (f.path, line,
                                                         f.name))
                    if key == hkey:
                        findings.append(Finding(
                            f.path, line, "rank-inversion",
                            f"call to {g.name}() re-acquires"
                            f" {md.display() if md else key}, which this"
                            " thread already holds; alsflow::Mutex is"
                            " non-recursive and the runtime tracker aborts"
                            " here"))
                    elif md is not None and md.rank is not None \
                            and hrank is not None and md.rank >= hrank:
                        findings.append(Finding(
                            f.path, line, "rank-inversion",
                            f"call to {g.name}() acquires {md.display()}"
                            f" while {hdisp} is held (rank {md.rank} >="
                            f" {hrank}): strict descent is violated through"
                            " this callee"))
            if g.emits:
                findings.append(Finding(
                    f.path, line, "emit-under-lock",
                    f"call to {g.name}() performs telemetry emission or a"
                    f" registry lookup while holding {held_disp}; hoist the"
                    " emission out of the critical section"))
            if g.callbacks:
                findings.append(Finding(
                    f.path, line, "callback-under-lock",
                    f"call to {g.name}() invokes a user callback while"
                    f" {held_disp} is held; the callback may take arbitrary"
                    " locks — run it after release"))
    return findings


def cycle_findings(model):
    graph = {}
    for (h, a), _site in model.edges.items():
        if h == a:
            continue  # recursion: reported as rank-inversion, not a cycle
        graph.setdefault(h, set()).add(a)
    findings = []
    seen_cycles = set()
    for start in sorted(graph):
        path, on_path = [], {}
        stack = [(start, iter(sorted(graph.get(start, ()))))]
        on_path[start] = 0
        path.append(start)
        visited_from_start = set()
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt in on_path:
                    cycle = path[on_path[nxt]:] + [nxt]
                    canon = tuple(sorted(set(cycle)))
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        hops = []
                        for i in range(len(cycle) - 1):
                            p, l, ctx = model.edges[(cycle[i], cycle[i + 1])]
                            hops.append(f"{cycle[i]} -> {cycle[i + 1]}"
                                        f" (in {ctx}(), {p}:{l})")
                        p0, l0, _c0 = model.edges[(cycle[0], cycle[1])]
                        findings.append(Finding(
                            p0, l0, "lock-cycle",
                            "lock-acquisition cycle (potential deadlock): "
                            + "; ".join(hops)))
                    continue
                if nxt in visited_from_start:
                    continue
                visited_from_start.add(nxt)
                on_path[nxt] = len(path)
                path.append(nxt)
                stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                done = path.pop()
                on_path.pop(done, None)
    return findings


def apply_waivers(model, findings):
    kept = []
    for f in findings:
        # a waiver covers its own line and the line below (NOLINTNEXTLINE
        # style), so multi-line statements can carry a readable reason
        per_file = model.allow.get(f.path, {})
        rules = per_file.get(f.line, set()) | per_file.get(f.line - 1, set())
        if f.rule in rules or "all" in rules:
            continue
        kept.append(f)
    return kept


def analyze_sources(files, ranks, func_units_by_path=None):
    """files: {relpath: text}. Returns the final finding list."""
    model = Model(ranks)
    for path in sorted(files):
        units = None
        if func_units_by_path is not None:
            units = func_units_by_path.get(path)
        model.add_file(path, files[path], units)
    model.link()
    findings = list(model.findings)
    analyzers = []
    for uid in sorted(model.funcs):
        f = model.funcs[uid]
        a = BodyAnalyzer(model, f)
        a.collect_locals()
        a.scan_direct_effects()
        analyzers.append(a)
    for a in analyzers:  # second pass: locals of every func are known
        a.run()
        findings.extend(a.findings)
    model.compute_summaries()
    findings.extend(interprocedural_findings(model))
    findings.extend(cycle_findings(model))
    findings = apply_waivers(model, findings)
    dedup, out = set(), []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                             f.message)):
        if f.key() + (f.message,) in dedup:
            continue
        dedup.add(f.key() + (f.message,))
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# Rank table
# ---------------------------------------------------------------------------


def load_ranks(root):
    hpp = Path(root) / "src" / "common" / "lock_rank.hpp"
    ranks = {}
    if hpp.is_file():
        text = hpp.read_text(encoding="utf-8", errors="replace")
        for m in RANK_DEF.finditer(text):
            ranks[m.group(1)] = int(m.group(2))
    return ranks


# ---------------------------------------------------------------------------
# libclang frontend (function boundaries only; shared body analysis)
# ---------------------------------------------------------------------------


class ClangFunctions:
    """Function discovery via libclang, mirroring astcheck's ClangFrontend:
    boundaries, class attribution and lambda exclusion come from the real
    AST; tokens, type tables and rules stay shared with the token engine."""

    def __init__(self, root):
        import clang.cindex as cindex  # noqa: deferred optional dep
        self.cindex = cindex
        self.index = cindex.Index.create()
        self.args = ["-std=c++20", "-xc++", "-I", str(Path(root) / "src"),
                     "-Wno-everything"]
        k = cindex.CursorKind
        self.function_kinds = {
            k.FUNCTION_DECL, k.CXX_METHOD, k.CONSTRUCTOR, k.DESTRUCTOR,
            k.CONVERSION_FUNCTION, k.FUNCTION_TEMPLATE,
        }
        self.lambda_kind = k.LAMBDA_EXPR
        self.compound = k.COMPOUND_STMT
        self.class_kinds = {k.CLASS_DECL, k.STRUCT_DECL, k.CLASS_TEMPLATE}

    def units(self, path, text):
        tu = self.index.parse(str(path), args=self.args,
                              unsaved_files=[(str(path), text)])
        toks = tokenize(text)
        units = []
        self._walk(tu.cursor, str(path), toks, units)
        return units

    def _in_file(self, cursor, path):
        loc = cursor.location
        return loc.file is not None and loc.file.name == path

    def _body_extent(self, cursor):
        for ch in cursor.get_children():
            if ch.kind == self.compound:
                e = ch.extent
                return (e.start.line, e.end.line)
        return None

    def _nested_extents(self, cursor, path, out):
        for ch in cursor.get_children():
            if ch.kind == self.lambda_kind or (
                    ch.kind in self.function_kinds and ch.is_definition()):
                if self._in_file(ch, path):
                    e = ch.extent
                    out.append((e.start.line, e.end.line))
                continue
            self._nested_extents(ch, path, out)

    def _walk(self, cursor, path, toks, units):
        for ch in cursor.get_children():
            is_fn = ch.kind in self.function_kinds and ch.is_definition()
            is_lam = ch.kind == self.lambda_kind
            if (is_fn or is_lam) and self._in_file(ch, path):
                body = self._body_extent(ch)
                if body is not None:
                    nested = []
                    for sub in ch.get_children():
                        self._nested_extents(sub, path, nested)
                    start = ch.extent.start.line
                    header = [t for t in toks
                              if start <= t.line < body[0]]
                    bod = [t for t in toks
                           if body[0] <= t.line <= body[1]
                           and not any(a <= t.line <= b
                                       for a, b in nested)]
                    cls_name = None
                    if not is_lam:
                        parent = ch.semantic_parent
                        if parent is not None \
                                and parent.kind in self.class_kinds:
                            cls_name = parent.spelling or None
                    units.append(FuncUnit(
                        ch.spelling or ("<lambda>" if is_lam else "?"),
                        "lambda" if is_lam else "function",
                        cls_name, start, header, bod))
                self._walk(ch, path, toks, units)
            else:
                self._walk(ch, path, toks, units)


# ---------------------------------------------------------------------------
# Family entry point
# ---------------------------------------------------------------------------


def analyze(files, units, root):
    """Family entry point: ranks come from root's lock_rank.hpp; the
    selftest (root None) runs against SELFTEST_RANKS."""
    ranks = SELFTEST_RANKS if root is None else load_ranks(root)
    return analyze_sources(files, ranks, units)


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


SELFTEST_RANKS = {"kLow": 100, "kMid": 200, "kHigh": 300}

# Selftest snippets are class/function bodies; wrap each in the namespace.
SNIPPET_WRAP = ("\nnamespace alsflow {\n", "\n}\n")

BAD_SNIPPETS = {
    "rank-inversion": [
        """
class S {
 public:
  void step() {
    LockGuard a(lo_);
    LockGuard b(hi_);   // ascending: inversion
  }
 private:
  Mutex lo_{LockRank::kLow, "lo"};
  Mutex hi_{LockRank::kHigh, "hi"};
};
""",
        """
class S {
 public:
  void outer() {
    LockGuard a(m_);
    helper();           // callee re-acquires m_: recursive through call
  }
  void helper() {
    LockGuard b(m_);
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
};
""",
        """
class S {
 public:
  void drain_locked() ALSFLOW_REQUIRES(m_) {
    LockGuard g(peer_);  // same rank while m_ is held via REQUIRES
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  Mutex peer_{LockRank::kMid, "peer"};
};
""",
    ],
    "lock-cycle": [
        """
class S {
 public:
  void ab() {
    LockGuard x(hi_);
    LockGuard y(lo_);
  }
  void ba() {
    LockGuard x(lo_);
    LockGuard y(hi_);   // opposite order: cycle (and inversion)
  }
 private:
  Mutex lo_{LockRank::kLow, "lo"};
  Mutex hi_{LockRank::kHigh, "hi"};
};
""",
    ],
    "callback-under-lock": [
        """
class S {
 public:
  void fire() {
    LockGuard g(m_);
    done_();            // std::function member under the lock
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  std::function<void()> done_;
};
""",
        """
class S {
 public:
  void finish(Ticket* t) {
    LockGuard g(m_);
    t->fulfill(0);      // completion callback under the lock
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
};
""",
        """
class S {
 public:
  void poke_locked() ALSFLOW_REQUIRES(m_) {
    cb_();              // held via REQUIRES: still a callback under lock
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  std::function<void()> cb_;
};
""",
    ],
    "emit-under-lock": [
        """
class S {
 public:
  void tick() {
    LockGuard g(m_);
    telemetry::global().metrics().counter("x").add();
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
};
""",
        """
void bump(MetricsRegistry& m) {
  m.gauge("depth").set(1.0);
}
class S {
 public:
  void tick(MetricsRegistry& reg) {
    LockGuard g(m_);
    bump(reg);          // helper emits: transitive emit-under-lock
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
};
""",
    ],
    "unranked-mutex": [
        """
class S {
 private:
  Mutex m_;             // no LockRank: invisible to the runtime tracker
};
""",
    ],
}

GOOD_SNIPPETS = [
    """
class S {
 public:
  void step() {
    LockGuard a(hi_);
    LockGuard b(lo_);   // strict descent: fine
  }
 private:
  Mutex lo_{LockRank::kLow, "lo"};
  Mutex hi_{LockRank::kHigh, "hi"};
};
""",
    """
class S {
 public:
  void fire() {
    std::function<void()> cb;
    {
      LockGuard g(m_);
      cb = done_;
    }
    cb();               // hoisted out of the critical section
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  std::function<void()> done_;
};
""",
    """
class S {
 public:
  void drain() {
    LockGuard g(m_);
    drain_locked();     // REQUIRES helper acquires nothing new
  }
  void drain_locked() ALSFLOW_REQUIRES(m_) {
    ++n_;
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  int n_ = 0;
};
""",
    """
class S {
 public:
  void tick() {
    double depth = 0.0;
    {
      LockGuard g(m_);
      depth = n_;
    }
    telemetry::global().metrics().gauge("depth").set(depth);
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  double n_ = 0.0;
};
""",
    """
class S {
 public:
  void waived() {
    LockGuard g(m_);
    clock_();  // lockcheck:allow callback-under-lock documented lock-free
  }
 private:
  Mutex m_{LockRank::kMid, "m"};
  std::function<double()> clock_;
};
""",
]


FAMILY = Family("lock", RULES, EXPECT, analyze, ClangFunctions,
                BAD_SNIPPETS, GOOD_SNIPPETS, SNIPPET_WRAP)
