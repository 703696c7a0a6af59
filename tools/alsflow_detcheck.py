"""Determinism and discipline rules: clocks, locks, logging, headers,
observability vocabulary, per-chunk buffer copies.

The simulation must be byte-for-byte deterministic across re-runs (the
paper's retry/idempotency story depends on it), so sim-domain code may not
read wall clocks or OS randomness. Locking must go through the annotated
alsflow::Mutex wrappers (common/thread_safety.hpp) so clang's
-Wthread-safety analysis sees every lock site. Output goes through
LogStream, never stdout. These invariants hold today; these rules keep them
enforced rather than assumed.

Rules (comments stripped before matching; string literals stay visible):

  determinism    no wall-clock / randomness / sleeps in sim-domain code:
                 system_clock, steady_clock, high_resolution_clock,
                 clock_gettime, gettimeofday, std::time, rand, random_device,
                 sleep_for, sleep_until, std::this_thread
  raw-mutex      no std::mutex / std::lock_guard / std::unique_lock /
                 std::scoped_lock / std::shared_mutex / std::recursive_mutex;
                 use alsflow::Mutex / LockGuard / UniqueLock
  stdout-logging no std::cout / std::cerr / printf / puts; use LogStream
                 (log_info("component") << ...)
  pragma-once    every .hpp must contain #pragma once
  event-vocab    observability vocabulary must not drift: every
                 (component, kind) pair in the monitor's default_slos
                 selector table must match a MonitorEvent emit site and
                 vice versa, and every span component the
                 ScanTraceAssembler stage map tests must be produced by
                 some tracer begin() site. Nothing ties these string
                 literals together at compile time, so a rename on one
                 side silently unwires the SLO or the stage attribution.
  vector-value-capture
                 no parallel_for / parallel_for_chunks lambda may capture
                 a std::vector by value: every chunk execution copies the
                 whole buffer (an allocation the hot-path purity contract
                 forbids — see tools/alsflow_hotcheck.py). Capture by
                 reference or pass a std::span. Init-captures and default
                 captures are out of scope (a [=] that copies a vector is
                 caught at run time by the hot-guard counters).

Per-file allowlist: ALLOW below. A single line can be exempted with a
trailing  // detcheck:allow <rule>  comment plus a reason. Corpus files
under tests/detcheck/ mark each seeded violation with
// detcheck:expect <rule>.

This module is the `det` rule family of tools/alsflow_check.py, which
runs it:  python3 tools/alsflow_check.py --rules det [--selftest |
--corpus tests/detcheck]. The rules match text, so det has no libclang
frontend and every --engine runs it the same way.
"""

import re

from alsflow_astcheck import Family, Finding, strip_comments

RULES = ("determinism", "raw-mutex", "stdout-logging", "pragma-once",
         "event-vocab", "vector-value-capture")

# Files (relative to src/) that may violate a rule, and why. Keep this
# list short and justified; DESIGN.md §11 documents how to extend it.
ALLOW = {
    # Telemetry owns the ClockDomain::Wall time base (wall_now) — the one
    # legitimate wall-clock read in the tree. Sim-domain spans get their
    # timestamps passed in from the event engine.
    "determinism": {
        "common/telemetry.cpp",
    },
    # The annotated wrappers are implemented in terms of the std
    # primitives they replace.
    "raw-mutex": {
        "common/thread_safety.hpp",
    },
    # The default log sink writes to stderr by design.
    "stdout-logging": set(),
    "pragma-once": set(),
    "event-vocab": set(),
    "vector-value-capture": set(),
}

# rule -> list of (compiled regex, human reason). Negative lookbehind
# (?<![\w:]) keeps e.g. snprintf from matching printf and
# sim_clock-like identifiers from matching rand.
DETERMINISM_TOKENS = [
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "clock_gettime",
    "gettimeofday",
    "random_device",
    "sleep_for",
    "sleep_until",
]
PATTERNS = {
    "determinism": [
        (re.compile(r"(?<![\w:])(?:std::(?:chrono::)?)?(" +
                    "|".join(DETERMINISM_TOKENS) + r")(?![\w])"),
         "sim-domain code must take time from sim::Engine::now() and "
         "randomness from common/rng.hpp (seeded)"),
        (re.compile(r"(?<![\w])std::this_thread(?![\w])"),
         "no sleeping or yielding in sim-domain code"),
        (re.compile(r"(?<![\w:])(?:std::)?s?rand\s*\("),
         "use common/rng.hpp (seeded, reproducible)"),
        (re.compile(r"(?<![\w:])std::time\s*\("),
         "sim-domain code must take time from sim::Engine::now()"),
    ],
    "raw-mutex": [
        (re.compile(r"(?<![\w])std::(mutex|shared_mutex|recursive_mutex|"
                    r"lock_guard|unique_lock|scoped_lock)(?![\w])"),
         "use alsflow::Mutex / LockGuard / UniqueLock "
         "(common/thread_safety.hpp) so -Wthread-safety sees the lock"),
    ],
    "stdout-logging": [
        (re.compile(r"(?<![\w])std::(cout|cerr)(?![\w])"),
         "use LogStream: log_info(\"component\") << ..."),
        (re.compile(r"(?<![\w:])(?:std::)?(printf|puts)\s*\("),
         "use LogStream: log_info(\"component\") << ..."),
        (re.compile(r"(?<![\w:])(?:std::)?fprintf\s*\(\s*stdout"),
         "use LogStream: log_info(\"component\") << ..."),
    ],
}

SUPPRESS = re.compile(r"//\s*detcheck:allow\s+([\w-]+)")
EXPECT = re.compile(r"//\s*detcheck:expect\s+([\w,-]+)")


def src_path(rel):
    """ALLOW and the vocab files name paths relative to src/: a tree scan's
    files read src/<path>, a corpus's read <path>."""
    return rel.removeprefix("src/")


def check_patterns(rel, code_lines, findings):
    for rule, patterns in PATTERNS.items():
        for line_no, code in enumerate(code_lines, start=1):
            for pat, why in patterns:
                hit = pat.search(code)
                if hit:
                    findings.append(Finding(
                        rel, line_no, rule,
                        f"forbidden token '{hit.group(0).strip()}' — {why}"))
                    break  # one finding per line per rule


# --- event-vocab: observability name drift ---------------------------------
# Emitters name their MonitorEvent (component, kind) with string literals;
# default_slos (monitor/slo.cpp) selects on the same literals, and the
# ScanTraceAssembler stage map (monitor/trace_assembler.cpp) switches on
# span component literals produced at tracer begin() sites. This pass
# extracts each side and diffs them, anchoring findings on the stale line.

EVENT_COMPONENT_ASSIGN = re.compile(
    r'(?<![\w.])(\w+)\.component\s*=\s*"([\w.]+)"')
EVENT_KIND_ASSIGN = re.compile(r'(?<![\w.])(\w+)\.kind\s*=\s*"([\w.]+)"')
SPAN_BEGIN = re.compile(r'\.begin\(\s*"([\w.]+)"')
STAGE_COMPONENT_CMP = re.compile(r'component\s*==\s*"([\w.]+)"')

SLO_TABLE_FILE = "monitor/slo.cpp"              # selector side
STAGE_MAP_FILE = "monitor/trace_assembler.cpp"  # stage-map side


def collect_event_pairs(code_lines):
    """(component, kind, line_no) from paired literal assignments.

    A pair is a `v.component = "..."` assignment followed within a few
    lines by `v.kind = "..."` on the same variable — the shape every emit
    site and every default_slos selector uses. Non-literal assignments
    (e.g. `entry.kind = ev.kind`) never match.
    """
    pairs = []
    pending = {}  # var -> (component, line_no)
    for line_no, code in enumerate(code_lines, start=1):
        for m in EVENT_COMPONENT_ASSIGN.finditer(code):
            pending[m.group(1)] = (m.group(2), line_no)
        for m in EVENT_KIND_ASSIGN.finditer(code):
            hit = pending.pop(m.group(1), None)
            if hit is not None and line_no - hit[1] <= 4:
                pairs.append((hit[0], m.group(2), line_no))
    return pairs


def check_event_vocab(code, findings):
    """code: {rel: comment-stripped text} for every file in the scan."""
    emits, selectors, stage_refs = [], [], []
    span_components = set()
    for rel, text in code.items():
        lines, path = text.splitlines(), src_path(rel)
        side = selectors if path == SLO_TABLE_FILE else emits
        for comp, kind, ln in collect_event_pairs(lines):
            side.append((comp, kind, rel, ln))
        span_components.update(SPAN_BEGIN.findall(text))
        if path == STAGE_MAP_FILE:
            for ln, line in enumerate(lines, start=1):
                for comp in STAGE_COMPONENT_CMP.findall(line):
                    stage_refs.append((comp, rel, ln))

    emitted = {(c, k) for c, k, *_ in emits}
    selected = {(c, k) for c, k, *_ in selectors}
    # Only diff when both sides exist — a partial tree should not drown in
    # one-sided findings.
    if emitted and selected:
        for comp, kind, rel, ln in selectors:
            if (comp, kind) not in emitted:
                findings.append(Finding(
                    rel, ln, "event-vocab",
                    f'SLO selector ("{comp}", "{kind}") matches no '
                    "MonitorEvent emit site — emitter renamed or removed?"))
        for comp, kind, rel, ln in emits:
            if (comp, kind) not in selected:
                findings.append(Finding(
                    rel, ln, "event-vocab",
                    f'MonitorEvent ("{comp}", "{kind}") has no default_slos '
                    "selector — add one or detcheck:allow the emit site"))
    if span_components:
        for comp, rel, ln in stage_refs:
            if comp not in span_components:
                findings.append(Finding(
                    rel, ln, "event-vocab",
                    f'stage map tests span component "{comp}" that no '
                    "tracer begin() site produces"))


# --- vector-value-capture: per-chunk buffer copies ------------------------
# A parallel_for lambda that captures a std::vector by value copies the
# whole buffer once per chunk/task — exactly the per-iteration allocation
# the hot-path purity contract forbids, but invisible to hotcheck because
# the copy happens in the closure constructor, not the body. This pass
# collects every identifier declared as vector<...> in the file (values
# and references both: capturing a reference by value still copies the
# referent) and flags plain by-value captures of those names in
# parallel_for / parallel_for_chunks call sites.

VECTOR_OPEN = re.compile(r"(?<![\w])vector\s*<")
CAPTURE_SINK = re.compile(r"(?<![\w])parallel_for(?:_chunks)?\s*\(")
CAPTURE_LIST = re.compile(r"[(,]\s*\[([^\]]*)\]")


def vector_decl_names(code):
    """Identifiers declared with type vector<...> (value or reference)."""
    names = set()
    for m in VECTOR_OPEN.finditer(code):
        i, depth = m.end(), 1
        while i < len(code) and depth:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        dm = re.match(r"\s*&?\s*(\w+)\s*[;,=({\[)]", code[i:i + 80])
        if dm:
            names.add(dm.group(1))
    return names


def check_vector_value_capture(rel, code, findings):
    vec_names = vector_decl_names(code)
    if not vec_names:
        return
    for sm in CAPTURE_SINK.finditer(code):
        cm = CAPTURE_LIST.search(code, sm.end(), sm.end() + 400)
        if not cm:
            continue
        line_no = code.count("\n", 0, cm.start(1)) + 1
        for item in cm.group(1).split(","):
            name = item.strip()
            if not re.fullmatch(r"\w+", name) or name == "this":
                continue  # &ref, init-capture, default, *this
            if name in vec_names:
                findings.append(Finding(
                    rel, line_no, "vector-value-capture",
                    f"parallel_for lambda captures std::vector "
                    f"'{name}' by value — every chunk copies the "
                    f"buffer; capture [&{name}] or pass a std::span"))


# ---------------------------------------------------------------------------
# Family entry point
# ---------------------------------------------------------------------------


def exempt(f, files):
    """ALLOW lists the file, or its line carries detcheck:allow <rule>."""
    if src_path(f.path) in ALLOW[f.rule]:
        return True
    lines = files[f.path].splitlines()
    m = SUPPRESS.search(lines[f.line - 1] if f.line <= len(lines) else "")
    return m is not None and m.group(1) == f.rule


def analyze(files, units, root):
    """Family entry point over {rel: text}; units and root are unused (the
    rules are textual). Each file is stripped once; event-vocab then diffs
    the literals gathered across all of them."""
    findings, code = [], {}
    for rel, text in files.items():
        if rel.endswith(".hpp") and "#pragma once" not in text:
            findings.append(Finding(rel, 1, "pragma-once",
                                    "header is missing #pragma once"))
        code[rel] = strip_comments(text, keep_strings=True)
        check_patterns(rel, code[rel].splitlines(), findings)
        check_vector_value_capture(rel, code[rel], findings)
    check_event_vocab(code, findings)
    return [f for f in findings if not exempt(f, files)]


# ---------------------------------------------------------------------------
# Selftest snippets (event-vocab and vector-value-capture span files; their
# bad and good trees are the corpus under tests/detcheck/)
# ---------------------------------------------------------------------------

BAD_SNIPPETS = {
    "determinism": [
        "auto t = std::chrono::system_clock::now();",
        "auto t = std::chrono::steady_clock::now();",
        "std::this_thread::sleep_for(std::chrono::seconds(1));",
        "std::random_device rd;",
        "int x = rand();",
        "int y = std::rand();",
    ],
    "raw-mutex": [
        "std::mutex m;",
        "std::lock_guard<std::mutex> lock(m);",
        "std::unique_lock<std::mutex> lock(m);",
        "std::scoped_lock lock(a, b);",
    ],
    "stdout-logging": [
        'std::cout << "hello";',
        'printf("hello\\n");',
        'std::printf("hello\\n");',
        'fprintf(stdout, "hello\\n");',
    ],
}

GOOD_SNIPPETS = [
    "std::snprintf(buf, sizeof buf, \"%g\", v);",     # not printf
    "std::fprintf(stderr, \"%s\\n\", line.c_str());",  # stderr, not stdout
    "alsflow::Mutex mu_;",
    "LockGuard lock(mu_);",
    "// comment mentioning std::mutex and steady_clock is fine",
    "double t = eng_.now();",
    "rng_.bernoulli(p);  // seeded",
    "int operand = x;     // 'rand' inside a word",
]


FAMILY = Family("det", RULES, EXPECT, analyze, None,
                BAD_SNIPPETS, GOOD_SNIPPETS)
