#!/usr/bin/env python3
"""alsflow_check: one entry point for alsflow's static analyzers.

Each rule family lives in its own module and exports a `FAMILY` record
(alsflow_astcheck.Family); this module owns everything they share:

  ast   tools/alsflow_astcheck.py   coroutine lifetimes (DESIGN.md §11)
  lock  tools/alsflow_lockcheck.py  lock order, callbacks/emission under
                                    locks, unranked mutexes (DESIGN.md §15)
  hot   tools/alsflow_hotcheck.py   hot-path purity (DESIGN.md §16)
  det   tools/alsflow_detcheck.py   determinism, raw mutexes, stdout logging,
                                    #pragma once, event vocabulary, vector
                                    captures (DESIGN.md §11)

Modes:
  (default)     scan src/**/*.{hpp,cpp} under --root
  --corpus DIR  expectation mode over DIR/**/*.{hpp,cpp}: every
                `// <family>check:expect <rule>[,<rule>]` line must fire and
                nothing else may; differences print as MISSED / SPURIOUS
  --selftest    each family's rules against its embedded bad and good
                snippets, plus a throwaway corpus that must fail

--rules ast,lock,hot,det selects families (default: all). --engine token
(the default) uses the dependency-free tokenizer and scope parser; libclang
takes function boundaries from clang.cindex, falling back to tokens for any
file it cannot parse; auto is libclang when it loads and tokens otherwise.
det matches text and has no libclang frontend: every engine runs it alike.
--format text|json|github (GitHub Actions annotations) applies to scans.

Exit status: 0 clean, 1 findings or a corpus/selftest mismatch, 2 usage
error or --engine libclang without libclang.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import alsflow_astcheck  # noqa: E402
import alsflow_detcheck  # noqa: E402
import alsflow_hotcheck  # noqa: E402
import alsflow_lockcheck  # noqa: E402

FAMILIES = {fam.name: fam for fam in (alsflow_astcheck.FAMILY,
                                      alsflow_lockcheck.FAMILY,
                                      alsflow_hotcheck.FAMILY,
                                      alsflow_detcheck.FAMILY)}
PROG = "alsflow_check"


def tool(fam):
    return f"{fam.name}check"


def note(fam, msg):
    print(f"{PROG}: note: {tool(fam)}: {msg}", file=sys.stderr)


def usage_error(msg):
    print(f"{PROG}: {msg}", file=sys.stderr)
    sys.exit(2)


def read_sources(base, top):
    """{path relative to base: text} for every .hpp/.cpp under top."""
    files = {}
    for path in sorted(top.rglob("*")):
        if path.suffix in (".hpp", ".cpp"):
            rel = path.relative_to(base).as_posix()
            files[rel] = path.read_text(encoding="utf-8", errors="replace")
    return files


def make_frontend(fam, engine, root):
    """The family's libclang frontend, or None for the token engine and for
    a family without one."""
    if engine == "token" or fam.frontend is None:
        return None
    try:
        return fam.frontend(root)
    except Exception as exc:  # noqa: ImportError or a libclang that won't load
        if engine == "libclang":
            usage_error(f"{tool(fam)}: libclang unavailable: {exc}")
        note(fam, f"libclang unavailable ({exc}); using token frontend")
        return None


def analyze(fam, files, base, engine, root):
    """Run one family over files ({rel: text}, rel relative to base)."""
    frontend = make_frontend(fam, engine, root)
    units = None
    if frontend is not None:
        units = {}
        for rel, text in files.items():
            try:
                units[rel] = frontend.units(str(base / rel), text)
            except Exception as exc:  # noqa: any libclang failure -> tokens
                note(fam, f"{rel}: libclang failed ({exc}); "
                          f"using token frontend")
                units[rel] = None
    return fam.analyze(files, units, root)


# ---------------------------------------------------------------------------
# Tree scan
# ---------------------------------------------------------------------------


def emit(results, n_files, fmt):
    """Print [(family, findings)] as text, json or github annotations."""
    if fmt == "json":
        print(json.dumps({
            "findings": [{"file": f.path, "line": f.line, "rule": f.rule,
                          "message": f.message}
                         for _fam, findings in results for f in findings],
            "files_scanned": n_files,
        }, indent=2))
        return
    for fam, findings in results:
        for f in findings:
            if fmt == "github":
                msg = f.message.replace("%", "%25").replace("\n", "%0A")
                print(f"::error file={f.path},line={f.line},"
                      f"title={tool(fam)} {f.rule}::{msg}")
            else:
                print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        if findings:
            print(f"\n{PROG} {tool(fam)}: {len(findings)} finding(s) "
                  f"in {n_files} file(s)")
        else:
            print(f"{PROG} {tool(fam)}: OK ({n_files} files clean)")


def scan(families, root, engine, fmt):
    if not (root / "src").is_dir():
        usage_error(f"no src/ under {root}")
    files = read_sources(root, root / "src")
    results = [(fam, analyze(fam, files, root, engine, root))
               for fam in families]
    emit(results, len(files), fmt)
    return 1 if any(findings for _fam, findings in results) else 0


# ---------------------------------------------------------------------------
# Corpus expectation mode
# ---------------------------------------------------------------------------


def expectations(fam, files):
    expected = set()
    for rel, text in files.items():
        for line_no, line in enumerate(text.splitlines(), start=1):
            m = fam.expect.search(line)
            if m:
                for rule in m.group(1).split(","):
                    expected.add((rel, line_no, rule.strip()))
    return expected


def run_corpus(families, corpus, root, engine):
    if not corpus.is_dir():
        usage_error(f"no corpus dir {corpus}")
    files = read_sources(corpus, corpus)
    rc = 0
    for fam in families:
        expected = expectations(fam, files)
        got = {}
        for f in analyze(fam, files, corpus, engine, root):
            got.setdefault(f.key(), f.message)
        mismatches = [f"MISSED   {p}:{line} [{rule}] "
                      f"(expected violation did not fire)"
                      for p, line, rule in sorted(expected - got.keys())]
        mismatches += [f"SPURIOUS {p}:{line} [{rule}] {got[(p, line, rule)]}"
                       for p, line, rule in sorted(got.keys() - expected)]
        for m in mismatches:
            print(m)
        if mismatches:
            print(f"{PROG} {tool(fam)} --corpus: FAIL "
                  f"({len(mismatches)} mismatch(es))")
            rc = 1
        else:
            print(f"{PROG} {tool(fam)} --corpus: OK ({len(expected)} "
                  f"expectations over {len(files)} files)")
    return rc


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------


def wrapped(fam, snippet):
    prelude, epilogue = fam.snippet_wrap
    return prelude + snippet + epilogue


def corpus_failure_path(fam):
    """Corpus mode must fail on a throwaway corpus holding one expectation
    that does not fire and one finding on an unmarked line: exit 1, one
    MISSED line and one SPURIOUS line."""
    rule, snippets = next(iter(fam.bad.items()))
    text = (wrapped(fam, snippets[0]) +  # fires on an unmarked line
            f"\n// {tool(fam)}:expect {rule}\n")  # marks a clean line
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        (corpus / "mismatch.cpp").write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run_corpus([fam], corpus, None, "token")
    lines = out.getvalue().splitlines()
    missed = [ln for ln in lines if ln.startswith("MISSED ")]
    spurious = [ln for ln in lines if ln.startswith("SPURIOUS ")]
    if rc == 1 and len(missed) == 1 and len(spurious) == 1:
        return []
    return [f"corpus mode should exit 1 with one MISSED and one SPURIOUS "
            f"line; got exit {rc}:\n" + "\n".join(lines)]


def selftest(families):
    rc = 0
    for fam in families:
        failures = []
        for rule, snippets in fam.bad.items():
            for snippet in snippets:
                found = fam.analyze({"<snippet>.cpp": wrapped(fam, snippet)},
                                    None, None)
                if not any(f.rule == rule for f in found):
                    failures.append(f"[{rule}] should fire on:\n{snippet}")
        for snippet in fam.good:
            for f in fam.analyze({"<snippet>.cpp": wrapped(fam, snippet)},
                                 None, None):
                failures.append(f"[{f.rule}] should NOT fire "
                                f"(line {f.line}: {f.message}) on:\n{snippet}")
        failures += corpus_failure_path(fam)
        for f in failures:
            print(f)
        n_bad = sum(len(s) for s in fam.bad.values())
        print(f"{PROG} {tool(fam)} --selftest: " +
              ("FAIL" if failures else
               f"OK ({n_bad} bad, {len(fam.good)} good snippets, "
               f"corpus failure path)"))
        if failures:
            rc = 1
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rules", default=",".join(FAMILIES),
                    help="comma-separated rule families to run: "
                         f"{', '.join(FAMILIES)} (default: all)")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).parent.parent,
                    help="repository root (contains src/)")
    ap.add_argument("--engine", choices=("token", "libclang", "auto"),
                    default="token", help="frontend (default: token)")
    ap.add_argument("--format", choices=("text", "json", "github"),
                    default="text", help="scan output format")
    ap.add_argument("--selftest", action="store_true",
                    help="check the rules against embedded snippets")
    ap.add_argument("--corpus", type=Path, default=None,
                    help="run expectation mode over a violation corpus dir")
    args = ap.parse_args()
    names = [n.strip() for n in args.rules.split(",") if n.strip()]
    unknown = [n for n in names if n not in FAMILIES]
    if unknown or not names:
        ap.error(f"--rules: unknown family {','.join(unknown) or '(none)'}; "
                 f"choose from {','.join(FAMILIES)}")
    families = [FAMILIES[n] for n in dict.fromkeys(names)]
    if args.selftest:
        return selftest(families)
    root = args.root.resolve()
    if args.corpus is not None:
        return run_corpus(families, args.corpus, root, args.engine)
    return scan(families, root, args.engine, args.format)


if __name__ == "__main__":
    sys.exit(main())
