#!/usr/bin/env python3
"""fedl-lint: the determinism/budget contract of this repo, enforced as code.

Every rule here encodes an invariant that no generic linter knows about but
that the reproduction's claims rest on (bit-identical decision traces at any
--jobs x --threads combination, the hard budget ledger of constraint (3a),
counter-based per-client RNG streams that make runs resumable). The rules are
AST-lite: regex plus file context over comment/string-stripped source. That
is deliberate — the linter must run anywhere Python runs, with zero
dependencies, in well under a second for the whole tree.

Each rule has an ID, a one-line rationale (printed with every finding and by
--list-rules), and an escape hatch: a `// fedl-lint: allow(RULE)` comment on
the offending line or the line directly above suppresses that rule there.
DESIGN.md §10 documents every rule together with the runtime test that backs
the same invariant dynamically.

Usage:
  fedl_lint.py --root REPO               lint src/ under REPO
  fedl_lint.py --root REPO --compile-headers --compiler c++
                                         also compile-check every public
                                         header for self-containedness
  fedl_lint.py --self-test DIR           run the fixture suite: every rule
                                         must fire on its known-bad snippet
                                         and be suppressed by allow()
  fedl_lint.py --list-rules              print the rule table

Exit codes: 0 clean, 1 findings (or fixture expectations violated),
2 usage/environment error.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

# --------------------------------------------------------------------------
# Rule table. `scope` is a predicate over the repo-relative posix path; most
# rules only apply inside src/ (tests and benches may legitimately use e.g.
# std::random_device to build adversarial inputs).


def _in_src(path):
    return path.startswith("src/")


def _in_src_outside_budget(path):
    return path.startswith("src/") and path not in (
        "src/core/budget.h", "src/core/budget.cpp")


RULES = {}


class Rule:
    def __init__(self, rule_id, rationale, scope, check):
        self.id = rule_id
        self.rationale = rationale
        self.scope = scope
        self.check = check  # fn(path, ctx) -> [(line_no, message)]
        RULES[rule_id] = self


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return (f"{self.path}:{self.line}: [{self.rule.id}] {self.message}\n"
                f"    rationale: {self.rule.rationale}\n"
                f"    suppress : // fedl-lint: allow({self.rule.id})")


# --------------------------------------------------------------------------
# Source preprocessing: strip comments and string/char literal *contents*
# while preserving line structure, so rules never fire on prose. The allow()
# annotations are harvested from the raw text before stripping.

_ALLOW_RE = re.compile(r"//\s*fedl-lint:\s*allow\(([a-z0-9_,\s-]+)\)")


def harvest_allows(raw_lines):
    """Map line number (1-based) -> set of rule ids allowed on that line."""
    allows = {}
    for i, line in enumerate(raw_lines, 1):
        m = _ALLOW_RE.search(line)
        if m:
            allows[i] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return allows


def strip_comments_and_strings(text, keep_strings=False):
    """Blank out comments (and optionally string/char contents) in-place.

    Replaced characters become spaces so line/column structure survives.
    Handles //, /* */, "..." with escapes, '...' with escapes. Raw strings
    are treated as plain strings (good enough: the repo does not use R"()"
    delimiters with embedded quotes in lintable positions).
    """
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = STRING
                i += 1
                continue
            if c == "'":
                state = CHAR
                i += 1
                continue
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
            else:
                out[i] = " "
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = NORMAL
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\":
                if not keep_strings and c != "\n":
                    out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    if not keep_strings:
                        out[i + 1] = " "
                    i += 2
                    continue
            elif c == quote:
                state = NORMAL
            elif c != "\n" and not keep_strings:
                out[i] = " "
        i += 1
    return "".join(out)


class FileContext:
    """Raw + stripped views of one file, shared by all rules."""

    def __init__(self, path, text):
        self.path = path
        self.raw = text
        self.raw_lines = text.splitlines()
        self.allows = harvest_allows(self.raw_lines)
        self.code = strip_comments_and_strings(text)           # no strings
        self.code_lines = self.code.splitlines()
        self.code_with_strings = strip_comments_and_strings(
            text, keep_strings=True)                           # strings kept
        self.code_with_strings_lines = self.code_with_strings.splitlines()

    def allowed(self, line_no, rule_id):
        for ln in (line_no, line_no - 1):
            if rule_id in self.allows.get(ln, set()):
                return True
        return False

    def body_extent(self, start_idx):
        """Lines [start_idx, end) of the brace-balanced block opened at or
        after start_idx (0-based index into code_lines). Falls back to the
        next two lines when no brace opens (single-statement loop)."""
        depth = 0
        opened = False
        for j in range(start_idx, min(start_idx + 400, len(self.code_lines))):
            for ch in self.code_lines[j]:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
                    if opened and depth <= 0:
                        return start_idx, j + 1
            if not opened and j > start_idx:
                return start_idx, min(start_idx + 3, len(self.code_lines))
        return start_idx, min(start_idx + 400, len(self.code_lines))


# --------------------------------------------------------------------------
# FDL001 ambient-rng — no std::rand / random_device / time( in src/.

_AMBIENT_RNG_RE = re.compile(
    r"\bstd::rand\b|(?<![\w.:])s?rand\s*\(|\brandom_device\b"
    r"|\bstd::time\s*\(|(?<![\w.:])time\s*\(")


def check_ambient_rng(path, ctx):
    findings = []
    for i, line in enumerate(ctx.code_lines, 1):
        m = _AMBIENT_RNG_RE.search(line)
        if m:
            findings.append((i, f"ambient RNG/clock seed `{m.group(0).strip()}`"
                                " — use fedl::common::Rng counter-based"
                                " streams keyed by (seed, client, epoch)"))
    return findings


Rule(
    "ambient-rng",
    "std::rand/random_device/time() break counter-based per-client RNG "
    "streams, resume, and run-to-run reproducibility (backed by "
    "engine_parallel_test bit-identity)",
    _in_src, check_ambient_rng)


# --------------------------------------------------------------------------
# FDL002 unordered-iteration — no iteration over std::unordered_{map,set}
# that feeds a float accumulation or trace/metric emission. Hash-table order
# is implementation- and seed-dependent; float addition is not associative,
# so such loops destroy bit-identity of traces and EpochOutcomes.

_UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*[&*]?\s*(\w+)")
_SINK_RE = re.compile(
    r"\+=|\.observe\s*\(|\.add\s*\(|\.set\s*\(|<<|\bwrite|\bemit|\btrace")


def check_unordered_iteration(path, ctx):
    names = set(_UNORDERED_DECL_RE.findall(ctx.code))
    findings = []
    for i, line in enumerate(ctx.code_lines, 1):
        iterated = None
        m = re.search(r"for\s*\([^;)]*:\s*([A-Za-z_][\w.\->]*)\s*\)", line)
        if m:
            base = re.split(r"[.\->]", m.group(1))[-1] or m.group(1)
            if base in names or "unordered_" in m.group(1):
                iterated = m.group(1)
        if iterated is None:
            m = re.search(r"=\s*([A-Za-z_]\w*)\s*\.\s*begin\s*\(\)", line)
            if m and m.group(1) in names:
                iterated = m.group(1)
        if iterated is None:
            continue
        lo, hi = ctx.body_extent(i - 1)
        body = "\n".join(ctx.code_lines[lo:hi])
        if _SINK_RE.search(body):
            findings.append(
                (i, f"iteration over unordered container `{iterated}` feeds "
                    "an accumulation/emission — hash order is nondeterministic;"
                    " copy keys into a sorted vector first"))
    return findings


Rule(
    "unordered-iteration",
    "hash-table iteration order is unspecified; feeding it into float "
    "accumulation or trace emission breaks byte-identical traces (backed by "
    "scheduler_test serial-vs-jobs trace bit-identity)",
    _in_src, check_unordered_iteration)


# --------------------------------------------------------------------------
# FDL004 ledger-mutation — BudgetLedger state changes only through charge().
# Two sub-checks: (a) the class itself may not grow new mutating members or
# friends; (b) nobody may const_cast their way around it.

_METHOD_DECL_RE = re.compile(
    r"^\s*(?!//)(?:[\w:<>,&*~\[\]\s]+?\s)??(~?\w+)\s*\([^;{}]*\)\s*"
    r"(const\b[^;{]*)?[;{]")
_LEDGER_CONST_MUTATORS = {"BudgetLedger", "~BudgetLedger", "charge"}


def check_ledger_mutation(path, ctx):
    findings = []
    # (b) const_cast / memory smashing aimed at the ledger, anywhere in src/.
    for i, line in enumerate(ctx.code_lines, 1):
        if re.search(r"const_cast\s*<[^>]*BudgetLedger", line):
            findings.append(
                (i, "const_cast around BudgetLedger — budget state may only "
                    "change through BudgetLedger::charge()"))
    # (a) any declaration of `class BudgetLedger` outside budget.h must not
    # exist, and any in-file class body must only expose charge() as mutator.
    m = re.search(r"\bclass\s+BudgetLedger\b", ctx.code)
    if m:
        start_line = ctx.code[:m.start()].count("\n")
        lo, hi = ctx.body_extent(start_line)
        body_lines = ctx.code_lines[lo:hi]
        private_from = None
        for k, bl in enumerate(body_lines):
            if re.search(r"\bprivate\s*:", bl):
                private_from = k
                break
        public_body = body_lines[:private_from] if private_from else body_lines
        for k, bl in enumerate(public_body):
            dm = _METHOD_DECL_RE.match(bl)
            if not dm:
                continue
            name, const_qual = dm.group(1), dm.group(2)
            if const_qual or name in _LEDGER_CONST_MUTATORS:
                continue
            if re.search(r"\bstatic\b", bl):
                continue
            findings.append(
                (lo + k + 1,
                 f"BudgetLedger declares non-const member `{name}` — "
                 "charge() must stay the only mutating entry point"))
        for k, bl in enumerate(body_lines):
            if re.search(r"\bfriend\b", bl):
                findings.append(
                    (lo + k + 1,
                     "friend declaration inside BudgetLedger — friends could "
                     "mutate spent_ bypassing charge()'s overdraw FEDL_CHECK"))
    return findings


Rule(
    "ledger-mutation",
    "constraint (3a) is a hard budget: charge() FEDL_CHECKs that spent never "
    "exceeds total; any second mutation path can silently overdraw (backed "
    "by budget_invariant_test: 8 strategies x 20 seeds never overdraw)",
    _in_src_outside_budget, check_ledger_mutation)


# --------------------------------------------------------------------------
# FDL005 naked-new — no naked new/malloc in src/. Ownership goes through
# containers / unique_ptr; the three intentionally-leaked singletons carry
# an allow() with their justification.

_NAKED_NEW_RE = re.compile(
    r"(?<![\w.])new\b(?!\s*\()|\b(?:malloc|calloc|realloc|free)\s*\(")


def check_naked_new(path, ctx):
    findings = []
    for i, line in enumerate(ctx.code_lines, 1):
        m = _NAKED_NEW_RE.search(line)
        if m:
            findings.append(
                (i, f"naked allocation `{m.group(0).strip()}` — use "
                    "std::vector/std::unique_ptr (or justify a leaked "
                    "singleton with an allow comment)"))
    return findings


Rule(
    "naked-new",
    "raw new/malloc invites leaks and double frees under the engine's "
    "exception paths; ASan (`FEDL_SANITIZE=address`, ctest -L sanitize) "
    "backs this at runtime",
    _in_src, check_naked_new)


# --------------------------------------------------------------------------
# FDL006 metric-name — metric-name literals must be dotted snake.case
# (`subsystem.metric_name`), matching the registry convention that the
# validate_trace.py / plotting toolchain keys on.

_METRIC_SITE_RE = re.compile(
    r"\b(?:Counter|Gauge|Histogram)\s+\w+\s*[({]\s*\"([^\"]*)\""
    r"|\bregister_(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
_METRIC_NAME_OK_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def check_metric_name(path, ctx):
    findings = []
    for i, line in enumerate(ctx.code_with_strings_lines, 1):
        for m in _METRIC_SITE_RE.finditer(line):
            name = m.group(1) if m.group(1) is not None else m.group(2)
            if not _METRIC_NAME_OK_RE.match(name):
                findings.append(
                    (i, f"metric name \"{name}\" is not dotted snake.case "
                        "(`subsystem.metric_name`)"))
    return findings


Rule(
    "metric-name",
    "the metrics registry, BENCH_*.json splicing and plotting scripts key "
    "on `subsystem.metric_name`; off-convention names silently vanish from "
    "dashboards (backed by obs_test JSONL schema golden)",
    _in_src, check_metric_name)


# --------------------------------------------------------------------------
# FDL007 header-self-contained — every public header compiles as the first
# include of a TU. Checked by generating a one-line TU per header and running
# `$CXX -fsyntax-only` over it (enabled with --compile-headers; the CI lint
# target runs it, plain invocations skip it to stay instant).


def check_headers_compile(root, compiler, only_headers=None):
    src_root = os.path.join(root, "src")
    headers = []
    if only_headers is not None:
        headers = list(only_headers)
    else:
        for dirpath, _dirs, files in os.walk(src_root):
            for f in sorted(files):
                if f.endswith(".h"):
                    headers.append(os.path.join(dirpath, f))
    findings = []
    with tempfile.TemporaryDirectory(prefix="fedl_lint_hdr") as tmp:
        for header in headers:
            # Headers under src/ are included the way the codebase includes
            # them (repo-relative, -I src); loose headers (fixtures) resolve
            # against their own directory.
            header = os.path.abspath(header)
            abs_src = os.path.abspath(src_root)
            under_src = (os.path.isdir(abs_src) and
                         os.path.commonpath([abs_src, header]) == abs_src)
            if under_src:
                include_dir, rel = abs_src, os.path.relpath(header, abs_src)
            else:
                include_dir, rel = (os.path.dirname(header),
                                    os.path.basename(header))
            tu = os.path.join(tmp, "tu.cpp")
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{rel}"\n')
            cmd = [compiler, "-std=c++20", "-fsyntax-only",
                   "-I", include_dir, tu]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                first_error = next(
                    (ln for ln in proc.stderr.splitlines() if "error" in ln),
                    proc.stderr.strip().splitlines()[-1]
                    if proc.stderr.strip() else "compile failed")
                findings.append(Finding(
                    os.path.relpath(header, root), 1,
                    RULES["header-self-contained"],
                    f"header does not compile standalone: {first_error}"))
    return findings


Rule(
    "header-self-contained",
    "a header that only compiles after its includers' includes hides its "
    "real dependencies and breaks refactors; the per-header generated TU "
    "check keeps include-what-you-use honest",
    _in_src, lambda path, ctx: [])  # driven by check_headers_compile


# --------------------------------------------------------------------------
# Driver.


def lint_file(root, path, fixture_mode=False):
    """Lint one file; returns a list of Finding. `path` is absolute."""
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    scope_path = f"src/fixture/{os.path.basename(rel)}" if fixture_mode else rel
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        return [Finding(rel, 1, RULES["ambient-rng"], f"unreadable: {e}")]
    ctx = FileContext(rel, text)
    findings = []
    for rule in RULES.values():
        if rule.id == "header-self-contained":
            continue
        if not rule.scope(scope_path):
            continue
        for line_no, message in rule.check(scope_path, ctx):
            if not ctx.allowed(line_no, rule.id):
                findings.append(Finding(rel, line_no, rule, message))
    return findings


def iter_source_files(root):
    src_root = os.path.join(root, "src")
    for dirpath, _dirs, files in os.walk(src_root):
        for f in sorted(files):
            if f.endswith((".h", ".cpp", ".cc", ".hpp")):
                yield os.path.join(dirpath, f)


def run_lint(args):
    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"fedl-lint: no src/ under {root}", file=sys.stderr)
        return 2
    findings = []
    files = ([os.path.abspath(p) for p in args.paths] if args.paths
             else list(iter_source_files(root)))
    for path in files:
        findings.extend(lint_file(root, path))
    if args.compile_headers:
        findings.extend(check_headers_compile(root, args.compiler))
    for finding in findings:
        print(finding)
    count = len(files)
    status = f"{len(findings)} finding(s) in {count} file(s)"
    print(f"fedl-lint: {status}", file=sys.stderr)
    return 1 if findings else 0


# --------------------------------------------------------------------------
# Fixture self-test. Naming contract (tests/lint_fixtures/):
#   <rule-id>__fires[...].{cpp,h}    -> lint must report >=1 <rule-id> finding
#   <rule-id>__allowed[...].{cpp,h}  -> same bad code + allow(); 0 findings
#   <rule-id>__clean[...].{cpp,h}    -> conforming code; 0 findings
# header-self-contained fixtures are compiled with --compiler.


def run_self_test(args):
    fixdir = os.path.abspath(args.self_test)
    if not os.path.isdir(fixdir):
        print(f"fedl-lint: no fixture dir {fixdir}", file=sys.stderr)
        return 2
    failures = []
    checked = 0
    for fname in sorted(os.listdir(fixdir)):
        if not fname.endswith((".cpp", ".h")):
            continue
        m = re.match(r"([a-z0-9-]+)__(fires|allowed|clean)", fname)
        if not m:
            failures.append(f"{fname}: does not follow "
                            "<rule>__<fires|allowed|clean> naming")
            continue
        rule_id, kind = m.group(1), m.group(2)
        if rule_id not in RULES:
            failures.append(f"{fname}: unknown rule id {rule_id!r}")
            continue
        path = os.path.join(fixdir, fname)
        if rule_id == "header-self-contained":
            found = check_headers_compile(
                fixdir, args.compiler, only_headers=[path])
            # allow() inside the header suppresses, mirroring lint_file.
            with open(path, encoding="utf-8") as f:
                allows = harvest_allows(f.read().splitlines())
            if any(rule_id in s for s in allows.values()):
                found = []
            hits = found
        else:
            hits = [f for f in lint_file(fixdir, path, fixture_mode=True)
                    if f.rule.id == rule_id]
            stray = [f for f in lint_file(fixdir, path, fixture_mode=True)
                     if f.rule.id != rule_id]
            if stray:
                failures.append(
                    f"{fname}: unexpected cross-rule finding(s): "
                    + "; ".join(f"[{f.rule.id}] line {f.line}" for f in stray))
        checked += 1
        if kind == "fires" and not hits:
            failures.append(f"{fname}: expected a {rule_id} finding, got none")
        elif kind in ("allowed", "clean") and hits:
            failures.append(
                f"{fname}: expected no findings, got "
                + "; ".join(f"line {f.line}" for f in hits))
    fired = {f for f in os.listdir(fixdir) if "__fires" in f}
    for rule_id in RULES:
        if not any(f.startswith(rule_id + "__") for f in fired):
            failures.append(f"rule {rule_id}: no __fires fixture exercises it")
    for failure in failures:
        print(f"FIXTURE FAIL {failure}")
    print(f"fedl-lint self-test: {checked} fixtures, "
          f"{len(failures)} failure(s)", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".",
                        help="repo root (containing src/)")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: all of src/)")
    parser.add_argument("--compile-headers", action="store_true",
                        help="also compile-check every public header")
    parser.add_argument("--compiler", default=os.environ.get("CXX", "c++"),
                        help="compiler for --compile-headers (default: $CXX)")
    parser.add_argument("--self-test", metavar="FIXTURE_DIR",
                        help="run the fixture suite instead of linting")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args()
    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}\n    {rule.rationale}")
        return 0
    if args.self_test:
        return run_self_test(args)
    return run_lint(args)


if __name__ == "__main__":
    sys.exit(main())
