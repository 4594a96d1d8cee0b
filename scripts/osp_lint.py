#!/usr/bin/env python3
"""Repo-specific invariant linter for the osp tree.

Generic tools (clang-tidy, the sanitizers) cannot see the invariants this
repository's determinism guarantees hang on: a stray `rand()` in a
decision path silently voids the worker-count-invariance proofs in
test_engine/test_serve, one `%g` in the row renderer breaks the
byte-identical artifacts, an unordered-container iteration feeding a
decision leaks hash-order into traces the suite asserts are canonical.
This linter encodes those rules, with the standard library only, in the
style of check_bench_json.py.

Rules (scripts/osp_lint.py --describe prints this table from the same
registry the checks run from, so it can never drift):

  raw-random          no rand()/srand()/std::random_device/time()/clock(),
                      std::seed_seq, standard engine (mt19937*,
                      minstd_rand*, ranlux*, knuth_b,
                      default_random_engine), standard distribution
                      (std::*_distribution, std::generate_canonical) or
                      std::shuffle/std::sample outside src/util — all
                      randomness must flow through util/rng, the one place
                      an engine is seeded and every draw is defined, so
                      trial seeds stay grid-coordinate pure and streams do
                      not depend on the standard library.
  unordered-iteration no iteration over std::unordered_* in src/core,
                      src/engine, src/net — hash-order leaking into a
                      decision breaks trace determinism.
  wire-float-format   float formatting in the JSON layer (src/api) only
                      via the sanctioned "%.17g" (row_json) form;
                      iostream float manipulators are banned there too.
  layering            a quoted include names the including file's own
                      src/ directory or one of a lower rank on the layer
                      map: util; hash, field; core; algos, design, gen,
                      stats, testing; engine; net; api — so no lower layer
                      reaches up into one built on it.
  assert-side-effect  no assert() whose argument mutates state (++/--/
                      assignment/container mutation): NDEBUG builds would
                      change behavior.
  header-hygiene      public headers start with #pragma once, never say
                      `using namespace`, and every quoted include must
                      resolve inside src/.
  nolint-justification NOLINT must name its check and carry a reason:
                      `NOLINT(check-name)` plus trailing justification.

Waivers: append `// osp-lint: allow(<rule-id>) <justification>` to the
offending line (or put it alone on the line above).  A waiver without a
justification is itself an error — the same contract the tidy baseline
enforces for NOLINT.

Usage: scripts/osp_lint.py [--root DIR] [--describe] [--selftest]
       exit 0 clean, 1 findings, 2 usage error.
--selftest runs the rules over tests/lint_fixtures/ (a tree of known-bad
snippets annotated with `osp-lint-expect: <rule-id>` lines) and fails if
any expected finding does not fire, any unexpected one does, or any rule
has no fixture exercising it.
"""

import pathlib
import re
import sys

# ----------------------------------------------------------------------
# Source scanning: rules run over comment- and string-stripped text so a
# pattern in documentation or a log message can never trip them.  Masked
# regions are replaced character-for-character (newlines kept) so line
# numbers survive; string literal *contents* are collected separately for
# the rules that inspect format strings.


class SourceFile:
    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel  # repo-relative, posix separators
        self.text = text
        self.code, self.strings, self.comments = _split_source(text)
        self.code_lines = self.code.split("\n")
        self.raw_lines = text.split("\n")
        self.comment_lines = self.comments.split("\n")

    def line_of(self, offset):
        return self.code.count("\n", 0, offset) + 1


def _split_source(text):
    """Returns (code, strings, comments): three same-shape views of text.

    code keeps code with comments and string/char literal bodies blanked;
    strings keeps ONLY string-literal bodies (so a format-string scan can
    never match a modulo expression); comments keeps only comment bodies.
    Newlines survive in all three so line numbers agree.  Raw strings are
    not handled (the tree does not use them); the fixture selftest keeps
    this honest.
    """
    code = []
    strings = []
    comments = []

    def emit(c, in_code=False, in_strings=False, in_comments=False):
        code.append(c if in_code or c == "\n" else " ")
        strings.append(c if in_strings or c == "\n" else " ")
        comments.append(c if in_comments or c == "\n" else " ")

    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                emit(c)
                emit(nxt)
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                emit(c)
                emit(nxt)
                i += 2
                continue
            if c == '"':
                state = STRING
            elif c == "'":
                state = CHAR
            emit(c, in_code=True)
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
            emit(c, in_comments=True)
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                emit(c)
                emit(nxt)
                i += 2
                continue
            emit(c, in_comments=True)
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\" and nxt:
                emit(c, in_strings=(state == STRING))
                emit(nxt, in_strings=(state == STRING))
                i += 2
                continue
            if c == quote:
                state = NORMAL
                emit(c, in_code=True)
            elif c == "\n":  # unterminated literal; keep line counts sane
                state = NORMAL
                emit(c)
            else:
                emit(c, in_strings=(state == STRING))
        i += 1
    return "".join(code), "".join(strings), "".join(comments)


# ----------------------------------------------------------------------
# Findings and waivers.


class Finding:
    def __init__(self, rel, line, rule, message):
        self.rel = rel
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


WAIVER = re.compile(r"osp-lint:\s*allow\(([\w-]+)\)(.*)")


def collect_waivers(src, findings):
    """Maps (rule, line) -> waived; a bare waiver covers the next line."""
    waived = set()
    for lineno, line in enumerate(src.comment_lines, start=1):
        m = WAIVER.search(line)
        if not m:
            continue
        rule, justification = m.group(1), m.group(2).strip()
        if not justification:
            findings.append(Finding(
                src.rel, lineno, "nolint-justification",
                "osp-lint waiver carries no justification "
                "(write: // osp-lint: allow(%s) <why this is safe>)"
                % rule))
            continue
        waived.add((rule, lineno))
        # A waiver on its own line (no code before the comment) covers
        # the following line.
        if src.code_lines[lineno - 1].strip() == "":
            waived.add((rule, lineno + 1))
    return waived


# ----------------------------------------------------------------------
# Rule implementations.  Each takes the scanned file and appends
# Finding objects.  `scope` is a predicate over the repo-relative path.


def in_dirs(*prefixes):
    def pred(rel):
        return any(rel.startswith(p) for p in prefixes)
    return pred


def outside_dirs(*prefixes):
    def pred(rel):
        return rel.startswith("src/") and not any(
            rel.startswith(p) for p in prefixes)
    return pred


RAW_RANDOM_PATTERNS = (
    (re.compile(r"(?<![\w.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bseed_seq\b"), "std::seed_seq"),
    (re.compile(r"\b(?:mt19937|minstd_rand|ranlux)\w*|\bknuth_b\b|"
                r"\bdefault_random_engine\b"), "a standard random engine"),
    (re.compile(r"\bstd::\w+_distribution\b|\bstd::generate_canonical\b"),
     "a standard distribution"),
    (re.compile(r"\bstd::(?:shuffle|sample)\b"), "std::shuffle/std::sample"),
    (re.compile(r"(?<![\w.])time\s*\("), "time()"),
    (re.compile(r"(?<![\w.])clock\s*\("), "clock()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
    (re.compile(r"\bsteady_clock\b|\bsystem_clock\b|"
                r"\bhigh_resolution_clock\b"), "std::chrono clock"),
)


def rule_raw_random(src, findings):
    for lineno, line in enumerate(src.code_lines, start=1):
        for pattern, what in RAW_RANDOM_PATTERNS:
            if pattern.search(line):
                findings.append(Finding(
                    src.rel, lineno, "raw-random",
                    f"{what} outside src/util — route randomness through "
                    f"util/rng (and timing through the bench layer) so "
                    f"decisions stay a pure function of the trial seed"))


UNORDERED_DECL = re.compile(
    r"std::unordered_(?:multi)?(?:map|set)\s*<[^;{}()]*>[&\s]+(\w+)")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*([^)]+)\)")
ITER_CALL = re.compile(r"\b(\w+)\s*\.\s*(?:c?r?begin|c?r?end)\s*\(")


def rule_unordered_iteration(src, findings):
    names = set(UNORDERED_DECL.findall(src.code))
    for lineno, line in enumerate(src.code_lines, start=1):
        hits = []
        for m in RANGE_FOR.finditer(line):
            expr = m.group(1).strip()
            expr_name = re.match(r"(\w+)", expr)
            if "unordered_" in expr or (
                    expr_name and expr_name.group(1) in names):
                hits.append(f"range-for over '{expr}'")
        for m in ITER_CALL.finditer(line):
            if m.group(1) in names:
                hits.append(f"iterator walk of '{m.group(1)}'")
        for what in hits:
            findings.append(Finding(
                src.rel, lineno, "unordered-iteration",
                f"{what}: hash-order iteration in a decision path leaks "
                f"platform-dependent ordering into traces the determinism "
                f"suite asserts are canonical — use a sorted container or "
                f"an index-ordered walk"))


FLOAT_CONVERSION = re.compile(
    r"%[-+ #0]*(?:\d+|\*)?(?:\.(?:\d+|\*))?(?:hh|h|ll|l|L|z|j|t)?"
    r"([aAeEfFgG])")
SANCTIONED_FLOAT = ("%.17g",)
IOS_FLOAT_MANIP = re.compile(
    r"\bsetprecision\b|std::\s*(?:fixed|scientific|hexfloat|defaultfloat)\b")


def rule_wire_float_format(src, findings):
    for lineno, line in enumerate(src.strings.split("\n"), start=1):
        for m in FLOAT_CONVERSION.finditer(line):
            if m.group(0) in SANCTIONED_FLOAT:
                continue
            findings.append(Finding(
                src.rel, lineno, "wire-float-format",
                f"float conversion '{m.group(0)}' in the JSON layer — only "
                f"the sanctioned '%.17g' (row_json) form keeps the JSON "
                f"artifacts and shard merges byte-identical"))
    for lineno, line in enumerate(src.code_lines, start=1):
        if IOS_FLOAT_MANIP.search(line):
            findings.append(Finding(
                src.rel, lineno, "wire-float-format",
                "iostream float manipulator in the JSON layer — "
                "format through the sanctioned snprintf helpers instead"))


ASSERT_CALL = re.compile(r"(?<!static_)(?<!_)\bassert\s*\(")
MUTATION = re.compile(
    r"\+\+|--|(?<![=!<>+\-*/%&|^])=(?![=])|"
    r"\b(?:push_back|pop_back|push|pop|erase|insert|emplace|emplace_back|"
    r"clear|reset|resize)\s*\(")


def rule_assert_side_effect(src, findings):
    for m in ASSERT_CALL.finditer(src.code):
        arg, end = _balanced(src.code, m.end() - 1)
        if arg is None:
            continue
        if MUTATION.search(arg):
            findings.append(Finding(
                src.rel, src.line_of(m.start()), "assert-side-effect",
                f"assert() argument mutates state ({arg.strip()!r}) — "
                f"NDEBUG builds compile the mutation out and change "
                f"behavior; hoist the side effect out of the assert"))


def _balanced(text, open_paren):
    """Returns (inside, end_index) for the parenthesized region."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i], i
    return None, None


USING_NAMESPACE = re.compile(r"\busing\s+namespace\b")
QUOTED_INCLUDE = re.compile(r'\s*#\s*include\s+"([^"]+)"')


def rule_header_hygiene(src, findings, root):
    stripped = [l for l in src.code_lines if l.strip()]
    first = stripped[0].strip() if stripped else ""
    if first != "#pragma once":
        findings.append(Finding(
            src.rel, 1, "header-hygiene",
            "public header does not open with #pragma once"))
    for lineno, line in enumerate(src.code_lines, start=1):
        if USING_NAMESPACE.search(line):
            findings.append(Finding(
                src.rel, lineno, "header-hygiene",
                "`using namespace` in a public header pollutes every "
                "includer's scope"))
    _check_includes(src, findings, root)


def _check_includes(src, findings, root):
    for lineno, line in enumerate(src.raw_lines, start=1):
        m = QUOTED_INCLUDE.match(line)
        if not m:
            continue
        target = m.group(1)
        from_src = root / "src" / target
        from_here = (root / src.rel).parent / target
        if not from_src.is_file() and not from_here.is_file():
            findings.append(Finding(
                src.rel, lineno, "header-hygiene",
                f'#include "{target}" resolves nowhere under src/ — '
                f"stale path"))


# The layer map, lowest rank first; directories of one rank are peers.
LAYERS = ("util", "hash field", "core", "algos design gen stats testing",
          "engine", "net", "api")
LAYER_RANK = {d: rank for rank, dirs in enumerate(LAYERS)
              for d in dirs.split()}
LAYER_MAP = "; ".join(", ".join(dirs.split()) for dirs in LAYERS)


def rule_layering(src, findings):
    own = src.rel.split("/")[1]
    for lineno, line in enumerate(src.raw_lines, start=1):
        m = QUOTED_INCLUDE.match(line)
        if not m or "/" not in m.group(1):
            continue  # a file of the same directory
        target = m.group(1).split("/")[0]
        # An unranked directory may include only itself and is below none.
        if target == own or (LAYER_RANK.get(target, len(LAYERS)) <
                             LAYER_RANK.get(own, -1)):
            continue
        findings.append(Finding(
            src.rel, lineno, "layering",
            f'#include "{m.group(1)}" does not point down the layer map '
            f"({LAYER_MAP}) from src/{own} — include only the file's own "
            f"directory and lower ranks (a new directory needs a rank in "
            f"LAYERS)"))


NOLINT = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?")
NOLINT_OK = re.compile(
    r"NOLINT(?:NEXTLINE|BEGIN|END)?\([\w,.\- *]+\)\s*\S.{9,}")


def rule_nolint_justification(src, findings):
    for lineno, line in enumerate(src.comment_lines, start=1):
        if NOLINT.search(line) and not NOLINT_OK.search(line):
            findings.append(Finding(
                src.rel, lineno, "nolint-justification",
                "NOLINT must name the suppressed check and justify it: "
                "`NOLINT(check-name) -- why this is a false positive`"))


# ----------------------------------------------------------------------
# Rule registry: (id, scope predicate, per-file fn, description).

RULES = (
    ("raw-random", outside_dirs("src/util/"), rule_raw_random,
     "no rand()/srand()/std::random_device/time()/clock()/chrono clocks, "
     "std::seed_seq, standard engines, standard distributions "
     "(std::*_distribution, std::generate_canonical) or "
     "std::shuffle/std::sample outside src/util — randomness and wall time "
     "must not reach decision paths, and only util/rng seeds an engine and "
     "defines a draw"),
    ("unordered-iteration",
     in_dirs("src/core/", "src/engine/", "src/net/"),
     rule_unordered_iteration,
     "no iteration over std::unordered_* in src/core, src/engine, "
     "src/net — hash order must not leak into decisions or traces"),
    ("wire-float-format",
     in_dirs("src/api/"), rule_wire_float_format,
     "JSON float output only via the sanctioned '%.17g' form; no iostream "
     "float manipulators in that layer"),
    ("layering", in_dirs("src/"), rule_layering,
     "a quoted include names the file's own src/ directory or one of a "
     "lower rank on the layer map: util; hash, field; core; algos, design, "
     "gen, stats, testing; engine; net; api"),
    ("assert-side-effect", in_dirs("src/"), rule_assert_side_effect,
     "no assert() whose argument mutates state — NDEBUG builds would "
     "change behavior"),
    ("header-hygiene", in_dirs("src/"), rule_header_hygiene,
     "public headers open with #pragma once, never `using namespace`, "
     "and quoted includes must resolve under src/"),
    ("nolint-justification", in_dirs("src/"), rule_nolint_justification,
     "NOLINT and osp-lint waivers must name their check and carry a "
     "written justification"),
)

RULE_IDS = tuple(r[0] for r in RULES)


def scan_tree(root):
    sources = []
    src_root = root / "src"
    if not src_root.is_dir():
        raise SystemExit(f"osp_lint: no src/ directory under {root}")
    for path in sorted(src_root.rglob("*")):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        rel = path.relative_to(root).as_posix()
        sources.append(SourceFile(path, rel, path.read_text()))
    return sources


def run_rules(root, sources):
    findings = []
    waivers = {}
    for src in sources:
        waivers[src.rel] = collect_waivers(src, findings)
    for rule_id, scope, fn, _ in RULES:
        for src in sources:
            if not scope(src.rel):
                continue
            if rule_id == "header-hygiene":
                if src.rel.endswith(".hpp"):
                    fn(src, findings, root)
            else:
                fn(src, findings)
    kept = []
    for f in findings:
        if (f.rule, f.line) in waivers.get(f.rel, set()):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.rel, f.line, f.rule))
    return kept


# ----------------------------------------------------------------------
# Selftest over tests/lint_fixtures/: every fixture file annotates the
# findings it must produce with `osp-lint-expect: <rule-id>` lines (one
# per expected finding; rule granularity, not line granularity, so
# fixtures stay readable).  The selftest fails on a missing expected
# finding, an unexpected finding, or a rule no fixture exercises.

EXPECT = re.compile(r"osp-lint-expect:\s*([\w-]+)")


def selftest(repo_root):
    fixture_root = repo_root / "tests" / "lint_fixtures"
    if not fixture_root.is_dir():
        raise SystemExit(f"osp_lint: fixture tree {fixture_root} missing")
    sources = scan_tree(fixture_root)
    if not sources:
        raise SystemExit("osp_lint: fixture tree holds no sources")
    findings = run_rules(fixture_root, sources)

    failures = []
    got = {}
    for f in findings:
        got.setdefault(f.rel, []).append(f.rule)
    for src in sources:
        expected = EXPECT.findall(src.text)
        actual = got.get(src.rel, [])
        for rule in set(expected):
            want, have = expected.count(rule), actual.count(rule)
            if have != want:
                failures.append(
                    f"{src.rel}: expected {want} finding(s) of [{rule}], "
                    f"linter produced {have}")
        for rule in set(actual):
            if rule not in expected:
                failures.append(
                    f"{src.rel}: unexpected finding(s) of [{rule}] "
                    f"(add an osp-lint-expect line if intentional)")
    exercised = {f.rule for f in findings}
    for rule_id in RULE_IDS:
        if rule_id not in exercised:
            failures.append(
                f"rule [{rule_id}] fired on no fixture — add a known-bad "
                f"snippet under tests/lint_fixtures/ or the rule can rot")

    if failures:
        for msg in failures:
            print(f"osp_lint selftest: {msg}", file=sys.stderr)
        return 1
    print(f"osp_lint selftest: OK ({len(sources)} fixtures, "
          f"{len(findings)} expected findings, all {len(RULE_IDS)} rules "
          f"exercised)")
    return 0


def describe():
    print("osp_lint rules (what this linter enforces):")
    for rule_id, scope, _, description in RULES:
        print(f"  {rule_id}:")
        for chunk in _wrap(description, 66):
            print(f"      {chunk}")
    print("  waiver syntax: // osp-lint: allow(<rule-id>) <justification>")
    print("  (a waiver without a justification is itself a finding)")
    print("adding a rule: implement rule_<name>(src, findings), register")
    print("it in RULES with a scope predicate and description, and add a")
    print("known-bad fixture under tests/lint_fixtures/ — the selftest")
    print("fails any rule with no fixture exercising it.")
    return 0


def _wrap(text, width):
    words, line = text.split(), ""
    for w in words:
        if line and len(line) + 1 + len(w) > width:
            yield line
            line = w
        else:
            line = f"{line} {w}" if line else w
    if line:
        yield line


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    args = argv[1:]
    if "--describe" in args:
        return describe()
    if "--selftest" in args:
        return selftest(root)
    if args and args[0] == "--root":
        if len(args) < 2:
            raise SystemExit("osp_lint: --root needs a directory")
        root = pathlib.Path(args[1])
        args = args[2:]
    if args:
        raise SystemExit(f"usage: osp_lint.py [--root DIR] [--describe] "
                         f"[--selftest] (unknown: {' '.join(args)})")
    sources = scan_tree(root)
    findings = run_rules(root, sources)
    for f in findings:
        print(f, file=sys.stderr)
    if findings:
        print(f"osp_lint: {len(findings)} finding(s) over "
              f"{len(sources)} files", file=sys.stderr)
        return 1
    print(f"osp_lint: OK ({len(sources)} files clean, "
          f"{len(RULE_IDS)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
