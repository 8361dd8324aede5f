#!/usr/bin/env python3
"""The lbsim lint suite: four project-specific check families.

Textual heuristics over the C++ sources, so the suite runs on any box
with python3 and no LLVM toolchain. It is the suite's only backend:
ctest (lint_fixtures_python, lint_tree_clean) and
tools/run_static_analysis.sh both run it. The fixture corpus in
tests/lint/fixtures pins its behaviour: every line a check must flag
carries an EXPECT comment. A new check lands here, beside fixtures
that exercise it.

Check families
--------------
lbsim-nondeterminism (model dirs only, see --model-dirs):
  * calls to wall-clock / PRNG / environment sources (rand, time,
    getenv, std::random_device, std::chrono::*_clock::now, ...)
  * range-for loops over std::unordered_{map,set} whose body mutates
    state or stats or produces output (walk sortedKeys() instead)
  * std::map / std::set keyed on pointer values (address-space layout
    leaks into iteration order)
lbsim-uninit-field (everywhere):
  * uninitialized scalar members of *Config/*Stats/*Options/*Timing/
    *Geometry/*Metrics structs — the memo-cache-key and fuzz-replay
    poison of reading indeterminate bytes
lbsim-stat-registry (everywhere):
  * fields of *Stats structs missing from the forEachStatField
    visitor in the same file (the single enumeration that the memo
    cache, serializeStats and firstStatDifference all walk)
lbsim-cross-domain (model dirs only, see --model-dirs):
  * raw concurrency primitives (std::thread, std::mutex, std::atomic,
    std::condition_variable, std::async, ...) declared or used in
    model code. The cycle model is single-threaded: one simulation
    runs on one thread, and parallelism lives at the cell level
    (ExperimentEngine, lbsimd). A primitive in model code threads the
    cycle loop outside a reviewed design (DESIGN.md §13)

Suppression: a `// NOLINT` or `// NOLINT(check-name)` comment on the
flagged line, or `// NOLINTNEXTLINE[(check-name)]` on the line before.

Exit status: 0 when clean, 1 when any finding was reported, 2 on usage
errors.
"""

import argparse
import os
import re
import sys

NONDET = "lbsim-nondeterminism"
UNINIT = "lbsim-uninit-field"
REGISTRY = "lbsim-stat-registry"
CROSSDOMAIN = "lbsim-cross-domain"
ALL_CHECKS = (NONDET, UNINIT, REGISTRY, CROSSDOMAIN)

DEFAULT_MODEL_DIRS = "src/core,src/mem,src/lb,src/baselines,src/power"

# --- nondeterministic calls -------------------------------------------------

NONDET_FUNCS = (
    "rand", "srand", "random", "rand_r", "drand48", "lrand48", "mrand48",
    "getenv", "secure_getenv", "setenv", "putenv",
    "time", "clock", "gettimeofday", "clock_gettime",
)
NONDET_CALL_RE = re.compile(
    r"(?<![\w.>])(?:std\s*::\s*)?(" + "|".join(NONDET_FUNCS) + r")\s*\("
)
RANDOM_DEVICE_RE = re.compile(r"\bstd\s*::\s*random_device\b")
CHRONO_NOW_RE = re.compile(
    r"\b(?:std\s*::\s*chrono\s*::\s*)?"
    r"(system_clock|steady_clock|high_resolution_clock)\s*::\s*now\s*\("
)

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
)
POINTER_KEYED_RE = re.compile(
    r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*"
)

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*[^;()]*?:\s*(?:this\s*->\s*)?([A-Za-z_]\w*)\s*\)"
)

# Signals that a loop body mutates state/stats or produces output.
MUTATION_RES = (
    re.compile(r"\+\+|--"),
    re.compile(r"(?<![<>=!+\-*/%&|^])(?:\+|-|\*|/|%|&|\||\^|<<|>>)="),
    # Plain assignment through a member access (obj.field = / p->field =).
    re.compile(r"(?:->|\.)\s*\w+(?:\s*\[[^\]]*\])?\s*=(?![=])"),
    re.compile(
        r"\.\s*(insert|erase|emplace\w*|push_\w+|pop_\w+|append|assign|"
        r"clear|resize)\s*\("),
    re.compile(
        r"\b(printf|fprintf|snprintf|sprintf|puts|fputs|logMessage|panic|"
        r"fatal|LB_AUDIT|LB_ASSERT|LB_INVARIANT|LBSIM_WARN|LBSIM_INFORM)"
        r"\s*\("),
)

# --- raw concurrency primitives in model code -------------------------------

CROSS_DOMAIN_TYPES = (
    "thread", "jthread", "mutex", "recursive_mutex", "timed_mutex",
    "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
    "condition_variable", "condition_variable_any", "atomic",
    "atomic_flag", "future", "shared_future", "promise", "barrier",
    "latch", "counting_semaphore", "binary_semaphore",
)
CROSS_DOMAIN_TYPE_RE = re.compile(
    r"\bstd\s*::\s*(" + "|".join(CROSS_DOMAIN_TYPES) + r")\b"
)
CROSS_DOMAIN_CALL_RE = re.compile(
    r"\bstd\s*::\s*(async|atomic_thread_fence|atomic_signal_fence)\s*\("
)

SCALAR_TYPE_RE = re.compile(
    r"^(?:const\s+)?(?:"
    r"bool|char|short|int|long|unsigned|float|double|size_t|"
    r"std\s*::\s*u?int(?:8|16|32|64|max|ptr)_t|std\s*::\s*size_t|"
    r"u?int(?:8|16|32|64)_t|Cycle|Addr|RegNum|HashedPc"
    r")(?:\s+(?:int|long|char|short))*$"
)

STRUCT_SUFFIX_RE = re.compile(
    r"\b(?:struct|class)\s+(\w*(?:Config|Stats|Options|Timing|Geometry|"
    r"Metrics))\s*(?:final\s*)?(?::[^{;]*)?\{"
)

MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+)*"
    r"(?P<type>(?:const\s+)?[\w:]+(?:\s*::\s*\w+)*(?:\s*<[^;=]*>)?"
    r"(?:\s*\*+)?)"
    r"\s*(?P<name>\w+)\s*(?P<init>=[^;]*|\{[^;]*\})?\s*;"
)


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving line
    structure so reported line numbers match the original file."""
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
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
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # inside a literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
            out.append(c if c in (state, "\n", '"', "'") else " ")
        i += 1
    return "".join(out)


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, line_no, check, message, raw_lines):
        if self._suppressed(raw_lines, line_no, check):
            return
        self.items.append((path, line_no, check, message))

    @staticmethod
    def _suppressed(raw_lines, line_no, check):
        def matches(text, directive):
            m = re.search(directive + r"(?:\(([^)]*)\))?", text)
            return m is not None and (m.group(1) is None or
                                      check in m.group(1))

        here = raw_lines[line_no - 1] if line_no - 1 < len(raw_lines) else ""
        if matches(here, r"//\s*NOLINT"):
            return True
        prev = raw_lines[line_no - 2] if line_no >= 2 else ""
        return matches(prev, r"//\s*NOLINTNEXTLINE")


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def find_matching_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def loop_body_span(text, for_end):
    """Span of the statement controlled by a for() ending at for_end."""
    i = for_end
    while i < len(text) and text[i] in " \t\n":
        i += 1
    if i < len(text) and text[i] == "{":
        return i, find_matching_brace(text, i)
    # Single statement: up to the terminating semicolon.
    end = text.find(";", i)
    return i, end if end != -1 else len(text) - 1


def unordered_names_in(clean):
    """Identifiers declared with an unordered container type in one
    preprocessed file."""
    names = set()
    flat = clean.replace("\n", " ")
    for m in UNORDERED_DECL_RE.finditer(flat):
        # Skip the template argument list, then take the declarator.
        i, depth = m.end() - 1, 0
        while i < len(flat):
            if flat[i] == "<":
                depth += 1
            elif flat[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = flat[i + 1:i + 160]
        dm = re.match(r"\s*&?\s*(\w+)", tail)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    return names


def stem_of(path):
    base, _ = os.path.splitext(path.replace(os.sep, "/"))
    return base


def collect_unordered_names(clean_texts):
    """Per-stem unordered declarations: a .cpp shares one scope with its
    same-stem header (members are declared there), but names never leak
    across unrelated files — MshrFile's unordered entries_ must not
    taint a vector named entries_ elsewhere."""
    per_stem = {}
    for path, clean in clean_texts.items():
        per_stem.setdefault(stem_of(path), set()).update(
            unordered_names_in(clean))
    return per_stem


def check_nondet(path, clean, raw_lines, unordered_names, findings):
    for m in NONDET_CALL_RE.finditer(clean):
        findings.add(path, line_of(clean, m.start()), NONDET,
                     "call to nondeterministic source '%s' in model code; "
                     "route through a seeded Rng / envFlag() / sim cycles "
                     "instead" % m.group(1), raw_lines)
    for m in RANDOM_DEVICE_RE.finditer(clean):
        findings.add(path, line_of(clean, m.start()), NONDET,
                     "std::random_device is nondeterministic; use the "
                     "seeded lbsim::Rng", raw_lines)
    for m in CHRONO_NOW_RE.finditer(clean):
        findings.add(path, line_of(clean, m.start()), NONDET,
                     "wall-clock read (%s::now) in model code; model time "
                     "is the simulated cycle" % m.group(1), raw_lines)
    for m in POINTER_KEYED_RE.finditer(clean):
        findings.add(path, line_of(clean, m.start()), NONDET,
                     "ordered container keyed on pointer values; iteration "
                     "order leaks address-space layout into the run",
                     raw_lines)
    for m in RANGE_FOR_RE.finditer(clean):
        name = m.group(1)
        if name not in unordered_names:
            continue
        begin, end = loop_body_span(clean, m.end())
        body = clean[begin:end + 1]
        if any(r.search(body) for r in MUTATION_RES):
            findings.add(path, line_of(clean, m.start()), NONDET,
                         "iteration over unordered container '%s' mutates "
                         "state or produces output; iterate "
                         "sortedKeys(%s) for a deterministic order"
                         % (name, name), raw_lines)


def check_cross_domain(path, clean, raw_lines, findings):
    for m in CROSS_DOMAIN_TYPE_RE.finditer(clean):
        findings.add(path, line_of(clean, m.start()), CROSSDOMAIN,
                     "raw std::%s in model code; the cycle model is "
                     "single-threaded (parallelism lives at the cell "
                     "level), so threading it needs a reviewed design "
                     "(DESIGN.md §13), not an ad-hoc primitive"
                     % m.group(1), raw_lines)
    for m in CROSS_DOMAIN_CALL_RE.finditer(clean):
        findings.add(path, line_of(clean, m.start()), CROSSDOMAIN,
                     "std::%s in model code spawns or fences across "
                     "threads; the cycle model is single-threaded — keep "
                     "concurrency in the harness and service layers"
                     % m.group(1), raw_lines)


def struct_blocks(clean):
    """Yield (name, body_text, body_start_pos) for suffix-matched
    structs, with nested function bodies blanked out."""
    for m in STRUCT_SUFFIX_RE.finditer(clean):
        open_pos = clean.index("{", m.start())
        close = find_matching_brace(clean, open_pos)
        yield m.group(1), clean[open_pos + 1:close], open_pos + 1


def top_level_members(body):
    """Member declarations at depth 0 of a struct body, as
    (offset, type, name, has_init). Function bodies are skipped."""
    # Blank nested braces (methods, nested types, initializers keep "=").
    chars = list(body)
    depth = 0
    for i, c in enumerate(chars):
        if c == "{":
            depth += 1
            chars[i] = " "
        elif c == "}":
            depth -= 1
            chars[i] = " "
        elif depth > 0 and c != "\n":
            chars[i] = " " if c != ";" else " "
    flat = "".join(chars)
    members = []
    for stmt_m in re.finditer(r"[^;]*;", flat):
        stmt = stmt_m.group(0)
        if "(" in stmt or "using" in stmt or "typedef" in stmt:
            continue
        dm = MEMBER_DECL_RE.match(stmt.strip())
        if not dm:
            continue
        if "static" in stmt or "constexpr" in stmt:
            continue
        has_init = dm.group("init") is not None or "=" in stmt or \
            "{" in body[stmt_m.start():stmt_m.end()]
        # Anchor on the declaration itself, not the whitespace run
        # after the previous ';' — the line number must match the
        # declaration (and its NOLINT comment).
        decl_off = stmt_m.start() + (len(stmt) - len(stmt.lstrip()))
        members.append((decl_off, dm.group("type").strip(),
                        dm.group("name"), has_init))
    return members


def check_uninit(path, clean, raw_lines, findings):
    for sname, body, body_pos in struct_blocks(clean):
        for off, mtype, mname, has_init in top_level_members(body):
            if has_init:
                continue
            flat_type = re.sub(r"\s+", " ", mtype)
            if not SCALAR_TYPE_RE.match(flat_type) and \
                    not flat_type.endswith("*"):
                continue
            findings.add(path, line_of(clean, body_pos + off), UNINIT,
                         "scalar member '%s' of %s has no initializer; "
                         "indeterminate bytes break memo-cache keys and "
                         "fuzz replay" % (mname, sname), raw_lines)


def check_registry(path, clean, raw_lines, findings):
    visitor = re.search(r"\bforEachStatField\s*\(", clean)
    if not visitor:
        return
    # Visitor body: first brace after the matched signature.
    open_pos = clean.find("{", visitor.end())
    if open_pos == -1:
        return
    close = find_matching_brace(clean, open_pos)
    visited = set(re.findall(r"\.\s*(\w+)", clean[open_pos:close]))

    structs = {name: (body, pos) for name, body, pos in
               struct_blocks(clean)}
    # Non-suffixed structs (e.g. AccessBreakdown) referenced as fields.
    plain = {}
    for m in re.finditer(r"\b(?:struct|class)\s+(\w+)\s*\{", clean):
        name = m.group(1)
        if name in structs:
            continue
        open_b = clean.index("{", m.start())
        plain[name] = (clean[open_b + 1:find_matching_brace(clean, open_b)],
                       open_b + 1)

    for sname, (body, body_pos) in structs.items():
        if not sname.endswith("Stats"):
            continue
        for off, mtype, mname, _ in top_level_members(body):
            flat_type = re.sub(r"\s+", " ", mtype)
            nested = plain.get(flat_type) or structs.get(flat_type)
            if nested is not None:
                for _, _, leaf, _ in top_level_members(nested[0]):
                    if leaf not in visited:
                        findings.add(
                            path, line_of(clean, body_pos + off), REGISTRY,
                            "field '%s.%s' of %s is not visited by "
                            "forEachStatField; the memo cache, "
                            "serialization and golden diffs will silently "
                            "ignore it" % (mname, leaf, sname), raw_lines)
                continue
            if mname not in visited:
                findings.add(path, line_of(clean, body_pos + off), REGISTRY,
                             "field '%s' of %s is not visited by "
                             "forEachStatField; the memo cache, "
                             "serialization and golden diffs will silently "
                             "ignore it" % (mname, sname), raw_lines)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="C++ sources/headers to lint")
    ap.add_argument("--checks", default=",".join(ALL_CHECKS),
                    help="comma-separated subset of: %s" %
                    ",".join(ALL_CHECKS))
    ap.add_argument("--model-dirs", default=DEFAULT_MODEL_DIRS,
                    help="dirs (comma list) where lbsim-nondeterminism "
                    "applies; empty string = every scanned file")
    args = ap.parse_args(argv)

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in ALL_CHECKS]
    if unknown:
        print("unknown checks: %s" % ",".join(unknown), file=sys.stderr)
        return 2
    model_dirs = [d.strip() for d in args.model_dirs.split(",")
                  if d.strip()]

    raw_texts, clean_texts = {}, {}
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                raw_texts[path] = f.read()
        except OSError as err:
            print("cannot read %s: %s" % (path, err), file=sys.stderr)
            return 2
        clean_texts[path] = strip_comments_and_strings(raw_texts[path])

    per_stem = collect_unordered_names(clean_texts)
    findings = Findings()
    for path in args.files:
        clean = clean_texts[path]
        raw_lines = raw_texts[path].splitlines()
        unordered_names = set(per_stem.get(stem_of(path), set()))
        # Companion header outside the scanned set still declares the
        # members this .cpp iterates.
        base = stem_of(path)
        for ext in (".hpp", ".h"):
            sibling = base + ext
            if sibling not in clean_texts and os.path.exists(sibling):
                with open(sibling, "r", encoding="utf-8",
                          errors="replace") as f:
                    unordered_names.update(
                        unordered_names_in(
                            strip_comments_and_strings(f.read())))
        norm = path.replace(os.sep, "/")
        in_model = not model_dirs or any(
            ("/" + d + "/") in ("/" + norm) or norm.startswith(d + "/")
            for d in model_dirs)
        if NONDET in checks and in_model:
            check_nondet(path, clean, raw_lines, unordered_names, findings)
        if CROSSDOMAIN in checks and in_model:
            check_cross_domain(path, clean, raw_lines, findings)
        if UNINIT in checks:
            check_uninit(path, clean, raw_lines, findings)
        if REGISTRY in checks:
            check_registry(path, clean, raw_lines, findings)

    for path, line_no, check, message in sorted(findings.items):
        print("%s:%d:1: warning: %s [%s]" % (path, line_no, message, check))
    return 1 if findings.items else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
