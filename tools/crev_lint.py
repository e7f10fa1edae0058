#!/usr/bin/env python3
"""crev_lint: repo-invariant static lint for the Cornucopia Reloaded
simulator (DESIGN.md section 11.2).

The simulator's claims rest on invariants no general-purpose linter
knows about. This tool enforces them as named rules over the source
tree, using the CMake compilation database (compile_commands.json) to
confirm every linted translation unit is actually part of the build:

  host-nondeterminism   nothing in src/ may consult host entropy or
                        wall clocks: every simulated observable must be
                        a pure function of (config, seed).
  unordered-iteration   no range-for over std::unordered_* containers
                        in src/: iteration order is host-dependent, so
                        anything derived from it (metrics, reports,
                        traces) would break bit-for-bit determinism.
  raw-threading         host threading primitives (std::mutex,
                        std::thread, std::atomic, ...) are confined to
                        src/sim (the cooperative scheduler's
                        implementation) and the host-parallel bench
                        runner; simulated code must use SimMutex /
                        SimEvent so every blocking point is a
                        deterministic scheduling point.
  pte-publish           in-place writes of PTE revocation fields (clg,
                        cap_load_trap, cap_dirty, cap_ever) are
                        confined to the vm layer and the
                        SweepEngine::publishPage choke point, which
                        pairs them with a TLB shootdown (a stale
                        cached translation would keep the old
                        generation); a file using them must also
                        shoot down.

Two former rules — uncharged-access and shared-mutation — are retired:
their line-level heuristics (a path allowlist; evidence-in-the-same-
function with a choke-file exemption) are superseded by the
interprocedural uncharged-reach and lock-evidence passes of
tools/crev_analyze (DESIGN.md section 16), which prove the same
invariants over call paths instead of lines.

Exemptions are explicit and greppable: a line (or its predecessor)
carrying `lint: <rule>-ok` is skipped for that rule, so every waiver
documents itself at the site. Waivers are themselves checked: a tag
whose line no longer violates its rule (or that names an unknown or
retired rule) is reported as stale — a warning by default, an error
under --strict-waivers — so dead waivers cannot linger as false
documentation.

Usage:
  crev_lint.py [--compile-commands build/compile_commands.json]
               [--strict-waivers]
  crev_lint.py --self-test    # each fixture must fail its rule

Exit status: 0 clean, 1 violations (or stale waivers under
--strict-waivers, or a self-test failure), 2 usage/environment error
(including an explicitly named compile_commands.json that does not
exist).
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "lint_fixtures")


class Violation:
    def __init__(self, rule, path, line, text):
        self.rule = rule
        self.path = path
        self.line = line
        self.text = text

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return "%s:%d: [%s] %s" % (rel, self.line, self.rule, self.text)


# stale_waivers() flips this off so it can observe the violations a
# waiver would otherwise hide.
_exemptions_enabled = True


def exempt(lines, idx, rule):
    """True when line idx (0-based) carries or follows a waiver."""
    if not _exemptions_enabled:
        return False
    tag = "lint: %s-ok" % rule
    if tag in lines[idx]:
        return True
    return idx > 0 and tag in lines[idx - 1]


# ---------------------------------------------------------------------
# Rules. Each takes (path, lines) and yields Violations.
# ---------------------------------------------------------------------

NONDET_PATTERNS = [
    (re.compile(r"\brand\s*\(\s*\)"), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "std::chrono wall clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time()"),
    (re.compile(r"\b(localtime|gmtime)\s*\("), "calendar time"),
    (re.compile(r"\bgetpid\s*\(\s*\)"), "getpid()"),
]


def rule_host_nondeterminism(path, lines):
    if not in_dir(path, "src"):
        return
    for i, line in enumerate(lines):
        for pat, what in NONDET_PATTERNS:
            if pat.search(line) and not exempt(lines, i, "nondet"):
                yield Violation(
                    "host-nondeterminism", path, i + 1,
                    "%s: simulated observables must be pure functions "
                    "of (config, seed)" % what)


UNORDERED_DECL = re.compile(
    r"std::unordered_(?:set|map|multiset|multimap)\s*<[^;{]*?[&\s]"
    r"(\w+)\s*(?:[;={(]|$)")
RANGE_FOR = re.compile(r"\bfor\s*\([^;]*?:\s*([^)]+)\)")


def unordered_names(all_lines_by_path):
    """Identifiers (members, locals, accessors) declared with an
    unordered container type anywhere in the linted tree."""
    names = set()
    for lines in all_lines_by_path.values():
        for line in lines:
            for m in UNORDERED_DECL.finditer(line):
                names.add(m.group(1))
    return names


def rule_unordered_iteration(path, lines, names):
    if not in_dir(path, "src"):
        return
    for i, line in enumerate(lines):
        m = RANGE_FOR.search(line)
        if m is None:
            continue
        expr = m.group(1).strip()
        # The iterated identifier: last name in the expression,
        # possibly an accessor call ("bitmap.painted()", "painted_").
        ident = re.search(r"(\w+)\s*(?:\(\s*\))?\s*$", expr)
        if ident is None:
            continue
        if ident.group(1) in names and not exempt(lines, i, "unordered"):
            yield Violation(
                "unordered-iteration", path, i + 1,
                "range-for over unordered container '%s': iteration "
                "order is host-dependent; sort into an ordered "
                "container first" % ident.group(1))


THREADING_PATTERNS = [
    (re.compile(r"std::(mutex|recursive_mutex|shared_mutex)\b"),
     "std::mutex"),
    (re.compile(r"std::(thread|jthread)\b"), "std::thread"),
    (re.compile(r"std::condition_variable\b"),
     "std::condition_variable"),
    (re.compile(r"std::atomic\b"), "std::atomic"),
    (re.compile(r"\bpthread_\w+"), "pthreads"),
]


def rule_raw_threading(path, lines):
    if not (in_dir(path, "src") or in_dir(path, "bench")):
        return
    if in_dir(path, os.path.join("src", "sim")):
        return  # the scheduler's own implementation
    if os.path.basename(path).startswith("bench_runner"):
        return  # the host-parallel bench runner
    for i, line in enumerate(lines):
        for pat, what in THREADING_PATTERNS:
            if pat.search(line) and not exempt(lines, i, "threading"):
                yield Violation(
                    "raw-threading", path, i + 1,
                    "%s outside src/sim and the bench runner: use "
                    "SimMutex/SimEvent so blocking is a deterministic "
                    "scheduling point" % what)


PTE_WRITE = re.compile(
    r"(?:\.|->)\s*(clg|cap_load_trap|cap_dirty|cap_ever)\s*"
    r"(?:=[^=]|\|=|&=|\^=)")
PTE_INVALIDATE = re.compile(r"\bshootdownPage\s*\(")


def rule_pte_publish(path, lines):
    if not in_dir(path, "src") or in_dir(path, os.path.join("src", "vm")):
        return
    choke = path.endswith(os.path.join("revoker", "sweep.cc"))
    file_invalidates = any(PTE_INVALIDATE.search(l) for l in lines)
    for i, line in enumerate(lines):
        m = PTE_WRITE.search(line)
        if m is None or exempt(lines, i, "pte-publish"):
            continue
        if not choke:
            yield Violation(
                "pte-publish", path, i + 1,
                "in-place write of Pte::%s outside the vm layer and "
                "SweepEngine::publishPage: route it through "
                "publishPage so a TLB shootdown is paired with the "
                "mutation" % m.group(1))
        elif not file_invalidates:
            yield Violation(
                "pte-publish", path, i + 1,
                "Pte::%s written in a file that never shoots down "
                "cached translations (shootdownPage missing): a core "
                "could keep the stale generation" % m.group(1))


RULES = ("host-nondeterminism", "unordered-iteration", "raw-threading",
         "pte-publish")

# Waiver key -> the rule it suppresses. The retired shared-mutation and
# uncharged keys are deliberately absent: a surviving tag for them is
# reported as stale so nothing keeps "documenting" a rule that no
# longer runs (the invariants moved to tools/crev_analyze).
WAIVER_TAG = re.compile(r"lint:\s*([a-z][a-z0-9-]*)-ok")
WAIVER_RULES = {
    "nondet": "host-nondeterminism",
    "unordered": "unordered-iteration",
    "threading": "raw-threading",
    "pte-publish": "pte-publish",
}


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

def in_dir(path, rel):
    # Self-test fixtures stand in for ordinary src/ files.
    if path.startswith(FIXTURE_DIR + os.sep):
        return rel == "src"
    return os.path.relpath(path, REPO_ROOT).startswith(rel + os.sep)


def strip_comments_keep_annotations(text):
    """Blank out string literals so tokens inside them don't trip
    rules; comments are kept (annotations live there)."""
    out = []
    for line in text.splitlines():
        # Cheap and adequate for this codebase: no multi-line strings.
        out.append(re.sub(r'"(?:[^"\\]|\\.)*"', '""', line))
    return out


def read_files(paths):
    lines_by_path = {}
    for p in paths:
        with open(p, "r", encoding="utf-8") as f:
            lines_by_path[p] = strip_comments_keep_annotations(f.read())
    return lines_by_path


def lint_lines(lines_by_path):
    names = unordered_names(lines_by_path)
    violations = []
    for p, lines in sorted(lines_by_path.items()):
        violations += list(rule_host_nondeterminism(p, lines))
        violations += list(rule_unordered_iteration(p, lines, names))
        violations += list(rule_raw_threading(p, lines))
        violations += list(rule_pte_publish(p, lines))
    return violations


def lint_files(paths):
    return lint_lines(read_files(paths))


def stale_waivers(lines_by_path):
    """Waiver tags that no longer earn their keep. With exemptions
    disabled, a live `lint: <key>-ok` on line i must see its rule
    violate on line i or i+1 (the two lines exempt() covers); a tag
    with no such violation, or naming an unknown/retired rule, is
    stale."""
    global _exemptions_enabled
    _exemptions_enabled = False
    try:
        raw = lint_lines(lines_by_path)
    finally:
        _exemptions_enabled = True
    hit = {(v.path, v.rule, v.line) for v in raw}
    stale = []
    for p, lines in sorted(lines_by_path.items()):
        for i, line in enumerate(lines):
            for m in WAIVER_TAG.finditer(line):
                key = m.group(1)
                rule = WAIVER_RULES.get(key)
                if rule is None:
                    stale.append(Violation(
                        "stale-waiver", p, i + 1,
                        "waiver 'lint: %s-ok' names an unknown or "
                        "retired rule; delete it" % key))
                elif ((p, rule, i + 1) not in hit and
                      (p, rule, i + 2) not in hit):
                    stale.append(Violation(
                        "stale-waiver", p, i + 1,
                        "waiver 'lint: %s-ok' no longer suppresses a "
                        "%s violation on this or the next line; "
                        "delete it" % (key, rule)))
    return stale


def tree_files():
    paths = []
    for top in ("src", "bench"):
        for root, _dirs, files in os.walk(os.path.join(REPO_ROOT, top)):
            for f in sorted(files):
                if f.endswith((".h", ".cc", ".cpp")):
                    paths.append(os.path.join(root, f))
    return paths


def check_compile_commands(db_path, paths):
    """Every src/ translation unit we lint must be in the build; a
    source the build ignores would make a green lint meaningless."""
    with open(db_path, "r", encoding="utf-8") as f:
        db = json.load(f)
    compiled = {os.path.realpath(e["file"]) for e in db}
    missing = [
        p for p in paths
        if p.endswith(".cc") and in_dir(p, "src")
        and os.path.realpath(p) not in compiled
    ]
    return missing


def run_self_test():
    """Each fixture must trip exactly its own rule; the waiver fixture
    must be clean; the stale-waiver fixture must report exactly its
    dead tags; a missing explicit compilation database must exit 2."""
    ok = True
    for rule in RULES:
        fixture = os.path.join(FIXTURE_DIR, rule + ".cc")
        if not os.path.exists(fixture):
            print("self-test: missing fixture for rule %s" % rule)
            ok = False
            continue
        got = {v.rule for v in lint_files([fixture])}
        if rule not in got:
            print("self-test: fixture %s did NOT fail rule %s (got %s)"
                  % (os.path.basename(fixture), rule, sorted(got) or "clean"))
            ok = False
        else:
            print("self-test: %-24s fails as required" % rule)
    waiver = os.path.join(FIXTURE_DIR, "waivers.cc")
    if os.path.exists(waiver):
        vs = lint_files([waiver])
        if vs:
            print("self-test: annotated waiver fixture raised: ")
            for v in vs:
                print("  %s" % v)
            ok = False
        else:
            print("self-test: %-24s clean as required" % "waivers")
    sw = os.path.join(FIXTURE_DIR, "stale-waiver.cc")
    if not os.path.exists(sw):
        print("self-test: missing fixture stale-waiver.cc")
        ok = False
    else:
        # The fixture holds one live waiver (must NOT be flagged), one
        # dead waiver, and one tag for a retired rule.
        stales = stale_waivers(read_files([sw]))
        kinds = sorted("unknown" if "unknown" in v.text else "dead"
                       for v in stales)
        if kinds != ["dead", "unknown"]:
            print("self-test: stale-waiver fixture reported %s, "
                  "expected exactly one dead and one unknown tag"
                  % (kinds or "nothing"))
            for v in stales:
                print("  %s" % v)
            ok = False
        else:
            print("self-test: %-24s detected as required"
                  % "stale-waiver")
    # An explicitly named but absent compilation database is a usage
    # error, not a skippable note.
    rc = main(["--compile-commands",
               os.path.join(FIXTURE_DIR, "no_such_db.json")])
    if rc != 2:
        print("self-test: missing explicit compile_commands.json "
              "returned %d, expected 2" % rc)
        ok = False
    else:
        print("self-test: %-24s exits 2 as required" % "missing-db")
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compile-commands", default=None,
                    help="compilation database (build coverage check; "
                         "default <repo>/build/compile_commands.json, "
                         "skipped with a note if the default is "
                         "absent; an explicit path must exist)")
    ap.add_argument("--strict-waivers", action="store_true",
                    help="treat stale waivers as errors (exit 1)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule's fixture fails")
    args = ap.parse_args(argv)

    if args.self_test:
        return 0 if run_self_test() else 1

    explicit_db = args.compile_commands is not None
    db_path = args.compile_commands or os.path.join(
        REPO_ROOT, "build", "compile_commands.json")
    if explicit_db and not os.path.exists(db_path):
        print("crev_lint: error: compilation database %s does not "
              "exist.\nConfigure the build with "
              "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON (the repo's CMake "
              "presets already do) and point --compile-commands at "
              "<build>/compile_commands.json." % db_path,
              file=sys.stderr)
        return 2

    paths = tree_files()
    if not paths:
        print("crev_lint: nothing to lint under %s" % REPO_ROOT)
        return 2

    if os.path.exists(db_path):
        missing = check_compile_commands(db_path, paths)
        for p in missing:
            print("crev_lint: warning: %s not in compile_commands.json"
                  % os.path.relpath(p, REPO_ROOT))
    else:
        print("crev_lint: note: %s absent; skipping build-coverage "
              "check" % os.path.relpath(db_path, REPO_ROOT))

    lines_by_path = read_files(paths)
    violations = lint_lines(lines_by_path)
    stale = stale_waivers(lines_by_path)
    for v in violations:
        print(v)
    for s in stale:
        print("%s%s" % ("" if args.strict_waivers else "warning: ", s))
    if violations or (stale and args.strict_waivers):
        print("crev_lint: %d violation(s), %d stale waiver(s)"
              % (len(violations), len(stale)))
        return 1
    print("crev_lint: %d files clean (%s)%s"
          % (len(paths), ", ".join(RULES),
             "; %d stale waiver warning(s)" % len(stale)
             if stale else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
