"""The eight passes and the waiver audit (DESIGN.md section 16).

Passes 1-4 are interprocedural: each takes the analysis context built
by driver.py -- the call graph over src/, the per-function facts, and
the waiver table -- and yields Finding records. Passes 5-8 check
repo invariants that hold token by token, over the cpptok stream of
every file in src/ and bench/: comments and string literals never
reach the token stream, so text inside them cannot trip a pass, and a
construct split across lines is still one token sequence. All
iteration is over sorted keys and BFS with sorted adjacency, so the
findings (and hence the JSON report) are byte-deterministic.
"""

from collections import namedtuple

from . import facts as F

Finding = namedtuple(
    "Finding", ["rule", "function", "file", "line", "callpath", "message"])

# ---------------------------------------------------------------------
# Pass 1: no-yield reachability.
# ---------------------------------------------------------------------

def pass_noyield_reach(ctx):
    """No function invoked inside a NoYield window may transitively
    reach a yield/park/block point.

    The search cuts at: noyield-aware functions (they consult
    noyield_depth_ before yielding), wake-side scheduler primitives
    (the caller never parks inside them), off-clock observers (they
    run outside the simulated clock and cannot yield on the guarded
    thread's behalf), and explicitly waived helpers."""
    findings = []
    graph = ctx.graph

    def cut(q):
        return (F.is_noyield_aware(q) or F.is_notify_safe(q)
                or ctx.is_observer(q)
                or ctx.fn_waived("noyield-reach", q))

    memo = {}

    def path_to_sink(q):
        if q not in memo:
            memo[q] = graph.find_path(q, F.is_yield_sink, cut)
        return memo[q]

    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        if not node["windows"]:
            continue
        if ctx.fn_waived("noyield-reach", qname):
            continue
        seen = set()
        for site, callees in node["window_calls"]:
            if ctx.line_waived("noyield-reach", node["fn"].file,
                               site.line):
                continue
            for callee in callees:
                path = path_to_sink(callee)
                if path is None:
                    continue
                key = (site.line, path[-1])
                if key in seen:
                    continue
                seen.add(key)
                win = node["windows"][site.window]
                findings.append(Finding(
                    rule="noyield-reach",
                    function=qname,
                    file=ctx.relpath(node["fn"].file),
                    line=site.line,
                    callpath=[qname] + path,
                    message="call inside the NoYield window opened at "
                            "line %d can reach yield point %s; a yield "
                            "mid-critical-section breaks the windowed "
                            "atomicity the guard models"
                            % (win.line, path[-1]),
                ))
    return findings


# ---------------------------------------------------------------------
# Pass 2: lock-evidence propagation.
# ---------------------------------------------------------------------

def pass_lock_evidence(ctx):
    """A shared-state mutation is clean if every call path from a
    root (thread body, public entry point, indirect-call target)
    passes through synchronisation evidence."""
    findings = []
    graph = ctx.graph

    def protects(q):
        node = ctx.nodes[q]
        return (bool(node["facts"]["evidence"])
                or ctx.is_observer(q)
                or ctx.fn_waived("lock-evidence", q))

    exposed = graph.exposed_from_roots(protects)

    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        muts = node["facts"]["mutations"]
        if not muts:
            continue
        if protects(qname):
            continue
        if qname not in exposed:
            continue  # every inbound path passes through evidence
        path = graph.path_to(exposed, qname)
        reported = set()
        for member, what, line in muts:
            if member in reported:
                continue
            if ctx.line_waived("lock-evidence", node["fn"].file, line):
                continue
            reported.add(member)
            findings.append(Finding(
                rule="lock-evidence",
                function=qname,
                file=ctx.relpath(node["fn"].file),
                line=line,
                callpath=path,
                message="mutation of %s with no synchronisation "
                        "evidence on the call path shown "
                        "(assertHeld/heldBy, stopTheWorld/stwOwnedBy, "
                        "or an on* race-checker hook): register the "
                        "domain somewhere on the path or waive with "
                        "the single-writer argument" % what,
            ))
    return findings


# ---------------------------------------------------------------------
# Pass 3: uncharged-access reachability.
# ---------------------------------------------------------------------

def pass_uncharged_reach(ctx):
    """Uncharged accessors may only be reached from off-clock
    observer roots or the vm cost-model layer; a simulation path
    caller must show a charge (chargeRead/chargeWrite/...) in the
    same function."""
    findings = []
    graph = ctx.graph

    def protects(q):
        return ctx.is_observer(q) or ctx.fn_waived("uncharged-reach", q)

    exposed = graph.exposed_from_roots(protects)

    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        uncharged = node["facts"]["uncharged"]
        if not uncharged:
            continue
        if protects(qname) or ctx.is_vm(qname):
            continue
        if node["facts"]["charges"]:
            continue  # charge discipline shown locally
        if qname not in exposed:
            continue  # only observers can reach it
        path = graph.path_to(exposed, qname)
        for acc, line in uncharged:
            if ctx.line_waived("uncharged-reach", node["fn"].file, line):
                continue
            findings.append(Finding(
                rule="uncharged-reach",
                function=qname,
                file=ctx.relpath(node["fn"].file),
                line=line,
                callpath=path,
                message="uncharged accessor %s() reachable from a "
                        "non-observer root with no charge in the "
                        "calling function: use the charging API or "
                        "charge the cycles before peeking" % acc,
            ))
    return findings


# ---------------------------------------------------------------------
# Pass 4: epoch-phase ordering.
# ---------------------------------------------------------------------

def _check_ops(ops):
    """Validate one epoch driver's operation sequence. Returns
    [(message, line)]. Legal shape: open with advance; snapshot the
    audit set before any phase bracket; phase brackets properly
    nested; every stop-the-world resumed; close (finishEpoch, or a
    second advance for the emergency path) last."""
    errs = []
    if not ops:
        errs.append(("epoch driver performs no epoch-protocol "
                     "operations (must open with "
                     "EpochCounter::advance)", 0))
        return errs
    if ops[0][0] != "advance":
        errs.append(("epoch must open with EpochCounter::advance "
                     "(first operation is %s)" % ops[0][0], ops[0][2]))
    advances = 0
    closed_at = None
    stw_open = None
    phase_stack = []
    first_phase = None
    first_snapshot = None
    for op, phase, line in ops:
        if closed_at is not None:
            errs.append(("%s after the epoch already closed at line %d"
                         % (op, closed_at), line))
            continue
        if op == "advance":
            advances += 1
            if advances >= 2:
                closed_at = line  # emergency completion
        elif op == "snapshot":
            if first_snapshot is None:
                first_snapshot = line
        elif op == "stw":
            if stw_open is not None:
                errs.append(("stop-the-world at line %d never resumed"
                             % stw_open, line))
            stw_open = line
        elif op == "resume":
            if stw_open is None:
                errs.append(("resumeWorld without a stop-the-world",
                             line))
            stw_open = None
        elif op == "phase_begin":
            if first_phase is None:
                first_phase = line
            phase_stack.append((phase, line))
        elif op == "phase_end":
            if not phase_stack or phase_stack[-1][0] != phase:
                errs.append(("tracePhaseEnd(%s) does not match the "
                             "open bracket %s"
                             % (phase, phase_stack[-1][0]
                                if phase_stack else "<none>"), line))
            else:
                phase_stack.pop()
        elif op == "finish":
            if phase_stack:
                errs.append(("finishEpoch with phase bracket %s still "
                             "open (opened line %d)"
                             % phase_stack[-1], line))
            if stw_open is not None:
                errs.append(("finishEpoch inside the stop-the-world "
                             "opened at line %d" % stw_open, line))
            closed_at = line
    if first_phase is not None and (first_snapshot is None
                                    or first_snapshot > first_phase):
        errs.append(("phase bracket opened before snapshotAuditSet: "
                     "the audit set must be pinned before any "
                     "paint/scan work", first_phase))
    if stw_open is not None:
        errs.append(("stop-the-world never resumed", stw_open))
    if phase_stack:
        errs.append(("phase bracket %s never closed" % phase_stack[-1][0],
                     phase_stack[-1][1]))
    if closed_at is None:
        errs.append(("epoch never closes: finishEpoch (or the "
                     "emergency path's completing advance) missing",
                     ops[-1][2]))
    return errs


def pass_epoch_phase(ctx):
    findings = []
    for qname in sorted(ctx.nodes):
        node = ctx.nodes[qname]
        if node["fn"].name not in F.EPOCH_DRIVERS:
            continue
        if node["facts"]["layer"] not in ("revoker", "fixture"):
            continue
        ops = node["facts"]["epoch_ops"]
        if ctx.fn_waived("epoch-phase", qname):
            continue
        for message, line in _check_ops(ops):
            findings.append(Finding(
                rule="epoch-phase",
                function=qname,
                file=ctx.relpath(node["fn"].file),
                line=line or node["fn"].line,
                callpath=[qname],
                message=message,
            ))
    return findings


# ---------------------------------------------------------------------
# Token passes. Scopes: host-nondeterminism and unordered-iteration
# scan src/, raw-threading src/ and bench/, pte-publish src/ outside
# the vm layer.
# ---------------------------------------------------------------------

NONDET_NAMES = {
    "random_device": "std::random_device",
    "system_clock": "std::chrono wall clock",
    "steady_clock": "std::chrono wall clock",
    "high_resolution_clock": "std::chrono wall clock",
}
#: Free-function calls: name -> (label, the one argument token it
#: must be called with; () = no argument, None = any arguments).
NONDET_CALLS = {
    "rand": ("rand()", ()),
    "getpid": ("getpid()", ()),
    "time": ("time()", ("nullptr", "NULL", "0")),
    "srand": ("srand()", None),
    "gettimeofday": ("gettimeofday()", None),
    "clock_gettime": ("clock_gettime()", None),
    "localtime": ("calendar time", None),
    "localtime_r": ("calendar time", None),
    "gmtime": ("calendar time", None),
    "gmtime_r": ("calendar time", None),
}

UNORDERED_TYPES = frozenset(("unordered_set", "unordered_map",
                             "unordered_multiset", "unordered_multimap"))

THREADING_NAMES = frozenset((
    "mutex", "recursive_mutex", "timed_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "thread", "jthread",
    "this_thread", "condition_variable", "condition_variable_any",
    "atomic", "atomic_ref", "atomic_flag"))
THREADING_ALLOWED = frozenset(("bench/bench_runner.h",
                               "bench/bench_runner.cc"))

PTE_FIELDS = frozenset(("clg", "cap_load_trap", "cap_dirty", "cap_ever"))
PTE_ASSIGN = frozenset(("=", "|=", "&=", "^="))
PTE_CHOKE_FILE = "src/revoker/sweep.cc"

_OPEN = {"(": ")", "[": "]", "{": "}"}


def _text(toks, k):
    return toks[k].text if 0 <= k < len(toks) else ""


def _match(toks, k):
    """toks[k] opens a bracket; return the index of its match."""
    close = _OPEN[toks[k].text]
    depth = 0
    for j in range(k, len(toks)):
        t = toks[j].text
        if t in _OPEN:
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
            if depth == 0:
                return j if t == close else None
    return None


def _files(ctx, areas):
    for path in sorted(ctx.tokens):
        if ctx.area(path) in areas:
            yield path, ctx.tokens[path]


def _finding(ctx, rule, path, line, message):
    fn = ctx.function_at(path, line)
    return Finding(rule=rule, function=fn, file=ctx.relpath(path),
                   line=line, callpath=[fn], message=message)


# ---------------------------------------------------------------------
# Pass 5: host nondeterminism.
# ---------------------------------------------------------------------

def _is_host_call(toks, k):
    """toks[k] names a NONDET_CALLS function: true for a call to the
    host's free (or std::) function with the listed arguments, false
    for a member call, another namespace's function or a declaration
    (a type name before the function name)."""
    prev = _text(toks, k - 1)
    if _text(toks, k + 1) != "(" or prev in (".", "->"):
        return False
    if k >= 1 and toks[k - 1].kind == "id" \
            and prev not in ("return", "throw"):
        return False
    if prev == "::" and k >= 2 and toks[k - 2].kind == "id" \
            and toks[k - 2].text != "std":
        return False
    arg = NONDET_CALLS[toks[k].text][1]
    if arg is None:
        return True
    if not arg:
        return _text(toks, k + 2) == ")"
    return _text(toks, k + 2) in arg and _text(toks, k + 3) == ")"


def pass_host_nondeterminism(ctx):
    rule = "host-nondeterminism"
    findings = []
    for path, toks in _files(ctx, ("src", "vm")):
        for k, t in enumerate(toks):
            if t.kind != "id":
                continue
            what = NONDET_NAMES.get(t.text)
            if what is None and t.text in NONDET_CALLS \
                    and _is_host_call(toks, k):
                what = NONDET_CALLS[t.text][0]
            if what is None or ctx.line_waived(rule, path, t.line):
                continue
            findings.append(_finding(
                ctx, rule, path, t.line,
                "%s: simulated observables must be pure functions of "
                "(config, seed)" % what))
    return findings


# ---------------------------------------------------------------------
# Pass 6: unordered iteration.
# ---------------------------------------------------------------------

def _unordered_names(ctx):
    """Identifiers (members, locals, accessors) declared with an
    unordered container type anywhere in the scanned files."""
    names = set()
    for toks in ctx.tokens.values():
        for k, t in enumerate(toks):
            if t.kind != "id" or t.text not in UNORDERED_TYPES:
                continue
            j = k + 1
            if _text(toks, j) == "<":
                depth = 0
                while j < len(toks):
                    s = toks[j].text
                    depth += {"<": 1, ">": -1, ">>": -2}.get(s, 0)
                    j += 1
                    if depth <= 0:
                        break
            while _text(toks, j) in ("&", "&&", "*", "const", "volatile"):
                j += 1
            if j + 1 < len(toks) and toks[j].kind == "id" \
                    and toks[j + 1].text in (";", "=", "{", "("):
                names.add(toks[j].text)
    return names


def _range_expr(toks, k):
    """toks[k] is `for`: the range expression's token span of a
    range-for, or None for a classic for."""
    if _text(toks, k + 1) != "(":
        return None
    end = _match(toks, k + 1)
    if end is None:
        return None
    colon = None
    semis = 0
    j = k + 2
    while j < end:
        s = toks[j].text
        if s in _OPEN:
            j = _match(toks, j) or end
        elif s == ";":
            # One `;` ends a C++20 init-statement; two make a classic
            # for, whose colons belong to `?:`.
            semis += 1
            colon = None
        elif s == ":" and colon is None:
            colon = j
        j += 1
    if colon is None or semis > 1:
        return None
    return colon + 1, end


def pass_unordered_iteration(ctx):
    rule = "unordered-iteration"
    names = _unordered_names(ctx)
    findings = []
    for path, toks in _files(ctx, ("src", "vm")):
        for k, t in enumerate(toks):
            if t.text != "for" or t.kind != "id":
                continue
            span = _range_expr(toks, k)
            if span is None:
                continue
            lo, hi = span
            # The iterated name: the last identifier, possibly an
            # accessor call ("bitmap.painted()", "painted_").
            last = hi - 1
            if last - 1 >= lo and toks[last].text == ")" \
                    and toks[last - 1].text == "(":
                last -= 2
            if last < lo or toks[last].kind != "id" \
                    or toks[last].text not in names:
                continue
            if ctx.line_waived(rule, path, t.line):
                continue
            findings.append(_finding(
                ctx, rule, path, t.line,
                "range-for over unordered container '%s': iteration "
                "order is host-dependent; sort into an ordered "
                "container first" % toks[last].text))
    return findings


# ---------------------------------------------------------------------
# Pass 7: raw threading.
# ---------------------------------------------------------------------

def pass_raw_threading(ctx):
    rule = "raw-threading"
    findings = []
    for path, toks in _files(ctx, ("src", "vm", "bench")):
        if ctx.relpath(path) in THREADING_ALLOWED:
            continue
        for k, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in THREADING_NAMES and _text(toks, k - 1) == "::" \
                    and _text(toks, k - 2) == "std":
                what = "std::" + t.text
            elif t.text.startswith("pthread_"):
                what = "pthreads"
            else:
                continue
            if ctx.line_waived(rule, path, t.line):
                continue
            findings.append(_finding(
                ctx, rule, path, t.line,
                "%s outside the bench runner: simulated threads are "
                "fibers on one host thread; use SimMutex/SimEvent so "
                "blocking is a deterministic scheduling point" % what))
    return findings


# ---------------------------------------------------------------------
# Pass 8: PTE publish choke point.
# ---------------------------------------------------------------------

def pass_pte_publish(ctx):
    rule = "pte-publish"
    findings = []
    for path, toks in _files(ctx, ("src",)):
        choke = ctx.relpath(path) == PTE_CHOKE_FILE
        shoots_down = any(
            t.text == "shootdownPage" and _text(toks, k + 1) == "("
            for k, t in enumerate(toks))
        for k, t in enumerate(toks):
            if t.text not in PTE_FIELDS or t.kind != "id" \
                    or _text(toks, k - 1) not in (".", "->") \
                    or _text(toks, k + 1) not in PTE_ASSIGN:
                continue
            if choke and shoots_down:
                continue
            if ctx.line_waived(rule, path, t.line):
                continue
            if not choke:
                msg = ("in-place write of Pte::%s outside the vm layer "
                       "and SweepEngine::publishPage: route it through "
                       "publishPage so a TLB shootdown is paired with "
                       "the mutation" % t.text)
            else:
                msg = ("Pte::%s written in a file that never shoots "
                       "down cached translations (shootdownPage "
                       "missing): a core could keep the stale "
                       "generation" % t.text)
            findings.append(_finding(ctx, rule, path, t.line, msg))
    return findings


# ---------------------------------------------------------------------
# The waiver audit.
# ---------------------------------------------------------------------

def audit_waivers(ctx, findings):
    """A waiver must name a pass and suppress something: deleting it
    must add a finding. Each waiver is taken out in turn and its pass
    re-run, so a waiver made redundant by another (a line waiver
    inside a waived function) is reported too."""
    passes = dict(ALL_PASSES)
    base = {tuple(f[:4]) for f in findings}
    used = set(ctx.waivers_used)
    out = []
    for path in sorted(ctx.annotations):
        ann = ctx.annotations[path]
        for line in sorted(ann):
            for rule in sorted(ann[line]):
                if rule not in passes:
                    msg = ("waiver 'analyze: %s-ok' names no pass; "
                           "delete it" % rule)
                else:
                    ann[line].discard(rule)
                    try:
                        extra = [f for f in passes[rule](ctx)
                                 if tuple(f[:4]) not in base]
                    finally:
                        ann[line].add(rule)
                    if extra:
                        continue
                    msg = ("waiver 'analyze: %s-ok' suppresses no "
                           "finding; delete it" % rule)
                out.append(_finding(ctx, "stale-waiver", path, line, msg))
    ctx.waivers_used = used
    return out


ALL_PASSES = (
    ("noyield-reach", pass_noyield_reach),
    ("lock-evidence", pass_lock_evidence),
    ("uncharged-reach", pass_uncharged_reach),
    ("epoch-phase", pass_epoch_phase),
    ("host-nondeterminism", pass_host_nondeterminism),
    ("unordered-iteration", pass_unordered_iteration),
    ("raw-threading", pass_raw_threading),
    ("pte-publish", pass_pte_publish),
)

#: Every rule a finding can carry, in report order.
RULES = tuple(rule for rule, _fn in ALL_PASSES) + ("stale-waiver",)
