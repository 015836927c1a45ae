#!/usr/bin/env python3
"""Custom atomics lint for the tamp codebase.

Ten rules, each encoding a convention the concurrent code is expected to
follow (see README "Correctness tooling"):

  cas-strong-loop      compare_exchange_strong inside a loop body or loop
                       condition.  In a retry loop the failure path
                       re-reads and retries anyway, so the cheaper
                       compare_exchange_weak (which may fail spuriously)
                       suffices; _strong in a loop is either a missed
                       optimization or — when the single-attempt semantics
                       are intentional, e.g. helping CASes and elimination
                       hand-offs — deserves an explicit annotation.

  cas-relaxed-success  compare_exchange_{weak,strong} whose *success*
                       ordering is memory_order_relaxed.  A successful CAS
                       is nearly always a publication or acquisition point;
                       relaxed success is legal only for pure bookkeeping
                       (statistics, monotonic maxima) and must say so.

  volatile-sync        `volatile` used outside `asm volatile`.  volatile is
                       not a synchronization primitive in C++; shared state
                       must be std::atomic.

  atomic-align         a class declaring two or more std::atomic data
                       members where some (non-array) member lacks alignas
                       cache-line padding: adjacent hot atomics false-share
                       (Herlihy & Shavit App. B.6).  Members of *nested*
                       structs (queue/list nodes, per-thread records) are
                       exempt — padding every node would bloat the very
                       structures the book sizes carefully.

  raw-atomic           direct std::atomic / std::atomic_flag inside the
                       facade-migrated families (src/tamp/{mutex,spin,
                       stacks,queues,lists,kv}/).  Those families declare
                       shared state as tamp::atomic (tamp/sim/atomic.hpp)
                       so the TAMP_SIM model checker can schedule every
                       access; a raw std::atomic is invisible to the
                       checker.  Other directories (core/, obs/, sim/,
                       reclaim/, check/, ...) are out of scope — the
                       scheduler itself and the infrastructure it rides on
                       must obviously stay on std::atomic.

  plain-shared-member  a mutable scalar or pointer data member inside the
                       facade-migrated families.  Objects of those classes
                       are shared across threads, so every mutable member
                       is either synchronized (tamp::atomic), a plain field
                       whose cross-thread ordering the sim race detector
                       should check (tamp::shared, tamp/sim/shared.hpp), or
                       immutable (const).  A bare `int`/`Node*` member is
                       invisible to the checker; lock-guarded fields that
                       stay plain on purpose take the annotation with the
                       guarding lock named in the surrounding comment.

  seqcst-store-reclaim a `.store(..., memory_order_seq_cst)` inside
                       src/tamp/reclaim/.  The reclamation read side runs
                       the asymmetric-fence protocol (release store +
                       compiler barrier; the scanner's membarrier carries
                       the store-load ordering), so a seq_cst store there
                       is either dead weight on the fast path or part of
                       the deliberate fallback branch — which must say so
                       with an annotation.  Other directories are out of
                       scope: seq_cst stores elsewhere are an ordinary
                       (if blunt) tool.

  spin-needs-pause     a spin-wait loop — a while/do loop whose *condition*
                       reads an atomic (.load/.exchange/.test/
                       .test_and_set) — with no pause anywhere in the loop:
                       no SpinWait::spin, Backoff::backoff, cpu_relax,
                       yield, wait, or park call.  A pauseless spin hammers
                       the cache line it waits on, starving the very writer
                       it is waiting for (Herlihy & Shavit §7.4/App. B),
                       and under TAMP_SIM it also hides the spin from the
                       scheduler's spin-hint parking.  Scoped to the hot
                       spin families src/tamp/{spin,mutex,queues,stacks}/.
                       CAS retry loops (compare_exchange in the condition)
                       are out of scope: they re-attempt, not re-read.

  obs-tag-registered   an `obs::ev::<tag>` use (counter, histogram, or
                       timer instantiation) whose tag struct is not
                       declared in src/tamp/obs/events.hpp.  events.hpp is
                       the single vocabulary of instrumentation points; a
                       tag minted ad hoc in a structure header is
                       invisible to anyone auditing what the library can
                       report.  Scoped to src/tamp/ outside obs/ itself
                       (the obs headers use `Tag` template parameters and
                       define the vocabulary; local test tags in tests/
                       are out of scope by the default roots).

  direct-reclaim-include
                       an `#include` of a concrete reclamation backend
                       (tamp/reclaim/{epoch,grace,hazard_pointers,qsbr}.hpp)
                       from src/tamp/ outside src/tamp/reclaim/ itself.
                       Structures consume reclamation through the
                       reclaim::domain concept (tamp/reclaim/domain.hpp),
                       which is what keeps them substrate-generic; a
                       direct backend include hard-wires one scheme and
                       silently bypasses the 3-way HP/EBR/QSBR ladder.
                       Infrastructure that genuinely needs one backend
                       (e.g. a benchmark fixture living in src/) takes
                       the annotation.

Escape hatch: a finding on line N is suppressed when line N or line N-1
carries `// tamp-lint: allow(<rule>)` (comma-separate several rules), and
a whole file opts out of one rule with `// tamp-lint: allow-file(<rule>)`.
Use the hatch with a reason in the surrounding comment; bare allows are
poor form.

Exit status: 0 when clean, 1 when any unsuppressed finding remains,
2 on usage errors.
"""

import argparse
import os
import re
import sys

RULES = {
    "cas-strong-loop": "compare_exchange_strong in a loop; _weak suffices "
                       "in retry loops (annotate if single-attempt "
                       "semantics are intentional)",
    "cas-relaxed-success": "CAS success ordering is memory_order_relaxed; "
                           "successful CAS is usually an acquire/release "
                           "point",
    "volatile-sync": "volatile is not a synchronization primitive; use "
                     "std::atomic",
    "atomic-align": "adjacent atomic members false-share; pad hot atomics "
                    "with alignas(kCacheLineSize)",
    "raw-atomic": "raw std::atomic in a facade-migrated family; use "
                  "tamp::atomic (tamp/sim/atomic.hpp) so TAMP_SIM can "
                  "schedule the access",
    "seqcst-store-reclaim": "seq_cst store on the reclamation read side; "
                            "the asymmetric-fence protocol wants a release "
                            "store (annotate deliberate fallback branches)",
    "plain-shared-member": "mutable plain member in a facade-migrated "
                           "family; use tamp::atomic, tamp::shared "
                           "(tamp/sim/shared.hpp), or const — annotate "
                           "lock-guarded fields, naming the lock",
    "obs-tag-registered": "not declared in src/tamp/obs/events.hpp; every "
                          "obs::ev tag must join the shared event "
                          "vocabulary there",
    "spin-needs-pause": "spin-wait loop with no pause; spin through "
                        "SpinWait/Backoff (or cpu_relax/yield) so the "
                        "waiter stops hammering the line and the sim "
                        "scheduler sees the spin",
    "direct-reclaim-include": "direct include of a concrete reclamation "
                              "backend; consume reclamation through the "
                              "reclaim::domain concept "
                              "(tamp/reclaim/domain.hpp) instead",
}

# Directories (under src/tamp/) whose families have been migrated onto the
# tamp::atomic facade; the raw-atomic rule fires only inside these.
FACADE_DIRS = ("mutex", "spin", "stacks", "queues", "lists", "kv", "hash")


def in_facade_scope(path):
    norm = os.path.abspath(path).replace(os.sep, "/")
    return any("/tamp/%s/" % d in norm for d in FACADE_DIRS)


def in_reclaim_scope(path):
    norm = os.path.abspath(path).replace(os.sep, "/")
    return "/tamp/reclaim/" in norm


# Directories whose spin loops are hot enough for spin-needs-pause.
SPIN_PAUSE_DIRS = ("spin", "mutex", "queues", "stacks")


def in_spin_pause_scope(path):
    norm = os.path.abspath(path).replace(os.sep, "/")
    return any("/tamp/%s/" % d in norm for d in SPIN_PAUSE_DIRS)


# A loop condition that *reads* an atomic: the signature of a spin-wait.
# compare_exchange_{weak,strong} deliberately does not match — a CAS retry
# loop re-attempts an update rather than re-reading a line, and its pacing
# is the cas rules' business.
SPIN_COND_RE = re.compile(
    r"(?:\.|->)\s*(?:load|exchange|test|test_and_set)\s*\(")

# Anything that counts as "pausing" inside the loop: the library's SpinWait
# / Backoff funnels, a raw cpu_relax/pause hint, an OS yield, a futex-style
# wait, or a scheduler park.
SPIN_PAUSE_RE = re.compile(
    r"\b(?:spin|backoff|cpu_relax|pause|yield|wait|park)\w*\s*\(")


# Concrete reclamation backends; everything under src/tamp/ outside
# reclaim/ must include tamp/reclaim/domain.hpp (or reclaim.hpp) instead.
RECLAIM_BACKEND_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s*[<"]tamp/reclaim/'
    r'(?:epoch|grace|hazard_pointers|qsbr)\.hpp[>"]')


def in_reclaim_include_scope(path):
    """direct-reclaim-include fires for src/tamp/ files outside the
    reclaim/ directory itself (the umbrella and the backends' own
    cross-includes are the substrate's business)."""
    norm = os.path.abspath(path).replace(os.sep, "/")
    return "/src/tamp/" in norm and "/src/tamp/reclaim/" not in norm


def scan_reclaim_includes(raw_lines):
    """The direct-reclaim-include pass: runs on *raw* lines (the stripper
    blanks string literals, and include paths are string literals)."""
    findings = []
    for i, line in enumerate(raw_lines, start=1):
        if RECLAIM_BACKEND_INCLUDE_RE.match(line):
            findings.append((i, "direct-reclaim-include",
                             RULES["direct-reclaim-include"]))
    return findings


def in_obs_tag_scope(path):
    """obs-tag-registered fires for src/tamp/ files outside obs/ (the obs
    headers define the vocabulary and use `Tag` template parameters)."""
    norm = os.path.abspath(path).replace(os.sep, "/")
    return "/src/tamp/" in norm and "/src/tamp/obs/" not in norm


_EVENTS_TAGS_CACHE = {}
_EVENTS_STRUCT_RE = re.compile(r"\bstruct\s+([A-Za-z_][A-Za-z0-9_]*)\s*\{")
OBS_TAG_USE_RE = re.compile(r"\bev::([A-Za-z_][A-Za-z0-9_]*)")


def registered_event_tags(path):
    """The tag structs declared in the events.hpp governing `path` (the
    repo's src/tamp/obs/events.hpp, resolved relative to the file's own
    src/tamp/ root so the self-test can fixture one).  None when there is
    no events.hpp to check against."""
    norm = os.path.abspath(path).replace(os.sep, "/")
    idx = norm.rfind("/src/tamp/")
    if idx == -1:
        return None
    events = norm[:idx] + "/src/tamp/obs/events.hpp"
    if events not in _EVENTS_TAGS_CACHE:
        try:
            with open(events, encoding="utf-8") as f:
                text = strip_comments_and_strings(f.read())
            _EVENTS_TAGS_CACHE[events] = set(
                _EVENTS_STRUCT_RE.findall(text))
        except OSError:
            _EVENTS_TAGS_CACHE[events] = None
    return _EVENTS_TAGS_CACHE[events]

ALLOW_RE = re.compile(r"tamp-lint:\s*allow\(([a-z\-, ]+)\)")
ALLOW_FILE_RE = re.compile(r"tamp-lint:\s*allow-file\(([a-z\-, ]+)\)")

LOOP_KEYWORDS = {"while", "for", "do"}
CLASS_KEYWORDS = {"class", "struct", "union"}


def collect_allows(raw_lines):
    """Map rule -> set of suppressed line numbers (1-based); the special
    line 0 means file-wide."""
    allowed = {rule: set() for rule in RULES}
    for i, line in enumerate(raw_lines, start=1):
        m = ALLOW_FILE_RE.search(line)
        if m:
            for rule in re.split(r"[,\s]+", m.group(1).strip()):
                if rule in allowed:
                    allowed[rule].add(0)
        m = ALLOW_RE.search(line)
        if m:
            for rule in re.split(r"[,\s]+", m.group(1).strip()):
                if rule in allowed:
                    allowed[rule].add(i)
                    allowed[rule].add(i + 1)
    return allowed


def strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving offsets
    and newlines so line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "str"
                i += 1
                continue
            if c == "'":
                state = "chr"
                i += 1
                continue
        elif state == "line":
            if c == "\n":
                state = None
            else:
                out[i] = " "
        elif state == "block":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = None
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = None
            elif c != "\n":
                out[i] = " "
        i += 1
    return "".join(out)


WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# -- plain-shared-member helpers -------------------------------------------

# Member types that are already synchronized, checked, or inert: these make
# a declaration exempt wherever they appear in it.
SYNCED_TYPE_RE = re.compile(
    r"tamp::atomic|tamp::shared|std::atomic|atomic_flag|AtomicMarkedPtr|"
    r"AtomicStampedIndex|std::mutex|std::condition_variable|std::vector|"
    r"std::array|std::unique_ptr|std::chrono|Padded<")

# Keywords that make the declaration not a mutable plain data member.
EXEMPT_KEYWORDS = {"const", "constexpr", "static", "using", "typedef",
                   "friend", "operator", "return", "template", "enum"}

# The scalar shapes the rule cares about (beyond pointer declarators):
# fundamental arithmetic types, the payload template parameter T, and the
# NodeKind/Kind enum convention.
PLAIN_SCALAR_RE = re.compile(
    r"(?:^|\s)(?:bool|char|short|int|long|float|double|unsigned|signed|"
    r"(?:std::)?size_t|(?:std::)?ptrdiff_t|(?:std::)?u?int(?:8|16|32|64)_t|"
    r"(?:std::)?u?intptr_t|T|[A-Za-z_][A-Za-z0-9_]*Kind|Kind)\s*$")

MEMBER_NAME_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[[^\]]*\]\s*)?$")


def plain_member_name(decl):
    """If `decl` (one class-scope declaration, comments stripped, no
    trailing ';') is a mutable plain scalar/pointer data member, return its
    name; else None."""
    d = re.sub(r"\b(?:public|private|protected)\s*:", " ", decl)
    if "(" in d or "&" in d:
        return None  # function, ctor, or reference member
    words = set(WORD_RE.findall(d))
    if words & EXEMPT_KEYWORDS:
        return None
    if SYNCED_TYPE_RE.search(d):
        return None
    d_noinit = re.split(r"[={]", d, 1)[0].strip()
    m = MEMBER_NAME_RE.search(d_noinit)
    if not m:
        return None
    name = m.group(1)
    type_text = d_noinit[:m.start()].strip()
    if not type_text:
        return None
    if "*" in type_text or PLAIN_SCALAR_RE.search(type_text):
        return name
    return None


class Scope:
    __slots__ = ("kind",)

    def __init__(self, kind):
        self.kind = kind  # 'loop' | 'class' | 'block'


def matching_paren(text, open_idx):
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(text) - 1


def matching_brace(text, open_idx):
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(text) - 1


def brace_open_of(text, close_idx):
    """Offset of the '{' matching the '}' at close_idx, or -1."""
    depth = 0
    for j in range(close_idx, -1, -1):
        if text[j] == "}":
            depth += 1
        elif text[j] == "{":
            depth -= 1
            if depth == 0:
                return j
    return -1


def matching_angle(text, open_idx):
    """End of a template argument list starting at '<'; tolerates nested
    <> and ()."""
    depth = 0
    for j in range(open_idx, len(text)):
        c = text[j]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return j
    return -1


def line_of(text, idx, line_starts):
    """1-based line number of offset idx (line_starts is sorted)."""
    lo, hi = 0, len(line_starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if line_starts[mid] <= idx:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def scan_spin_pause(text, line_starts):
    """The spin-needs-pause pass: `text` is comment/string-stripped source
    from a file inside SPIN_PAUSE_DIRS."""
    findings = []
    n = len(text)

    def report(idx):
        findings.append((line_of(text, idx, line_starts),
                         "spin-needs-pause", RULES["spin-needs-pause"]))

    # while (<atomic read>) <body> — the body (or, for an empty body,
    # nothing at all) must pause.
    for m in re.finditer(r"\bwhile\s*\(", text):
        cond_open = m.end() - 1
        cond_close = matching_paren(text, cond_open)
        cond = text[cond_open:cond_close + 1]
        if not SPIN_COND_RE.search(cond):
            continue
        # A `} while (...)` do-tail belongs to the do-loop pass below.
        before = text[:m.start()].rstrip()
        if before.endswith("}"):
            open_idx = brace_open_of(text, len(before) - 1)
            if open_idx >= 0 and re.search(r"\bdo\s*$", text[:open_idx]):
                continue
        k = cond_close + 1
        while k < n and text[k].isspace():
            k += 1
        if k < n and text[k] == "{":
            region = text[cond_open:matching_brace(text, k) + 1]
        elif k >= n or text[k] == ";":
            region = cond  # empty body: nowhere to pause
        else:
            semi = text.find(";", k)
            region = text[cond_open:semi + 1 if semi != -1 else n]
        if not SPIN_PAUSE_RE.search(region):
            report(m.start())

    # do { <body> } while (<cond>); — a do-loop's body re-executes every
    # iteration, so an atomic read in the *body* also makes it a spin-wait
    # (the MCS wait-for-link shape: do { x = next.load(); } while (!x)) —
    # unless the condition is a CAS, which makes it a retry loop instead.
    for m in re.finditer(r"\bdo\s*\{", text):
        body_open = m.end() - 1
        body_close = matching_brace(text, body_open)
        m2 = re.match(r"\s*while\s*\(", text[body_close + 1:])
        if not m2:
            continue
        cond_open = body_close + 1 + m2.end() - 1
        cond_close = matching_paren(text, cond_open)
        cond = text[cond_open:cond_close + 1]
        body = text[body_open:body_close + 1]
        is_spin = SPIN_COND_RE.search(cond) or (
            SPIN_COND_RE.search(body)
            and "compare_exchange" not in cond)
        if is_spin and not SPIN_PAUSE_RE.search(
                text[body_open:cond_close + 1]):
            report(m.start())
    return findings


def scan_file(path, raw_text):
    """Return list of findings: (line, rule, message)."""
    raw_atomic_scope = in_facade_scope(path)
    reclaim_scope = in_reclaim_scope(path)
    text = strip_comments_and_strings(raw_text)
    raw_lines = raw_text.splitlines()
    line_starts = [0]
    for m in re.finditer(r"\n", text):
        line_starts.append(m.end())

    findings = []
    if in_obs_tag_scope(path):
        tags = registered_event_tags(path)
        if tags is not None:
            for m in OBS_TAG_USE_RE.finditer(text):
                if m.group(1) not in tags:
                    findings.append(
                        (line_of(text, m.start(), line_starts),
                         "obs-tag-registered",
                         "tag 'ev::%s' %s" % (m.group(1),
                                              RULES["obs-tag-registered"])))
    if in_spin_pause_scope(path):
        findings.extend(scan_spin_pause(text, line_starts))
    if in_reclaim_include_scope(path):
        findings.extend(scan_reclaim_includes(raw_lines))
    scopes = []  # Scope stack for { }
    # Loop-condition regions: [(start, end)] of while/for parens.
    cond_regions = []
    pending = None  # keyword expected to tag the next '{'
    # atomic members: class-scope-id -> list of dicts
    class_members = {}
    class_ids = []  # parallel to scopes: unique id for class scopes
    next_class_id = [0]

    def in_loop(idx):
        if any(s.kind == "loop" for s in scopes):
            return True
        return any(a <= idx < b for a, b in cond_regions)

    def innermost_class():
        """Id of innermost class scope when the scope stack is exactly
        [non-class..., one class] from the outside in — i.e. the member
        belongs to a top-level (non-nested) class."""
        classes = [cid for cid, s in zip(class_ids, scopes)
                   if s.kind == "class"]
        if len(classes) == 1 and scopes and scopes[-1].kind == "class":
            return classes[0]
        return None

    i, n = 0, len(text)
    last_word = None
    seg_start = 0  # start of the current class-scope declaration segment
    while i < n:
        c = text[i]
        if c.isalpha() or c == "_":
            m = WORD_RE.match(text, i)
            word = m.group(0)
            end = m.end()
            if word in LOOP_KEYWORDS:
                if word == "do":
                    pending = "loop"
                else:
                    # Tag the condition parens; a `} while (...)` do-tail
                    # also re-executes per iteration, so no distinction
                    # needed.
                    j = text.find("(", end)
                    if j != -1 and text[end:j].strip() == "":
                        close = matching_paren(text, j)
                        cond_regions.append((j, close + 1))
                        pending = "loop"
            elif word in CLASS_KEYWORDS and last_word != "enum":
                pending = "class"
            elif word == "namespace":
                pending = "block"
            elif word == "volatile":
                if last_word != "asm" and not text[end:].lstrip().startswith(
                        "("):
                    findings.append((line_of(text, i, line_starts),
                                     "volatile-sync",
                                     RULES["volatile-sync"]))
            elif word in ("compare_exchange_strong",
                          "compare_exchange_weak"):
                line = line_of(text, i, line_starts)
                if word == "compare_exchange_strong" and in_loop(i):
                    findings.append((line, "cas-strong-loop",
                                     RULES["cas-strong-loop"]))
                j = text.find("(", end)
                if j != -1:
                    close = matching_paren(text, j)
                    args = text[j:close + 1]
                    orders = re.findall(r"memory_order_(\w+)", args)
                    if orders and orders[0] == "relaxed":
                        findings.append((line, "cas-relaxed-success",
                                         RULES["cas-relaxed-success"]))
            elif (word == "store" and reclaim_scope and i > 0
                  and text[i - 1] in ".>"):
                j = text.find("(", end)
                if j != -1 and text[end:j].strip() == "":
                    close = matching_paren(text, j)
                    orders = re.findall(r"memory_order_(\w+)",
                                        text[j:close + 1])
                    if "seq_cst" in orders:
                        findings.append((line_of(text, i, line_starts),
                                         "seqcst-store-reclaim",
                                         RULES["seqcst-store-reclaim"]))
            elif word == "atomic_flag" and text[i - 5:i] == "std::":
                if raw_atomic_scope:
                    findings.append((line_of(text, i, line_starts),
                                     "raw-atomic", RULES["raw-atomic"]))
            elif word == "atomic" and text[i - 5:i] == "std::":
                if raw_atomic_scope:
                    findings.append((line_of(text, i, line_starts),
                                     "raw-atomic", RULES["raw-atomic"]))
                cid = innermost_class()
                if cid is not None and text[end:end + 1] == "<":
                    close = matching_angle(text, end)
                    rest = text[close + 1:close + 200] if close > 0 else ""
                    m2 = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*"
                                  r"([;\[{=])", rest)
                    if m2:
                        line = line_of(text, i, line_starts)
                        decl_prefix = raw_lines[line - 1]
                        prev = raw_lines[line - 2] if line >= 2 else ""
                        class_members.setdefault(cid, []).append({
                            "line": line,
                            "name": m2.group(1),
                            "is_array": m2.group(2) == "[",
                            "has_alignas": "alignas" in decl_prefix
                                           or "alignas" in prev,
                        })
            last_word = word
            i = end
            continue
        if c == "{":
            kind = pending if pending in ("loop", "class") else "block"
            scopes.append(Scope(kind))
            if kind == "class":
                class_ids.append(next_class_id[0])
                next_class_id[0] += 1
            else:
                class_ids.append(-1)
            pending = None
            seg_start = i + 1
        elif c == "}":
            if scopes:
                scopes.pop()
                class_ids.pop()
            seg_start = i + 1
        elif c == ";":
            if raw_atomic_scope and scopes and scopes[-1].kind == "class":
                decl = text[seg_start:i]
                name = plain_member_name(decl)
                if name is not None:
                    off = seg_start + decl.rfind(name)
                    findings.append((line_of(text, off, line_starts),
                                     "plain-shared-member",
                                     "member '%s' %s" % (
                                         name,
                                         RULES["plain-shared-member"])))
            seg_start = i + 1
            # `class Foo;` forward declaration: drop the pending tag.
            if pending == "class":
                pending = None
        i += 1

    for members in class_members.values():
        if len(members) < 2:
            continue
        for mem in members:
            if not mem["is_array"] and not mem["has_alignas"]:
                findings.append((mem["line"], "atomic-align",
                                 "atomic member '%s' %s" % (
                                     mem["name"], RULES["atomic-align"])))
    return findings


def lint_path(path, rules):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    allowed = collect_allows(raw.splitlines())
    out = []
    for line, rule, msg in scan_file(path, raw):
        if rule not in rules:
            continue
        if 0 in allowed[rule] or line in allowed[rule]:
            continue
        out.append((path, line, rule, msg))
    return out


# --------------------------------------------------------------------------
# Self-test fixtures: (relative path, source, expected {(line, rule)}).
# The relative path matters — raw-atomic is scoped by directory.
# --------------------------------------------------------------------------
SELF_TEST_CASES = [
    # Written first on purpose: the obs-tag-registered fixtures below
    # resolve their events.hpp relative to their own src/tamp/ root, so
    # this file must already exist in the shared fixture directory.  The
    # file itself is in obs/ and therefore out of the rule's scope.
    ("src/tamp/obs/events.hpp",
     "namespace tamp::obs::ev {\n"
     "struct spin_acquires { static constexpr const char* n = \"a\"; };\n"
     "struct spin_acquire_ns { static constexpr const char* n = \"b\"; };\n"
     "struct kv_gets { static constexpr const char* n = \"c\"; };\n"
     "}\n",
     set()),

    # A tag declared in events.hpp: clean.
    ("src/tamp/spin/tag_ok.hpp",
     "#include \"tamp/obs/events.hpp\"\n"
     "inline void f() {\n"
     "    obs::counter<obs::ev::spin_acquires>::inc();\n"
     "    obs::scoped_timer<obs::ev::spin_acquire_ns> t;\n"
     "}\n",
     set()),

    # A tag minted ad hoc (not in events.hpp): one finding per use line.
    ("src/tamp/spin/tag_bad.hpp",
     "#include \"tamp/obs/events.hpp\"\n"
     "inline void f() {\n"
     "    obs::histogram<obs::ev::mystery_ns>::record(1);\n"
     "}\n",
     {(3, "obs-tag-registered")}),

    ("src/tamp/spin/raw.hpp",
     "#include <atomic>\n"
     "class L {\n"
     "    std::atomic<bool> state_{false};\n"
     "};\n",
     {(3, "raw-atomic")}),

    ("src/tamp/queues/raw_flag.hpp",
     "#include <atomic>\n"
     "class Q {\n"
     "    std::atomic_flag busy_ = ATOMIC_FLAG_INIT;\n"
     "};\n",
     {(3, "raw-atomic")}),

    ("src/tamp/spin/allowed.hpp",
     "#include <atomic>\n"
     "class L {\n"
     "    // tamp-lint: allow(raw-atomic)\n"
     "    std::atomic<bool> state_{false};\n"
     "};\n",
     set()),

    # Out of facade scope: core/ (and sim/ itself) may use std::atomic.
    ("src/tamp/core/ok.hpp",
     "#include <atomic>\n"
     "class C {\n"
     "    std::atomic<int> v_{0};\n"
     "};\n",
     set()),

    # The facade type is what the families are expected to use.
    ("src/tamp/stacks/facade.hpp",
     "#include \"tamp/sim/atomic.hpp\"\n"
     "class S {\n"
     "    tamp::atomic<int> top_{0};\n"
     "};\n",
     set()),

    # std::atomic in a *comment* must not fire.
    ("src/tamp/lists/comment.hpp",
     "// a std::atomic<int> mentioned in prose only\n"
     "class N {\n"
     "    tamp::atomic<int> x_{0};\n"
     "};\n",
     set()),

    ("src/tamp/core/cas.hpp",
     "#include <atomic>\n"
     "inline void f(std::atomic<int>& a) {\n"
     "    int e = 0;\n"
     "    while (!a.compare_exchange_strong(e, 1)) {\n"
     "    }\n"
     "    a.compare_exchange_weak(e, 2, std::memory_order_relaxed);\n"
     "}\n",
     {(4, "cas-strong-loop"), (6, "cas-relaxed-success")}),

    ("src/tamp/core/vol.hpp",
     "inline volatile int g = 0;\n",
     {(1, "volatile-sync")}),

    ("src/tamp/core/align.hpp",
     "#include <atomic>\n"
     "class P {\n"
     "    std::atomic<int> a_{0};\n"
     "    std::atomic<int> b_{0};\n"
     "};\n",
     {(3, "atomic-align"), (4, "atomic-align")}),

    # seq_cst store in reclaim/: fires on store, not on load.
    ("src/tamp/reclaim/pub.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>& slot, std::atomic<int>& src) {\n"
     "    slot.store(1, std::memory_order_seq_cst);\n"
     "    (void)src.load(std::memory_order_seq_cst);\n"
     "}\n",
     {(3, "seqcst-store-reclaim")}),

    # The annotated fallback branch is the sanctioned exception.
    ("src/tamp/reclaim/fallback.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>& slot) {\n"
     "    // tamp-lint: allow(seqcst-store-reclaim)\n"
     "    slot.store(1, std::memory_order_seq_cst);\n"
     "}\n",
     set()),

    # Release store in reclaim/ is the intended fast path: clean.
    ("src/tamp/reclaim/light.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>& slot) {\n"
     "    slot.store(1, std::memory_order_release);\n"
     "}\n",
     set()),

    # Outside reclaim/, seq_cst stores are not this rule's business.
    ("src/tamp/core/seqcst_ok.hpp",
     "#include <atomic>\n"
     "inline void pub(std::atomic<int>& flag) {\n"
     "    flag.store(1, std::memory_order_seq_cst);\n"
     "}\n",
     set()),

    # Plain scalar and pointer members in a facade family: both fire,
    # including inside a nested node struct.
    ("src/tamp/stacks/plain.hpp",
     "class S {\n"
     "    struct Node {\n"
     "        int value;\n"
     "        Node* next;\n"
     "    };\n"
     "    std::size_t used_ = 0;\n"
     "};\n",
     {(3, "plain-shared-member"), (4, "plain-shared-member"),
      (6, "plain-shared-member")}),

    # The sanctioned forms: tamp::shared, tamp::atomic, const, containers,
    # mutexes — all clean.
    ("src/tamp/lists/clean.hpp",
     "#include \"tamp/sim/shared.hpp\"\n"
     "class L {\n"
     "    struct Node {\n"
     "        const int key;\n"
     "        tamp::shared<int> value{};\n"
     "        tamp::atomic<Node*> next{nullptr};\n"
     "    };\n"
     "    std::mutex mu_;\n"
     "    std::vector<int> slots_;\n"
     "    Node* const head_ = nullptr;\n"
     "    void step() { int local = 0; local++; }\n"
     "};\n",
     set()),

    # The annotated escape hatch: a lock-guarded plain field may stay
    # plain when the comment names its guard.
    ("src/tamp/queues/guarded.hpp",
     "class Q {\n"
     "    std::mutex mu_;  // guards tail_\n"
     "    Node* tail_;  // tamp-lint: allow(plain-shared-member)\n"
     "};\n",
     set()),

    # Out of facade scope: plain members elsewhere are fine.
    ("src/tamp/core/plain_ok.hpp",
     "class C {\n"
     "    int v_ = 0;\n"
     "    Node* n_ = nullptr;\n"
     "};\n",
     set()),

    # Pauseless spin-waits: braced-empty body, statement body without a
    # pause, empty-statement body, and a do-while — all fire.
    ("src/tamp/spin/hot.hpp",
     "inline void f(tamp::atomic<bool>& flag, tamp::atomic<int>& v) {\n"
     "    while (flag.exchange(true)) {\n"
     "    }\n"
     "    while (v.load() != 0) ++v;\n"
     "    while (flag.load());\n"
     "    do {\n"
     "        ++v;\n"
     "    } while (v.load() < 8);\n"
     "}\n",
     {(2, "spin-needs-pause"), (4, "spin-needs-pause"),
      (5, "spin-needs-pause"), (6, "spin-needs-pause")}),

    # The sanctioned shapes: SpinWait, Backoff, cpu_relax, yield — clean.
    ("src/tamp/spin/paused.hpp",
     "inline void f(tamp::atomic<bool>& flag, tamp::atomic<int>& v) {\n"
     "    tamp::SpinWait w;\n"
     "    while (flag.exchange(true)) w.spin();\n"
     "    tamp::Backoff b;\n"
     "    while (v.load() != 0) {\n"
     "        b.backoff();\n"
     "    }\n"
     "    while (flag.load()) cpu_relax();\n"
     "    do {\n"
     "        std::this_thread::yield();\n"
     "    } while (v.load() < 8);\n"
     "}\n",
     set()),

    # A CAS retry loop is not a spin-wait: it re-attempts an update, it
    # does not blindly re-read a line.  (weak + default orders: the cas
    # rules stay quiet too.)
    ("src/tamp/stacks/cas_retry.hpp",
     "inline void push(tamp::atomic<int>& top) {\n"
     "    int e = top.load();\n"
     "    while (!top.compare_exchange_weak(e, e + 1)) {\n"
     "    }\n"
     "}\n",
     set()),

    # A do-loop spin-waits even when the atomic read sits in the body
    # (MCS wait-for-link); the Treiber-style do { load } while (CAS)
    # retry shape stays exempt.
    ("src/tamp/queues/do_body_load.hpp",
     "inline void f(tamp::atomic<int*>& next, tamp::atomic<int*>& top) {\n"
     "    int* succ = nullptr;\n"
     "    do {\n"
     "        succ = next.load();\n"
     "    } while (succ == nullptr);\n"
     "    int* e = nullptr;\n"
     "    do {\n"
     "        e = top.load();\n"
     "    } while (!top.compare_exchange_weak(e, succ));\n"
     "}\n",
     {(3, "spin-needs-pause")}),

    # `} while (...)` after an if-block is a fresh while, not a do-tail.
    ("src/tamp/mutex/block_then_while.hpp",
     "inline void f(tamp::atomic<bool>& flag, int x) {\n"
     "    if (x) {\n"
     "        ++x;\n"
     "    }\n"
     "    while (flag.load()) {\n"
     "    }\n"
     "}\n",
     {(5, "spin-needs-pause")}),

    # The escape hatch, for loops that are pauseless on purpose (e.g. the
    # two-step MCS unlock window where the successor link is imminent).
    ("src/tamp/queues/allowed_spin.hpp",
     "inline void f(tamp::atomic<bool>& flag) {\n"
     "    // tamp-lint: allow(spin-needs-pause)\n"
     "    while (flag.load()) {\n"
     "    }\n"
     "}\n",
     set()),

    # Out of scope: spin loops elsewhere (core/, sim/, ...) are not this
    # rule's business.
    ("src/tamp/core/spin_ok.hpp",
     "inline void f(tamp::atomic<bool>& flag) {\n"
     "    while (flag.load()) {\n"
     "    }\n"
     "}\n",
     set()),

    # A structure header hard-wiring a concrete backend: one finding per
    # backend include; the concept header and umbrella stay clean.
    ("src/tamp/lists/hardwired.hpp",
     "#include \"tamp/reclaim/epoch.hpp\"\n"
     "#include \"tamp/reclaim/hazard_pointers.hpp\"\n"
     "#include \"tamp/reclaim/qsbr.hpp\"\n"
     "#include \"tamp/reclaim/grace.hpp\"\n"
     "#include \"tamp/reclaim/domain.hpp\"\n"
     "#include \"tamp/reclaim/reclaim.hpp\"\n"
     "#include \"tamp/reclaim/asym_fence.hpp\"\n",
     {(1, "direct-reclaim-include"), (2, "direct-reclaim-include"),
      (3, "direct-reclaim-include"), (4, "direct-reclaim-include")}),

    # Inside reclaim/ the backends may include each other freely.
    ("src/tamp/reclaim/internal.hpp",
     "#include \"tamp/reclaim/epoch.hpp\"\n"
     "#include \"tamp/reclaim/hazard_pointers.hpp\"\n",
     set()),

    # A backend include mentioned in a comment must not fire; the angle-
    # bracket form must.
    ("src/tamp/queues/comment_include.hpp",
     "// #include \"tamp/reclaim/epoch.hpp\" — prose only\n"
     "#include <tamp/reclaim/qsbr.hpp>\n",
     {(2, "direct-reclaim-include")}),

    # The escape hatch, for infrastructure that genuinely needs one
    # backend.
    ("src/tamp/obs/backend_probe.hpp",
     "// tamp-lint: allow(direct-reclaim-include)\n"
     "#include \"tamp/reclaim/epoch.hpp\"\n",
     set()),

    # ---- kv/ joined FACADE_DIRS with the KV-service PR: the facade
    # rules fire there like in any migrated family ---------------------
    ("src/tamp/kv/raw_and_plain.hpp",
     "#include <atomic>\n"
     "class M {\n"
     "    struct Node {\n"
     "        std::uint64_t so_key;\n"
     "        Node* next;\n"
     "    };\n"
     "    std::atomic<std::uint64_t> gate_{0};\n"
     "};\n",
     {(4, "plain-shared-member"), (5, "plain-shared-member"),
      (7, "raw-atomic")}),

    # hash/ joined too once the split-ordered set moved onto the shared
    # core: its raw atomics would hide the family from the model checker.
    ("src/tamp/hash/raw.hpp",
     "#include <atomic>\n"
     "struct Core {\n"
     "    std::atomic<std::size_t> set_size{0};\n"
     "};\n",
     {(3, "raw-atomic")}),

    # The shapes the real kv headers use: const keys, tamp::atomic
    # values, marked pointers, owning containers — all clean.
    ("src/tamp/kv/clean.hpp",
     "#include \"tamp/sim/atomic.hpp\"\n"
     "class M {\n"
     "    struct Node {\n"
     "        const std::uint64_t so_key;\n"
     "        tamp::atomic<int> value;\n"
     "        AtomicMarkedPtr<Node> next;\n"
     "    };\n"
     "    const std::size_t max_load_;\n"
     "    Node* const head_ = nullptr;\n"
     "    tamp::atomic<std::uint64_t> gate_{0};\n"
     "    std::vector<int> shards_;\n"
     "};\n",
     set()),

    # kv consumes reclamation through the domain concept only.
    ("src/tamp/kv/hardwired.hpp",
     "#include \"tamp/reclaim/epoch.hpp\"\n"
     "#include \"tamp/reclaim/domain.hpp\"\n",
     {(1, "direct-reclaim-include")}),

    # kv telemetry tags must live in the shared events.hpp vocabulary.
    ("src/tamp/kv/tags.hpp",
     "#include \"tamp/obs/events.hpp\"\n"
     "inline void f() {\n"
     "    obs::counter<obs::ev::kv_gets>::inc();\n"
     "    obs::counter<obs::ev::kv_adhoc>::inc();\n"
     "}\n",
     {(4, "obs-tag-registered")}),
]


def self_test():
    import tempfile

    failures = []
    with tempfile.TemporaryDirectory() as td:
        for relpath, source, expected in SELF_TEST_CASES:
            path = os.path.join(td, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(source)
            got = {(line, rule)
                   for _, line, rule, _ in lint_path(path, set(RULES))}
            if got != expected:
                failures.append((relpath, sorted(expected), sorted(got)))
    for relpath, expected, got in failures:
        print("self-test FAIL %s\n  expected: %s\n  got:      %s"
              % (relpath, expected, got), file=sys.stderr)
    if failures:
        return 1
    print("lint_atomics: self-test OK (%d fixtures)" % len(SELF_TEST_CASES))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="tamp atomics lint (see module docstring)")
    ap.add_argument("--root", action="append", default=[],
                    help="directory to scan recursively (repeatable); "
                         "default: src/ next to this script")
    ap.add_argument("--rule", action="append", default=[],
                    choices=sorted(RULES), help="restrict to these rules")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--self-test", action="store_true",
                    help="run the linter over its built-in fixtures")
    args = ap.parse_args()

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-20s %s" % (rule, RULES[rule]))
        return 0

    if args.self_test:
        return self_test()

    roots = args.root or [
        os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "src")
    ]
    rules = set(args.rule) if args.rule else set(RULES)

    files = []
    for root in roots:
        if not os.path.isdir(root):
            print("lint_atomics: no such directory: %s" % root,
                  file=sys.stderr)
            return 2
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    files.append(os.path.join(dirpath, name))

    findings = []
    for path in sorted(files):
        findings.extend(lint_path(path, rules))

    for path, line, rule, msg in findings:
        print("%s:%d: [%s] %s" % (os.path.relpath(path), line, rule, msg))
    if findings:
        print("\nlint_atomics: %d finding(s) in %d file(s) scanned"
              % (len(findings), len(files)), file=sys.stderr)
        return 1
    print("lint_atomics: clean (%d files scanned)" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
