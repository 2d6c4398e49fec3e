#!/usr/bin/env python3
"""Repo-specific lint rules for the Chameleon C++ tree.

These rules encode invariants that clang-tidy cannot express because they
are about *this* codebase's contracts:

  modulo-sampling     `next_u64() % n` is modulo-biased for non-power-of-two
                      n; use Rng::uniform_int (Lemire rejection) instead.
  raw-assert          `assert(` outside src/util/check.h. Plain assert is
                      compiled out in Release, so contract violations pass
                      silently exactly where they matter; use CHAM_CHECK /
                      CHAM_DCHECK (static_assert is fine).
  naked-new           `new` / `delete` expressions in src/. Storage is
                      std::vector / std::unique_ptr everywhere; a naked new
                      is either a leak or a double-free waiting to happen.
  std-rand            std::rand / srand / rand(). Non-deterministic across
                      libcs; every random draw must flow through cham::Rng
                      so seeded runs stay bit-identical.
  rng-in-parallel-for Calls into Rng from a parallel_for body. Worker
                      execution order is nondeterministic, so any Rng use
                      inside the body breaks the bit-identity contract
                      (CHAM_THREADS=1 vs N must match byte-for-byte). Draw
                      before the loop, index into the draws inside it.
  alloc-in-parallel-for
                      Tensor construction or std::vector declaration/growth
                      (push_back, resize, ...) inside a parallel_for body.
                      Per-iteration allocation on the hot path serialises
                      workers on the allocator lock and defeats the
                      steady-state zero-alloc contract; take scratch from
                      the per-thread arena (ws::ArenaScope) or hoist the
                      buffer out of the loop.
  blocking-in-dispatch
                      Blocking I/O (file streams, fopen, std::filesystem,
                      sleep) or heap allocation inside a scheduler dispatch
                      critical section — the code between
                      `// cham-lint: begin(dispatch)` and
                      `// cham-lint: end(dispatch)` markers. These regions
                      run under a shard queue mutex in the serving runtime
                      (src/serve/session_manager.cpp); anything slow there
                      stalls admission for every session on the shard.
                      Checkpoint I/O belongs outside the markers, after the
                      request has been popped and the lock released.
  io-in-sessions-mu   Filesystem/stream calls or checkpoint (de)serialisation
                      inside a sessions_mu_ critical section — the code
                      between `// cham-lint: begin(sessions_mu)` and
                      `// cham-lint: end(sessions_mu)` markers. sessions_mu_
                      is the serving runtime's GLOBAL residency lock; a
                      save_state or disk write held under it stalls
                      admission, restore and eviction on EVERY shard (the
                      seed's 63ms save_ms_max was exactly this bug).
                      Eviction must unlink under the lock and serialise /
                      flush with it released (see serve/write_behind.h).
  blocking-in-batch-plan
                      Blocking I/O, checkpoint (de)serialisation, heap
                      allocation via make_unique/make_shared, or any learner
                      dispatch / eviction call inside a batch-plan critical
                      section — between `// cham-lint: begin(batch_plan)`
                      and `// cham-lint: end(batch_plan)` markers. Plan
                      formation (BatchPlanner::take_eligible) runs under a
                      shard queue mutex and may only MOVE queued requests
                      between vectors; evaluating a head, acquiring or
                      materialising a session, or serialising state there
                      stalls admission for every session on the shard. Plan
                      execution (dispatch_plan) belongs outside the markers
                      with the queue lock released.
  raw-mutex           Bare std::mutex / lock_guard / unique_lock /
                      condition_variable (and friends) in src/ outside
                      util/sync.h. Concurrency goes through the annotated
                      cham::util wrappers (Mutex / MutexLock / CondVar) so
                      Clang's thread-safety analysis sees every lock; a raw
                      std primitive is invisible to it.
  naked-cv-wait       A condition-variable wait(lock) with no predicate.
                      Spurious wakeups and lost-notify races make a naked
                      wait return without its condition holding; every wait
                      must be the predicate form wait(lock, pred)
                      (zero-argument waits, e.g. std::future::wait(), are
                      fine; so are wait_for / wait_until).
  syscall-in-net-lock Blocking syscalls (read/write/poll/accept/send/recv
                      and friends) or other blocking calls inside a
                      connection-mutex critical section — the code between
                      `// cham-lint: begin(net_mu)` and
                      `// cham-lint: end(net_mu)` markers. The socket
                      front-end (src/net/server.cpp) holds a connection's
                      mutex only to move frames between queues; a syscall
                      held under it stalls the responder (or the whole I/O
                      thread) behind a peer's socket buffer. Syscalls belong
                      outside the markers, on buffers the lock no longer
                      protects.
  unguarded-shared-member
                      A write to a `name_` member inside a
                      `// cham-lint: begin(...)` / `end(...)` marker region
                      whose declaration (this file or the sibling header)
                      does not carry CHAM_GUARDED_BY. Marker regions are
                      lock-held critical sections; a member mutated there is
                      shared state and must be declared guarded, or the
                      thread-safety analysis cannot check its other uses.

Suppression: append `// cham-lint: allow(<rule>)` to the offending line.

Usage: cham_lint.py [--list-rules] [paths...]   (default path: src/)
Exit status: 0 clean, 1 violations found, 2 usage error.
"""

import os
import re
import sys

RULES = {
    "modulo-sampling": "next_u64() % n is modulo-biased; use Rng::uniform_int",
    "raw-assert": "assert() outside util/check.h; use CHAM_CHECK / CHAM_DCHECK",
    "naked-new": "naked new/delete in src/; use std::vector / std::unique_ptr",
    "std-rand": "std::rand is non-deterministic; use the seeded cham::Rng",
    "rng-in-parallel-for": "Rng call inside a parallel_for body breaks "
    "bit-identity across thread counts",
    "alloc-in-parallel-for": "allocation inside a parallel_for body; use "
    "ws::ArenaScope scratch or hoist the buffer",
    "blocking-in-dispatch": "blocking I/O or heap allocation inside a "
    "dispatch critical section (runs under a shard queue mutex)",
    "io-in-sessions-mu": "filesystem/stream or checkpoint serialisation call "
    "inside a sessions_mu_ critical section (stalls every shard); unlink "
    "under the lock, serialise/flush with it released",
    "blocking-in-batch-plan": "blocking I/O, serialisation, heap allocation "
    "or learner dispatch inside a batch-plan critical section (runs under a "
    "shard queue mutex; plan formation may only move queued requests)",
    "raw-mutex": "bare std synchronisation primitive in src/; use the "
    "annotated cham::util::Mutex / MutexLock / CondVar (util/sync.h)",
    "naked-cv-wait": "condition-variable wait without a predicate; use "
    "wait(lock, pred) so spurious wakeups re-check the condition",
    "syscall-in-net-lock": "blocking syscall inside a net_mu critical "
    "section (the socket front-end holds connection mutexes only to move "
    "frames between queues); do socket I/O with the lock released",
    "unguarded-shared-member": "member written inside a lock-held marker "
    "region but not declared CHAM_GUARDED_BY; annotate the declaration so "
    "the thread-safety analysis can check it",
    "hot-path-stacking": "stack_latents() inside a hot_path marker region; "
    "the replay hot loop is zero-copy — pack a GatherBatch of row pointers "
    "and use forward_gather / the gather GEMM kernels instead of stacking "
    "latents into a batch tensor",
}

CXX_EXTENSIONS = (".cc", ".cpp", ".cxx", ".h", ".hpp")

ALLOW_RE = re.compile(r"cham-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

MODULO_RE = re.compile(r"next_u64\s*\(\s*\)\s*%")
ASSERT_RE = re.compile(r"(?<![_A-Za-z0-9])assert\s*\(")
NEW_RE = re.compile(r"(?<![_A-Za-z0-9])new\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![_A-Za-z0-9])delete\s*(\[\s*\])?\s*[A-Za-z_(*]")
RAND_RE = re.compile(r"(?:std\s*::\s*)?(?<![_A-Za-z0-9.])s?rand\s*\(")
RNG_USE_RE = re.compile(
    r"(?<![_A-Za-z0-9])(Rng|rng_?|next_u64|next_float|next_double|"
    r"uniform_int|sample_weighted)(?![A-Za-z0-9])"
)
PARALLEL_FOR_RE = re.compile(r"(?<![_A-Za-z0-9])parallel_for\s*\(")
# Tensor temporaries / declarations with ctor args, vector declarations, and
# the growing vector member calls. `const Tensor&` parameters don't match
# (no paren/brace follows the name).
ALLOC_RE = re.compile(
    r"(?<![_A-Za-z0-9])Tensor\s*[({]"
    r"|(?<![_A-Za-z0-9])Tensor\s+[A-Za-z_]\w*\s*[({]"
    r"|(?:std\s*::\s*)?vector\s*<"
    r"|(?:\.|->)\s*(?:push_back|emplace_back|resize|reserve|assign)\s*\("
)
# Marked regions are delimited by marker comments; markers live in
# comments so they are matched on the raw source, while the rules below run
# on the stripped code. Region kinds: `dispatch` (shard queue mutex),
# `sessions_mu` (global residency lock), `batch_plan` (shard queue mutex
# during plan formation) and `hot_path` (zero-copy replay loops).
DISPATCH_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(dispatch\)")
DISPATCH_END_RE = re.compile(r"cham-lint:\s*end\(dispatch\)")
SESSIONS_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(sessions_mu\)")
SESSIONS_END_RE = re.compile(r"cham-lint:\s*end\(sessions_mu\)")
BATCH_PLAN_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(batch_plan\)")
BATCH_PLAN_END_RE = re.compile(r"cham-lint:\s*end\(batch_plan\)")
HOT_PATH_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(hot_path\)")
HOT_PATH_END_RE = re.compile(r"cham-lint:\s*end\(hot_path\)")
NET_MU_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(net_mu\)")
NET_MU_END_RE = re.compile(r"cham-lint:\s*end\(net_mu\)")
# Blocking I/O syscalls (optionally `::`-qualified). Derived names like
# read_header / fwrite do not match (identifier-char guards on both sides).
SYSCALL_RE = re.compile(
    r"(?<![_A-Za-z0-9:])(?:::\s*)?"
    r"(?:read|write|pread|pwrite|readv|writev|recv|recvmsg|recvfrom|"
    r"send|sendmsg|sendto|poll|ppoll|epoll_wait|epoll_pwait|select|pselect|"
    r"accept4?|connect|fsync|fdatasync)\s*\("
)
# Batched-copy entry point banned from hot paths (the steady-state replay
# loop packs GEMM panels straight from latent/slab/LT row pointers).
STACK_LATENTS_RE = re.compile(r"(?<![_A-Za-z0-9])stack_latents\s*\(")
# Learner dispatch / residency calls: a batch-plan region may only move
# queued requests, never evaluate, admit, or evict.
PLAN_DISPATCH_RE = re.compile(
    r"(?<![_A-Za-z0-9])(?:acquire_session|materialize_session|dispatch_plan|"
    r"dispatch_timed|snapshot_and_submit|unlink_victim)\s*\("
    r"|(?:\.|->)\s*(?:predict|predict_batch|observe|eval_batch)\s*\("
)
BLOCKING_RE = re.compile(
    r"(?<![_A-Za-z0-9])(?:i|o)?fstream(?![A-Za-z0-9])"
    r"|(?<![_A-Za-z0-9])f(?:open|close|read|write|printf|flush)\s*\("
    r"|(?:std\s*::\s*)?filesystem\s*::"
    r"|(?<![_A-Za-z0-9])sleep_(?:for|until)\s*\("
    r"|(?<![_A-Za-z0-9])system\s*\("
)
DISPATCH_ALLOC_RE = re.compile(
    r"(?<![_A-Za-z0-9])make_(?:unique|shared)\s*<"
)
# Checkpoint (de)serialisation entry points: slow whole-state walks that
# must never run under the global residency lock.
SERIALIZE_RE = re.compile(
    r"(?:\.|->)\s*(?:save_state|load_state|save|load)\s*\("
    r"|(?<![_A-Za-z0-9])(?:save|load)_checkpoint\s*\("
    r"|(?:\.|->)\s*(?:put_full|put_delta|get_blob|get_delta)\s*\("
    r"|(?<![_A-Za-z0-9])(?:encode_op_log|read_op_log)\s*\("
)
# Raw std synchronisation primitives (with or without the std:: prefix —
# `using std::mutex` would otherwise dodge the rule). The annotated wrappers
# in util/sync.h are the only sanctioned spelling in src/.
RAW_MUTEX_RE = re.compile(
    r"(?<![_A-Za-z0-9])(?:std\s*::\s*)?"
    r"(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)"
    r"(?![_A-Za-z0-9])"
)
# `.wait(` / `->wait(` — wait_for / wait_until do not match (the char after
# `wait` must be `(`). The argument count decides the verdict.
CV_WAIT_RE = re.compile(r"(?:\.|->)\s*wait\s*\(")
# Any marker region, regardless of tag: `// cham-lint: begin(<tag>)`.
REGION_BEGIN_RE = re.compile(r"cham-lint:\s*begin\(([A-Za-z_][\w]*)\)")
REGION_END_RE = re.compile(r"cham-lint:\s*end\(([A-Za-z_][\w]*)\)")
# Declarations annotated guarded: `Type name_ CHAM_GUARDED_BY(mu)`.
GUARDED_DECL_RE = re.compile(r"(\w+_)\s+CHAM_GUARDED_BY\s*\(")
# Writes to trailing-underscore members: prefix/postfix ++/--, compound
# assignment, plain assignment (also through one [subscript]). Comparison
# operators (==, <=, !=, ...) do not match.
MEMBER_WRITE_RES = (
    re.compile(r"(?:\+\+|--)\s*(\w+_)(?![\w])"),
    re.compile(r"(?<![\w])(\w+_)\s*(?:\+\+|--)"),
    re.compile(r"(?<![\w])(\w+_)\s*(?:\[[^\]]*\]\s*)?"
               r"(?:[+\-*/%&|^]=(?!=)|<<=|>>=|=(?!=))"),
)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure.

    Replaces stripped characters with spaces so offsets and line numbers of
    the surviving code are unchanged. Good enough for lint purposes; raw
    string literals are treated as plain strings (no R"()" parsing).
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = " "
                    if text[i + 1] != "\n":
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def call_extent(code, open_paren):
    """Return the index one past the `)` matching code[open_paren] == '('."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def lint_file(path, raw):
    code = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    code_lines = code.splitlines()
    allowed = {}  # line number -> set of suppressed rules
    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            allowed[lineno] = {r.strip() for r in m.group(1).split(",")}

    in_src = "src" + os.sep in path or path.startswith("src/")
    is_check_header = path.replace(os.sep, "/").endswith("util/check.h")
    is_sync_header = path.replace(os.sep, "/").endswith("util/sync.h")

    violations = []

    def report(lineno, rule):
        if rule in allowed.get(lineno, ()):
            return
        violations.append((path, lineno, rule, RULES[rule]))

    for lineno, line in enumerate(code_lines, start=1):
        if MODULO_RE.search(line):
            report(lineno, "modulo-sampling")
        if RAND_RE.search(line):
            report(lineno, "std-rand")
        if in_src and not is_check_header and ASSERT_RE.search(line):
            report(lineno, "raw-assert")
        if in_src and (NEW_RE.search(line) or DELETE_RE.search(line)):
            report(lineno, "naked-new")
        if in_src and not is_sync_header and RAW_MUTEX_RE.search(line):
            report(lineno, "raw-mutex")

    # Rule checks inside marked critical sections. An unmatched begin(...)
    # extends to end of file (better to over-flag a malformed region than to
    # silently skip it).
    def check_region(begin_re, end_re, rule, bad):
        inside = False
        for lineno, raw_line in enumerate(raw_lines, start=1):
            if begin_re.search(raw_line):
                inside = True
                continue
            if end_re.search(raw_line):
                inside = False
                continue
            if not inside or lineno > len(code_lines):
                continue
            if bad(code_lines[lineno - 1]):
                report(lineno, rule)

    # Dispatch sections run under a shard queue mutex: no blocking I/O, no
    # heap allocation.
    check_region(
        DISPATCH_BEGIN_RE, DISPATCH_END_RE, "blocking-in-dispatch",
        lambda line: bool(BLOCKING_RE.search(line) or ALLOC_RE.search(line) or
                          DISPATCH_ALLOC_RE.search(line) or
                          NEW_RE.search(line)))
    # sessions_mu_ sections hold the global residency lock: no filesystem /
    # stream traffic and no whole-state (de)serialisation. (Container growth
    # is fine here — these regions bookkeep the session map.)
    check_region(
        SESSIONS_BEGIN_RE, SESSIONS_END_RE, "io-in-sessions-mu",
        lambda line: bool(BLOCKING_RE.search(line) or
                          SERIALIZE_RE.search(line)))
    # batch_plan sections run under a shard queue mutex while the planner
    # selects coalescible predicts: no blocking I/O, no (de)serialisation,
    # no make_unique/make_shared, and no learner dispatch of any kind.
    # (Container moves are fine — selecting IS moving requests.)
    check_region(
        BATCH_PLAN_BEGIN_RE, BATCH_PLAN_END_RE, "blocking-in-batch-plan",
        lambda line: bool(BLOCKING_RE.search(line) or
                          SERIALIZE_RE.search(line) or
                          DISPATCH_ALLOC_RE.search(line) or
                          PLAN_DISPATCH_RE.search(line)))
    # net_mu sections hold a connection's mutex purely to move frames
    # between queues: no socket syscalls, no file/stream I/O, no sleeps.
    # (cv waits are the sanctioned blocking — flow control needs them.)
    check_region(
        NET_MU_BEGIN_RE, NET_MU_END_RE, "syscall-in-net-lock",
        lambda line: bool(SYSCALL_RE.search(line) or
                          BLOCKING_RE.search(line)))
    # hot_path sections are the zero-copy replay loops (observe training,
    # chunked predict): latents must be gathered by pointer, never stacked
    # into a batch tensor.
    check_region(
        HOT_PATH_BEGIN_RE, HOT_PATH_END_RE, "hot-path-stacking",
        lambda line: bool(STACK_LATENTS_RE.search(line)))

    # Condition-variable waits must pass a predicate: exactly one top-level
    # argument (just the lock) is the lost-wakeup-prone form. Zero arguments
    # (std::future::wait()) and two (lock + predicate) are fine.
    for m in CV_WAIT_RE.finditer(code):
        open_paren = code.index("(", m.end() - 1)
        end = call_extent(code, open_paren)
        inner = code[open_paren + 1:end - 1]
        depth, commas = 0, 0
        for ch in inner:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            elif ch == "," and depth == 0:
                commas += 1
        if inner.strip() and commas == 0:
            report(code.count("\n", 0, m.start()) + 1, "naked-cv-wait")

    # Writes to `name_` members inside ANY marker region must be declared
    # CHAM_GUARDED_BY — in this file or the sibling header (members of a
    # .cpp's class are declared in its .h).
    guarded = set(GUARDED_DECL_RE.findall(code))
    root, ext = os.path.splitext(path)
    if ext in (".cc", ".cpp", ".cxx"):
        for hext in (".h", ".hpp"):
            sibling = root + hext
            if os.path.isfile(sibling):
                with open(sibling, encoding="utf-8",
                          errors="replace") as fh:
                    guarded |= set(GUARDED_DECL_RE.findall(
                        strip_comments_and_strings(fh.read())))
    region_depth = 0
    for lineno, raw_line in enumerate(raw_lines, start=1):
        # hot_path marks a zero-copy loop, not a lock-held section; member
        # writes there are single-owner and carry no guard obligation.
        m = REGION_BEGIN_RE.search(raw_line)
        if m and m.group(1) != "hot_path":
            region_depth += 1
            continue
        m = REGION_END_RE.search(raw_line)
        if m and m.group(1) != "hot_path":
            region_depth = max(0, region_depth - 1)
            continue
        if region_depth == 0 or lineno > len(code_lines):
            continue
        for write_re in MEMBER_WRITE_RES:
            for w in write_re.finditer(code_lines[lineno - 1]):
                if w.group(1) not in guarded:
                    report(lineno, "unguarded-shared-member")

    # Rng use inside the lexical extent of a parallel_for(...) call. The body
    # is a lambda argument, so the balanced-paren extent of the call covers it.
    for m in PARALLEL_FOR_RE.finditer(code):
        open_paren = code.index("(", m.start())
        end = call_extent(code, open_paren)
        extent = code[open_paren:end]
        base_line = code.count("\n", 0, open_paren) + 1
        for use in RNG_USE_RE.finditer(extent):
            lineno = base_line + extent.count("\n", 0, use.start())
            report(lineno, "rng-in-parallel-for")
        for use in ALLOC_RE.finditer(extent):
            lineno = base_line + extent.count("\n", 0, use.start())
            report(lineno, "alloc-in-parallel-for")

    return violations


def iter_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs if not d.startswith("."))
                for f in sorted(files):
                    if f.endswith(CXX_EXTENSIONS):
                        yield os.path.join(root, f)
        else:
            print(f"cham_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        for name, desc in RULES.items():
            print(f"{name:20s} {desc}")
        return 0
    paths = args or ["src"]
    violations = []
    nfiles = 0
    for path in iter_files(paths):
        nfiles += 1
        with open(path, encoding="utf-8", errors="replace") as fh:
            violations.extend(lint_file(path, fh.read()))
    for path, lineno, rule, desc in violations:
        print(f"{path}:{lineno}: [{rule}] {desc}")
    if violations:
        print(f"cham_lint: {len(violations)} violation(s) in {nfiles} files",
              file=sys.stderr)
        return 1
    print(f"cham_lint: {nfiles} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
