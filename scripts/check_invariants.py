#!/usr/bin/env python3
"""Project-invariant linter: enforces grouplink rules generic tools can't.

Rules (ids usable in suppressions):
  raw-thread      std::thread / std::jthread / std::async anywhere except the
                  thread_pool implementation. All parallelism must go through
                  ParallelFor / ThreadPool so determinism, cancellation, and
                  fault injection keep working.
  raw-random      rand()/srand()/time()-seeding/std::random_device/std::mt19937
                  anywhere except common/random.cc. Every random draw must come
                  from the seeded Rng, or experiments stop being reproducible.
  raw-stdio       std::cout / std::cerr / printf-to-console inside src/ outside
                  the logging implementation. Library code reports through
                  GL_LOG or returned Status values; only bench/example mains own
                  stdout.
  include-guard   Header guards must be GROUPLINK_<PATH>_H_ derived from the
                  file path (src/ stripped), e.g. src/index/minhash.h ->
                  GROUPLINK_INDEX_MINHASH_H_.
  bench-exit-code Every bench/bench_e*.cpp must end its main with
                  `return bench::ExitCode(...)` so CI sees Status failures as
                  non-zero exits.
  simd-include    <immintrin.h> (or any *intrin.h) outside the SIMD kernel and
                  dispatch implementations (simd_kernels.*, simd_dispatch.*).
                  Raw intrinsics elsewhere would dodge the runtime-dispatch /
                  bit-identical-fallback contract of DESIGN.md §10.
  raw-file-io     fopen / ::open / std::fstream outside src/storage/ and
                  src/data/record_io. Durable state must go through the
                  storage tier (PageFile/PageWriter: checksummed pages,
                  write-new-then-rename, fault-injection hooks) or the
                  record-I/O layer; ad-hoc file I/O elsewhere would dodge the
                  crash-recovery contract of DESIGN.md §12.
  raw-mutex       std::mutex / std::lock_guard / std::condition_variable and
                  friends anywhere except the common/mutex.h wrapper
                  internals. All locking must go through gl::Mutex /
                  gl::MutexLock so Clang Thread Safety Analysis sees every
                  acquire/release (DESIGN.md §14); a raw primitive is a hole
                  in the compile-time lock-discipline proof.
  lock-blocking-call  A blocking call (sleep_for, Persist*, fopen/fstream)
                  in a scope that holds a gl::MutexLock. Holding a lock
                  across a sleep or disk write stalls every thread behind
                  it; move the slow work outside the critical section, or
                  suppress with a reason when serializing the slow work is
                  exactly the lock's job.
  unreached-header  A header under src/ that no file under src/ (apart
                  from its own .cc), examples/ or perfbench/ includes: only
                  tests or benches reach it, so it is library code nothing
                  shipped needs. Move it into a test or bench support
                  target, or put `// gl-lint: allow(unreached-header) <why>`
                  anywhere in the header.
  suppression-reason  NOLINT / gl-lint escapes must carry a reason:
                  `// NOLINT(check): why` or `// gl-lint: allow(rule) why`.

Suppressions: append `// gl-lint: allow(<rule>) <reason>` (C++) or
`# gl-lint: allow(<rule>) <reason>` (scripts) to the offending line, or put it
alone on the line above. Every suppression is counted and the total printed so
the number stays visible in CI logs.

Usage: check_invariants.py [path ...]   (default: src bench)
Exit: 0 clean, 1 findings, 2 usage error.
"""

import os
import re
import sys

CXX_EXTENSIONS = (".cc", ".h", ".cpp")
SCRIPT_EXTENSIONS = (".py", ".sh")

GL_ALLOW_RE = re.compile(r"(?://|#)\s*gl-lint:\s*allow\(([\w-]+)\)\s*(.*)")
NOLINT_RE = re.compile(r"//\s*NOLINT(?:NEXTLINE)?\(([^)]*)\)(.*)")

RAW_THREAD_RE = re.compile(r"\bstd::(thread|jthread|async)\b")
RAW_RANDOM_RE = re.compile(
    r"\bstd::(random_device|mt19937(?:_64)?|default_random_engine)\b"
    r"|(?<![\w:])(?:s?rand)\s*\("
    r"|(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
RAW_STDIO_RE = re.compile(
    r"\bstd::(cout|cerr)\b|(?<![\w:.])f?printf\s*\(")
SIMD_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*<(\w*intrin\.h)>")
RAW_FILE_IO_RE = re.compile(
    r"\bfopen\s*\(|::open\s*\(|\bstd::(?:i|o)?fstream\b")
RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any)\b")
# A scoped gl lock coming into existence: `MutexLock lock(&mu);` (or the
# reader/writer variants, possibly namespace-qualified).
LOCK_DECL_RE = re.compile(
    r"\b(?:MutexLock|ReaderMutexLock|WriterMutexLock)\s+\w+\s*[({]")
BLOCKING_CALL_RE = re.compile(
    r"\bsleep_for\s*\(|\bPersist\w*\s*\(|\bfopen\s*\(|\bstd::(?:i|o)?fstream\b")
GUARD_RE = re.compile(r"^\s*#ifndef\s+(\w+)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
# Trees whose includes make a src/ header reachable, beside src/ itself.
REACHING_TREES = ("examples", "perfbench")


def strip_code(text):
    """Blanks out string/char literals and comments, preserving newlines.

    Keeps line numbers stable so findings point at real lines, and keeps
    comment text away from the code rules (comments may legitimately
    mention printf or std::thread).
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state in ("line_comment",):
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if (state == "string" and c == '"') or (state == "char" and c == "'"):
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


class Report:
    def __init__(self):
        self.findings = []
        self.suppressions = []
        # src/ headers linted, as (path, its src/ directory, path below
        # it, carries an unreached-header allow).
        self.src_headers = []

    def add(self, path, line, rule, message):
        self.findings.append((path, line, rule, message))

    def suppress(self, path, line, rule, reason):
        self.suppressions.append((path, line, rule, reason))


def collect_allows(raw_lines, report, path):
    """Maps line number -> set of allowed rules (same line or line above).

    A missing reason is itself a finding: the convention is grepable
    *because* every escape documents why.
    """
    allows = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = GL_ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            report.add(path, idx, "suppression-reason",
                       "gl-lint allow(%s) has no reason; write "
                       "'gl-lint: allow(%s) <why>'" % (rule, rule))
            continue
        report.suppress(path, idx, rule, reason)
        targets = [idx]
        # A standalone marker (only the comment on the line) covers the
        # next line as well.
        if line.split("//")[0].split("#")[0].strip() == "":
            targets.append(idx + 1)
        for t in targets:
            allows.setdefault(t, set()).add(rule)
    return allows


def check_nolint_reasons(raw_lines, report, path):
    for idx, line in enumerate(raw_lines, start=1):
        m = NOLINT_RE.search(line)
        if not m:
            continue
        trailing = m.group(2).strip()
        if not trailing.startswith(":") or not trailing.lstrip(": ").strip():
            report.add(path, idx, "suppression-reason",
                       "NOLINT(%s) has no reason; write "
                       "'NOLINT(%s): <why>'" % (m.group(1), m.group(1)))
        else:
            report.suppress(path, idx, "NOLINT(%s)" % m.group(1),
                            trailing.lstrip(": ").strip())


def project_relative(path):
    parts = os.path.normpath(path).split(os.sep)
    # Interpret the path relative to the nearest src/bench/examples root so
    # fixture trees (tests/lint_fixtures/src/...) scope exactly like the
    # real tree.
    for root in ("src", "bench", "examples"):
        if root in parts:
            idx = len(parts) - 1 - parts[::-1].index(root)
            return root, "/".join(parts[idx + 1:])
    return None, "/".join(parts)


def expected_guard(path):
    root, rel = project_relative(path)
    rel = rel if root in (None, "src") else root + "/" + rel
    return "GROUPLINK_" + re.sub(r"[/.]", "_", rel).upper() + "_"


def basename(path):
    return os.path.basename(path)


def check_lock_blocking(code_lines, flag):
    """Flags blocking calls made in a scope that holds a gl scoped lock.

    Tracks brace depth line by line; a `MutexLock lock(...)` (or reader/
    writer variant) pushes the depth at which it was declared, and is
    popped once the enclosing block closes. A blocking call is a finding
    while any pushed lock is still alive at the call's position. Purely
    lexical — it cannot see through function calls — but the scoped-lock
    idiom is mandatory here (raw-mutex rule), so same-scope coverage is
    exactly the hole a human reviewer misses.
    """
    depth = 0
    lock_stack = []  # brace depth at each live scoped-lock declaration
    for idx, line in enumerate(code_lines, start=1):
        decl = LOCK_DECL_RE.search(line)
        blocking = BLOCKING_CALL_RE.search(line)
        if blocking:
            pos_depth = (depth
                         + line.count("{", 0, blocking.start())
                         - line.count("}", 0, blocking.start()))
            held = any(d <= pos_depth for d in lock_stack)
            if decl and decl.start() < blocking.start():
                held = True
            if held:
                flag(idx, "lock-blocking-call",
                     "blocking call while a gl::MutexLock is held in this "
                     "scope; move the slow work outside the critical "
                     "section (or suppress with a reason if serializing "
                     "it is the lock's purpose)")
        if decl:
            lock_stack.append(depth
                              + line.count("{", 0, decl.start())
                              - line.count("}", 0, decl.start()))
        depth += line.count("{") - line.count("}")
        while lock_stack and depth < lock_stack[-1]:
            lock_stack.pop()


def lint_cxx(path, report):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.split("\n")
    allows = collect_allows(raw_lines, report, path)
    check_nolint_reasons(raw_lines, report, path)
    code_lines = strip_code(text).split("\n")
    root, rel = project_relative(path)

    def flag(idx, rule, message):
        if rule in allows.get(idx, ()):  # Suppressed with a reason.
            return
        report.add(path, idx, rule, message)

    in_thread_pool = basename(path).startswith("thread_pool.")
    in_mutex_impl = basename(path).startswith("mutex.")
    in_random = basename(path) in ("random.cc",)
    in_logging = basename(path).startswith("logging.")
    in_simd_impl = basename(path).startswith(("simd_kernels.", "simd_dispatch."))
    in_file_io_layer = root == "src" and (
        rel.startswith("storage/") or rel.startswith("data/record_io"))

    for idx, line in enumerate(code_lines, start=1):
        if not in_thread_pool and RAW_THREAD_RE.search(line):
            flag(idx, "raw-thread",
                 "raw std::%s; use ThreadPool/ParallelFor (thread_pool.h) so "
                 "determinism and cancellation hold"
                 % RAW_THREAD_RE.search(line).group(1))
        if not in_random and RAW_RANDOM_RE.search(line):
            flag(idx, "raw-random",
                 "unseeded/global randomness; draw from grouplink::Rng "
                 "(common/random.h) for reproducibility")
        if root == "src" and not in_logging and RAW_STDIO_RE.search(line):
            flag(idx, "raw-stdio",
                 "console I/O in library code; use GL_LOG or return Status")
        if not in_file_io_layer and RAW_FILE_IO_RE.search(line):
            flag(idx, "raw-file-io",
                 "raw file I/O outside src/storage/ and src/data/record_io; "
                 "go through PageFile/PageWriter or record_io so the "
                 "crash-recovery and fault-injection contracts hold")
        if not in_mutex_impl and RAW_MUTEX_RE.search(line):
            flag(idx, "raw-mutex",
                 "raw std::%s; use gl::Mutex/gl::MutexLock (common/mutex.h) "
                 "so Clang Thread Safety Analysis sees the acquire/release "
                 "(DESIGN.md §14)"
                 % RAW_MUTEX_RE.search(line).group(1))
        if not in_simd_impl and SIMD_INCLUDE_RE.search(line):
            flag(idx, "simd-include",
                 "raw <%s> outside simd_kernels.*/simd_dispatch.*; go through "
                 "text/simd_kernels.h so the runtime dispatch and the "
                 "bit-identical scalar fallback stay the only ISA boundary"
                 % SIMD_INCLUDE_RE.search(line).group(1))

    check_lock_blocking(code_lines, flag)

    if path.endswith(".h") and root == "src":
        src_dir = os.path.normpath(path)[:-len(rel) - 1] or os.sep
        report.src_headers.append(
            (path, src_dir, rel,
             any("unreached-header" in rules for rules in allows.values())))

    if path.endswith(".h"):
        guard = None
        for line in code_lines:
            m = GUARD_RE.match(line)
            if m:
                guard = m.group(1)
                break
        want = expected_guard(path)
        if guard != want:
            report.add(path, 1, "include-guard",
                       "guard %s != expected %s" % (guard or "<missing>", want))

    if re.match(r"bench_e\w*\.cpp$", basename(path)):
        if "return bench::ExitCode(" not in text:
            report.add(path, 1, "bench-exit-code",
                       "bench main must exit via `return bench::ExitCode(...)` "
                       "so Status failures become non-zero exits")


def quoted_includes(path):
    """The `#include "..."` targets of one C++ file, comments skipped."""
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    targets = set()
    for raw, code in zip(text.split("\n"), strip_code(text).split("\n")):
        m = INCLUDE_RE.match(raw)
        if m and code.lstrip().startswith("#"):
            targets.add(m.group(1))
    return targets


def check_reachability(report):
    """unreached-header over every linted src/ header (see the docstring).

    Includers are every C++ file under the header's src/ tree and under
    examples/ and perfbench/ beside it, whether or not they were linted.
    """
    includers = {}  # src/ directory -> include target -> including files
    for path, root, rel, allowed in report.src_headers:
        if root not in includers:
            trees = [root] + [os.path.join(os.path.dirname(root), tree)
                              for tree in REACHING_TREES]
            targets = {}
            for tree in trees:
                if not os.path.isdir(tree):
                    continue
                for f in iter_files([tree]):
                    if f.endswith(CXX_EXTENSIONS):
                        for target in quoted_includes(f):
                            targets.setdefault(target, set()).add(
                                os.path.normpath(f))
            includers[root] = targets
        own_cc = os.path.normpath(path[:-len(".h")] + ".cc")
        if includers[root].get(rel, set()) - {own_cc} or allowed:
            continue
        report.add(path, 1, "unreached-header",
                   "no file under src/ (apart from its own .cc), examples/ or "
                   "perfbench/ includes %s; move it into a test or bench "
                   "support target, or suppress with the reason it stays"
                   % rel)


def lint_script(path, report):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().split("\n")
    collect_allows(raw_lines, report, path)  # Count + reason-check only.


def iter_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames.sort()
            for name in sorted(filenames):
                yield os.path.join(dirpath, name)


def main(argv):
    paths = argv[1:] or ["src", "bench"]
    for p in paths:
        if not os.path.exists(p):
            print("check_invariants: no such path: %s" % p, file=sys.stderr)
            return 2
    report = Report()
    for path in iter_files(paths):
        if "lint_fixtures" in path and not any("lint_fixtures" in p for p in paths):
            continue  # Planted violations; linted only by their own test.
        if path.endswith(CXX_EXTENSIONS):
            lint_cxx(path, report)
        elif path.endswith(SCRIPT_EXTENSIONS):
            lint_script(path, report)
    check_reachability(report)
    for path, line, rule, message in report.findings:
        print("%s:%d: [%s] %s" % (path, line, rule, message))
    print("check_invariants: %d finding(s), %d suppression(s) with reasons"
          % (len(report.findings), len(report.suppressions)))
    for path, line, rule, reason in report.suppressions:
        print("  suppressed %s at %s:%d — %s" % (rule, path, line, reason))
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
