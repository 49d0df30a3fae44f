#!/usr/bin/env python3
"""Self-test for check_invariants.py against the planted fixtures.

Asserts three things:
  1. Every planted violation class in tests/lint_fixtures/ is reported,
     at the expected file.
  2. The ok/ fixtures produce zero findings (suppressions work, comments
     and strings are not scanned, correct guards pass).
  3. Exit codes follow the contract: 1 for the bad tree, 0 for the ok tree.

Registered in ctest as `lint_selftest`; runnable standalone from the repo
root: python3 scripts/check_invariants_selftest.py
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINTER = os.path.join(REPO, "scripts", "check_invariants.py")
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")

# rule id -> substring of the file it must be reported in.
EXPECTED = [
    ("raw-thread", "raw_thread.cc"),
    ("raw-random", "raw_random.cc"),
    ("raw-stdio", "raw_stdio.cc"),
    ("include-guard", "bad_guard.h"),
    ("bench-exit-code", "bench_e99_fixture.cpp"),
    ("suppression-reason", "bare_nolint.cc"),
    ("simd-include", "raw_simd_include.cc"),
    ("raw-file-io", "raw_file_io.cc"),
    ("raw-mutex", "raw_mutex.cc"),
    ("lock-blocking-call", "lock_blocking_call.cc"),
    ("unreached-header", "unreached.h"),
]


def run(paths):
    proc = subprocess.run(
        [sys.executable, LINTER] + paths,
        cwd=REPO, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def fail(message, output):
    print("SELFTEST FAIL: %s" % message)
    print("--- linter output ---")
    print(output)
    return 1


def main():
    code, out = run([os.path.join(FIXTURES, "src", "bad"),
                     os.path.join(FIXTURES, "bench")])
    if code != 1:
        return fail("bad fixtures should exit 1, got %d" % code, out)
    for rule, fragment in EXPECTED:
        wanted = "[%s]" % rule
        hit = any(wanted in line and fragment in line
                  for line in out.splitlines())
        if not hit:
            return fail("missing %s finding in %s" % (rule, fragment), out)

    code, out = run([os.path.join(FIXTURES, "src", "ok")])
    if code != 0:
        return fail("ok fixtures should exit 0, got %d" % code, out)
    if "0 finding(s)" not in out:
        return fail("ok fixtures should have zero findings", out)
    if "6 suppression(s)" not in out:
        return fail("ok fixtures should count 6 reasoned suppressions", out)

    code, out = run([])  # Default roots: the real src/ and bench/ trees.
    if code != 0:
        return fail("real tree must be lint-clean (exit %d)" % code, out)

    print("SELFTEST PASS: all %d planted violation classes caught; "
          "ok fixtures and real tree clean" % len(EXPECTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
