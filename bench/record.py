"""Check every invocation any seed can generate and record its stdout digest.

Usage (from the repository root; takes about four minutes):

    python3 bench/record.py

Each invocation runs once in-process and goes through the same checks as a
benchmark run.  Failures are listed and nothing is written, so the recorded
table only ever holds outputs that passed.  ``run.py`` compares each
invocation's stdout SHA-256 against this table and reports the count of
differences as ``cli.digest_mismatches``; a difference is informational,
not a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import DIGESTS, SRC, run_cli

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from rdunkl import cli  # noqa: E402


def main() -> int:
    digests = {}
    checker = checks.Checker()
    failures = 0
    for name in workloads.WORKLOADS:
        invs = workloads.space(name)
        for i, inv in enumerate(invs, 1):
            code, stdout, dt = run_cli(cli, inv)
            items, problem = checker.check(inv, code, stdout)
            if problem is not None:
                failures += 1
                print(f"FAILED {inv.key}: {problem}", flush=True)
                continue
            digests[inv.key] = hashlib.sha256(stdout.encode()).hexdigest()
            print(f"{name} {i}/{len(invs)} {dt:7.3f}s {items:5d} items  {inv.key}", flush=True)
    if failures:
        print(f"{failures} invocation(s) failed; {DIGESTS.name} left unchanged")
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
