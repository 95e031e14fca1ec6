#!/usr/bin/env python
"""Regenerate the golden-trajectory fixtures under tests/golden/fixtures/.

Usage::

    PYTHONPATH=src python scripts/regen_golden.py [--check] [case ...]

Runs every case in :data:`tests.golden.cases.CASES` (or only the named
ones) through the default distance backend and rewrites its fixture
file.  ``--check`` instead verifies the committed fixtures match
what the current code produces and exits non-zero on any diff, without
writing anything.

Regenerating is an explicit act: a fixture diff in review is the signal
that the dynamics changed, and it must be justified, not silently
absorbed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from tests.golden.cases import (  # noqa: E402
    CASES,
    FIXTURE_DIR,
    expected_payload,
    generate_initial,
    run_case,
    write_fixture,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cases", nargs="*", help="case names (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="verify fixtures instead of rewriting them")
    args = parser.parse_args(argv)

    selected = [c for c in CASES if not args.cases or c.name in args.cases]
    unknown = set(args.cases) - {c.name for c in CASES}
    if unknown:
        print(f"unknown cases: {', '.join(sorted(unknown))}")
        return 2

    failures = 0
    for case in selected:
        initial = generate_initial(case)
        result = run_case(case, initial)
        if args.check:
            path = FIXTURE_DIR / f"{case.name}.json"
            if not path.exists():
                print(f"MISSING {case.name}")
                failures += 1
                continue
            stored = json.loads(path.read_text())
            fresh = json.loads(json.dumps(expected_payload(result)))
            if stored["expect"] != fresh:
                print(f"DIFF    {case.name}: stored fixture does not match current code")
                failures += 1
            else:
                print(f"OK      {case.name}")
        else:
            path = write_fixture(case, initial, result)
            print(f"wrote {path} ({result.status} after {result.steps} steps)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
