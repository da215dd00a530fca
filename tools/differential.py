"""Differential check: the same command lines through two source trees.

    python3 tools/differential.py --base HEAD~1 [--expect PATTERN ...]

exports the `src/` of the base revision with `git archive` into a temporary
directory and runs every call of the corpus through `python -m steinberg`
from that tree and from this checkout's `src/` (uncommitted edits included),
with COLUMNS=80 and at most two processes at a time.  A call is equal when
its exit code, stdout sha256 and stderr are equal in both trees.

The corpus is every call of `tests/golden/cli.json` and `bench/expected.json`,
help and usage errors (no command, an unknown one, every subcommand bare),
the command lines at the edges of the grammar in EDGE_CALLS, the verify
sweep VERIFY_SWEEP (14 untwisted diagrams over 7 small rings at level bound
1, 98 calls), and each --expect that names no call of these.  `--expect`
names calls whose bytes may differ: a call string, or an fnmatch pattern
such as '* -h'.  Each difference is printed; any difference that no --expect
names exits 1, and an expected call that stayed equal is reported but does
not fail.  Nothing is fetched: the base comes from the local repository.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CALL_TIMEOUT_S = 300
WORKERS = 2

# a well-formed call of every subcommand
PLAIN_CALLS = {
    "classify": "classify --diagram A~2",
    "names": "names --diagram A~2",
    "roots": "roots --diagram A~2 --level-bound 0",
    "pairs": "pairs --diagram A~2 --level-bound 0",
    "theta": "theta --diagram A~2 --alpha 1,0@0 --beta 0,1@0",
    "constants": "constants --diagram A2",
    "present": "present --diagram A~2 --ring Z/2",
    "amalgam": "amalgam --diagram A~2 --ring Z/2",
    "replay": "replay --case 1",
    "verify": "verify --diagram A~2 --ring Z/2 --level-bound 0",
    "hypotheses": "hypotheses --diagram A~2",
}
# command lines at the edges of the grammar: options that select nothing,
# flags that exclude each other, flags alone and repeated
EDGE_CALLS = [
    *PLAIN_CALLS.values(),
    *(f"{call} --jobs 2" for call in PLAIN_CALLS.values()),
    "amalgam --diagram A~2 --ring Z/2 --torus",
    "amalgam --diagram A~2 --ring Z/2 --no-torus",
    "present --diagram A~2 --ring Z/2 --torus",
    "present --diagram A~2 --ring Z/2 --no-torus",
    "present --diagram A~2 --ring Z/2 --torus --torus",
    "present --diagram A~2 --ring Z/2 --torus --no-torus",
    "present --diagram A~2 --ring Z/2 --no-torus --torus",
    "hypotheses --diagram C~3 --units-fg",
]
HELP_CALLS = ["", "-h", "--help", "foo", "replay --case 9", *PLAIN_CALLS]
# untwisted diagrams of every family A to G, over fields and over rings with
# zero divisors; A~1 exits 3 on each ring
VERIFY_SWEEP = [f"verify --diagram {diagram} --ring {ring} --level-bound 1"
                for diagram in ("A~1", "A~2", "A~3", "A~4", "B~3", "B~4", "C~2", "C~3", "C~4",
                                "D~4", "D~5", "G~2", "F~4", "E~6")
                for ring in ("Z/2", "Z/3", "Z/4", "Z/5", "Z/6", "GF(7)", "Z/9")]


class Outcome(NamedTuple):
    exit: int | None  # None after a timeout
    stdout_sha256: str
    stdout_bytes: int
    stderr: str


def corpus() -> list[str]:
    """The default calls, each once, in a fixed order."""
    calls = [*json.loads((ROOT / "tests" / "golden" / "cli.json").read_text()),
             *json.loads((ROOT / "bench" / "expected.json").read_text()),
             *HELP_CALLS, *EDGE_CALLS, *VERIFY_SWEEP]
    return list(dict.fromkeys(calls))


def export(rev: str, dest: Path) -> Path:
    """Extract the `src/` of a git revision into dest; return its path."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run_call(src: Path, call: str, cwd: Path) -> Outcome:
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    try:
        done = subprocess.run([sys.executable, "-m", "steinberg", *call.split()], cwd=cwd,
                              env=env, capture_output=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(None, "", 0, "timeout")
    return Outcome(done.returncode, hashlib.sha256(done.stdout).hexdigest(),
                   len(done.stdout), done.stderr.decode("utf-8", "replace"))


def compare(base_src: Path, new_src: Path, calls: list[str]) -> list[tuple]:
    """(call, base outcome, new outcome) of every call whose outcomes differ,
    in corpus order."""
    with tempfile.TemporaryDirectory() as cwd, ThreadPoolExecutor(WORKERS) as pool:
        base = pool.map(lambda call: run_call(base_src, call, Path(cwd)), calls)
        new = pool.map(lambda call: run_call(new_src, call, Path(cwd)), calls)
        return [(call, b, n) for call, b, n in zip(calls, base, new) if b != n]


def _describe(base: Outcome, new: Outcome) -> str:
    parts = []
    if base.exit != new.exit:
        parts.append(f"exit {base.exit} -> {new.exit}")
    if base.stdout_sha256 != new.stdout_sha256:
        parts.append(f"stdout {base.stdout_bytes} -> {new.stdout_bytes} bytes")
    if base.stderr != new.stderr:
        parts.append(f"stderr {len(base.stderr)} -> {len(new.stderr)} chars")
    return ", ".join(parts)


def _expected(call: str, patterns: list[str]) -> bool:
    return any(call == p or fnmatch.fnmatchcase(call, p) for p in patterns)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--expect", action="append", default=[], metavar="PATTERN",
                        help="a call, or fnmatch pattern of calls, that may differ")
    args = parser.parse_args(argv)
    calls = corpus()
    calls += [p for p in dict.fromkeys(args.expect) if not any(_expected(c, [p]) for c in calls)]
    with tempfile.TemporaryDirectory() as tmp:
        base_src = export(args.base, Path(tmp))
        differences = compare(base_src, ROOT / "src", calls)
    unexpected = 0
    for call, base, new in differences:
        tag = "expected" if _expected(call, args.expect) else "UNEXPECTED"
        unexpected += tag == "UNEXPECTED"
        print(f"{tag}: {call!r}: {_describe(base, new)}")
    differing = {call for call, _, _ in differences}
    for call in calls:
        if _expected(call, args.expect) and call not in differing:
            print(f"expected but equal: {call!r}")
    print(f"{len(calls)} calls against {args.base}: {len(calls) - len(differences)} equal, "
          f"{len(differences) - unexpected} expected differences, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
