"""Workload definitions: the seeded call lists and the checks that do not
depend on the program's recorded output.

A call is a tuple of CLI arguments for ``python -m steinberg``.  A seed only
chooses arguments from fixed pools and the order of the calls; the number of
calls per subcommand is fixed, so every seed asks for a comparable amount of
work.
"""

from __future__ import annotations

import json
import random

VERIFY_WORDS = [("A~2", "Z/13"), ("C~2", "Z/7"), ("G~2", "Z/7")]
VERIFY_WIDE = [("F~4", "Z/3"), ("D~4", "Z/2"), ("B~3", "Z/3")]

# classify inputs whose canonical label is fixed by the README
CANONICAL = {"B~2": "C~2", "D~3": "A~3", "C2": "B2"}

# replay --case N [--eps E --eps-prime E'] -> last output line (README table)
REPLAY_VERDICTS = {(case, 1, 1): "COMMUTE" for case in (1, 2, 3, 4, 5, 7, 8)}
REPLAY_VERDICTS[(6, 1, 1)] = "CONSTANT C=4"
# the case-4 constant table {(1,1): 0, (1,-1): 6, (-1,1): 12, (-1,-1): -6}
CASE4_CONSTANTS = {(1, 1): 0, (1, -1): 6, (-1, 1): 12, (-1, -1): -6}
for (_e, _ep), _c in CASE4_CONSTANTS.items():
    REPLAY_VERDICTS[(4, _e, _ep)] = "COMMUTE" if _c == 0 else f"CONSTANT C={_c}"

POOLS = {
    "classify": ["A~2", "A~3", "G~2", "F~4", "BC~3^odd", "B~2^even",
                 "G~2^0mod3", "C~3^even", "G2", "F4", "B3", "E6"],
    "names": ["A~2", "C~3", "D~4", "G~2", "BC~3^odd", "B~2^even",
              "G~2^0mod3", "F~4^even"],
    "roots": [("B~2^even", 2), ("G~2", 1), ("BC~2^odd", 1), ("A~2", 2),
              ("C~2^even", 1), ("C~3", 1), ("G~2^0mod3", 1)],
    "pairs": [("A~2", 1), ("C~2", 1), ("BC~2^odd", 1), ("B~2^even", 1),
              ("G~2", 0), ("BC~1^odd", 2)],
    "theta": [("B~2", "0,1@0", "1,0@0"), ("G~2", "1,0@0", "0,1@0"),
              ("A~2", "1,0@0", "0,1@1"), ("BC~2^odd", "0,1@0", "0,1@1"),
              ("C~2", "1,0@1", "0,1@0")],
    "present": [("A~2", "Z/2"), ("C~2", "Z/2"), ("G~2", "Z/2"), ("A~2", "Z/3"),
                ("A~2", "Z[t,u]"), ("C~2", "Z"), ("G~2", "Z[t,u]"), ("A~3", "Z")],
    "amalgam": [("A~3", "Z/2"), ("C~2", "Z/3"), ("A~2", "Z/2"),
                ("A~3", "Z"), ("G~2", "Z[t,u]"), ("C~2", "Z")],
    "hypotheses": [("A~4", "--fg-ring"), ("A~2", None), ("C~3", "--units-fg"),
                   ("G~2", "--module-finite"), ("D~4", "--fg-ring")],
}
FORMATS = ("native", "gap", "json")
SYMBOLIC_RINGS = {"Z", "Z[t,u]"}


def _verify_calls(pairs):
    return [("verify", "--diagram", d, "--ring", r, "--level-bound", "1") for d, r in pairs]


def _present_calls(cmd, entries, rng):
    calls = []
    for diagram, ring in entries:
        # gap output needs a concrete ring
        fmt = rng.choice(FORMATS if ring not in SYMBOLIC_RINGS else ("native", "json"))
        calls.append((cmd, "--diagram", diagram, "--ring", ring, "--format", fmt))
    return calls


def _toolkit_calls(rng: random.Random):
    calls = [("classify", "--diagram", d) for d in CANONICAL]
    calls += [("classify", "--diagram", d) for d in rng.sample(POOLS["classify"], 3)]
    calls += [("names", "--diagram", d) for d in rng.sample(POOLS["names"], 3)]
    calls += [("roots", "--diagram", d, "--level-bound", str(b))
              for d, b in rng.sample(POOLS["roots"], 3)]
    calls += [("pairs", "--diagram", d, "--level-bound", str(b))
              for d, b in rng.sample(POOLS["pairs"], 2)]
    calls += [("theta", "--diagram", d, "--alpha", a, "--beta", b)
              for d, a, b in rng.sample(POOLS["theta"], 2)]
    calls += [("constants", "--diagram", d) for d in ("F4", "E6", "E8")]
    calls += [_replay_call(*key) for key in sorted(REPLAY_VERDICTS)]
    calls += _present_calls("present", rng.sample(POOLS["present"], 5), rng)
    calls += _present_calls("amalgam", rng.sample(POOLS["amalgam"], 4), rng)
    calls += [("hypotheses", "--diagram", d) + ((flag,) if flag else ())
              for d, flag in rng.sample(POOLS["hypotheses"], 2)]
    return calls


def _replay_call(case, eps, eps_prime):
    call = ("replay", "--case", str(case))
    if (eps, eps_prime) != (1, 1):
        call += ("--eps", str(eps), "--eps-prime", str(eps_prime))
    return call


WORKLOADS = {
    "verify-words": "many short words over small graded matrices (rank 2, larger rings)",
    "verify-wide": "few words over 28-52-dim matrices (higher rank, small rings)",
    "toolkit-session": "cold calls of every subcommand except verify",
}


def calls_for(workload: str, seed: int) -> list[tuple]:
    """The seed-ordered call list of one pass over a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-words":
        calls = _verify_calls(VERIFY_WORDS)
    elif workload == "verify-wide":
        calls = _verify_calls(VERIFY_WIDE)
    elif workload == "toolkit-session":
        calls = _toolkit_calls(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(calls)
    return calls


def every_call() -> list[tuple]:
    """Every call any seed can produce, for recording expectations."""
    calls = _verify_calls(VERIFY_WORDS + VERIFY_WIDE)
    calls += [("classify", "--diagram", d) for d in list(CANONICAL) + POOLS["classify"]]
    calls += [("names", "--diagram", d) for d in POOLS["names"]]
    calls += [("roots", "--diagram", d, "--level-bound", str(b)) for d, b in POOLS["roots"]]
    calls += [("pairs", "--diagram", d, "--level-bound", str(b)) for d, b in POOLS["pairs"]]
    calls += [("theta", "--diagram", d, "--alpha", a, "--beta", b) for d, a, b in POOLS["theta"]]
    calls += [("constants", "--diagram", d) for d in ("F4", "E6", "E8")]
    calls += [_replay_call(*key) for key in sorted(REPLAY_VERDICTS)]
    for cmd in ("present", "amalgam"):
        for diagram, ring in POOLS[cmd]:
            for fmt in FORMATS:
                if fmt != "gap" or ring not in SYMBOLIC_RINGS:
                    calls.append((cmd, "--diagram", diagram, "--ring", ring, "--format", fmt))
    calls += [("hypotheses", "--diagram", d) + ((flag,) if flag else ())
              for d, flag in POOLS["hypotheses"]]
    return calls


def check_output(call: tuple, stdout: bytes) -> tuple[str | None, int]:
    """Checks that hold whatever the recorded digests say.

    Returns (problem or None, relation instances checked by the call)."""
    cmd = call[0]
    text = stdout.decode("utf-8", "replace")
    if cmd == "verify":
        try:
            report = json.loads(text)
        except ValueError:
            return "verify output is not JSON", 0
        instances = sum(f["instances"] for f in report.get("families", []))
        if report.get("all_passed") is not True:
            return "verify report has all_passed != true", instances
        if instances == 0:
            return "verify report checked no instances", 0
        return None, instances
    if cmd == "replay":
        args = dict(zip(call[1::2], call[2::2]))
        key = (int(args["--case"]), int(args.get("--eps", 1)), int(args.get("--eps-prime", 1)))
        lines = text.splitlines()
        if not lines or lines[-1] != REPLAY_VERDICTS[key]:
            return f"replay {key} verdict {lines[-1:]} != {REPLAY_VERDICTS[key]!r}", 0
        return None, 0
    if cmd == "classify" and call[2] in CANONICAL:
        try:
            label = json.loads(text).get("label")
        except ValueError:
            label = None
        if label != CANONICAL[call[2]]:
            return f"classify {call[2]} gave {label!r}, not {CANONICAL[call[2]]!r}", 0
    return None, 0
