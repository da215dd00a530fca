"""Golden corpus: sha256, byte length and exit code of the stdout of a fixed
set of `steinberg` invocations, run in-process through `cli.main`.

An intended output change re-records the corpus with

    PYTHONPATH=src python tests/test_golden.py

and the change says which goldens moved and why.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from steinberg import cli

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli.json"

CORPUS = [
    "classify --diagram A~2",
    "classify --diagram B~2^even",
    "names --diagram BC~3^odd",
    "roots --diagram A~2 --level-bound 1",
    "roots --diagram BC~2^odd --level-bound 1",
    "roots --diagram G~2^0mod3 --level-bound 1",
    "pairs --diagram B~2^even --level-bound 1",
    "pairs --diagram BC~2^odd --level-bound 1",
    "theta --diagram G~2 --alpha 1,0@0 --beta 0,1@0",
    "theta --diagram BC~2^odd --alpha 0,1@0 --beta 0,1@1",
    "constants --diagram G2",
    "constants --diagram F4",
    "present --diagram A~2 --ring Z/2 --format native",
    "present --diagram C~2 --ring Z/2 --format gap",
    "present --diagram G~2 --ring Z[t,u] --format json",
    "amalgam --diagram A~3 --ring Z --format native",
    "amalgam --diagram A~2 --ring Z/3 --format json",
    "replay --case 1",
    "replay --case 2",
    "replay --case 3",
    "replay --case 4",
    "replay --case 4 --eps 1 --eps-prime -1",
    "replay --case 4 --eps -1 --eps-prime 1",
    "replay --case 4 --eps -1 --eps-prime -1",
    "replay --case 5",
    "replay --case 6",
    "replay --case 7",
    "replay --case 8",
    "verify --diagram A~2 --ring Z/3 --level-bound 1",
    "hypotheses --diagram C~3 --units-fg",
    # exit 2: usage errors
    "present --diagram A~2 --ring Z/x",
    "roots --diagram A2",
    # exit 3: configurations the loop model cannot handle exactly
    "verify --diagram A~1 --ring Z/3",
    "verify --diagram A~2 --ring Z",
]


def run(call: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(call.split())
    data = out.getvalue().encode()
    return {"bytes": len(data), "exit": code, "sha256": hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("call", CORPUS)
def test_golden(call):
    assert run(call) == json.loads(GOLDEN.read_text())[call]


def test_corpus_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CORPUS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: run(c) for c in CORPUS}, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
