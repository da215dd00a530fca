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
import os
import pathlib
import sys
from unittest import mock

import pytest

from steinberg import cli, jsonout

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
    # the non-classical cases: 1 and 4 on G~2, 1 at rank 3, and 2, 3, 5, 6, 7
    "pairs --diagram G~2 --level-bound 1",
    "pairs --diagram A~3 --level-bound 1",
    "pairs --diagram BC~3^odd --level-bound 1",
    # the twisted witnesses of cases 2, 3 and 4
    "pairs --diagram C~3^even --level-bound 1",
    "pairs --diagram F~4^even --level-bound 1",
    "pairs --diagram G~2^0mod3 --level-bound 1",
    "theta --diagram G~2 --alpha 1,0@0 --beta 0,1@0",
    "theta --diagram BC~2^odd --alpha 0,1@0 --beta 0,1@1",
    "constants --diagram G2",
    "constants --diagram F4",
    "constants --diagram E6",
    "constants --diagram E8",
    "present --diagram A~2 --ring Z/2 --format native",
    "present --diagram C~2 --ring Z/2 --format gap",
    "present --diagram G~2 --ring Z[t,u] --format json",
    "present --diagram A~2 --ring Z --km-torus --format native",
    # every torus-action schema in the schema ring's rendering, e.g. X1(r*t)
    "present --diagram A~2 --ring Z --torus --format native",
    "amalgam --diagram A~3 --ring Z --format native",
    # several units and zero divisors in the concrete parameters
    "present --diagram A~2 --ring Z/8 --torus --km-torus --format native",
    "present --diagram G~2 --ring GF(5) --torus --format native",
    "amalgam --diagram C~2 --ring Z/9 --km-torus --format native",
    "amalgam --diagram A~2 --ring Z/3 --format json",
    # towers of polynomial and Laurent rings, and schema parameters with
    # negative exponents (r^-1*t, u^-1*v^-1) in JSON
    "present --diagram A~2 --ring Z[t][r^+-1] --format native",
    "amalgam --diagram G~2 --ring Z/5[t^+-1] --km-torus --format json",
    "present --diagram C~2 --ring Z --torus --km-torus --format json",
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
    "verify --diagram C~2 --ring Z/4 --level-bound 2",
    # zero divisors in the parameters, and a prime field with cubic divided powers
    "verify --diagram A~2 --ring Z/8 --level-bound 1",
    "verify --diagram G~2 --ring GF(5) --level-bound 1",
    "hypotheses --diagram C~3 --units-fg",
    # exit 2: usage errors
    "present --diagram A~2 --ring Z/x",
    "roots --diagram A2",
    # a ring tower that names a variable twice
    "present --diagram A~2 --ring Z/3[t^+-1][t]",
    # exit 3: configurations the loop model cannot handle exactly
    "verify --diagram A~1 --ring Z/3",
    "verify --diagram A~2 --ring Z",
    # help: the full parser's and each subcommand's, exit 0
    "-h",
    "classify -h",
    "names -h",
    "roots -h",
    "pairs -h",
    "theta -h",
    "constants -h",
    "present -h",
    "amalgam -h",
    "replay -h",
    "verify -h",
    "hypotheses -h",
]

# argparse wraps help text to the terminal width, which it reads from COLUMNS
HELP_COLUMNS = "80"


def run(call: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.dict(os.environ, COLUMNS=HELP_COLUMNS):
        code = cli.main(call.split())
    data = out.getvalue().encode()
    return {"bytes": len(data), "exit": code, "sha256": hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("call", CORPUS)
def test_golden(call):
    assert run(call) == json.loads(GOLDEN.read_text())[call]


def test_corpus_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CORPUS)


def test_json_writer_matches_json_dumps_on_every_golden_payload(monkeypatch):
    # every payload a golden call prints as JSON, written by jsonout and by json
    payloads, dumps = [], jsonout.dumps
    monkeypatch.setattr(jsonout, "dumps", lambda p: payloads.append(p) or dumps(p))
    printed = 0
    for call in CORPUS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(call.split())
        printed += out.getvalue().startswith(("{", "["))
    assert payloads and len(payloads) == printed
    for payload in payloads:
        assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_every_golden_call_argparse_accepts_takes_the_exact_parser():
    # cli.main leaves to argparse only the argv its exact parser does not take
    parser = cli.build_parser()
    for call in CORPUS:
        argv = call.split()
        if "-h" in argv:
            assert cli.parse_exact(argv) is None
            continue
        assert vars(cli.parse_exact(argv)) == vars(parser.parse_args(argv))


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: run(c) for c in CORPUS}, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
