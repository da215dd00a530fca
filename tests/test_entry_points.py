"""The process entry points in real subprocesses: `python -m steinberg` and
`cli.run`, which the installed `steinberg` script calls.

`run` ends the process with `os._exit` once `main`'s output is flushed.  A
call through either entry point prints the same stdout, with the same exit
code, as `cli.main` in-process (the golden corpus), writes `--out` files
completely, and reports a stdout that cannot be written as the interpreter's
own exit does: exit 120 and "Exception ignored ...", whether the final flush
or an earlier write fails, buffered or not.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import steinberg

SRC = str(pathlib.Path(steinberg.__file__).resolve().parents[1])
GOLDEN = json.loads((pathlib.Path(__file__).with_name("golden") / "cli.json").read_text())

ENTRY_POINTS = {
    "module": ["-m", "steinberg"],
    "run": ["-c", "from steinberg import cli; cli.run()"],
}

# one golden call per subcommand, a usage error (exit 2), an unsupported
# ring (exit 3) and help
CALLS = [
    "classify --diagram A~2",
    "names --diagram BC~3^odd",
    "roots --diagram A~2 --level-bound 1",
    "pairs --diagram B~2^even --level-bound 1",
    "theta --diagram G~2 --alpha 1,0@0 --beta 0,1@0",
    "constants --diagram F4",
    "present --diagram A~2 --ring Z/2 --format native",
    "amalgam --diagram A~3 --ring Z --format native",
    "replay --case 6",
    "verify --diagram A~2 --ring Z/3 --level-bound 1",
    "hypotheses --diagram C~3 --units-fg",
    "roots --diagram A2",
    "verify --diagram A~2 --ring Z",
    "-h",
]


def _env(unbuffered: bool = False) -> dict:
    # stdout block-buffered, as for any caller that does not ask otherwise,
    # so that the output is written by the final flush, unless unbuffered;
    # argparse wraps help to COLUMNS, as in the golden corpus
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn(entry: list[str], call: str, unbuffered: bool = False,
           **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *entry, *call.split()], env=_env(unbuffered),
                          stderr=subprocess.PIPE, **kwargs)


def _digest(data: bytes, code: int) -> dict:
    return {"bytes": len(data), "exit": code, "sha256": hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("call", CALLS)
def test_stdout_and_exit_code_match_the_golden_corpus(entry, call):
    done = _spawn(ENTRY_POINTS[entry], call, stdout=subprocess.PIPE)
    assert _digest(done.stdout, done.returncode) == GOLDEN[call]
    assert bool(done.stderr) == (GOLDEN[call]["exit"] > 1)


# each entry point after a patch: runpy runs steinberg/__main__.py as -m does
PATCHED = {
    "module": "import runpy; runpy.run_module('steinberg', run_name='__main__')",
    "run": ENTRY_POINTS["run"][1],
}


@pytest.mark.parametrize("entry", PATCHED)
def test_a_failing_relation_exits_1_with_the_whole_report(entry):
    # the sign of s2-on-x, the only one-factor monomial of A~2, flipped
    source = (
        "from steinberg import presentation as P\n"
        "mono = P._mono\n"
        "P._mono = lambda k, *f: mono(-k if len(f) == 1 else k, *f)\n"
        + PATCHED[entry]
    )
    argv = "verify --diagram A~2 --ring Z/3 --level-bound 1"
    done = _spawn(["-c", source], argv, stdout=subprocess.PIPE)
    assert done.returncode == 1
    report = json.loads(done.stdout)
    assert not report["all_passed"]
    assert [f["family"] for f in report["families"] if f["failed"]] == ["s2-on-x"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_out_writes_the_complete_file(entry, tmp_path):
    call = "pairs --diagram B~2^even --level-bound 1"
    target = tmp_path / "pairs.json"
    done = _spawn(ENTRY_POINTS[entry], f"{call} --out {target}", stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert _digest(target.read_bytes(), 0) == GOLDEN[call]


# what the interpreter's own exit does with text it cannot flush
LEFT_PENDING = ["-c", "import sys; sys.stdout.write('x')"]

# a 64-byte output, which the final flush writes whole, a 6,963-byte one,
# which it writes past a 4,096-byte binary buffer, so that the failed write
# also drops the text (the interpreter's exit then has nothing to flush), and
# a 72,909-byte one, larger than the text layer's 8 KB chunk, which fails in
# the command's own write.  Unbuffered, every one fails in that write.
UNWRITABLE = [
    "classify --diagram A~2",
    "present --diagram A~2 --ring Z/2 --format native",
    "pairs --diagram B~2^even --level-bound 1",
]


def _unwritable(entry: list[str], call: str, stdout, unbuffered=False) -> tuple[int, bytes]:
    done = _spawn(entry, call, unbuffered, stdout=stdout)
    return done.returncode, done.stderr


def _assert_full_stdout_report(entry: str, call: str, unbuffered: bool) -> None:
    with open("/dev/full", "wb") as full:
        got = _unwritable(ENTRY_POINTS[entry], call, full, unbuffered)
        expected = _unwritable(LEFT_PENDING, "", full)
    assert got == expected
    assert expected[0] == 120 and len(expected[1].splitlines()) == 2
    assert expected[1].endswith(b"[Errno 28] No space left on device\n")


def _assert_closed_pipe_report(entry: str, call: str, unbuffered: bool) -> None:
    read, write = os.pipe()
    os.close(read)
    try:
        got = _unwritable(ENTRY_POINTS[entry], call, write, unbuffered)
        expected = _unwritable(LEFT_PENDING, "", write)
    finally:
        os.close(write)
    assert got == expected
    assert expected[0] == 120 and len(expected[1].splitlines()) == 2
    assert expected[1].endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("call", UNWRITABLE)
def test_a_full_stdout_exits_120_with_the_interpreters_report(entry, call):
    _assert_full_stdout_report(entry, call, unbuffered=False)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("call", UNWRITABLE)
def test_an_unbuffered_full_stdout_exits_120_with_the_same_report(entry, call):
    _assert_full_stdout_report(entry, call, unbuffered=True)


# argparse writes help itself and swallows a failed write; main keeps the
# help and writes it as any output
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("call", ["-h", "classify -h"])
def test_help_on_a_full_stdout_exits_120_with_the_same_report(entry, call, unbuffered):
    _assert_full_stdout_report(entry, call, unbuffered)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_pipe_closed_mid_output_exits_120_with_the_same_report(entry, unbuffered):
    # 3,113,283 bytes, far more than a pipe holds: the reader takes one byte
    # and closes, while the call is still writing.  Unbuffered, the text
    # layer would drop the rest of a short raw write and exit 0
    call = "pairs --diagram BC~3^odd --level-bound 2"
    with subprocess.Popen([sys.executable, *ENTRY_POINTS[entry], *call.split()],
                          env=_env(unbuffered), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        got = proc.wait(), proc.stderr.read()
    read, write = os.pipe()
    os.close(read)
    try:
        expected = _unwritable(LEFT_PENDING, "", write)
    finally:
        os.close(write)
    assert got == expected
    assert expected[0] == 120 and len(expected[1].splitlines()) == 2


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("call", UNWRITABLE)
def test_a_closed_pipe_exits_120_with_the_interpreters_report(entry, call):
    _assert_closed_pipe_report(entry, call, unbuffered=False)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("call", UNWRITABLE)
def test_an_unbuffered_closed_pipe_exits_120_with_the_same_report(entry, call):
    _assert_closed_pipe_report(entry, call, unbuffered=True)
