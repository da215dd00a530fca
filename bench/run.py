"""Cold-CLI benchmark for steinberg.

    python3 bench/run.py --workload verify-words --seed 1 --seconds 30 --trace 0

A closed loop with one client: the calls of a workload run one after another,
each a fresh ``python -m steinberg ...`` subprocess, never two at a time, all
on one CPU.  One pass runs the workload's seed-ordered call list once.  The
first pass always runs; another starts only while it is expected to end
within ``--seconds`` of the start of measuring.  Times are reported at a
reference host speed, measured by a probe loop while each call runs, with
the raw times printed beside them.  Every call is checked against the exit
code and stdout sha256 recorded in ``expected.json`` and against checks that
do not depend on the program (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each call
plain and under ``tracer.py``, back to back, and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, plus the machine info and the
seed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

CALL_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # no call starts or runs past this point of a run
SETUP_REPEATS = 11
# Host-speed probe: a fixed pure-Python loop that the benchmark process times
# every PROBE_EVERY_S while a child runs.  On a shared virtual machine the
# host's speed can drift by up to 2x over seconds to minutes, differently on
# each CPU, and the child's time drifts with it.  So the benchmark, its probe and its children share one
# CPU, and every time metric is scaled by PROBE_REF_S / (interquartile mean
# of the probe times during the call).
PROBE_LOOP = 20000
PROBE_REF_S = 1.0e-3
PROBE_EVERY_S = 0.02
LAYERS = ("cli", "rings", "diagrams", "roots", "chevalley", "presentation",
          "collection", "loopmodel")

# per-layer counts read off the traced spans: metric -> wrapped callable
SPAN_COUNTS = {
    "loopmodel.model_builds": "loopmodel.LoopModel.__init__",
    "loopmodel.products": "loopmodel.LoopMatrix.__mul__",
    "loopmodel.words_evaluated": "loopmodel.LoopModel.evaluate_word",
    "loopmodel.letters_requested": "loopmodel.LoopModel.letter",
    "loopmodel.s_inverse_calls": "loopmodel.LoopModel.s_inverse",
    "chevalley.basis_builds": "chevalley.ChevalleyBasis.__init__",
    "chevalley.divided_powers_calls": "chevalley.ChevalleyBasis.divided_powers",
    "chevalley.commutator_table_calls": "chevalley.ChevalleyBasis.commutator_table",
    "diagrams.classify_calls": "diagrams.classify",
    "diagrams.isomorphism_calls": "diagrams.isomorphism",
    "roots.affine_system_calls": "roots.affine_system",
    "roots.classify_pair_calls": "roots.classify_pair",
    "collection.replays": "collection.replay",
    "collection.collect_calls": "collection.collect",
}
# inclusive span times: metric -> wrapped callable
SPAN_TIMES = {
    "loopmodel.relators_s": "loopmodel.verify_presentation",
    "loopmodel.actions_s": "loopmodel.verify_morita_rehmann",
}
COUNTERS = ("loopmodel.block_products", "loopmodel.block_macs",
            "loopmodel.letters_distinct", "presentation.relators",
            "presentation.emitted_bytes")


def child_env() -> dict:
    """The caller's environment, importing steinberg from src/ and with
    bytecode caching and buffered stdout on, as for an installed package,
    whatever the caller's settings."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    return env


class Child(NamedTuple):
    wall_s: float  # spawn to exit
    rc: int | None  # None after a timeout
    out: bytes
    err: bytes
    maxrss_kb: int
    probe_s: float  # interquartile mean probe time while the child ran

    @property
    def norm_s(self) -> float:
        """wall_s at the reference host speed."""
        return self.wall_s * PROBE_REF_S / self.probe_s


def interquartile_mean(values: list[float]) -> float:
    values = sorted(values)
    k = len(values) // 4
    return statistics.mean(values[k:len(values) - k])


def pin_to_one_cpu() -> int | None:
    """Run this process, its probe thread and every child on one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs Python now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i
    return time.perf_counter() - t0


def spawn(argv: list[str], timeout: float) -> Child:
    """Run one child to completion, probing the host speed while it runs."""
    WORK.mkdir(exist_ok=True)
    killed, done = threading.Event(), threading.Event()
    samples: list[float] = []

    def sample():
        samples.append(probe())
        while not done.wait(PROBE_EVERY_S):
            samples.append(probe())

    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        prober = threading.Thread(target=sample)
        prober.start()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
        rc, maxrss = None, 0
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            if not killed.is_set():
                rc, maxrss = os.waitstatus_to_exitcode(status), usage.ru_maxrss
            proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:  # reaped by kill() racing the timeout
            proc.wait()
        wall = time.perf_counter() - t0
        done.set()
        prober.join()
        err.seek(0)
        return Child(wall, rc, out, err.read()[-400:], maxrss, interquartile_mean(samples))


# -- the known-answer gate ----------------------------------------------------


def call_key(call: tuple) -> str:
    return " ".join(call)


def judge(call: tuple, rc, stdout: bytes, expected: dict) -> tuple[str | None, int]:
    """First problem with one call's result (None if it passes), and the
    relation instances it checked."""
    if rc is None:
        return "timeout", 0
    problem, instances = workloads.check_output(call, stdout)
    want = expected.get(call_key(call))
    if want is None:
        return "no recorded expectation", instances
    if rc != want["exit"]:
        return f"exit code {rc}, expected {want['exit']}", instances
    if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
        return "stdout sha256 differs from the recorded one", instances
    return problem, instances


def run_call(call: tuple, expected: dict, limit: float, traced: bool) -> dict:
    """One call, plain or under tracer.py, judged by the gate.  A call with
    no time left counts as a timeout."""
    spans = None
    if limit <= 0:
        child = Child(0.0, None, b"", b"run deadline reached", 0, PROBE_REF_S)
    elif traced:
        fd, spans_path = tempfile.mkstemp(dir=WORK, suffix=".json")
        os.close(fd)
        try:
            child = spawn([sys.executable, str(BENCH / "tracer.py"), spans_path, *call], limit)
            if child.rc is not None:
                spans = json.loads(Path(spans_path).read_text())
        finally:
            os.unlink(spans_path)
    else:
        child = spawn([sys.executable, "-m", "steinberg", *call], limit)
    problem, instances = judge(call, child.rc, child.out, expected)
    return {"call": call_key(call), "traced": traced, "wall_s": child.wall_s,
            "norm_s": child.norm_s, "rc": child.rc, "maxrss_kb": child.maxrss_kb,
            "problem": problem, "instances": instances, "spans": spans,
            "stderr": child.err.decode("utf-8", "replace") if problem else ""}


def run_pass(calls, expected: dict, deadline: float, traced: bool = False,
             timeout: float = CALL_TIMEOUT_S) -> dict:
    """One pass over the call list; every call is attempted.  A traced pass
    runs each call plain and traced back to back, in alternating order, so
    that a change in host speed hits both alike."""
    WORK.mkdir(exist_ok=True)
    results = []
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        for mode in ((False, True) if i % 2 == 0 else (True, False)) if traced else (False,):
            limit = min(timeout, deadline - time.perf_counter())
            results.append(run_call(call, expected, limit, mode))
    return {"wall_s": time.perf_counter() - t0, "calls": results}


# -- metrics ------------------------------------------------------------------


def tail(latencies: list[float]):
    """Latency at the highest percentile with at least ten calls beyond it:
    (value, percentile, sample count), or None with fewer than 11 calls."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes: list[dict], setup: tuple[float, float]) -> tuple[dict, dict]:
    """The bounded metrics (times at the reference host speed, and peak RSS)
    and the rest: raw times, host speed, throughput, tail and failures."""
    calls = [c for p in passes for c in p["calls"]]
    done = [c for c in calls if c["rc"] is not None]
    norm = [c["norm_s"] for c in done]
    raw = [c["wall_s"] for c in done]
    pass_norm = [sum(c["norm_s"] for c in p["calls"]) for p in passes]
    metrics = {
        "wall_s": (statistics.median(pass_norm), "s"),
        "call_p50_s": (statistics.median(norm) if norm else 0.0, "s"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (max(c["maxrss_kb"] for c in calls) / 1024.0, "MB"),
    }
    extra = {
        "failed_ratio": (sum(1 for c in calls if c["problem"]) / len(calls), "ratio"),
        "wall_raw_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "call_p50_raw_s": (statistics.median(raw) if raw else 0.0, "s"),
        "setup_raw_s": (setup[1], "s"),
        "host_speed": (sum(norm) / sum(raw) if raw else 0.0, "ratio"),
    }
    instances = sum(c["instances"] for c in calls)
    if instances:
        extra["instances_per_s"] = (instances / sum(pass_norm), "1/s")
    t = tail(norm)
    if t is not None:
        extra["call_tail_s"] = (t[0], "s")
        extra["call_tail_percentile"] = (t[1], "%")
        extra["call_tail_samples"] = (t[2], "count")
    return metrics, extra


def calibrate() -> dict:
    """Wrapper costs measured by tracer.py in a fresh interpreter."""
    child = spawn([sys.executable, str(BENCH / "tracer.py"), "--calibrate"], CALL_TIMEOUT_S)
    if child.rc != 0:
        raise SystemExit(f"error: tracer calibration failed: {child.err.decode(errors='replace')}")
    return json.loads(child.out)


def layer_split(traced: dict, cost: dict) -> dict:
    """Per-layer numbers of one traced pass, summed over its calls, with
    every time scaled to the reference host speed by its call's probe.  The
    measured cost of the wrappers and counter hooks is moved out of the
    layers into unattributed time, so the layers' self times, the import
    time and the unattributed time add up to the traced calls' time."""
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({k: 0 for k in SPAN_COUNTS})
    m.update({k: 0.0 for k in SPAN_TIMES})
    m.update({k: 0 for k in COUNTERS})
    for key in ("cli.import_s", "trace.wrapper_s", "trace.wall_s", "trace.overhead_s"):
        m[key] = 0.0
    by_time = {v: k for k, v in SPAN_TIMES.items()}
    for call in traced["calls"]:
        if not call["traced"]:
            m["trace.overhead_s"] -= call["norm_s"]
            continue
        spans = call["spans"]
        if spans is None:
            continue
        scale = call["norm_s"] / call["wall_s"]

        def charge(layer, seconds):
            m[f"{layer}.self_s"] -= seconds * scale
            m["trace.wrapper_s"] += seconds * scale

        m["trace.wall_s"] += call["norm_s"]
        m["trace.overhead_s"] += call["norm_s"]
        m["cli.import_s"] += spans["import_s"] * scale
        for key in COUNTERS:
            m[key] += spans["counters"][key]
        for key, name in SPAN_COUNTS.items():
            m[key] += spans["calls"].get(name, (0, 0))[0]
        for name, (_, within) in spans["calls"].items():
            charge(name.split(".")[0], within * cost["within_s"])
        for layer, seconds in spans["hook_s"].items():
            charge(layer, seconds)
        for parent, name, count, incl, self_s in spans["edges"]:
            m[f"{name.split('.')[0]}.self_s"] += self_s * scale
            charge(name.split(".")[0], count * cost["inside_s"])
            if parent is not None:
                charge(parent.split(".")[0], count * cost["outside_s"])
            if name in by_time:
                m[by_time[name]] += incl * scale
    attributed = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["cli.import_s"]
    m["trace.unattributed_s"] = m["trace.wall_s"] - attributed
    return m


UNITS = {"_s": "s", "_bytes": "bytes"}


def per_layer(passes: list[dict], cost: dict) -> dict:
    splits = [layer_split(traced, cost) for traced in passes]
    metrics = {}
    for key in splits[0]:
        unit = next((u for suffix, u in UNITS.items() if key.endswith(suffix)), "count")
        metrics[key] = (statistics.median(s[key] for s in splits), unit)
    return metrics


# -- set-up and machine info --------------------------------------------------


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing steinberg.cli, at the
    reference host speed and raw."""
    argv = [sys.executable, "-c", "import steinberg.cli"]
    children = []
    for _ in range(SETUP_REPEATS + 1):  # the first one also compiles bytecode
        child = spawn(argv, CALL_TIMEOUT_S)
        if child.rc != 0:
            raise SystemExit(f"error: cannot import steinberg.cli: {child.err.decode(errors='replace')}")
        children.append(child)
    return (statistics.median(c.norm_s for c in children[1:]),
            statistics.median(c.wall_s for c in children[1:]))


def machine_info(cpu: int | None = None) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": model, "pinned_cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "system": platform.system()}


# -- entry points -------------------------------------------------------------


def record() -> int:
    """Run every call any seed can produce once and store its exit code and
    stdout sha256 in expected.json.  Refuses if any call fails a check."""
    expected, bad = {}, 0
    for call in workloads.every_call():
        child = spawn([sys.executable, "-m", "steinberg", *call], CALL_TIMEOUT_S)
        problem, _ = workloads.check_output(call, child.out)
        if child.rc != 0 or problem:
            bad += 1
            print(f"FAIL {call_key(call)}: rc={child.rc} {problem or ''} "
                  f"{child.err.decode(errors='replace')}")
        expected[call_key(call)] = {"exit": child.rc, "bytes": len(child.out),
                                    "sha256": hashlib.sha256(child.out).hexdigest()}
        print(f"{child.wall_s:7.2f} s  {call_key(call)}")
    if bad:
        print(f"{bad} calls failed; expected.json not written")
        return 1
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: dict, timeout: float = CALL_TIMEOUT_S) -> dict:
    """One benchmark run; returns the full result record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    calls = workloads.calls_for(workload, seed)
    setup = measure_setup()
    cost = calibrate() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(calls, expected, deadline, traced=trace, timeout=timeout))
        if time.perf_counter() + passes[-1]["wall_s"] > min(start + seconds, deadline):
            break
    every = [c for p in passes for c in p["calls"]]
    if trace:
        metrics, extra = per_layer(passes, cost), {}
    else:
        metrics, extra = end_to_end(passes, setup)
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "passes": len(passes), "calls_per_pass": len(calls),
        "attempted": len(every), "failed": sum(1 for c in every if c["problem"]),
        "metrics": metrics, "extra": extra,
        "failures": [{k: c[k] for k in ("call", "rc", "problem", "stderr")}
                     for c in every if c["problem"]],
        "calls": [{k: c[k] for k in ("call", "traced", "wall_s", "norm_s", "rc", "maxrss_kb")}
                  for c in every],
    }


def report(result: dict) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
          f"  passes {result['passes']}  calls/pass {result['calls_per_pass']}")
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    if result["trace"]:
        m = {k: v for k, (v, _) in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        print(f"# trace accounting: layers {layers:.4f} + cli.import_s {m['cli.import_s']:.4f}"
              f" + trace.unattributed_s {m['trace.unattributed_s']:.4f}"
              f" = {layers + m['cli.import_s'] + m['trace.unattributed_s']:.4f} s;"
              f" trace.wall_s {m['trace.wall_s']:.4f} s; trace.overhead_s {m['trace.overhead_s']:.4f} s")
    for f in result["failures"]:
        print(f"# FAILED {f['call']}: {f['problem']} {f['stderr'].strip()[-200:]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", metavar="PATH", help="also write the full result record as JSON")
    ap.add_argument("--record", action="store_true",
                    help="record expected.json from the current program and exit")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "steinberg" / "cli.py").is_file():
        print(f"error: no steinberg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")
    expected = json.loads(EXPECTED.read_text())
    cpu = pin_to_one_cpu()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    result["machine"] = machine_info(cpu)
    report(result)
    if args.save:
        Path(args.save).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
