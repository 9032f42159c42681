"""splitrel benchmark: verdict throughput and latency on three workloads.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process, one thread, one client in a closed loop: each operation is
issued when the previous verdict returns.  The program under test is the
`splitrel` package in `src/` next to this directory, imported in-process.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it runs the same operations untraced and then again with spans around
every public function of every layer, and reports the per-layer metrics.
Every answer is checked against `reference.py`, untimed, between rounds.
The last line of standard output is one JSON object; the lines before it
state the facts of the run and every metric with its unit.

Time metrics are reported at a nominal host speed: a fixed calibration
workload runs between the operations, and every measured time is scaled
by how fast that workload ran around it (see `hostspeed.py`).  The
unscaled figures are printed too, as `# raw_*` lines.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("catalog", "queries", "wide")

# Fresh interpreters started to time `import splitrel`, half before and
# half after the timed loop, so that their median spans the run.
SETUP_SAMPLES = 32

# Operation time between two calibration passes.  A pass also runs at the
# end of every round, before its answers are checked.
CALIBRATE_EVERY_S = 0.05

# Share of `--seconds` spent untraced in a traced run, and the cap on the
# traced replay, as a multiple of `--seconds`.
TRACE_BASE_SHARE = 1 / 3
TRACE_REPLAY_CAP = 4

# String hashing is pinned: with per-process hash randomisation the
# catalog's throughput moves by about 8 % from one process to the next.
HASH_SEED = "0"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Times from starting a fresh interpreter to `import splitrel` done:
    as measured, and at the nominal host speed.

    The parent's clock does not follow the speed of the core a child runs
    on, so each child times three calibration passes itself, right after
    the import, and its time is scaled by the fastest of them.  The
    monotonic clock behind `perf_counter` is shared between processes.
    """
    code = (
        "import time, splitrel; done = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {str(HERE)!r}); import hostspeed; "
        f"sys.exit(3) if not splitrel.__file__.startswith({str(SRC)!r}) else "
        "print(done, min(hostspeed.calibration_s() for _ in range(3)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, normalised = [], []
    for _ in range(samples):
        start = time.perf_counter()
        # No timeout: with one, `wait` polls in steps of up to 50 ms.
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               check=True, stdout=subprocess.PIPE, text=True)
        done, calibration = map(float, child.stdout.split())
        raw.append(done - start)
        normalised.append(raw[-1] * hostspeed.NOMINAL_S / calibration)
    return raw, normalised


def execute(workload, op) -> tuple[object, Exception | None, float]:
    """One timed operation: (answer, error, seconds)."""
    start = time.perf_counter()
    try:
        answer, error = workload.run(op), None
    except Exception as exc:  # a crash is a failed operation
        answer, error = None, exc
    return answer, error, time.perf_counter() - start


def problem(workload, op, answer, error) -> str | None:
    """What is wrong with one answer, checked against the reference."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    try:
        workload.check(op, answer)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def run_calibrated(workload, ops, clock: hostspeed.Clock, cap_s=math.inf):
    """Run `ops` in order, timing each into `clock`, with a calibration
    pass after every `CALIBRATE_EVERY_S` of operation time and after the
    last operation; stop early once the operations have taken `cap_s`.
    Returns (answer, error, seconds) for each operation run."""
    done = []
    since = spent = 0.0
    for op in ops:
        done.append(execute(workload, op))
        latency = done[-1][2]
        clock.add(latency)
        since += latency
        spent += latency
        if since >= CALIBRATE_EVERY_S:
            clock.calibrate()
            since = 0.0
        if spent >= cap_s:
            break
    if since:
        clock.calibrate()
    return done


def timed_loop(workload, seconds: float, min_ops: int, keep_ops: bool):
    """Run whole rounds until `seconds` of operation time have passed and
    at least `min_ops` operations are done.

    Each round's answers are checked, untimed, before the next round
    starts and then dropped; the operations themselves are kept only on
    request, so memory does not grow with the run.  Returns the kept
    operations, the clock holding the latencies and the problems by
    operation index.
    """
    ops, problems = [], {}
    clock = hostspeed.Clock()
    spent = 0.0
    for batch in workload.rounds():
        first = len(clock.raw)
        done = run_calibrated(workload, batch, clock)
        for index, (op, (answer, error, latency)) in enumerate(zip(batch, done), first):
            found = problem(workload, op, answer, error)
            if found:
                problems[index] = f"{workload.label(op)}: {found}"
            spent += latency
        if keep_ops:
            ops += batch
        if spent >= seconds and len(clock.raw) >= min_ops:
            return ops, clock, problems
    raise AssertionError("rounds never end")


def traced_replay(workload, ops, cap_s: float):
    """Run `ops` again under tracing, stopping past `cap_s`; returns the
    tracer, the clock holding the traced latencies and the problems by
    index."""
    from spans import Tracer

    tracer = Tracer()
    clock = hostspeed.Clock()
    tracer.install()
    try:
        done = run_calibrated(workload, ops, clock, cap_s)
    finally:
        tracer.uninstall()
    problems = {}
    for index, (op, (answer, error, _)) in enumerate(zip(ops, done)):
        found = problem(workload, op, answer, error)
        if found:
            problems[index] = f"{workload.label(op)} under tracing: {found}"
    return tracer, clock, problems


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile `pct` and the count of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1], len(ordered) - rank


def deep_probe(workload) -> list[str]:
    """Run the workload's untimed deep-input probe; one line per call."""
    lines = []
    for op in getattr(workload, "probe_ops", list)():
        answer, error, latency = execute(workload, op)
        found = problem(workload, op, answer, error)
        lines.append(f"{op[1]} ({latency:.3f} s): {found or 'ok'}")
    return lines


def run_workload(args) -> int:
    if not (SRC / "splitrel" / "__init__.py").is_file():
        print(f"error: no splitrel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "loadavg_start": _loadavg(),
    }
    setup_raw, setup_s = [], []
    if not args.trace:
        setup_raw, setup_s = measure_setup(SETUP_SAMPLES // 2)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # The tail percentile is fixed per workload, so that it stays
    # comparable when a faster program completes more operations; the run
    # lasts until at least ten samples lie beyond it.
    min_ops = math.ceil(10 / (1 - workload.TAIL_PCT / 100)) + 1
    if args.trace:
        ops, clock, problems = timed_loop(
            workload, args.seconds * TRACE_BASE_SHARE, 1, keep_ops=True)
    else:
        ops, clock, problems = timed_loop(
            workload, args.seconds, min_ops, keep_ops=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = clock.normalised()

    if args.trace:
        tracer, traced_clock, traced_problems = traced_replay(
            workload, ops, args.seconds * TRACE_REPLAY_CAP)
        for index, found in traced_problems.items():
            problems.setdefault(index, found)
        traced = traced_clock.normalised()
        metrics = tracer.metrics(sum(traced_clock.raw))
        metrics["trace.overhead_ratio"] = (
            sum(traced) / sum(latencies[:len(traced)]), "ratio")
        metrics["trace.ops"] = (len(traced), "count")
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        facts["trace_file"] = str(trace_file.relative_to(ROOT))
        facts["spans_dropped"] = tracer.dropped
        layers = tracer.layer_self_s()
        top = max(layers, key=layers.get)
        facts["largest_self_share"] = (
            f"{top} {layers[top] / sum(traced_clock.raw):.3f}")
    else:
        after_raw, after_s = measure_setup(SETUP_SAMPLES - len(setup_s))
        setup_raw += after_raw
        setup_s += after_s
        tail_s, beyond = tail(latencies, workload.TAIL_PCT)
        metrics = {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
        facts["tail"] = f"p{workload.TAIL_PCT} ({beyond} samples beyond it)"
        facts["raw_ops_per_s"] = f"{len(clock.raw) / sum(clock.raw):.6g}"
        facts["raw_op_p50_ms"] = f"{statistics.median(clock.raw) * 1e3:.6g}"
        facts["raw_op_tail_ms"] = f"{tail(clock.raw, workload.TAIL_PCT)[0] * 1e3:.6g}"
        facts["raw_setup_s"] = f"{statistics.median(setup_raw):.6g}"
    passes = sorted(clock.passes)
    facts["calibration_ms"] = (
        f"median {statistics.median(passes) * 1e3:.4g}, range "
        f"{passes[0] * 1e3:.4g}-{passes[-1] * 1e3:.4g} over {len(passes)} "
        f"passes (nominal {hostspeed.NOMINAL_S * 1e3:.4g})")

    probe = deep_probe(workload)
    probe_failed = sum(1 for line in probe if not line.endswith(": ok"))
    if args.trace:
        metrics["cli.deep_probe.failed"] = (probe_failed, "count")
    failed = len(problems)
    facts["ops"] = len(latencies)
    facts["timed_s"] = round(sum(clock.raw), 3)
    facts["deep_probe"] = probe
    # Probe calls count in the error rate but not in "failed": they are
    # not part of the timed mix.  The error rate is printed, not gated: it
    # is 0 whenever every answer is right.
    error_rate = (failed + probe_failed) / (len(latencies) + len(probe))

    for key, value in facts.items():
        print(f"# {key}: {value}")
    for index in sorted(problems)[:20]:
        print(f"# failed: op {index} {problems[index]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory is measured per workload."""
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        script = str(Path(__file__).resolve())
        rest = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, script, *rest],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
