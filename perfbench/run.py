"""primelog benchmark: online agent runs, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record

Run from the root of a primelog checkout; the package is imported from
its `src/` directory. One process, one thread, one agent at a time, in a
closed loop: the agent waits for each environment reply before it
decides again, as it would in a real world.

Each measured run sets the workload up from scratch (generation and
parsing), solves it once, and checks the result against the correctness
gate in `workloads.py`. Runs repeat until `--seconds` would be exceeded.

`--trace 0` reports the end-to-end metrics: set-up time, solve time, the
agent's think time before each environment call (p50 and p90 over the
decisions of a solve), and the process's peak RSS.

`--trace 1` alternates untraced runs with traced ones, in which
`tracing.py` wraps the layer entry points, and reports per-layer self
times and work counters (which must repeat exactly from one traced run
to the next).

End-to-end times are scaled to one reference speed (`speed.py`). On the
shared 2-vCPU Intel Xeon host the benchmark was built on, the speed at
which the same code runs switched between levels up to 2.4x apart,
every 0.1 s to every few minutes, so raw wall times of whole processes
spread by up to 0.28 of their median for run_s, and neither medians nor
minima over one process's runs removed a slow phase that covered the
process. A fixed pure-Python reference is timed between the pieces of
each solve (before each environment call, outside both think time and
call) and around each set-up; a piece's wall time times `REFERENCE_S /
reference time` is its time at the reference speed. `run_s` is the
median over the process's runs of the solve's scaled time, `setup_s`
the median of the scaled set-ups, and the decision percentiles are taken
over the scaled think times of all decisions of all runs. The scaling is
not exact, since the program and the reference do not slow by quite the
same factor in a slow phase; scaled solve times of single runs still
spread by 2-7% of their median where raw ones spread by 11-23%. The raw
wall times and reference times are kept in the full record.

`--seed` becomes the process's string-hash seed (the script re-executes
itself with PYTHONHASHSEED set), so every seed changes the iteration
order of the program's sets while the gate requires the same behaviour.
The worlds themselves are fixed per workload: run time differs by more
than 100x between worlds of one size, so a world per seed would make
`run_s` incomparable between seeds.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed / attempted` is
the share of runs that failed the gate. The full record, with the
machine description and, for traced runs, the spans of the first traced
run, is written to `perfbench/results/`.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S, reference_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
BUDGET = 10_000_000
# Each run repeats its set-up until this much time is spent on it, so a
# set-up of a few milliseconds gets as many chances at the fast CPU level
# as a long one; the last set-up's inputs are the ones solved.
SETUP_SAMPLE_S = 0.5
WORKLOAD_NAMES = ("corridor-backtrack", "wumpus-g2", "wumpus-g3")
# Metrics whose values must repeat exactly between traced runs.
DETERMINISTIC = (
    "interpreter.steps",
    "interpreter.calls",
    "interpreter.redos",
    "auxdb.solve_calls",
    "auxdb.answer_ratio",
    "pi.entail_calls",
    "pi.entail_answer_ratio",
    "pi.update_calls",
    "pi.update_clauses_scanned",
    "pi.sense_cases_scanned",
    "pi.sense_case_hit_ratio",
    "pi.closure_base_clauses",
    "pi.belief_max_clauses",
    "envs.calls",
)
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "decision_ms.p50": "ms",
    "decision_ms.p90": "ms",
    "peak_rss_mb": "MiB",
    "parser.kb_per_s": "KB/s",
    "trace.overhead_ratio": "ratio",
}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced")
    ap.add_argument(
        "--record",
        action="store_true",
        help="rewrite the expected histories from one run of each workload",
    )
    args = ap.parse_args(argv)
    if not (args.workload or args.all or args.record):
        ap.error("one of --workload, --all or --record is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------- runs


class TimedEnv:
    """Passes calls through to an environment and records the agent's
    think time before each (the time since the solve started or since the
    previous call returned) and the time the call itself took.

    With `timed_speed`, it also times the host speed reference between
    each think time and the call that ends it, outside both."""

    def __init__(self, env, timed_speed=False):
        self.env = env
        self.timed_speed = timed_speed
        self.think = []
        self.calls = []
        self.refs = []
        self.mark = 0.0

    def _timed(self, call, arg):
        self.think.append(perf_counter() - self.mark)
        if self.timed_speed:
            self.refs.append(reference_time())
        started = perf_counter()
        try:
            return call(arg)
        finally:
            self.mark = perf_counter()
            self.calls.append(self.mark - started)

    def execute(self, action):
        return self._timed(self.env.execute, action)

    def sense(self, functor):
        return self._timed(self.env.sense, functor)

    def snapshot(self):
        return self.env.snapshot()


def _solve(inputs, env, count_events=None):
    """(interpreter, outcome, error) of one solve; errors are recorded,
    not raised, so one broken run counts as failed and the rest go on.

    `count_events`, a dict, receives the number of events of each kind
    the interpreter reports through `_note`, the hook that feeds an
    observer. An observer itself is not attached: it makes the machine
    push an exit marker for every clause it enters, and re-running those
    markers on backtracking multiplies corridor-backtrack's solve time
    by about twenty.
    """
    from primelog.interpreter import Interpreter

    interp = None
    env.mark = perf_counter()
    try:
        interp = Interpreter(inputs.domain, inputs.program, env, budget=BUDGET)
        if count_events is not None:
            if not callable(getattr(interp, "_note", None)):
                raise RuntimeError("Interpreter._note is gone; cannot count events")

            def note(*event):
                count_events[event[0]] = count_events.get(event[0], 0) + 1

            interp._note = note
        return interp, interp.run(inputs.query), None
    except Exception as error:  # the run failed; the benchmark goes on
        return interp, None, f"{type(error).__name__}: {error}"


def _check(workload, inputs, outcome, error, env, expected):
    from workloads import gate

    if error is not None:
        return [error]
    return gate(workload, inputs, outcome, env.snapshot(), expected)


def _scaled(wall, ref_before, ref_after):
    """`wall` seconds, measured between two timings of the speed
    reference, as seconds at the reference speed."""
    return wall * 2.0 * REFERENCE_S / (ref_before + ref_after)


def untraced_run(workload, expected):
    gc.collect()
    setups, setup_wall = [], 0.0
    ref = reference_time()
    while setup_wall < SETUP_SAMPLE_S:
        inputs = None  # free the last set-up first, so peak RSS holds one
        started = perf_counter()
        inputs = workload.setup()
        wall = perf_counter() - started
        setup_wall += wall
        after = reference_time()
        setups.append(_scaled(wall, ref, after))
        ref = after
    env = TimedEnv(workload.make_env(inputs), timed_speed=True)
    env.refs.append(reference_time())
    interp, outcome, error = _solve(inputs, env)
    ended = perf_counter()
    env.refs.append(reference_time())
    # The solve in intervals between timings of the speed reference:
    # interval k is environment call k-1 and the think time after it, the
    # last one ends when the solve returns.
    walls = [0.0] * (len(env.think) + 1)
    for k, t in enumerate(env.think):
        walls[k] += t
    for k, t in enumerate(env.calls):
        walls[k + 1] += t
    walls[-1] += ended - env.mark
    refs = env.refs
    return {
        "setup_s": setups,
        "run_s": sum(_scaled(w, refs[k], refs[k + 1]) for k, w in enumerate(walls)),
        "wall_s": sum(walls),
        "think_s": [_scaled(t, refs[k], refs[k + 1]) for k, t in enumerate(env.think)],
        "ref_s": refs,
        "steps": None if interp is None else BUDGET - interp.steps,
        "problems": _check(workload, inputs, outcome, error, env, expected),
    }


def traced_run(workload, expected, tracer):
    from tracing import layer_metrics

    gc.collect()
    tracer.reset()
    events = {}
    with tracer.patched():
        inputs = tracer.span("setup", workload.setup)
        env = tracer.trace_env(TimedEnv(workload.make_env(inputs)))
        solve_index = len(tracer.spans)
        interp, outcome, error = tracer.span("solve", _solve, (inputs, env, events))
    problems = _check(workload, inputs, outcome, error, env, expected)
    if error is not None:
        return {"problems": problems, "metrics": {}, "spans": tracer.spans}
    metrics, span_problems = layer_metrics(tracer.spans, tracer.calls, 0, solve_index)
    metrics["interpreter.steps"] = BUDGET - interp.steps
    metrics["interpreter.calls"] = events.get("call", 0)
    metrics["interpreter.redos"] = events.get("redo", 0)
    metrics["pi.belief_max_clauses"] = outcome.state.max_belief
    return {
        "problems": problems + span_problems,
        "metrics": metrics,
        "spans": tracer.spans,
    }


# ---------------------------------------------------------------- stats


def _percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _measure(seconds, minimum, one_round):
    """Call one_round() until another round would pass the deadline,
    and at least `minimum` times."""
    deadline = perf_counter() + seconds
    rounds = 0
    while True:
        started = perf_counter()
        one_round()
        rounds += 1
        now = perf_counter()
        if rounds >= minimum and now + (now - started) > deadline:
            return rounds


def measure_untraced(workload, seconds, expected):
    runs = []
    _measure(seconds, 3, lambda: runs.append(untraced_run(workload, expected)))
    passed = [r for r in runs if not r["problems"]] or runs
    think_ms = [t * 1000.0 for r in passed for t in r["think_s"]]
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in passed),
        "setup_s": statistics.median(t for r in runs for t in r["setup_s"]),
        "decision_ms.p50": _percentile(think_ms, 50),
        "decision_ms.p90": _percentile(think_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    refs = [t for r in runs for t in r["ref_s"]]
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "run_wall_s": [r["wall_s"] for r in runs],
        "setup_s": [t for r in runs for t in r["setup_s"]],
        "decisions": len(think_ms),
        "reference_s": {"min": min(refs), "median": statistics.median(refs),
                        "max": max(refs), "count": len(refs)},
    }
    return runs, metrics, samples, []


def measure_traced(workload, seconds, expected):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    first_spans = []

    def pair():
        plain.append(untraced_run(workload, expected))
        run = traced_run(workload, expected, tracer)
        if not first_spans:
            first_spans.append(run["spans"])
        del run["spans"]
        traced.append(run)

    _measure(seconds, 2, pair)
    checks = []
    layered = [r["metrics"] for r in traced if r["metrics"]]
    if len(layered) != len(traced):
        return plain + traced, {}, {}, ["a traced run failed"], first_spans
    for name in DETERMINISTIC:
        values = {m[name] for m in layered}
        if len(values) != 1:
            checks.append(f"{name} differs between traced runs: {sorted(values)}")
    if not layered[0]["interpreter.calls"]:
        checks.append("the interpreter reported no call events")
    plain_steps = {r["steps"] for r in plain}
    if plain_steps != {layered[0]["interpreter.steps"]}:
        checks.append(
            f"untraced runs took {sorted(plain_steps)} steps, traced runs "
            f"{layered[0]['interpreter.steps']}"
        )
    metrics = {}
    for name in layered[0]:
        if name in DETERMINISTIC:
            metrics[name] = layered[0][name]
        else:
            best = max if name == "parser.kb_per_s" else min  # a rate, not a time
            metrics[name] = best(m[name] for m in layered)
    metrics["trace.overhead_ratio"] = metrics.pop("trace.solve_s") / min(
        r["wall_s"] for r in plain
    )
    samples = {
        "untraced_wall_s": [r["wall_s"] for r in plain],
        "traced_solve_s": [m["trace.solve_s"] for m in layered],
    }
    return plain + traced, metrics, samples, checks, first_spans


# ---------------------------------------------------------------- record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "primelog").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(args, workload):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "workload": workload.name,
        "workload_params": workload.params,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _compact_spans(spans):
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    return {
        "fields": ["name", "start_us", "end_us", "parent", "extra"],
        "names": names,
        "spans": [
            [index[n], round((a - origin) * 1e6, 3), round((b - origin) * 1e6, 3), p, x]
            for n, a, b, p, x in spans
        ],
    }


# ---------------------------------------------------------------- main


def run_workload(args):
    from workloads import WORKLOADS, load_expected

    workload = WORKLOADS[args.workload]
    expected = load_expected()[workload.name]
    if args.trace:
        runs, metrics, samples, checks, spans = measure_traced(
            workload, args.seconds, expected
        )
    else:
        runs, metrics, samples, checks = measure_untraced(workload, args.seconds, expected)
        spans = []
    failures = [r["problems"] for r in runs if r["problems"]]
    record = machine_record(args, workload)
    result = {
        "correct": not failures and not checks,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
        },
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    full = dict(result, machine=record, samples=samples, failures=failures, checks=checks)
    if spans:
        full["spans"] = _compact_spans(spans[0])
    out.write_text(json.dumps(full) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(record)}")
    for name, m in result["metrics"].items():
        print(f"{name:28} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {len(failures)}/{len(runs)}")
    for problem in failures[:1] + checks:
        print(f"problem: {problem}")
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, untraced, one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if done.returncode != 0 or not done.stdout.strip():
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{name}: benchmark exited with {done.returncode}")
        rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: failed_ratio {ratio:g} ({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:20} {m['value']:.6g} {m['unit']}")


def record_histories():
    from workloads import HISTORIES, WORKLOADS, histories

    recorded = {}
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name]
        inputs = workload.setup()
        _, outcome, error = _solve(inputs, TimedEnv(workload.make_env(inputs)))
        if error is not None or outcome.status != "success":
            raise SystemExit(f"{name}: not recorded, the run gave {error or outcome.status}")
        recorded[name] = histories(outcome.state)
        print(f"{name}: {len(recorded[name]['actions'])} actions, "
              f"{len(recorded[name]['senses'])} senses")
    HISTORIES.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


def main():
    args = _args(sys.argv[1:])
    if not (SRC / "primelog" / "__init__.py").is_file():
        print(f"perfbench: no primelog sources under {SRC}", file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if args.workload and os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], env)
    sys.path.insert(0, str(SRC))
    if args.record:
        record_histories()
    elif args.all:
        run_all(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
