#!/usr/bin/env python3
"""The relmod benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; relmod is imported from ``src/``.  One
workload runs per process, as a closed loop with one client: operations run
one at a time, in order, round after round over the workload's fixed op
list, until the next op would end after ``--seconds``.  Every answer is
checked against the pinned answers in ``bench/workloads.py``.

Workloads:
  term-search       directed Gumm and Day term search (subpower closure)
  check-exhaustive  exhaustive identity checks (relation operators, AST eval)
  check-sample      sampled identity checks (closures that miss the cache)
  cli-readme        every README CLI example as a fresh ``python -m relmod``

The machine's speed drifts by tens of percent over seconds when it is
shared, so every end-to-end time, and the tracing overhead, is scaled to a
machine of reference speed: a fixed pure-Python loop, which runs none of
relmod's code, is timed just before and just after each op, and the op's
seconds are multiplied by ``CAL_REF_S`` over the mean of those two loop
times.  The unscaled wall is in the details line; per-layer times are not
scaled.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
``setup_s`` is the median over fresh interpreters, run one after another
once the ops are done, that each start a clock, import relmod and build the
workload's inputs.  With ``--trace 1`` untraced and traced passes alternate,
the last line holds the per-layer metrics, and the spans of the first traced
pass are written to ``bench/out/``.  A line before the last gives the
details: sample counts, per-op medians, nproc, the Python version and the
source revision.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("term-search", "check-exhaustive", "check-sample", "cli-readme")
WORK_UNIT = {
    "term-search": "search",
    "check-exhaustive": "assignment",
    "check-sample": "sample",
    "cli-readme": "command",
}
SETUP_PROBES = 12
CLI_PROBES = 7
CAL_LOOPS = 150_000
CAL_REF_S = 0.02  # a round figure near what the loop takes on a 2-core x86-64 VM, Python 3.11
# The clock starts before relmod is imported, in an interpreter that has
# imported nothing but what Python itself loads at start-up.
SETUP_PROBE = """\
import time
start = time.perf_counter()
import sys
if sys.argv[1] == "cli-readme":
    import relmod.cli  # the CLI imports every module
import workloads
workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
"""


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _child_env(*paths):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(p) for p in paths] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def calibrate():
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    x, d = 0, {}
    for i in range(CAL_LOOPS):
        x += i * i
        d[i & 1023] = x
    return time.perf_counter() - start


class SpeedClock:
    """Scales each timed step to a machine on which the calibration loop
    takes CAL_REF_S.  The loop runs after every step, so each step lies
    between two loop times."""

    def __init__(self):
        self.before = calibrate()
        self.factors = []

    def scale(self, seconds):
        after = calibrate()
        factor = 2.0 * CAL_REF_S / (self.before + after)
        self.before = after
        self.factors.append(factor)
        return seconds * factor

    def row(self, row):
        """An op row with its seconds scaled; the unscaled seconds go last."""
        label, seconds, outcome, work = row
        return (label, self.scale(seconds), outcome, work, seconds)


def setup_median(workload, seed, clock):
    """Median scaled set-up time of fresh interpreters, run one after another."""
    cmd = [sys.executable, "-c", SETUP_PROBE, workload, str(seed)]
    env = _child_env(SRC, BENCH)
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        times.append(clock.scale(float(out.stdout.splitlines()[-1])))
    return statistics.median(times)


# --- running ops --------------------------------------------------------------------


def run_ops(ops, tracer=None):
    """One pass over in-process ops: a (label, seconds, outcome, work) row each."""
    return [run_op(op, tracer) for op in ops]


def run_op(op, tracer=None):
    # collect earlier garbage before the clock starts; the result is
    # released when this returns, outside the clock
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        out = op.run()
        error = None
    except Exception as e:  # an op that raises is a failed op, not a crash
        out, error = None, e
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        tracer.end_op()
    return (op.label, seconds) + _judge(op, out, error)


def _judge(op, out, error):
    import workloads

    if error is not None:
        return f"failed: raised {type(error).__name__}: {error}", 0
    try:
        return op.check(out)
    except workloads.WrongAnswer as e:
        return f"failed: {e}", 0


class CliRunner:
    """Runs one README command as a fresh ``python -m relmod``; with a
    tracer, under ``bench/cli_traced.py`` instead.  Keeps the children's
    peak resident memory."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.env = _child_env(SRC)
        self.program = [sys.executable, "-m", "relmod"]
        self.peak_kb = 0
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            self.snap_path = OUT / "cli-trace.json"
            self.program = [sys.executable, str(BENCH / "cli_traced.py"), str(self.snap_path)]

    def __call__(self, command):
        import workloads

        args, want_code, want_lines = command
        start = time.perf_counter()
        proc = subprocess.Popen(
            self.program + args,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        with proc:
            stdout = proc.stdout.read()
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - start
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if self.tracer is not None:
            self.tracer.merge(json.loads(self.snap_path.read_text(encoding="utf-8")))
            self.snap_path.unlink()
        label = "relmod " + shlex.join(args)
        try:
            workloads.check_cli_output(proc.returncode, stdout, want_code, want_lines)
            return (label, seconds, "ok", 1)
        except workloads.WrongAnswer as e:
            return (label, seconds, f"failed: {e}; stderr: {stderr.strip()[-200:]}", 0)


def timed_rounds(items, run_one, seconds, clock):
    """Run the items in order, round after round, one at a time.  After the
    first round, stop before an item whose previous run would end after
    `seconds`.  Returns one scaled row per run."""
    rows = []
    last = [0.0] * len(items)
    begin = time.perf_counter()
    n = 0
    while n < len(items) or time.perf_counter() - begin + last[n % len(items)] <= seconds:
        row = clock.row(run_one(items[n % len(items)]))
        rows.append(row)
        last[n % len(items)] = row[4]
        n += 1
    return rows


def timed_passes(run_pass, seconds):
    """Repeat run_pass until the next call would end after `seconds`; at
    least once.  Returns the list of results."""
    results = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        results.append(run_pass())
        took = time.perf_counter() - start
        if time.perf_counter() - begin + took > seconds:
            return results


# --- metrics ------------------------------------------------------------------------


def summarize(rows):
    """The failed rows and the undecided rows."""
    failed = [row for row in rows if row[2].startswith("failed")]
    undecided = [row for row in rows if row[2] == "undecided"]
    return failed, undecided


def end_to_end(workload, rows, setup_s, peak_mb, clock):
    """Each op's latency is the median of all its scaled runs, so a burst of
    noise does not move it and every op weighs the same however many runs
    fit; one pass's wall is the sum of those latencies."""
    _, undecided = summarize(rows)
    by_label = {}
    raw = {}
    for label, seconds, outcome, work, unscaled in rows:
        by_label.setdefault(label, ([], set(), work))
        by_label[label][0].append(seconds)
        by_label[label][1].add(outcome)
        raw.setdefault(label, []).append(unscaled)
    per_op = {label: statistics.median(times) for label, (times, _, _) in by_label.items()}
    latencies = [t * 1000.0 for t in per_op.values()]
    wall = sum(per_op.values())
    # an op is decided when every run of it answered correctly
    decided = sum(outcomes == {"ok"} for _, outcomes, _ in by_label.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "ms"),
        "work_per_s": (sum(work for _, _, work in by_label.values()) / wall, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "decided_frac": (decided / len(by_label), "frac"),
    }
    details = {
        "ops": len(per_op),
        "runs_per_op": [min(len(t) for t, _, _ in by_label.values()), max(len(t) for t, _, _ in by_label.values())],
        "op_samples": len(rows),
        # reported but not bounded: the median op is often a millisecond one,
        # whose time drifts with the machine more than a whole pass does
        "op_p50_ms": statistics.median(latencies),
        "per_op_ms": {label: round(t * 1000.0, 3) for label, t in per_op.items()},
        "work_unit": WORK_UNIT[workload],
        "undecided_ops": len({row[0] for row in undecided}),
        "failed_frac": 1.0 - decided / len(by_label),
        "unscaled_wall_s": sum(statistics.median(times) for times in raw.values()),
        "speed_factor": {"median": statistics.median(clock.factors), "min": min(clock.factors), "max": max(clock.factors)},
    }
    return metrics, details


def _interpreter_probe(code):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(SRC), check=True)
    return (time.perf_counter() - start) * 1000.0


def cli_import_probe():
    """Median start-up of a bare interpreter and of one that imports relmod.cli."""
    bare, cli = [], []
    for _ in range(CLI_PROBES):
        bare.append(_interpreter_probe("pass"))
        cli.append(_interpreter_probe("import relmod.cli"))
    bare_ms = statistics.median(bare)
    return bare_ms, statistics.median(cli) - bare_ms


def per_layer(tracer, traced_walls, untraced_walls, trace_wall):
    from tracing import LAYERS

    self_s = tracer.layer_self()
    calls = tracer.layer_calls()
    counts = tracer.counts
    closure_calls = calls["relations.closure"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics.update(
        {
            "algebras.subuniverse.elements": (counts["elements"], "count"),
            "relations.closure.distinct_frac": (
                counts["closure_distinct"] / closure_calls if closure_calls else 0.0,
                "frac",
            ),
            "relations.enumerate.members": (counts["members"], "count"),
            "identities.assignments": (counts["assignments"], "count"),
            "identities.eval.per_assignment": (
                calls["identities.eval"] / counts["assignments"] if counts["assignments"] else 0.0,
                "count",
            ),
            "maltsev.search.nodes": (counts["nodes"], "count"),
            "maltsev.search.decided": (counts["decided"], "count"),
            "unattributed.self_s": (max(0.0, trace_wall - sum(self_s.values())), "s"),
            "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(untraced_walls), "s"),
        }
    )
    return metrics


def counts_signature(tracer):
    return (tuple(sorted(tracer.layer_calls().items())), tuple(sorted(tracer.counts.items())))


# --- entry point --------------------------------------------------------------------


def provenance():
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "relmod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def run_untraced(args):
    import workloads

    inputs = workloads.build(args.workload, args.seed)
    clock = SpeedClock()
    if args.workload == "cli-readme":
        runner = CliRunner()
        rows = timed_rounds(inputs, runner, args.seconds, clock)
        peak_kb = runner.peak_kb
    else:
        rows = timed_rounds(inputs, run_op, args.seconds, clock)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s = setup_median(args.workload, args.seed, clock)
    metrics, details = end_to_end(args.workload, rows, setup_s, peak_kb / 1024.0, clock)
    return rows, metrics, details


def run_traced(args):
    import workloads
    from tracing import Tracer

    bare_ms, import_ms = cli_import_probe()
    state = {"first": None, "signature": None, "repeats": True, "walls": ([], [])}
    clock = SpeedClock()

    def one_pass(tracer=None):
        """Build the inputs and run the ops.  Returns the rows, the scaled
        wall and the unscaled wall; the walls exclude answer checks."""
        if args.workload == "cli-readme":
            runner = CliRunner(tracer)
            rows = [clock.row(runner(command)) for command in workloads.build(args.workload, args.seed)]
            return rows, sum(row[1] for row in rows), sum(row[4] for row in rows)
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        ops = workloads.build(args.workload, args.seed)
        if tracer is not None:
            tracer.uninstall()
        build_s = time.perf_counter() - start
        scaled_build_s = clock.scale(build_s)
        rows = [clock.row(run_op(op, tracer)) for op in ops]
        return rows, scaled_build_s + sum(row[1] for row in rows), build_s + sum(row[4] for row in rows)

    def one_round():
        rows_u, wall_u, _ = one_pass()
        tracer = Tracer(record_spans=state["first"] is None)
        rows_t, wall_t, unscaled_t = one_pass(tracer)
        state["walls"][0].append(wall_u)
        state["walls"][1].append(wall_t)
        sig = counts_signature(tracer)
        if state["first"] is None:
            state["first"] = (tracer, unscaled_t)
            state["signature"] = sig
        elif sig != state["signature"]:
            state["repeats"] = False
        return rows_u + rows_t

    rounds = timed_passes(one_round, args.seconds)
    tracer, trace_wall = state["first"]
    metrics = per_layer(tracer, state["walls"][1], state["walls"][0], trace_wall)
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.interpreter_ms"] = (bare_ms, "ms")
    details = {
        "rounds": len(rounds),
        "counts_repeat": state["repeats"],
        "untraced_wall_s": statistics.median(state["walls"][0]),
        "traced_wall_s": statistics.median(state["walls"][1]),
        "layer_self_frac": {layer: round(t / trace_wall, 4) for layer, t in tracer.layer_self().items()},
        "function_self_s": {f: round(st.self, 6) for f, st in sorted(tracer.stats.items())},
        "function_calls": {f: st.calls for f, st in sorted(tracer.stats.items())},
    }
    details["spans_file"] = write_spans(args, tracer)
    return [row for r in rounds for row in r], metrics, details


def write_spans(args, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    names = sorted({s[0] for s in tracer.spans})
    ids = {name: i for i, name in enumerate(names)}
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "names": names,
                "columns": ["name", "start_us", "end_us", "parent"],
                "spans": [
                    [ids[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                    for n, s, e, p in tracer.spans
                ],
            },
            fh,
            separators=(",", ":"),
        )
    return str(path.relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relmod" / "__init__.py").is_file():
        return _fail(f"no relmod sources under {SRC}; run from the root of a relmod checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    rows, metrics, details = (run_traced if args.trace else run_untraced)(args)
    failed, _ = summarize(rows)
    details.update(provenance())
    details["workload"] = args.workload
    details["seed"] = args.seed
    details["failures"] = sorted({f"{row[0]}: {row[2]}" for row in failed})
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not failed and details.get("counts_repeat", True),
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
