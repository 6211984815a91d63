#!/usr/bin/env python3
"""The motsteen benchmark: time to an exact CLI answer, and where it goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Each invocation is one `motsteen` command in a fresh interpreter,
so the module-level memos start cold, as they do for a user.  The loop is
closed with one client: one child process at a time, no threads.

`--seed` picks, per invocation, one of a fixed set of equivalent inputs for
the workload (output format and scheme alias: the same mathematics, printed
differently).  Every invocation's stdout is checked against the SHA-256 that
`reference.json` holds for exactly that command line; a non-zero exit, a
different digest or a `FAIL` in a `verify` run is a failed run.

`--trace 0` reports the end-to-end metrics: medians of `wall_s`, `cpu_s`
and `peak_rss_mb` over the invocations, and `setup_s`, the median wall time
of a fresh `import motsteen.cli`, sampled once before each invocation.  The
three times are scaled by the machine's speed in the same run, measured
with a fixed calibration job (see CALIBRATION).  `--trace 1` runs each
invocation untraced and then under `tracer.py`, and reports per-module
calls, self times and counters from the trace, plus `trace.overhead_s`.
Metric names and units are those listed in BENCHMARK.json.

The last line of stdout is one JSON object: correct, attempted, failed
(failed / attempted is the error rate) and metrics.  Lines before it give
the sample counts, the quartiles and the environment.  NOTES.md says why
each workload is here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

# name -> (command, scheme aliases, fixed flags, (dmax, wmax))
WORKLOADS = {
    "dims-real-p2": (["dims"], ("real-p2", "real"), ["--prime", "2"], (10, 5)),
    "kerbasis-real-p2": (["verify", "kerbasis"], ("real-p2", "real"), ["--prime", "2"], (11, 5)),
    "chi-real-p2": (["verify", "chi"], ("real-p2", "real"), ["--prime", "2"], (8, 4)),
    "dims-finite-p3": (["dims"], ("finite", "finite-field"), ["--prime", "3", "--q", "7"], (27, 13)),
}
FORMATS = ("pretty", "tsv", "json")

CLI = "import sys; from motsteen.cli import main; sys.exit(main())"
IMPORT = "import motsteen.cli"
# A fixed pure-Python job in a fresh interpreter: tuple keys, dict updates
# and sorting, then a small-integer loop.  It runs before each timed
# invocation, and every end-to-end time is scaled by CAL_REF_S over its
# median in the same run.  That cancels most of the slow and fast phases of a
# shared machine, which last from seconds to minutes (NOTES.md).
CALIBRATION = """
d = {}
for i in range(40000):
    k = (i % 977, i % 131, (i * 7) % 13)
    d[k] = (d.get(k, 0) + i) % 3
s = sorted(d.items())
t = 0
for i in range(400000):
    t += i * i % 7
"""
# The calibration job's median time on the machine the benchmark was defined
# on (2-vCPU Xeon, Python 3.11.7); a constant, so that scaled times read as
# seconds there.  Changing it rescales every recorded time.
CAL_REF_S = 0.20
MIN_STEPS = 3         # steps per run, even past --seconds
HARD_LIMIT_S = 170.0  # the whole benchmark ends well inside 180 s


class BenchError(Exception):
    pass


def variants(name, window=None):
    """Every seed-selectable command line of a workload, in a fixed order."""
    command, schemes, flags, default_window = WORKLOADS[name]
    dmax, wmax = window or default_window
    return [
        [*command, *flags, "--scheme", scheme, "--dmax", str(dmax), "--wmax", str(wmax),
         "--format", fmt]
        for scheme in schemes
        for fmt in FORMATS
    ]


def child_env():
    """The caller's environment minus MOTSTEEN_CACHE and every PYTHON* setting."""
    env = {
        k: v for k, v in os.environ.items()
        if k != "MOTSTEEN_CACHE" and not k.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Run:
    """One finished child process."""

    argv: list
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    trace: dict | None = None
    traced: bool = False
    failure: str | None = None    # why the run counts as failed
    setup_s: float | None = None  # the set-up sample taken before it
    cal: Run | None = None        # the calibration job run before it


class Box:
    """A scratch working directory inside the checkout and a deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.env = child_env()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def spawn(self, cmd, argv=(), trace_path=None):
        """Run one child to its end; time it from spawn to exit."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child process")
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [*cmd, *argv], cwd=self.dir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            try:
                usage = _reap(proc, timeout)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    os.waitpid(proc.pid, 0)
                    proc.returncode = -signal.SIGKILL
            wall = time.perf_counter() - t0
        trace = None
        if trace_path is not None and trace_path.exists():
            trace = read_trace(trace_path)
            trace_path.unlink()
        return Run(
            list(argv), proc.returncode, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            out_path.read_bytes(), err_path.read_bytes(), trace,
        )

    def invoke(self, argv, traced=False):
        if not traced:
            return self.spawn([sys.executable, "-c", CLI], argv)
        spans = self.dir / "spans.jsonl"
        run = self.spawn([sys.executable, str(TRACER), str(spans)], argv, spans)
        run.traced = True
        return run

    def calibrate(self):
        run = self.spawn([sys.executable, "-c", CALIBRATION])
        if run.code != 0:
            raise BenchError("the calibration job failed")
        return run

    def setup_time(self):
        run = self.spawn([sys.executable, "-c", IMPORT])
        if run.code != 0:
            raise BenchError(
                "importing motsteen.cli failed: " + run.stderr.decode(errors="replace")
            )
        return run.wall_s


def _reap(proc, timeout):
    """os.wait4 on the child, killing it if it outlives `timeout` seconds.

    Sets the child's return code and returns its resource usage.
    """

    def on_alarm(signum, frame):
        if proc.returncode is None:
            os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return usage


def read_trace(path):
    """{"stat": {group: record}, "counter": {name: value}, "span": [record]}."""
    trace = {"stat": {}, "counter": {}, "span": []}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["type"] == "stat":
                trace["stat"][rec["name"]] = rec
            elif rec["type"] == "counter":
                trace["counter"][rec["name"]] = rec["value"]
            else:
                trace["span"].append(rec)
    return trace


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check(run, reference):
    """Why a run failed, or None when its output is the reference output."""
    if run.code != 0:
        return f"exit code {run.code}"
    expected = reference.get(" ".join(run.argv))
    if expected is None:
        return "no reference digest for this command line"
    if hashlib.sha256(run.stdout).hexdigest() != expected:
        return "stdout differs from the reference"
    if run.argv[0] == "verify" and b"FAIL" in run.stdout:
        return "a verify check reported FAIL"
    return None


def timed_step(box, argv):
    """One set-up sample, one calibration job, then the invocation."""
    setup_s, cal = box.setup_time(), box.calibrate()
    run = box.invoke(argv)
    run.setup_s, run.cal = setup_s, cal
    return [run]


def traced_step(box, argv):
    """The invocation untraced, then traced, so both see the same machine."""
    return [box.invoke(argv), box.invoke(argv, traced=True)]


def run_loop(box, name, rng, seconds, reference, step):
    """Closed loop, one client, for about `seconds` and at least MIN_STEPS steps.

    A new step starts only if one more of average length still ends inside
    the time, so a run lasts `seconds` however long one call takes.
    """
    runs = []
    steps = 0
    start = time.monotonic()
    while time.monotonic() < box.deadline:
        if steps >= MIN_STEPS:
            per_step = (time.monotonic() - start) / steps
            if time.monotonic() + per_step > start + seconds:
                break
        for run in step(box, rng.choice(variants(name))):
            run.failure = check(run, reference)
            runs.append(run)
        steps += 1
    return runs


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runs):
    """(value, unit) of each end-to-end metric; medians over passing runs.

    Times are scaled by CAL_REF_S over the run's median calibration time,
    so they read as seconds on the reference machine at its usual speed.
    """
    good = [r for r in runs if r.failure is None] or runs
    scale = CAL_REF_S / _median([r.cal.wall_s for r in runs])
    return {
        "wall_s": (_median([r.wall_s for r in good]) * scale, "s"),
        "cpu_s": (_median([r.cpu_s for r in good]) * scale, "s"),
        "peak_rss_mb": (_median([r.peak_rss_mb for r in good]), "MB"),
        "setup_s": (_median([r.setup_s for r in runs]) * scale, "s"),
    }


def layer_values(trace):
    """(value, unit) of every per-layer quantity one trace yields."""
    stats, counters = trace["stat"], trace["counter"]
    out = {}
    for group, s in stats.items():
        out[f"{group}.calls"] = (s["calls"], "count")
        out[f"{group}.self_s"] = (s["self_s"], "s")
        out[f"{group}.wall_s"] = (s["incl_s"], "s")
    basis_calls = stats["steenrod.bidegree_basis"]["calls"]
    distinct = counters["bidegree_basis.distinct"]
    monomials = counters["bidegree_basis.monomials"]
    out["steenrod.bidegree_basis.distinct"] = (distinct, "count")
    out["steenrod.bidegree_basis.hit_ratio"] = (
        1.0 - distinct / basis_calls if basis_calls else 0.0, "ratio"
    )
    beta_calls = stats["bockstein.beta"]["calls"]
    out["bockstein.beta.calls_per_basis_monomial"] = (
        beta_calls / monomials if monomials else 0.0, "ratio"
    )
    out["bockstein.beta_matrix.nnz"] = (counters["beta_matrix.nnz"], "count")
    out["linalg.kernel_basis.nullity"] = (counters["kernel_basis.nullity"], "count")
    out["bockstein.constructive_kernel.elements"] = (
        counters["constructive_kernel.elements"], "count"
    )
    return out


def per_layer(traced_runs, untraced_runs):
    """Per-layer metrics: medians over the passing traced runs, plus the tracing cost."""
    written = [r for r in traced_runs if r.trace is not None]
    traces = [r for r in written if r.failure is None] or written
    if not traces:
        raise BenchError("no traced run wrote a trace")
    per_run = [layer_values(r.trace) for r in traces]
    out = {
        name: (_median([v[name][0] for v in per_run]), unit)
        for name, (_, unit) in per_run[0].items()
    }
    traced_wall = _median([r.wall_s for r in traces])
    untraced = [r for r in untraced_runs if r.failure is None] or untraced_runs
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - _median([r.wall_s for r in untraced]), "s")
    return out


def select(values, names):
    """The named metrics, in the result format; every one must be measured."""
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {n: {"value": values[n][0], "unit": values[n][1]} for n in names}


def environment():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = res.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def describe(label, values, unit):
    """One line of measured (unscaled) values: median, sample count, quartiles."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"q1 {q1:.4f}  q3 {q3:.4f}"
    else:
        spread = ""
    print(f"{label:14} median {_median(values):.4f} {unit:5} n={len(values):<3} {spread}")


def _terminate(signum, frame):
    # unwinds through Box.spawn and Box.close, which kill and reap the child
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.monotonic()
    if not (SRC / "motsteen" / "cli.py").is_file():
        raise BenchError(f"no motsteen sources at {SRC}; run from a source checkout")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    reference = load_reference()
    env = environment()
    rng = random.Random(f"{args.workload}/{args.seed}")
    box = Box(started + HARD_LIMIT_S)
    try:
        box.setup_time()  # compiles the bytecode cache before anything is timed
        step = traced_step if args.trace else timed_step
        runs = run_loop(box, args.workload, rng, args.seconds, reference, step)
    finally:
        box.close()
    if not runs:
        raise BenchError("out of time before the first invocation")

    untraced = [r for r in runs if not r.traced]
    if args.trace:
        traced = [r for r in runs if r.traced]
        values = per_layer(traced, untraced)
        names = [m["name"] for m in spec["per_layer"]]
        describe("traced wall_s", [r.wall_s for r in traced], "s")
    else:
        values = end_to_end(runs)
        names = [m["name"] for m in spec["end_to_end"]]
        describe("setup_s", [r.setup_s for r in runs], "s")
        describe("calibration_s", [r.cal.wall_s for r in runs], "s")
    for attr, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        describe(attr, [getattr(r, attr) for r in untraced], unit)
    if not args.trace:
        print("scaled by", CAL_REF_S, "/ median calibration_s:", ", ".join(
            f"{n} {values[n][0]:.4f} {values[n][1]}" for n in ("wall_s", "cpu_s", "setup_s")
        ))
    failed = [r for r in runs if r.failure is not None]
    for r in failed:
        print(f"FAILED {' '.join(r.argv)}: {r.failure}")
    print(f"error_rate     {len(failed)}/{len(runs)} = {len(failed) / len(runs):.4f} ratio")
    print("env", json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": select(values, names),
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        sys.exit(1)
