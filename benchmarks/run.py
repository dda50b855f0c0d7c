"""Benchmark for dephasim: three workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload scaled-sweep|corner-grid|cli-timeseries \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A run repeats whole rounds for
about --seconds seconds (at least three; four in pairs when tracing).
Each round starts fresh interpreters, never reusing one, so nothing (not
the lru_cache in bath, not a warm heap) carries over between rounds and
no warm-up round is needed.

--trace 0: each round gives one set-up sample (spawn until dephasim is
imported and the inputs are built) and one timed run of the workload:
wall_s, cpu_s (user + system) and the peak RSS of the process that ran
it.  The metrics are the medians over the rounds.

--trace 1: each round is one untraced and one traced in-process run
(tracing.py), in alternating order; the per-layer metrics are medians
over the traced runs and trace.overhead_s is traced minus untraced
median wall time.

After the rounds, outputs are checked against the independent reference
(reference.py) at rows picked by --seed, and across rounds for identity.
Samples, settings and checks go to benchmarks/results/; the last line on
stdout is the result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
NPROC = len(os.sched_getaffinity(0))
# DEPHASIM_THREADS = nproc, and no other thread pool larger than that
PINNED = {
    name: str(NPROC)
    for name in ("DEPHASIM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(PINNED)  # before numpy is imported here

import workloads  # noqa: E402  (imports numpy)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
RUN_LIMIT_S = 165.0  # every child is killed before the run reaches this age


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """Starts, times and reaps the child processes of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.start = _now()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        self.output = RESULTS / (self.tag + "-out.csv")
        self.rounds = 0
        self.kept = None

    def spawn(self, cmd):
        """Run cmd to its end: (exit code, wall s, rusage, stdout, stderr, spawn time)."""
        timeout = max(5.0, RUN_LIMIT_S - (_now() - self.start))
        with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
            spawned = _now()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own CPU time and peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = _now() - spawned
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return proc.returncode, wall, usage, out.read().decode(), err.read().decode(), spawned

    def worker(self, trace=0, setup_only=False):
        """One worker round; returns its report with setup_s and peak_rss_mb, or None."""
        cmd = [sys.executable, str(HERE / "worker.py"), self.args.workload, "--seed", str(self.args.seed),
               "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if self.args.workload == "cli-timeseries" and not setup_only:
            cmd += ["--output", str(self.output)]
        if trace:
            cmd += ["--spans", str(RESULTS / (self.tag + "-spans.json"))]
        code, _, usage, out, err, spawned = self.spawn(cmd)
        if code != 0:
            sys.stderr.write("worker exited %d: %s\n" % (code, err.strip()[-2000:]))
            return None
        report = json.loads(out.strip().splitlines()[-1])
        report["setup_s"] = report.pop("ready") - spawned
        report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        if "exit" in report:
            report["digest"] = self.digest()
        return report

    def cli(self):
        """The CLI as a user runs it, in a fresh process, timed from outside."""
        cmd = [sys.executable, "-m", "dephasim.cli"] + list(workloads.CLI_ARGS) + ["--output", str(self.output)]
        code, wall, usage, _, err, _ = self.spawn(cmd)
        if code != 0:
            sys.stderr.write("dephasim.cli exited %d: %s\n" % (code, err.strip()[-2000:]))
            return None
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "digest": self.digest()}

    def digest(self):
        # every CLI run writes the same path, which the file's metadata echoes
        data = self.output.read_bytes()
        if self.kept is None:
            self.kept = data  # a complete output, for the checks after the rounds
        return hashlib.sha256(data).hexdigest()

    def round(self):
        """One round: a list of reports, one per study run, or None if any part failed."""
        if self.args.trace:
            # alternate which runs first; parts stay [untraced, traced]
            first = self.rounds % 2
            parts = [None, None]
            parts[first] = self.worker(trace=first)
            parts[1 - first] = self.worker(trace=1 - first)
        elif self.args.workload == "cli-timeseries":
            setup, run = self.worker(setup_only=True), self.cli()
            parts = [dict(run, setup_s=setup["setup_s"]) if setup and run else None]
        else:
            parts = [self.worker()]
        self.rounds += 1
        return None if None in parts else parts


def _outputs_agree(run, rounds, problems):
    """Every study run's output is identical; returns one of them."""
    if run.args.workload == "cli-timeseries":
        outputs = [part["digest"] for parts in rounds for part in parts]
        last = run.kept.decode("utf-8")
    else:
        outputs = [json.dumps(part["rows"]) for parts in rounds for part in parts]
        last = rounds[-1][-1]["rows"]
    if len(set(outputs)) != 1:
        problems.append("study outputs differ between runs (%d distinct)" % len(set(outputs)))
    return last


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dephasim" / "__init__.py").is_file():
        sys.stderr.write("no dephasim package under %s\n" % (ROOT / "src"))
        return 2
    RESULTS.mkdir(exist_ok=True)
    run = Run(args)
    rounds, failed, durations = [], 0, []
    min_rounds = 2 if args.trace else 3
    while True:
        begun = _now()
        parts = run.round()
        durations.append(_now() - begun)
        if parts is None:
            failed += 1
        else:
            rounds.append(parts)
        attempted = len(rounds) + failed
        measured = _now() - run.start
        if attempted >= min_rounds and measured + statistics.median(durations) > args.seconds:
            break
    if not rounds:
        sys.stderr.write("every round failed; no result\n")
        return 1

    import numpy as np

    rng = np.random.default_rng(args.seed)
    problems = []
    try:
        out = _outputs_agree(run, rounds, problems)
        found, failed_ops = workloads.check(args.workload, out, rng)
        problems += found
    finally:
        run.output.unlink(missing_ok=True)
    if args.trace:
        traced = [parts[1] for parts in rounds]
        metrics = {name: statistics.median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        metrics["bath.gamma_rel_err_max"] = workloads.gamma_rel_err(traced[0]["gamma_samples"])
        metrics["cli.bytes_out"] = len(run.kept) if run.kept else 0
        metrics["trace.overhead_s"] = statistics.median([r["wall_s"] for r in traced]) - statistics.median(
            [parts[0]["wall_s"] for parts in rounds])
        units = PER_LAYER
    else:
        samples = [parts[0] for parts in rounds]
        metrics = {name: statistics.median([s[name] for s in samples]) for name in END_TO_END}
        units = END_TO_END
    # whole rounds of the same operations: a failed round fails all of its study runs
    per_round = workloads.OPERATIONS[args.workload] * len(rounds[0])
    result = {
        "correct": not problems,
        "attempted": per_round * (len(rounds) + failed),
        "failed": per_round * failed + failed_ops * len(rounds[0]) * len(rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    settings = {
        "pinned_env": PINNED, "nproc": NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"), "machine": platform.machine(),
        "seconds": args.seconds, "measured_s": measured,
    }
    record = {"settings": settings, "rounds": rounds, "problems": problems, "result": result}
    (RESULTS / (run.tag + ".json")).write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for line in problems:
        sys.stderr.write("check failed: %s\n" % line)
    print("settings: " + json.dumps(settings, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
