"""Benchmark of nkdeform: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-cold|clifford-spinors|deform-warm
        --seed N --seconds S --trace 0|1

The seed makes the workload's inputs; the same seed gives the same inputs.
A run repeats whole rounds of the workload's fixed list of operations, one
operation at a time in a closed loop, for about S seconds, then checks the
Kostant sample.  Each operation is timed by its CPU time, scaled to a
nominal processor speed by calibration chunks run around it (Clock).  Every output is checked against
answers computed apart from the program (see oracle.py).  The last line of
stdout is one JSON object: correct, attempted, failed and metrics, which
are the end-to-end metrics with --trace 0 and the per-layer metrics of a
run with span wrappers installed (spans.py) with --trace 1.

The code measured is the checkout's own `src/`: it goes first on sys.path
and PYTHONPATH, and the run stops with exit code 2 if `nkdeform` is not
imported from there.
"""

import argparse
import importlib.util
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import cli_cold
import inproc
import spans

WORKLOADS = ("cli-cold", "clifford-spinors", "deform-warm")
SETUP_SAMPLES = 9
# Calibration: a fixed integer loop whose CPU time follows the speed the
# shared processor gives this process at the moment.  After every timed
# operation such chunks run for CALIBRATION_SHARE of the operation's CPU
# time, at least one.  An operation's CPU time is scaled by the median
# chunk of a window around it: the chunks that ran after it and
# CALIBRATION_WINDOW more on each side.  Reported times are at the speed
# at which one chunk takes CALIBRATION_NOMINAL_S.
CALIBRATION_ITERATIONS = 20000
CALIBRATION_NOMINAL_S = 0.002
CALIBRATION_SHARE = 0.1
CALIBRATION_WINDOW = 8
WARMUPS = {"clifford-spinors": inproc.clifford_warmup,
           "deform-warm": inproc.deform_warmup}
ROUNDS = {"clifford-spinors": inproc.clifford_round,
          "deform-warm": inproc.deform_round}


class CheckoutError(Exception):
    pass


def import_package(src):
    """Import nkdeform and make sure it is the checkout's copy."""
    import nkdeform

    if not os.path.realpath(nkdeform.__file__).startswith(src + os.sep):
        raise CheckoutError("nkdeform was imported from %s, not from %s"
                            % (nkdeform.__file__, src))
    return nkdeform


def check_children_import(src):
    """The package a cold `python -m nkdeform.cli` would import."""
    path = subprocess.run(
        [sys.executable, "-c", "import nkdeform; print(nkdeform.__file__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    if not os.path.realpath(path).startswith(src + os.sep):
        raise CheckoutError("child processes import nkdeform from %s" % path)


def calibration_chunk():
    start = time.process_time()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x += i * i % 7
    return time.process_time() - start


class Clock:
    """Times operations by their CPU time, which leaves out the time the
    shared host takes the processor away, and runs calibration chunks
    after each, so that the CPU time can be scaled to a nominal processor
    speed: on the shared host the speed itself varies up to twofold."""

    def __init__(self):
        self.chunks = []
        self.calibrate(0)

    def calibrate(self, busy_s):
        first = len(self.chunks)
        self.chunks.append(calibration_chunk())
        while sum(self.chunks[first:]) < CALIBRATION_SHARE * busy_s:
            self.chunks.append(calibration_chunk())
        return first, len(self.chunks)

    def timed(self, fn):
        """(mark, outcome): fn() returns (CPU seconds, outcome)."""
        busy_s, outcome = fn()
        return (busy_s,) + self.calibrate(busy_s), outcome

    def scaled(self, mark):
        busy_s, first, end = mark
        window = self.chunks[max(0, first - CALIBRATION_WINDOW):
                             end + CALIBRATION_WINDOW]
        return busy_s * CALIBRATION_NOMINAL_S / statistics.median(window)


def measure(ops, seconds, setup_probe):
    """Whole rounds of ``ops`` for about ``seconds``.

    Every operation is timed by its CPU time scaled to the nominal speed
    (Clock); the unscaled CPU times are kept too.  Between operations,
    ``setup_probe()``, if given, times one set-up, SETUP_SAMPLES times in
    all, spread evenly over the run so that the set-up samples see the
    same machine as the operations.  The probes' own time does not count
    towards ``seconds``."""
    clock = Clock()
    marks, setup_marks, problems = [], [], []
    rounds = failed = 0
    paused = 0.0
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start - paused

    def probe():
        probe_start = time.perf_counter()
        setup_marks.append(clock.timed(lambda: (setup_probe(), None))[0])
        return time.perf_counter() - probe_start

    # another round if it would end nearer to ``seconds`` than stopping now
    while not rounds or elapsed() * (1 + 0.5 / rounds) < seconds:
        for op in ops:
            mark, outcome = clock.timed(op.run)
            marks.append(mark)
            try:
                op_failed, problem = op.check(outcome)
            except Exception as exc:  # unreadable output is a wrong output
                op_failed, problem = False, "unreadable output: %r" % exc
            failed += op_failed
            if problem:
                problems.append(problem)
            if (setup_probe and len(setup_marks) < SETUP_SAMPLES
                    and elapsed() >= len(setup_marks) * seconds / SETUP_SAMPLES):
                paused += probe()
        rounds += 1
    while setup_probe and len(setup_marks) < SETUP_SAMPLES:
        probe()
    return {"rounds": rounds, "times": [clock.scaled(m) for m in marks],
            "raw": [m[0] for m in marks], "attempted": len(marks),
            "failed": failed, "problems": problems,
            "setups": [clock.scaled(m) for m in setup_marks]}


def kostant_problems(root, nk, sample):
    """Full characters of the sampled irreducibles against the Kostant
    formula of the repository's test oracle."""
    spec = importlib.util.spec_from_file_location(
        "weyl_oracle", os.path.join(root, "tests", "weyl_oracle.py"))
    weyl_oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(weyl_oracle)
    problems = []
    for kind, hw in sample:
        got = nk.lie.weight_multiplicities(nk.lie.RootData((kind,)), hw).weights
        if dict(got) != weyl_oracle.character(kind, hw):
            problems.append("character of %s %s differs from Kostant's" % (kind, hw))
    return problems


def inproc_setup_probe(args):
    """Set-up CPU time of a fresh process running the same workload."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--trace", "0", "--setup-only"]
    return float(subprocess.run(argv, capture_output=True, text=True, check=True)
                 .stdout.split()[-1])


def inproc_setup(src, workload, tracer=None):
    """(CPU seconds, package) of the import and the warm-up."""
    start = time.process_time()
    nk = import_package(src)
    if tracer is not None:
        spans.install(tracer, nk)
    WARMUPS[workload](nk)
    return time.process_time() - start, nk


def run_inproc(args, root, src):
    tracer = spans.Tracer() if args.trace else None
    setup_s, nk = inproc_setup(src, args.workload, tracer)
    if args.setup_only:
        print(repr(setup_s))
        return None
    setup_snap = tracer and tracer.snapshot()
    if tracer:
        tracer.reset()
    ops = ROUNDS[args.workload](nk, random.Random(args.seed))
    # set-up time is an end-to-end metric, so only untraced runs probe it
    probe = None if tracer else lambda: inproc_setup_probe(args)
    result = measure(ops, args.seconds, probe)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace"] = spans.add(spans.add(spans.empty(), setup_snap),
                                    tracer.snapshot(), 1.0 / result["rounds"])
    elif spans.installed(nk):
        raise CheckoutError("untraced run found span wrappers installed")
    if args.workload == "deform-warm":
        result["problems"] += kostant_problems(root, nk, inproc.kostant_sample())
    return result


def run_cli_cold(args, root, src, workdir):
    runner = cli_cold.Runner(workdir)

    def version_probe():
        elapsed, (rc, out, _) = runner.run(["--version"])
        if rc != 0 or not out.startswith("nkdeform "):
            raise CheckoutError("`nkdeform --version` failed")
        return elapsed

    version_probe()  # stops the run early if the CLI cannot start
    check_children_import(src)
    nk = import_package(src)
    valid, malformed = cli_cold.write_fixtures(workdir, nk.cosets.dump_fixtures())
    plan, sample = cli_cold.round_commands(random.Random(args.seed), runner,
                                           valid, malformed)
    if args.trace:
        runner.trace_acc = spans.empty()
    runner.peak_rss_kb = 0
    result = measure(plan, args.seconds, None if args.trace else version_probe)
    result["peak_rss_kb"] = runner.peak_rss_kb
    if args.trace:
        result["trace"] = spans.add(spans.empty(), runner.trace_acc,
                                    1.0 / result["rounds"])
    result["problems"] += kostant_problems(root, nk, sample)
    return result


def op_seconds(result, key="times"):
    """Each operation of the list at the median of its rounds.  On a shared
    machine the speed of the processor comes and goes in bursts, both ways;
    the median repeat does not hang on whether a run caught a rare quiet or
    a rare busy moment."""
    n = result["attempted"] // result["rounds"]
    return [statistics.median(result[key][i::n]) for i in range(n)]


def report(args, result):
    per_op = op_seconds(result)
    run_s = sum(per_op)
    print("unscaled CPU run_s %.6f" % sum(op_seconds(result, "raw")),
          file=sys.stderr)
    if args.trace:
        metrics = spans.layer_metrics(result["trace"])
        print("traced run_s %.6f over %d rounds" % (run_s, result["rounds"]),
              file=sys.stderr)
    else:
        print("set-up samples: %s" % " ".join("%.4f" % t for t in result["setups"]),
              file=sys.stderr)
        metrics = {
            "run_s": (run_s, "s"),
            "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
            "setup_s": (statistics.median(result["setups"]), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        }
    for problem in result["problems"][:20]:
        print("wrong output: %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.path.realpath(os.getcwd())
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nkdeform", "__init__.py")):
        print("error: %s holds no nkdeform source; run from the root of a "
              "checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    try:
        if args.workload != "cli-cold":
            result = run_inproc(args, root, src)
            if result is not None:
                report(args, result)
            return 0
        workdir = os.path.join(root, ".perfbench_work", str(os.getpid()))
        os.makedirs(workdir)
        try:
            report(args, run_cli_cold(args, root, src, workdir))
        finally:
            shutil.rmtree(workdir)
            if not os.listdir(os.path.dirname(workdir)):
                os.rmdir(os.path.dirname(workdir))
    except CheckoutError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
