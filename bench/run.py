"""Benchmark of logforms: seeded ladders with known answers, timed end to end
and, in a separate traced run, per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload derham-slices --seed 1 --seconds 30 --trace 0

Workloads (see bench/NOTES.md for why each was chosen):
  derham-slices   de Rham route of the singular Milnor number, in-process
  syzygy-ladder   torsion lengths, KEV codimensions and freeness, in-process
  cli-corpus      the job corpus, one fresh `python -m logforms.cli` per job
  all             the three above in turn, each with its own table and result

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric, in times scaled to a nominal host speed (reference.py);
with --trace 1 it holds every per-layer metric.  Lines before it repeat the
metrics as a table, with sample counts, the times as measured and the
failure ratio.  Exit status 0 means every answer was checked; 2 means the
sources under src/ are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_out"

# Every run measures at least MIN_PASSES passes, and starts a further pass
# only while it is expected to end within --seconds.
MIN_PASSES = 2
# The job percentiles of `cli-corpus` use the first JOB_PASSES passes (and the
# run makes at least that many), so their sample count does not change with
# speed.
JOB_PASSES = 3
# Timed set-ups before the first pass and after each pass (after one untimed
# warm-up that fills the bytecode cache); spreading them over the run keeps a
# short burst of host contention from deciding the median.
SETUP_PROBES = 3

WORKLOADS = ("derham-slices", "syzygy-ladder", "cli-corpus")

END_TO_END = (("wall_s", "s"), ("case_geomean_s", "s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer statistics: span name -> stats.  See NOTES.md for the end-to-end
# metric and workload each should move.
LAYER_STATS = {
    "groebner.groebner_basis": ("calls", "self_s", "repeat_ratio"),
    "groebner.syzygy_module": ("calls", "self_s"),
    "groebner.saturate": ("self_s",),
    "groebner.colon_ideal": ("calls",),
    "groebner.minimal_generator_indices": ("self_s",),
    "groebner.normal_form": ("calls", "self_s"),
    "groebner.LinSpace.add": ("calls", "self_s", "gain_ratio"),
    "groebner.QuotientTable": ("self_s",),
    "groebner.quotient_dimension": ("calls", "self_s"),
    "groebner.lift_over_generators": ("self_s",),
    "poly.poly_gcd": ("calls", "self_s"),
    "poly.is_squarefree": ("self_s",),
    "poly.parse_poly": ("self_s",),
    "poly.quasihomogeneous_weights": ("self_s",),
    "exterior.pullback": ("calls", "self_s"),
    "exterior.ext_d": ("calls", "self_s"),
    "exterior.wedge": ("calls", "self_s"),
    "logarithmic.derlog": ("self_s",),
    "logarithmic.is_free": ("self_s",),
    "logarithmic.log_form_generators": ("self_s",),
    "logarithmic.poly_det": ("calls", "self_s"),
    "logarithmic.saito_check": ("calls", "pass_ratio"),
    "forms.GradedSlices.d_matrix": ("self_s",),
    "forms.GradedSlices.d_rank": ("self_s",),
    "forms.forms_pullback": ("self_s",),
    "forms.torsion_length": ("self_s",),
    "deformation.mu_e_derham": ("self_s",),
    "deformation.kev_normal_space": ("self_s",),
    "deformation.ae_normal_space_direct": ("self_s",),
    "deformation.SparseLinSpace.add": ("calls",),
    "jobio.parse_job": ("self_s",),
    "cli.run_job": ("self_s",),
    "cli.main": ("self_s",),
}
MODULES = ("groebner", "poly", "exterior", "logarithmic", "forms", "deformation", "jobio", "cli")
# Ratios computed from outcome probes: true outcomes over calls.
RATIOS = {"repeat_ratio", "gain_ratio", "pass_ratio"}
UNITS = {"calls": "count", "self_s": "s"}


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, stats in LAYER_STATS.items():
        for stat in stats:
            unit = "ratio" if stat in RATIOS else UNITS[stat]
            better = "higher" if stat in ("gain_ratio", "pass_ratio") else "lower"
            out.append((f"{span}.{stat}", unit, better))
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out += [("cli.import_s", "s", "lower"), ("trace.untraced_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


# ---------------------------------------------------------------------------
# helpers


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.  The host slows each
    vCPU on its own, so a reference timing in this process follows a child's
    speed only when both run on the same vCPU; pinned, the difference between
    two passes of one scaled `cli-corpus` job fell from 0.30 to 0.13 of its
    time (NOTES.md).  The program is single-threaded, so it loses no
    parallelism."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(cmd: list) -> tuple:
    """Run a child to completion; returns (seconds from spawn to exit, result)."""
    t = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
    return perf_counter() - t, proc


def tail(samples: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    s = sorted(samples)
    i = max(0, len(s) - 11)
    return s[i], 100 * (i + 1) // len(s)


class HostSpeed:
    """Runs the reference computation (reference.py) around and during timed
    units, and scales the units' times to the nominal host speed.

    `around(fn)` calls fn between two reference timings and returns
    (fn's result, seconds, scaled seconds).  The timing after one unit is the
    timing before the next, so a pass of n units costs n + 1 of them.  The
    host's speed changes by up to 1.7x from one second to the next, so one
    factor per run would not follow it, and two timings do not follow it
    through a unit of several seconds.  With `sample`, a timer signal also
    takes a reference timing every SAMPLE_S seconds inside fn; that time is
    left out of the unit's, and each stretch of fn between two timings is
    scaled by the nominal reference time over the mean of those two.

    A timing is the faster of two back-to-back runs with the collector off,
    so that a collection or a one-off stall in one run does not skew the
    factor of the units on either side."""

    SAMPLE_S = 0.3

    def __init__(self):
        self.samples: list = []
        self._last = None
        self._marks: list = []

    def _reference(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(2):
                t = perf_counter()
                reference.work()
                runs.append(perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        self._last = min(runs)
        self.samples.append(self._last)
        return self._last

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        r = self._reference()
        self._marks.append((start, perf_counter(), r))

    def around(self, fn, sample: bool = False) -> tuple:
        before = self._last if self._last is not None else self._reference()
        self._marks = []
        if sample:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            end = perf_counter()
        after = self._reference()
        seconds = scaled = 0.0
        t, r = start, before
        for paused, resumed, r_next in self._marks + [(end, end, after)]:
            seconds += paused - t
            scaled += (paused - t) * reference.NOMINAL_S / ((r + r_next) / 2)
            t, r = resumed, r_next
        return result, seconds, scaled


class Tally:
    """Attempts, failures, and failures that are not known defects."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []

    def record(self, case_id: str, answer, expected, defect=None, error: str = ""):
        self.attempted += 1
        if not error and answer == expected:
            return
        self.failed += 1
        if error or defect is None or answer != defect:
            detail = error or f"got {answer!r}, expected {expected!r}"
            self.unexpected.append(f"{case_id}: {detail}")


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int) -> None:
    """Child side: import logforms and build the workload's inputs between two
    reference timings in this process; prints the (scaled, measured) seconds."""

    def import_and_build():
        import cases

        build(cases, workload, seed)

    reference.work()
    _, dt, scaled = HostSpeed().around(import_and_build)
    print(json.dumps([scaled, dt]))


def build(cases, workload: str, seed: int) -> list:
    if workload == "cli-corpus":
        return cases.cli_corpus(seed, ROOT, WORK / f"jobs-{seed}")
    return {"derham-slices": cases.derham_slices,
            "syzygy-ladder": cases.syzygy_ladder}[workload](seed)


def setup_seconds(workload: str, seed: int, speed: HostSpeed) -> tuple:
    """(scaled, measured) seconds of one fresh set-up: import plus input
    building for the ladders, timed and scaled inside the child that does it;
    a bare `import logforms.cli` process for the command-line corpus, from
    spawn to exit."""
    if workload == "cli-corpus":
        cmd = [sys.executable, "-c", "import logforms.cli"]
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    (_, proc), dt, scaled = speed.around(lambda: spawn(cmd))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return (scaled, dt) if workload == "cli-corpus" else tuple(json.loads(proc.stdout))


def import_seconds() -> float:
    """`import logforms.cli` in a fresh interpreter minus a bare interpreter start."""
    bare = [spawn([sys.executable, "-c", "pass"])[0] for _ in range(5)]
    full = [spawn([sys.executable, "-c", "import logforms.cli"])[0] for _ in range(5)]
    return statistics.median(full) - statistics.median(bare)


# ---------------------------------------------------------------------------
# passes


def ladder_pass(cases: list, tally: Tally, times: dict, speed: HostSpeed, rec=None,
                sample: bool = False) -> tuple:
    """One pass: each case `reps` times in a row.  A case's sample is its
    (scaled, measured) time per call; returns the pass's (scaled, measured)
    time, the sum over its cases.  `sample` takes reference timings inside
    the cases (HostSpeed.around)."""

    def calls(case) -> None:
        for _ in range(case.reps):
            if rec is not None:
                rec.begin_case(case.id)
            try:
                answer, error = case.run(), ""
            except Exception:
                answer, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
            tally.record(case.id, answer, case.expected, error=error)

    total = [0.0, 0.0]
    for case in cases:
        _, dt, scaled = speed.around(lambda: calls(case), sample)
        times[case.id].append((scaled / case.reps, dt / case.reps))
        total[0] += scaled
        total[1] += dt
    return tuple(total)


def job_outcome(job, tally: Tally, code: int, out: bytes, first: dict):
    """Check one job's exit code, answers and byte-identity with its first run."""
    error = ""
    answer = None
    if code != 0:
        error = f"exit {code}"
    else:
        try:
            answer = job.answer(json.loads(out))
        except ValueError as exc:
            error = f"bad JSON: {exc}"
        if first.setdefault(job.id, out) != out:
            error = "output differs between passes"
    tally.record(job.id, answer, job.expected, job.defect, error)


def cli_pass(jobs: list, tally: Tally, times: dict, first: dict, speed: HostSpeed) -> tuple:
    """One pass of fresh `python -m logforms.cli` processes; samples and
    result as in `ladder_pass`."""
    total = [0.0, 0.0]
    for job in jobs:
        (_, proc), dt, scaled = speed.around(lambda: spawn(
            [sys.executable, "-m", "logforms.cli", "--input", str(job.path)]))
        times[job.id].append((scaled, dt))
        total[0] += scaled
        total[1] += dt
        job_outcome(job, tally, proc.returncode, proc.stdout, first)
    return tuple(total)


def cli_pass_in_process(jobs: list, tally: Tally, times: dict, first: dict,
                        speed: HostSpeed, rec=None) -> tuple:
    """One pass through `cli.main(argv)`; samples and result as in `ladder_pass`."""
    from logforms import cli

    def job_run(job) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--input", str(job.path)])
        return code, out.getvalue().encode()

    total = [0.0, 0.0]
    for job in jobs:
        if rec is not None:
            rec.begin_case(job.id)
        (code, out), dt, scaled = speed.around(lambda: job_run(job))
        times[job.id].append((scaled, dt))
        total[0] += scaled
        total[1] += dt
        job_outcome(job, tally, code, out, first)
    return tuple(total)


def run_passes(one_pass, units: list, seconds: float, setup, min_passes: int) -> tuple:
    """At least `min_passes` whole passes, and more while the next is expected
    (from the median measured pass so far) to end within `seconds`; with
    SETUP_PROBES set-ups before the first pass and after each pass.  Every
    sample is a (scaled, measured) pair."""
    times = {u.id: [] for u in units}
    walls = []
    setup()
    setups = [setup() for _ in range(SETUP_PROBES)]
    start = perf_counter()
    while (len(walls) < min_passes
           or perf_counter() - start + statistics.median(w[1] for w in walls) <= seconds):
        walls.append(one_pass(times))
        setups += [setup() for _ in range(SETUP_PROBES)]
    return walls, times, setups


# ---------------------------------------------------------------------------
# metrics


def time_metrics(walls: list, times: dict, setups: list, jobs: bool) -> tuple:
    """Values and notes of the timed end-to-end metrics.

    `jobs` marks a workload of command-line jobs, whose percentiles are over
    every job run of the first JOB_PASSES passes.  On the ladders a job is
    one pass, the unit a user running the ladder waits for: their cases are
    too few and too unlike for percentiles over cases, whose middle and tail
    would fall between two cases of very different cost."""
    medians = [statistics.median(ts) for ts in times.values()]
    if jobs:
        samples = [t for ts in times.values() for t in ts[:JOB_PASSES]]
        tail_value, pct = tail(samples)
        tail_note = f"p{pct} of {len(samples)} job runs"
        p50_note = f"{len(samples)} job runs"
    else:
        samples = walls
        tail_value = max(walls)
        tail_note = f"slowest of {len(walls)} passes"
        p50_note = f"median of {len(walls)} passes"
    values = {"wall_s": statistics.median(walls),
              "case_geomean_s": statistics.geometric_mean(medians),
              "job_p50_s": statistics.median(samples),
              "job_tail_s": tail_value,
              "setup_s": statistics.median(setups)}
    notes = {"wall_s": f"median of {len(walls)} passes",
             "case_geomean_s": f"{len(medians)} cases, median of {len(walls)} each",
             "job_p50_s": p50_note,
             "job_tail_s": tail_note,
             "setup_s": f"median of {len(setups)} set-ups"}
    return values, notes


def end_to_end(walls: list, times: dict, setups: list, rss_mb: float, jobs: bool) -> dict:
    """Every time metric from the scaled samples, with the same statistic of
    the measured ones in its note."""
    def part(i):
        return ([w[i] for w in walls], {k: [t[i] for t in ts] for k, ts in times.items()},
                [x[i] for x in setups])

    scaled, notes = time_metrics(*part(0), jobs)
    measured, _ = time_metrics(*part(1), jobs)
    out = {name: (value, "s", f"{notes[name]}; measured {measured[name]:.6f} s")
           for name, value in scaled.items()}
    out["peak_rss_mb"] = (rss_mb, "MB", "")
    return {name: out[name] for name, _ in END_TO_END}


def per_layer(summaries: list, traced: list, untraced: list, import_s: float) -> dict:
    """`traced` and `untraced` hold the (scaled, measured) times of the passes."""
    calls = summaries[0]["calls"]
    outcomes = summaries[0]["outcomes"]
    self_s = {k: statistics.fmean(s["self_s"].get(k, 0.0) for s in summaries)
              for k in set().union(*(s["self_s"] for s in summaries))}
    values = {}
    for span, stats in LAYER_STATS.items():
        for stat in stats:
            if stat == "calls":
                v = calls.get(span, 0)
            elif stat == "self_s":
                v = self_s.get(span, 0.0)
            else:
                n = calls.get(span, 0)
                v = outcomes.get(span, {}).get("true", 0) / n if n else 0.0
            values[f"{span}.{stat}"] = v
    for m in MODULES:
        values[f"{m}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(m + "."))
    values["cli.import_s"] = import_s
    values["trace.untraced_s"] = statistics.fmean(
        w[1] - s["top_s"] for w, s in zip(traced, summaries))
    values["trace.overhead_ratio"] = min(w[0] for w in traced) / min(w[0] for w in untraced) - 1
    return {name: (values[name], unit, "") for name, unit, _ in per_layer_names()}


def report(metrics: dict, tally: Tally) -> None:
    for name, (value, unit, note) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit:6s} {note}")
    ratio = tally.failed / tally.attempted
    print(f"{'fail_ratio':42s} {ratio:14.6f} {'ratio':6s} {tally.failed} of {tally.attempted}")
    for line in tally.unexpected[:20]:
        print(f"UNEXPECTED {line}")
    result = {"correct": not tally.unexpected, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# runs


def run_untraced(workload: str, seed: int, seconds: float) -> tuple:
    import cases

    units = build(cases, workload, seed)
    tally = Tally()
    speed = HostSpeed()

    setup = lambda: setup_seconds(workload, seed, speed)
    if workload == "cli-corpus":
        first: dict = {}
        walls, times, setups = run_passes(lambda t: cli_pass(units, tally, t, first, speed),
                                          units, seconds, setup, JOB_PASSES)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        walls, times, setups = run_passes(lambda t: ladder_pass(units, tally, t, speed, sample=True),
                                          units, seconds, setup, MIN_PASSES)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    WORK.mkdir(exist_ok=True)
    (WORK / f"samples-{workload}-{seed}.json").write_text(
        json.dumps({"walls": walls, "setups": setups, "cases": times,
                    "reference": speed.samples}))
    print(f"{'reference_s':42s} {statistics.median(speed.samples):14.6f} {'s':6s} "
          f"median of {len(speed.samples)} reference runs; nominal {reference.NOMINAL_S} s")
    return end_to_end(walls, times, setups, rss, workload == "cli-corpus"), tally


def run_traced(workload: str, seed: int) -> tuple:
    """Two rounds of an untraced pass then a traced pass; the traced passes
    must agree on every call count.  The overhead compares the fastest pass of
    each kind, in times scaled to the nominal host speed.  The command-line
    corpus runs in-process through `cli.main(argv)` here."""
    import cases
    from spans import Recorder

    units = build(cases, workload, seed)
    tally = Tally()
    times = {u.id: [] for u in units}
    speed = HostSpeed()
    if workload == "cli-corpus":
        first: dict = {}
        one_pass = lambda rec: cli_pass_in_process(units, tally, times, first, speed, rec)
        import_s = import_seconds()
    else:
        one_pass = lambda rec: ladder_pass(units, tally, times, speed, rec)
        import_s = 0.0
    summaries, walls, untraced = [], [], []
    for k in range(2):
        untraced.append(one_pass(None))
        rec = Recorder()
        rec.install()
        try:
            walls.append(one_pass(rec))
        finally:
            rec.uninstall()
        rec.write(WORK / f"spans-{workload}-{seed}-{k}.jsonl")
        summaries.append(rec.summary())
    a, b = summaries
    if a["calls"] != b["calls"] or a["outcomes"] != b["outcomes"]:
        diff = sorted(k for k in set(a["calls"]) | set(b["calls"])
                      if a["calls"].get(k) != b["calls"].get(k))
        tally.unexpected.append(f"call counts differ between traced passes: {diff}")
    return per_layer(summaries, walls, untraced, import_s), tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="logforms benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "logforms" / "__init__.py").is_file():
        print(f"error: no logforms sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.workload == "all":
            print(f"== {workload}")
        if args.trace:
            metrics, tally = run_traced(workload, args.seed)
        else:
            metrics, tally = run_untraced(workload, args.seed, args.seconds)
        report(metrics, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
