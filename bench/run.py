"""qproj benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload gt_build_verify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The harness is single-threaded: it starts
one pass process at a time (bench/worker.py, a fresh interpreter with the
checkout's `src` on its path) and waits for it.  Every pass runs the
workload's whole job list in-process through `qproj.cli.main`, so no pass
reuses state memoised by an earlier one, while work shared within one pass
stays shared.  Every job's output is checked (see workloads.py).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it carries the per-layer
metrics.  Earlier lines carry provenance, per-job failures and a readable
list of the metrics.  See bench/README.md for every metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SPAWNS = 7           # set-up-only interpreter starts per run
HARD_LIMIT_S = 165.0       # no pass may run past this point of the run
# The speed loop's time (worker.speed_loop) at the reference speed: what it
# takes in the fast regime of the 2-vCPU Xeon host the benchmark was tuned on.
REFERENCE_LOOP_S = 0.0005


def spawn(jobs, trace, kill_after):
    """Run one pass; returns (set-up seconds, job records, summary).

    A pass that outlives `kill_after` is killed; its unfinished jobs are then
    missing from the records and the summary is None.
    """
    spec = {"trace": trace, "jobs": [
        {"id": j.id, "argv": j.argv, "budget_s": j.budget_s} for j in jobs]}
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=kill_after)
        stdout = proc.stdout
    except subprocess.TimeoutExpired as exc:
        stdout = exc.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode()
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:  # the line a killed pass was writing
            pass
    records = [rec for rec in lines if "id" in rec]
    summary = lines[-1] if lines and "ready" in lines[-1] else None
    setup = None
    if summary:
        # At the reference speed, like the jobs; the speed loop ran just
        # after the import, on the same vCPU in all likelihood.
        setup = (summary["ready"] - t0) * REFERENCE_LOOP_S / summary["ready_loop_s"]
    return setup, records, summary


def provenance(seed, workload):
    import mpmath  # the program's own dependency; read its version only
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "cpu": cpu}


def median(values):
    return statistics.median(values) if values else 0.0


def job_seconds(rec):
    """A job's time at the reference speed."""
    return rec["seconds"] * REFERENCE_LOOP_S / rec["loop_s"]


def finished(records):
    """The jobs of a pass that ended within their budget.

    An overrun's time is its budget, not the program's work; it counts in
    job_pass_ratio and is left out of every timing.
    """
    return [rec for rec in records if not rec["overrun"]]


def max_job(passes):
    """The slowest job, by its median time over the passes; overruns excluded."""
    times = {}
    for records in passes:
        for rec in finished(records):
            times.setdefault(rec["id"], []).append(job_seconds(rec))
    return max((median(v) for v in times.values()), default=0.0)


def raw_wall(records):
    return sum(r["seconds"] for r in finished(records))


def wall(records):
    return sum(map(job_seconds, finished(records)))


def run(workload, seed, seconds, trace):
    jobs = workloads.jobs_for(workload, seed)
    start = time.monotonic()
    deadline = start + seconds
    spawn([], False, 60)  # compiles the bytecode caches; not measured
    setups = [spawn([], False, 60)[0] for _ in range(SETUP_SPAWNS)]
    passes = []  # (traced, records, summary)
    kill_after = sum(j.budget_s for j in jobs) + 10
    first = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        setup, records, summary = spawn(jobs, traced, min(kill_after, remaining))
        passes.append((traced, records, summary))
        if setup is not None and not traced:
            setups.append(setup)
        # Stop when the next pass would end well past the deadline; a trace
        # run needs two traced passes, so that their counts can be compared.
        now = time.monotonic()
        mean_pass = (now - first) / len(passes)
        if now + mean_pass > start + HARD_LIMIT_S:
            break
        if now + mean_pass / 2 > deadline and not (trace and len(passes) < 4):
            break

    attempted = failed = passed = 0
    outcomes = {}
    for _traced, records, _summary in passes:
        by_id = {rec["id"]: rec for rec in records}
        for job in jobs:
            attempted += 1
            rec = by_id.get(job.id)
            if rec is None:
                status, detail = "wrong", "the pass ended before the job did"
            elif rec["error"]:
                status, detail = "wrong", rec["error"].replace("\n", " | ")
            else:
                try:
                    report = json.loads(rec["stdout"]) if rec["stdout"] else None
                except ValueError:
                    report = None
                status, detail = workloads.check(job, rec["rc"], report, rec["overrun"])
            passed += status == "pass"
            failed += status == "wrong"
            outcomes.setdefault((job.id, status, detail), 0)
            outcomes[(job.id, status, detail)] += 1

    info = provenance(seed, workload)
    untraced = [records for traced, records, summary in passes if not traced and summary]
    untraced_rss = [summary["maxrss_kib"] / 1024 for traced, _r, summary in passes
                    if not traced and summary]
    info["passes"] = len(untraced)
    info["raw_wall_s"] = [round(raw_wall(r), 4) for r in untraced]
    info["wall_s"] = [round(wall(r), 4) for r in untraced]
    info["speed_loop_ms"] = [round(1000 * median([x["loop_s"] for x in r]), 4)
                             for r in untraced]
    print(json.dumps({"provenance": info}))
    for (job_id, status, detail), n in sorted(outcomes.items()):
        if status != "pass":
            print("%s %s x%d: %s" % (status, job_id, n, detail))

    problems = []
    if not trace:
        metrics = {
            "wall_s": (median([wall(r) for r in untraced]), "s"),
            "max_job_s": (max_job(untraced), "s"),
            "setup_s": (median([s for s in setups if s is not None]), "s"),
            "peak_rss_mib": (median(untraced_rss), "MiB"),
            "job_pass_ratio": (passed / attempted, "ratio"),
        }
    else:
        import tracing
        traced = [(records, s["trace"]) for t, records, s in passes if t and s]
        metrics, problems = tracing.layer_metrics(traced, [raw_wall(r) for r in untraced])
        for problem in problems:
            print("self-check: %s" % problem)
        if not problems:
            print("self-check: ok over %d traced passes" % len(traced))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
        with open(path, "w") as fh:
            json.dump({"provenance": info,
                       "spans": [report["spans"] for _records, report in traced]}, fh)
        print("spans written to %s" % os.path.relpath(path, ROOT))

    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (name, value, unit))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qproj", "cli.py")):
        print("error: no src/qproj under %s; run from a qproj checkout" % ROOT,
              file=sys.stderr)
        return 2
    result, _problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
