"""One pass: a fresh interpreter runs a workload's jobs back to back.

Started by run.py with the checkout's `src` on PYTHONPATH.  It imports
`qproj.cli` before anything else, so the parent can time set-up from spawn
to the first job being ready.  It then reads the pass description (JSON) from
stdin, runs every job in-process through `qproj.cli.main`, and writes one JSON
line per job to stdout as it ends, then a closing line with the pass's
totals, so a pass the parent has to kill still reports the jobs it finished.

Each job runs under a per-job budget enforced with SIGALRM in this process;
an overrun unwinds the job and is reported, it never hangs the pass.

The host's speed swings by up to 2x within seconds, so untraced passes also
sample it while each job runs: every SAMPLE_EVERY_S of process CPU time a
SIGPROF handler times a fixed pure-Python loop.  The loop's time is
subtracted from the job's time, and the median loop time is reported with
the job, so the parent can express the job's time at a reference speed.
Traced passes do not sample, so the samples never enter a layer's self time.
"""

import sys
import time

import qproj.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402


class Overrun(BaseException):
    """Raised by the budget alarm; a BaseException so no handler in qproj eats it."""


def _alarm(_signum, _frame):
    raise Overrun()


SAMPLE_EVERY_S = 0.025

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


def release_memory():
    """Hand what earlier jobs freed back to the OS before the next job.

    Without this the pass's peak RSS depended on the job order (29.4 to
    32.2 MiB over six orders of rank_decisions); with it, on the largest job.
    """
    gc.collect()
    if _malloc_trim:
        _malloc_trim(0)


def speed_loop():
    """A fixed pure-Python loop; its time tracks the host's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(8000):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Times speed_loop every SAMPLE_EVERY_S of CPU time while it is on."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, _signum, _frame):
        self.samples.append(speed_loop())

    def start(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        """Stop sampling; returns this job's samples (a late tick lands elsewhere)."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        samples, self.samples = self.samples, []
        return samples


def run_job(argv, budget_s, sampler):
    """Run one job; its seconds exclude the time spent in speed samples."""
    before = sorted(speed_loop() for _ in range(3))[1]
    out = io.StringIO()
    overrun = False
    rc = error = None
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    if sampler:
        sampler.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = qproj.cli.main(["--format", "json"] + argv)
    except Overrun:
        overrun = True
    except SystemExit as exc:  # argparse rejected the command line
        rc = exc.code
    except Exception:  # a crash fails this job; the pass goes on
        error = traceback.format_exc(limit=-3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        samples = sampler.stop() if sampler else []
    return {"rc": rc, "error": error, "stdout": out.getvalue(),
            "seconds": seconds - sum(samples),
            "overrun": overrun, "speed_samples": len(samples),
            "loop_s": statistics.median(samples) if samples else before}


def main():
    ready_loop = sorted(speed_loop() for _ in range(3))[1]
    spec = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _alarm)
    tracer = sampler = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        sampler = SpeedSampler()
    try:
        for job in spec["jobs"]:
            release_memory()
            if tracer:
                tracer.begin_job(job["id"])
            res = run_job(job["argv"], job["budget_s"], sampler)
            if tracer:
                tracer.end_job()
            res["id"] = job["id"]
            print(json.dumps(res), flush=True)
    finally:
        if tracer:
            tracer.uninstall()
    out = {"ready": READY, "ready_loop_s": ready_loop,
           "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        out["trace"] = tracer.report()
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
