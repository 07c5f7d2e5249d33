"""Self-check of the benchmark's tracing.

    python3 bench/selfcheck.py

It first wraps two probe functions whose times are known, to check that the
counting hooks' time stays out of every self time.  Then, for each workload,
it makes one short trace run: two untraced and two traced passes, each in a
fresh interpreter.  It fails (exit 1) unless every span nests inside its
parent within one job, the per-function self times of each traced pass plus
the hooks' time sum to its root spans (the traced wall time), every wrapper
is removed again after the pass, the counts of the two traced passes are
identical, and every job's output checks out.
"""

import sys
import time

import run
import tracing
import workloads


def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def hook_problems():
    """Problems with hook accounting: an outer probe calls an inner one
    that does 20 ms of work and has 30 ms hooks before and after it."""
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: spin(0.02), "probe.inner",
                         before=lambda _t, _args: spin(0.03),
                         after=lambda _t, result: spin(0.03) or result)
    outer = tracer._wrap(inner, "probe.outer")
    outer()
    self_s, hook_s = tracer.self_s, tracer.hook_s
    problems = []
    if not 0.02 <= self_s["probe.inner"] < 0.03:
        problems.append("inner self time %.4f s, its own work is 0.02 s" % self_s["probe.inner"])
    if not self_s["probe.outer"] < 0.01:
        problems.append("outer self time %.4f s holds the hooks' time" % self_s["probe.outer"])
    if not 0.06 <= hook_s < 0.07:
        problems.append("hook time %.4f s, the hooks take 0.06 s" % hook_s)
    total = tracer.total_s["probe.outer"]
    if abs(sum(self_s.values()) + hook_s - total) > 1e-6:
        problems.append("self times and hooks do not sum to the outer call")
    return problems


def main():
    problems = hook_problems()
    print("hooks: %s" % ("ok" if not problems else "; ".join(problems)))
    bad = bool(problems)
    for workload in sorted(workloads.WORKLOADS):
        result, problems = run.run(workload, 0, 0, True)
        if not result["correct"]:
            problems = problems + ["%d job runs failed their output check" % result["failed"]]
        print("%s: %s" % (workload, "ok" if not problems else "; ".join(problems)))
        bad |= bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
