"""One fresh interpreter running one workload; started by ``run.py``.

Protocol on stdout: the line ``READY`` once set-up is done (``run.py`` times
set-up from process start to that line), then one ``RESULT <json>`` line.

Modes:
  setup   set up, report READY, exit;
  jobs    set up, then run jobs in a closed loop from this one thread: the
          next job starts only after the previous one ended, while less than
          --seconds have passed since the first started (always one job),
          each timed by ``reference.JobClock``;
  traced  install the tracer before set-up, run one job, and restore every
          wrapped name on the way out.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import delta334
    if Path(delta334.__file__).resolve().parent != src / "delta334":
        raise SystemExit(f"delta334 imported from {delta334.__file__}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "jobs", "traced"), required=True)
    args = ap.parse_args(argv)

    _import_library()
    from reference import JobClock
    from tracing import Tracer
    from workloads import WORKLOADS, Checks, digest

    setup, job, summarize, check_job = WORKLOADS[args.workload]
    tracer = Tracer() if args.mode == "traced" else None
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if tracer is not None:
        tracer.install()
    try:
        with span("bench.setup"):
            ctx = setup(args.seed)
        print("READY", flush=True)
        if args.mode == "setup":
            return 0

        check = Checks()
        if "codomain_coloring" in ctx:
            cc = ctx["codomain_coloring"]
            check("setup.codomain-8-coloring", ctx["codomain"].n == 56 and cc.proper
                  and cc.num_colors == 8)
        clock = JobClock(span)
        job_s: list[float] = []
        ref_s: list[float] = []
        ref_spread: list[float] = []
        summaries: list[dict] = []
        loop_start = time.perf_counter()
        while not job_s or (args.mode == "jobs"
                            and time.perf_counter() - loop_start < args.seconds):
            out = None
            gc.collect()
            with span("bench.job"), clock:
                out = job(ctx, clock)
            job_s.append(clock.seconds)
            ref_s.append(clock.reference_seconds)
            ref_spread.append(clock.reference_spread)
            summaries.append(summarize(out))
            check_job(ctx, out, check)
    finally:
        if tracer is not None:
            tracer.restore()

    result = {
        "job_s": job_s,
        "ref_s": ref_s,
        "ref_spread": ref_spread,
        "summary": summaries[0],
        "digests": [digest(s) for s in summaries],
        "chi_upper": [s["chi_upper"] for s in summaries],
        "checks": check.results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result.update(self_s=tracer.self_times(), counts=tracer.counts,
                      bound_names=tracer.bound_names(), unrestored=tracer.unrestored(),
                      spans=tracer.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
