"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run starts fresh interpreters (``worker.py``), so no state, cache or
heap growth carries over between runs, and peak memory is per workload.

--trace 0  measures the end-to-end metrics.  Set-up is done in
           SETUP_REPEATS fresh processes, some before the jobs and some
           after, so that the samples span the run, and their median is
           reported.  The middle process runs jobs in a closed loop for
           S seconds (at least one job); solve_ref is the median of each
           job's seconds divided by the reference loop's seconds measured
           around it (reference.py).
--trace 1  runs one job untraced and one job traced, each in its own
           process, checks that both give identical outputs and that every
           wrapped name was restored, reports the per-layer metrics and the
           tracing overhead, and writes the spans to perfbench/traces/.

The last line of stdout is one JSON object: correct, attempted and failed
count correctness checks; metrics holds the metrics BENCHMARK.json names.
Exits non-zero without that line when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("groups-certify", "portion-25k-lemmas", "portion-5k-bounds")
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s; workers are killed past this

# per-layer time metric -> span names whose self time it sums
LAYER_TIMES = {
    "groups.order3_vertices_s": ("groups.order3_vertices",),
    "graph.build_delta334_s": ("graph.build_delta334",),
    "graph.induced_morphism_s": ("graph.induced_morphism",),
    "generation.generate_portion_s": ("generation.generate_portion",),
    "generation.build_portion_edges_s": ("generation.build_portion_edges",),
    "generation.verify_s": ("generation.verify_no_identity_reduction",
                            "generation.verify_edge_preservation"),
    "generation.portion_chromatic_bounds_s": ("generation.portion_chromatic_bounds",),
    "coloring.chromatic_number_exact_s": ("coloring.chromatic_number_exact",),
    "coloring.heuristic_chromatic_upper_s": ("coloring.heuristic_chromatic_upper",),
    "coloring.improve_coloring_s": ("coloring.improve_coloring",),
    "coloring.lift_coloring_s": ("coloring.lift_coloring",),
    "cliques.clique_number_s": ("cliques.clique_number",),
    "cycles.hamiltonian_cycle_s": ("cycles.hamiltonian_cycle",),
    "cycles.cycle_census_s": ("cycles.cycle_census",),
    "invariants.nonplanarity_check_s": ("invariants.nonplanarity_check",),
    "graphio.dumps_graph_s": ("graphio.dumps_graph",),
    "graphio.graph_from_json_dict_s": ("graphio.graph_from_json_dict",),
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float):
    """Run one worker to completion: (seconds from start to READY, result)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready_s = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n":
                ready_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None or (mode != "setup" and result is None):
        raise WorkerError(f"worker {mode} exited with code {code}")
    return ready_s, result


def end_to_end(args, deadline: float):
    def setup_only():
        return spawn(args.workload, args.seed, "setup", 0.0, deadline)[0]

    setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
    ready_s, res = spawn(args.workload, args.seed, "jobs", args.seconds, deadline)
    setups.append(ready_s)
    setups += [setup_only() for _ in range(SETUP_REPEATS - len(setups))]
    checks = res["checks"] + [
        ("run.jobs-identical", len(set(res["digests"])) == 1),
    ]
    metrics = {
        "solve_ref": statistics.median(j / r for j, r in zip(res["job_s"], res["ref_s"])),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": res["peak_rss_mib"],
        "chi_upper": statistics.median(res["chi_upper"]),
    }
    info = {"job_s": res["job_s"], "ref_s": res["ref_s"],
            "ref_spread": res["ref_spread"], "setup_s": setups,
            "summary": res["summary"]}
    return checks, metrics, info


def traced(args, deadline: float):
    _, plain = spawn(args.workload, args.seed, "jobs", 0.0, deadline)
    _, tr = spawn(args.workload, args.seed, "traced", 0.0, deadline)
    bound = set(tr["bound_names"])
    checks = plain["checks"] + tr["checks"] + [
        ("trace.outputs-identical", plain["digests"] == tr["digests"]),
        ("trace.names-restored", not tr["unrestored"]),
        ("trace.wrapped-every-binding", {
            "delta334.clique_number", "delta334.cliques.clique_number",
            "delta334.coloring.clique_number", "delta334.generation.clique_number",
            "delta334.invariants.clique_number"} <= bound),
    ]
    self_s = tr["self_s"]
    counts = tr["counts"]
    metrics = {name: sum(self_s.get(s, 0.0) for s in spans)
               for name, spans in LAYER_TIMES.items()}
    metrics.update(counts)
    edge_s = metrics["generation.build_portion_edges_s"]
    chi_s = metrics["coloring.chromatic_number_exact_s"]
    metrics["generation.pairs_per_s"] = counts["generation.pairs"] / edge_s if edge_s else 0.0
    metrics["generation.candidate_yield"] = (
        counts["generation.edges"] / counts["generation.prefilter_candidates"]
        if counts["generation.prefilter_candidates"] else 0.0)
    metrics["coloring.nodes_per_s"] = counts["coloring.nodes"] / chi_s if chi_s else 0.0
    metrics["bench.solve_s"] = plain["job_s"][0]
    # the traced job's seconds rescaled to the untraced job's reference speed
    metrics["trace.overhead_s"] = (tr["job_s"][0] * plain["ref_s"][0] / tr["ref_s"][0]
                                   - plain["job_s"][0])

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "columns": ["name", "parent", "start", "end"],
                   "spans": tr["spans"], "self_s": self_s, "counts": counts}, fh)
    info = {"untraced_job_s": plain["job_s"], "traced_job_s": tr["job_s"],
            "untraced_ref_s": plain["ref_s"], "traced_ref_s": tr["ref_s"],
            "untraced_ref_spread": plain["ref_spread"], "traced_ref_spread": tr["ref_spread"],
            "self_s": self_s, "summary": tr["summary"]}
    return checks, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "delta334" / "__init__.py").is_file():
        print(f"error: no delta334 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        checks, values, info = (traced if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = [name for name, ok in checks if not ok]
    info["failed_checks"] = failed
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
