"""Measure the baseline in gzbench/results/baseline.json: for each workload,
SETS sets of ten runs with --trace 0 (seeds 0-9), and two runs with
--trace 1 on seed 0.

    python3 gzbench/baseline.py [SECONDS] [SETS]

SECONDS defaults to run_seconds of BENCHMARK.json and SETS to 1. Each end-to-
end metric is summarised per set by its median, its quartiles
(statistics.quantiles, n=4) and its spread, the distance between the
quartiles as a share of the median.
"""
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, OUT, ROOT

SEEDS = range(10)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: outputs not correct")
    return result["metrics"]


def summary(values, unit):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "unit": unit}


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = int(argv[0]) if argv else spec["run_seconds"]
    sets = int(argv[1]) if len(argv) > 1 else 1
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {w: {} for w in workloads}
    for k in range(sets):
        for w in workloads:
            runs = [run(w, seed, seconds, 0) for seed in SEEDS]
            for m in spec["end_to_end"]:
                values = [r[m["name"]]["value"] for r in runs]
                end_to_end[w].setdefault(m["name"], {})["abcdefgh"[k]] = summary(values, m["unit"])
            print(f"set {k} {w}: " + "  ".join(
                f"{name} {s['abcdefgh'[k]]['spread']:.3f}" for name, s in end_to_end[w].items()),
                flush=True)
    per_layer = {}
    for w in workloads:
        traced = [run(w, 0, seconds, 1) for _ in range(2)]
        per_layer[w] = {m["name"]: [r[m["name"]]["value"] for r in traced]
                        for m in spec["per_layer"]
                        if any(r[m["name"]]["value"] for r in traced)}
    machine = json.loads((OUT / f"BENCH_{workloads[0]}_seed0_trace1.json").read_text())["machine"]
    (BENCH_DIR / "results" / "baseline.json").write_text(json.dumps({
        "what": f"Baseline: {sets} set(s) of ten runs per workload (seeds 0-9, "
                f"--seconds {seconds}, --trace 0) with each end-to-end metric's median, "
                "quartiles (statistics.quantiles, n=4) and spread ((q3 - q1) / median), "
                "and the per-layer metrics of two traced runs per workload on seed 0 "
                "(layers the workload never calls are left out). Written by "
                "gzbench/baseline.py.",
        "machine": machine,
        "end_to_end": end_to_end,
        "per_layer_seed0": per_layer,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
