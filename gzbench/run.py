"""gazescreen benchmark: one workload per invocation, run as a closed loop
by one client in this process.

    python3 gzbench/run.py --workload sp-train --seed 0 --seconds 32 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``. Set-up prepares the workload's inputs several times, each in a
fresh interpreter so that import time counts. The timed loop then runs the
workload back to back for ``--seconds``; its first iteration is a warm-up
whose outputs are checked but whose time is not a sample. While an
untraced iteration runs, a fixed host-speed tick (probe.py) is timed every
50 ms, and the iteration's wall time, less the ticks, is reported as a
multiple of its median tick. BLAS runs one thread, so that the timings do
not depend on how the host schedules a second one. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced iterations and reports the per-layer
metrics. Every
metric is printed by name with its unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Full results (machine block, samples) go to gzbench/.out/BENCH_*.json and
the spans of traced iterations to gzbench/.out/spans_*.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"
REFERENCES = BENCH_DIR / "references.json"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

# One BLAS thread in this process and in the set-up processes it starts: on a
# small shared host a second thread mostly measures the host's scheduler.
# Must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def use_checkout_source():
    """Import gazescreen from this checkout's src/ and nowhere else."""
    if not (SRC / "gazescreen" / "__init__.py").is_file():
        raise SystemExit(f"gzbench: no gazescreen source under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("GAZESCREEN_OUTDIR", None)  # would redirect outputs
    import gazescreen

    if Path(gazescreen.__file__).resolve().parent != SRC / "gazescreen":
        raise SystemExit(f"gzbench: imported gazescreen from {gazescreen.__file__}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", metavar="DIR",
                   help="only prepare the workload's inputs into DIR (the set-up step)")
    return p.parse_args(argv)


def machine_info():
    """Where the numbers were measured: cores, CPU, library versions, BLAS."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_setting": env or "default",
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def set_up(workload, seed, work_dir):
    """Prepare the inputs SETUP_REPEATS times, each in a fresh interpreter;
    returns the last inputs directory and the seconds each set-up took."""
    seconds, inputs = [], None
    for k in range(SETUP_REPEATS):
        if inputs is not None:
            shutil.rmtree(inputs)
        inputs = work_dir / f"inputs-{k}"
        inputs.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed),
                        "--prepare", str(inputs)],
                       check=True, cwd=ROOT)
        seconds.append(time.perf_counter() - t0)
    return inputs, seconds


class Run:
    """The timed steps of one invocation and what they observed."""

    def __init__(self, workload, seed, inputs, out_dir):
        import spans

        self.workload, self.seed, self.inputs, self.out_dir = workload, seed, inputs, out_dir
        self.targets = spans.gazescreen_targets()
        self.digests = []   # per successful iteration
        self.ticks = []     # per successful untraced iteration: its median tick
        self.layers = []    # per traced iteration
        self.spans = []     # per traced iteration

    def _run_once(self):
        """(start, end) of one iteration."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        self.workload.run(self.seed, str(self.inputs), str(self.out_dir))
        return t0, time.perf_counter()

    def untraced(self):
        """Wall time of one iteration, less the ticks timed inside it."""
        from probe import sampled

        ticks = []
        with sampled(ticks):
            t0, t1 = self._run_once()
        self._check()
        self.ticks.append(statistics.median(dt for _, dt in ticks))
        return t1 - t0 - sum(dt for start, dt in ticks if t0 <= start < t1)

    def traced(self):
        import spans

        tracer = spans.Tracer(self.targets)
        with tracer.installed():
            t0, t1 = self._run_once()
        wall = t1 - t0
        self._check()
        self.layers.append(spans.layer_metrics(tracer.spans, wall))
        self.spans.append(tracer.dump())
        return wall

    def _check(self):
        from workloads import file_digests

        self.digests.append(file_digests(str(self.out_dir), self.workload.outputs))


def per_layer_values(spec, layers, untraced, traced):
    """Median of each per-layer metric over the traced iterations (0 for a
    layer the workload never calls); counts must repeat exactly."""
    values, unstable = {}, []
    known = {m["name"] for m in spec["per_layer"]}
    stray = {k for layer in layers for k in layer} - known
    if stray:
        raise SystemExit(f"gzbench: spans produced unlisted metrics {sorted(stray)}")
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = statistics.median(traced) - statistics.median(untraced)
            continue
        seen = [layer.get(name, 0) for layer in layers]
        if m["unit"] == "count":
            if len(set(seen)) > 1:
                unstable.append(name)
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    return values, unstable


def main(argv=None):
    args = parse_args(argv)
    if args.prepare:
        # The set-up process ends itself when it overruns, so that its parent
        # can wait without a timeout: Popen.wait(timeout) polls every 50 ms,
        # which would round each set-up time up to the next poll.
        signal.alarm(SETUP_TIMEOUT_S)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    use_checkout_source()
    from workloads import WORKLOADS, closed_loop, outputs_ok

    if args.workload not in WORKLOADS:
        raise SystemExit(f"gzbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.prepare:
        workload.prepare(args.seed, args.prepare)
        return 0

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work_dir = OUT / f"work_{tag}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        inputs, setup_seconds = set_up(args.workload, args.seed, work_dir)
        run = Run(workload, args.seed, inputs, work_dir / "out")
        steps = [run.untraced] if args.trace == 0 else [run.untraced, run.traced]
        record = closed_loop(steps, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    walls = {k: [s for i, s in record if i == k and s is not None]
             for k in range(len(steps))}
    ticks = run.ticks
    if len(walls[0]) > 1 and record[0][1] is not None:
        walls[0], ticks = walls[0][1:], ticks[1:]  # the warm-up is not a sample
    attempted = len(record)
    failed = sum(s is None for _, s in record)
    if not all(walls.values()):
        raise SystemExit(f"gzbench: every iteration of a step failed ({failed}/{attempted})")
    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    reference = references.get(args.workload, {}).get(str(args.seed))
    ok = outputs_ok(run.digests, reference)
    correct = ok

    if args.trace == 0:
        specs = spec["end_to_end"]
        values = {
            "wall_per_tick": statistics.median(w / t for w, t in zip(walls[0], ticks)),
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "outputs_ok": int(ok),
            "success_rate": (attempted - failed) / attempted,
        }
    else:
        specs = spec["per_layer"]
        values, unstable = per_layer_values(spec, run.layers, walls[0], walls[1])
        if unstable:
            print(f"counts differ between traced iterations: {unstable}", file=sys.stderr)
            correct = False
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    machine = machine_info()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps({
        **result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine,
        "steps": [step.__name__ for step in steps],
        "samples_s": record, "tick_samples_s": run.ticks,
        "setup_samples_s": setup_seconds,
        "wall_s": statistics.median(walls[0]), "tick_s": statistics.median(ticks),
        "error_rate": failed / attempted,
        "reference": "committed" if reference else "none for this seed",
        "digests": run.digests[0] if run.digests else None,
    }, indent=2))
    if run.spans:
        (OUT / f"spans_{tag}.json").write_text(json.dumps(run.spans))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {attempted}  failed {failed}  error_rate {failed / attempted}")
    print(f"wall_s {statistics.median(walls[0])!r}  tick_s {statistics.median(ticks)!r}  "
          f"(medians over {len(walls[0])} untraced iterations after the warm-up)")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"outputs {'match' if ok else 'DIFFER from'} "
          f"{'the committed reference' if reference else 'each other (no reference for this seed)'}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
