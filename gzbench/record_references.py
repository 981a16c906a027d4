"""Record the sha256 of every checked output of every workload, for the
seeds FIRST..LAST, into gzbench/references.json.

    python3 gzbench/record_references.py 0 31

Run it only when a change alters the program's output bytes on purpose;
the benchmark compares each run's outputs against these digests.
"""
import json
import shutil
import sys

from run import OUT, REFERENCES, use_checkout_source


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    use_checkout_source()
    from workloads import WORKLOADS, file_digests

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for seed in range(first, last + 1):
        for name, workload in WORKLOADS.items():
            work = OUT / f"record_{name}_seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            (work / "inputs").mkdir(parents=True)
            try:
                workload.prepare(seed, str(work / "inputs"))
                workload.run(seed, str(work / "inputs"), str(work / "out"))
                refs.setdefault(name, {})[str(seed)] = file_digests(
                    str(work / "out"), workload.outputs)
            finally:
                shutil.rmtree(work)
        print(f"seed {seed} recorded", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
