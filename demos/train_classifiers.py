"""Train the classifier zoo on a small simulated cohort, print the
evaluation table, then show that the saved models reproduce it.

Run:  python3 demos/train_classifiers.py
"""
import json
import os
import tempfile

from gazescreen.data import split
from gazescreen.pipeline import (
    RunConfig,
    run_evaluation,
    run_experiment,
    synthesize_cohort,
)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cfg = RunConfig(
            test_kind="SP", n_control=4, n_concussed=4, seed=3,
            outdir=os.path.join(tmp, "run"),
            models=("NB", "DT", "LR", "PERC"),
            balanced_per_class=2000)
        result = run_experiment(cfg)

        with open(result.report_txt_path) as fh:
            print(fh.read())

        with open(result.manifest_path) as fh:
            manifest = json.load(fh)
        print("stages:")
        for stage in manifest["stages"]:
            print(f"  {stage['stage']:<10s} {stage['seconds']:8.3f} s")
        print(f"split: {manifest['data']['split']}")

        # reload the serialised models and evaluate them on the same
        # held-out frames the experiment used
        ds = synthesize_cohort(cfg)
        _, _, test_ds = split(ds, cfg.split_config())
        again = run_evaluation(sorted(result.model_paths.values()), test_ds,
                               "the test split", os.path.join(tmp, "again"))
        same = again.per_model == result.per_model
        print(f"\nreloaded {len(again.per_model)} models from disk; "
              f"metrics identical: {same}")


if __name__ == "__main__":
    main()
