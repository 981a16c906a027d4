"""Fit the two novelty detectors on control-only gaze directions and
export a decision-boundary grid like the ones the plotting front end
consumes.

Run:  python3 demos/novelty_boundaries.py
"""
import os
import tempfile

import numpy as np

from gazescreen.novelty import (
    IsoForestParams,
    OcsvmParams,
    export_boundary_grid,
    fit_isolation_forest,
    fit_ocsvm,
    load_boundary_grid,
)
from gazescreen.simulate import generate_cohort


def main():
    ds = generate_cohort(3, 3, "SP", base_seed=5)
    rng = np.random.default_rng(5)

    # novelty training sees control frames only; concussed frames appear
    # solely as the test overlay
    control = ds.subset(np.nonzero(ds.labels == 0)[0])
    concussed = ds.subset(np.nonzero(ds.labels == 1)[0])
    train = control.eye_dirs("left")[:, :2]
    train = train[rng.choice(len(train), 600, replace=False)]
    regular = control.eye_dirs("left")[:, :2][-300:]
    novel = concussed.eye_dirs("left")[:, :2][:300]

    for name, model in (
            ("isolation forest", fit_isolation_forest(
                train, IsoForestParams(seed=5))),
            ("one-class svm", fit_ocsvm(train, OcsvmParams(nu=0.1)))):
        reg_scores = model.boundary_score(regular)
        nov_scores = model.boundary_score(novel)
        flagged = float(np.mean(nov_scores < 0.0))
        print(f"{name}:")
        print(f"  median boundary score regular {np.median(reg_scores):+.4f}, "
              f"novel {np.median(nov_scores):+.4f}")
        print(f"  concussed frames flagged novel: {flagged:.1%}")

        grid = export_boundary_grid(model, train, regular, novel,
                                    resolution=40)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.csv")
            with open(path, "w") as fh:
                fh.write(grid.to_csv_text())
            again = load_boundary_grid(path)
            print(f"  grid {again.scores.shape[1]}x{again.scores.shape[0]}, "
                  f"{len(again.points)} overlay points, "
                  f"file {os.path.getsize(path) / 1024:.0f} KiB\n")


if __name__ == "__main__":
    main()
