"""Row digests of the sweeps whose rows a change to the engine must keep.

Prints, for each group of rows, its row count and a 16-hex sha256 digest of
the rows as the CSV writes them (``str`` of a float is its shortest
round-trip form, so two digests agree exactly when every row is
byte-identical):

* ``grid``: ``run_grid`` over the four strategies, both inits, M and N in
  {1, 2, 4} and seeds 42 and 43, on a 16x12 recovery task and a 4-cluster
  classification task, under SGD and Adam (528 rows);
* ``scarcity``: ``scarcity_experiment()`` (80 rows);
* ``observation3``: ``observation3_experiment()`` (10 rows).

``--dump PATH`` also writes the rows as JSON, with the numpy and BLAS build
they were made on (:func:`build`); ``--against PATH`` compares them with
such a dump, made from another tree, and reports per group how many rows
are byte-identical and the worst relative difference of a float field, then
names each row that moved (:func:`moved_rows`, which ``test_rows.py``
shares). The script is not a test (pytest collects only ``test_*.py``). Run
it from the repository root, naming the tree to digest by its ``src``::

    PYTHONPATH=src python tests/row_digests.py --dump rows.json
    PYTHONPATH=other/src python tests/row_digests.py --against rows.json
"""

import argparse
import hashlib
import json

import numpy as np

from cola_forge.adapter import Strategy
from cola_forge.harness import (
    CSV_HEADER,
    ClassifyTaskSpec,
    RecoveryTaskSpec,
    make_classification_task,
    make_recovery_task,
    observation3_experiment,
    run_grid,
    scarcity_experiment,
)
from cola_forge.initializers import GAUSSIAN_ZERO, PISSA
from cola_forge.linalg import make_rng


def grid_rows():
    tasks = [
        make_recovery_task(RecoveryTaskSpec(n=16, m=12, base_seed=3, components=2,
                                            noise_std=0.05, train_samples=60,
                                            eval_samples=40, source_noise_std=0.01),
                           make_rng(3)),
        make_classification_task(ClassifyTaskSpec(clusters=4, input_dim=16,
                                                  samples_per_cluster=15, backbone_seed=3,
                                                  label_noise=0.1), make_rng(3)),
    ]
    return [row for task in tasks for optimizer in ("sgd", "adam")
            for init_kind in (GAUSSIAN_ZERO, PISSA) for strategy in Strategy
            for row in run_grid(task, 2, strategy, [1, 2, 4], [1, 2, 4], seeds=(42, 43),
                                steps=40, optimizer=optimizer, init_kind=init_kind).rows]


def groups() -> dict:
    """Each group's rows as lists of CSV fields."""
    rows = {"grid": grid_rows(), "scarcity": scarcity_experiment()["rows"],
            "observation3": observation3_experiment()["rows"]}
    return {name: [row.as_list() for row in group] for name, group in rows.items()}


def digest(rows) -> str:
    text = "\n".join(",".join(map(str, row)) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build() -> dict:
    """The numpy version, the BLAS name and version, and the CPU features
    numpy found (which pick the BLAS kernels at run time): the build a dump
    of rows holds for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "cpu_features": sorted(name for name, found in features.items() if found)}


def _rel_diff(value, old) -> float:
    return abs(value - old) / max(abs(value), abs(old))


def compare(rows, other) -> tuple[int, float]:
    """(byte-identical rows, worst relative difference of a float field)."""
    same, worst = 0, 0.0
    for row, before in zip(rows, other, strict=True):
        same += ",".join(map(str, row)) == ",".join(map(str, before))
        for value, old in zip(row, before, strict=True):
            if isinstance(value, float) and value != old:
                worst = max(worst, _rel_diff(value, old))
    return same, worst


def moved_rows(name, rows, other) -> list[str]:
    """One line per row of group ``name`` that is not byte-identical to its
    counterpart in ``other``: its index and key fields, the fields that
    moved and the worst relative difference among them."""
    if len(rows) != len(other):
        return [f"{name}: {len(rows)} rows, {len(other)} pinned"]
    lines = []
    for k, (row, before) in enumerate(zip(rows, other)):
        fields = [(field, value, old) for field, value, old in zip(CSV_HEADER, row, before)
                  if str(value) != str(old)]
        if fields:
            key = ", ".join(f"{field}={value}" for field, value in
                            zip(CSV_HEADER[:CSV_HEADER.index("step0_loss")], row))
            worst = max((_rel_diff(value, old) for _, value, old in fields
                         if isinstance(value, float) and isinstance(old, float)), default=None)
            lines.append(f"{name} row {k} ({key}): moved {', '.join(f for f, _, _ in fields)}"
                         + ("" if worst is None else f"; worst rel diff {worst:.2e}"))
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", help="write the rows as JSON to this path")
    parser.add_argument("--against", help="compare with the rows of a --dump file")
    args = parser.parse_args(argv)
    rows = groups()
    other = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            other = json.load(fh)["rows"]
    for name, group in rows.items():
        line = f"{name:13s} {len(group):4d} rows  {digest(group)}"
        if other is not None:
            same, worst = compare(group, other[name])
            line += f"  identical {same}/{len(group)}  worst rel diff {worst:.2e}"
        print(line)
    if other is not None:
        for name, group in rows.items():
            for line in moved_rows(name, group, other[name]):
                print(line)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump({"build": build(), "rows": rows}, fh)


if __name__ == "__main__":
    main()
