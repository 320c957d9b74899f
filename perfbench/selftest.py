"""Self-test of the benchmark on reduced workloads (about 10 s).

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  It
checks that

* ``BENCHMARK.json`` (when present) declares exactly the metrics ``run.py``
  emits;
* a reduced form of each workload is answered correctly and emits every
  end-to-end metric (all nonzero) and, traced, every per-layer metric;
* a corrupted expected answer and a negative control that passes are both
  counted as wrong answers.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import run
import workloads


def check_manifest(problems: list[str]) -> None:
    if not os.path.isfile("BENCHMARK.json"):
        return
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in manifest["end_to_end"]]
    if declared != list(run.END_TO_END.items()):
        problems.append(f"BENCHMARK.json end_to_end {declared} != run.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    if declared != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {workloads.WORKLOADS}")


def check_reduced_runs(checkout: run.Checkout, problems: list[str]) -> None:
    expected = {False: list(run.END_TO_END), True: [m[0] for m in run.PER_LAYER]}
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, 7, 0, trace, checkout, reduced=True,
                             echo=lambda line: None)
            where = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} wrong answers")
            if list(result["metrics"]) != expected[trace]:
                problems.append(f"{where}: metric names {list(result['metrics'])}")
            if not trace and not all(m["value"] > 0 for m in result["metrics"].values()):
                problems.append(f"{where}: a zero end-to-end metric {result['metrics']}")


def corruptions():
    """(description, workload, ops) with exactly one expected answer made wrong."""
    for workload in workloads.WORKLOADS:
        ops, _fill = workloads.build(workload, 7, reduced=True)
        for index, op in enumerate(ops):
            bad = copy.deepcopy(ops)
            target = bad[index]
            if target["kind"] == "prove":
                # a true statement posing as a negative control, or the reverse
                target["expect"] = "UNPROVEN" if target["expect"] == "PROVED" else "PROVED"
                what = "verdict flipped"
            elif target["kind"] == "print":
                target["expect"] += "0"
                what = "pinned output changed"
            elif target["negative"]:
                target["text"] = workloads.CB  # the unperturbed, true congruence
                what = "negative control made true"
            else:
                target["negative"] = True  # a true congruence posing as a control
                what = "true congruence marked negative"
            yield f"{workload} {op['id']}: {what}", workload, bad


def check_corruptions(checkout: run.Checkout, problems: list[str]) -> None:
    with run.Runner(checkout) as runner:
        caches = {}
        for workload in workloads.WORKLOADS:
            _ops, fill = workloads.build(workload, 7, reduced=True)
            caches[workload] = runner.fresh_dir("cache")
            runner.child([], caches[workload], fill=fill)
        for what, workload, ops in corruptions():
            cache = caches[workload] if workload == "prove-warm" else runner.fresh_dir("cache")
            record = runner.child(ops, cache)
            if record["failed"] < 1:
                problems.append(f"corruption not counted: {what}")


def main() -> int:
    checkout = run.Checkout(os.getcwd())
    checkout.check()
    problems: list[str] = []
    check_manifest(problems)
    check_reduced_runs(checkout, problems)
    check_corruptions(checkout, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
