"""Benchmark of the padicmhs engine: three workloads, exact answer checks.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload prove-cold --seed 1 --seconds 20 --trace 0

Each measured run is a fresh interpreter (``child.py``) that executes the
workload's operations through ``padicmhs.cli.main`` or the oracle's public
functions and checks every answer.  Runs are sequential, one child process at
a time.  Children keep starting until ``--seconds`` have passed and at least
two have run; end-to-end metrics are medians over the children.

``--trace 1`` instead runs traced, untraced and traced children and reports
the per-layer metrics of ``tracer.py`` (timings as the median of the two
traced children, counters from the first, which must equal the second).

Earlier stdout lines give the environment and one record per child; the last
line is the result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed / attempted`` is the fraction of wrong answers.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

MIN_CHILDREN = 2
# a run ends within 180 s: children are killed at RUN_LIMIT_S, and none
# starts after LAST_START_S
RUN_LIMIT_S = 170
LAST_START_S = 110

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

EXPAND_ATOMS = ("binp", "apery", "zetap", "sumpoly", "hres", "alt", "psum",
                "curious-2-3", "curious-2-4", "curious-3-3")
ORACLE_ATOMS = ("binp", "apery", "sumpoly", "hres", "alt", "psum",
                "curious-2-3", "curious-2-4", "curious-3-3", "curious-3-4")
MODULI = range(2, 9)  # no statement asks for the basis at modulus p^1

# (name, unit, better)
PER_LAYER = [
    ("prover.generate_relations.generated_s", "s", "lower"),
    *[(f"prover.generate_relations.generated_s.n{n}", "s", "lower") for n in MODULI],
    ("prover.generate_relations.generated.calls", "count", "lower"),
    ("prover.generate_relations.disk_s", "s", "lower"),
    ("prover.generate_relations.disk.calls", "count", "lower"),
    ("prover.generate_relations.memory.calls", "count", "higher"),
    ("prover.cache_bytes", "B", "lower"),
    *[(f"prover.rank.n{n}", "count", "higher") for n in MODULI],
    *[(f"prover.columns.n{n}", "count", "lower") for n in MODULI],
    ("prover.prove_weighted_s", "s", "lower"),
    ("prover.prove_weighted.calls", "count", "lower"),
    ("prover.combination_terms", "count", "lower"),
    ("prover.provable_valuation_s", "s", "lower"),
    ("prover.replay_s", "s", "lower"),
    ("expansions.expand_quantity_s", "s", "lower"),
    ("expansions.expand_quantity.self_s", "s", "lower"),
    ("expansions.expand_quantity.calls", "count", "lower"),
    *[(f"expansions.expand_s.{atom}", "s", "lower") for atom in EXPAND_ATOMS],
    ("expansions.canonicalize_s", "s", "lower"),
    ("expansions.canonicalize.self_s", "s", "lower"),
    ("expansions.terms_out", "count", "lower"),
    ("powersums.full_sum_s", "s", "lower"),
    ("powersums.full_sum.calls", "count", "lower"),
    ("powersums.poly_sum.calls", "count", "lower"),
    ("powersums.signed_mhs.hits", "count", "higher"),
    ("powersums.signed_mhs.misses", "count", "lower"),
    ("series.MhsSeries.constructions", "count", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("compositions.stuffle.calls", "count", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.eval_statement_s", "s", "lower"),
    ("oracle.eval_quantity_s", "s", "lower"),
    ("oracle.eval_quantity.calls", "count", "lower"),
    *[(f"oracle.eval_s.{atom}", "s", "lower") for atom in ORACLE_ATOMS],
    ("oracle.eval_s.curious-3-3.p23", "s", "lower"),
    ("oracle.eval_series_terms_s", "s", "lower"),
    ("oracle.eval_mhs.hits", "count", "higher"),
    ("oracle.eval_mhs.misses", "count", "lower"),
    ("oracle.refusals", "count", "lower"),
    ("trace_overhead_s", "s", "lower"),
]


class Checkout:
    """Paths of the source checkout the benchmark runs in (the cwd)."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench_work")

    def check(self) -> None:
        if not os.path.isfile(os.path.join(self.src, "padicmhs", "__init__.py")):
            raise SystemExit(f"error: no src/padicmhs under {self.root}; "
                             "run from the root of a padicmhs checkout")


def environment(checkout: Checkout, seed: int) -> dict:
    digest = hashlib.sha256()
    package = os.path.join(checkout.src, "padicmhs")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(checkout.root, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.root,
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            pass  # no git; the source digest still identifies the code
    cpu = platform.machine() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "seed": seed, "commit": commit,
            "source_sha256": digest.hexdigest()}


class Runner:
    """Starts child interpreters one at a time; owns a scratch directory
    under the checkout's work directory, removed on exit."""

    def __init__(self, checkout: Checkout) -> None:
        self.checkout = checkout
        # a fixed hash seed, so every child iterates str-keyed sets alike
        self.env = dict(os.environ, PYTHONPATH=checkout.src, PYTHONHASHSEED="0")
        self.count = 0
        self.began = perf_counter()
        os.makedirs(checkout.work, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=checkout.work)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(self.checkout.work)
        except OSError:
            pass  # another run in this checkout still uses it

    def fresh_dir(self, tag: str) -> str:
        self.count += 1
        path = os.path.join(self.work, f"{self.count:03d}-{tag}")
        os.makedirs(path)
        return path

    def child(self, ops, cache_dir: str, trace: bool = False, fill=()) -> dict:
        """Run one child; wall_s spans spawning it to its checked answers."""
        job_dir = self.fresh_dir("job")
        job = {"ops": ops, "cache_dir": cache_dir, "dump_dir": job_dir,
               "trace": trace, "fill": list(fill)}
        job_path = os.path.join(job_dir, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        expected = sum(len(op["primes"]) if op["kind"] == "numeric" else 1 for op in ops)
        start = perf_counter()
        timeout = max(1.0, self.began + RUN_LIMIT_S - start)
        try:
            proc = subprocess.run([sys.executable, CHILD, job_path], env=self.env,
                                  cwd=self.checkout.root, capture_output=True,
                                  text=True, timeout=timeout, check=False)
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            problem = proc.stderr.strip()[-500:] or f"exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            record, problem = None, f"killed after {timeout:.0f} s"
        wall = perf_counter() - start
        if record is None or record["attempted"] != expected:
            # every answer the child owed is missing, so each one is wrong
            missing = max(expected, 1)
            record = {"attempted": missing, "failed": missing,
                      "failures": [f"child: {problem}"] * missing}
        record["wall_s"] = wall
        return record


def run(workload: str, seed: int, seconds: float, trace: bool,
        checkout: Checkout, reduced: bool = False, echo=print) -> dict:
    """Run one workload; return the result object printed as the last line."""
    ops, fill = workloads.build(workload, seed, reduced)
    echo(json.dumps({"env": environment(checkout, seed), "workload": workload}))
    with Runner(checkout) as runner:
        return _measure(runner, ops, fill, seconds, trace, echo)


def _measure(runner: Runner, ops, fill, seconds, trace, echo) -> dict:
    # set-up: fresh interpreters that import the engine and, for prove-warm,
    # fill a fresh relation cache; several times, the median reported
    setups = []
    for _ in range(3 if fill else 5):
        shared_cache = runner.fresh_dir("cache")
        setups.append(runner.child([], shared_cache, fill=fill))
    records = list(setups)

    def child(traced: bool) -> dict:
        # every child starts from the same cache: a copy of the filled one
        cache = runner.fresh_dir("cache")
        if fill:
            shutil.copytree(shared_cache, cache, dirs_exist_ok=True)
        record = runner.child(ops, cache, traced)
        record["traced"] = traced
        echo(json.dumps({"child": {k: v for k, v in record.items() if k != "layers"}}))
        records.append(record)
        return record

    measured = []
    if trace:
        measured = [child(True), child(False), child(True)]
    else:
        start = perf_counter()
        while len(measured) < MIN_CHILDREN or perf_counter() - start < seconds:
            if measured and perf_counter() - runner.began > LAST_START_S:
                break
            measured.append(child(False))

    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    if trace:
        metrics = _layer_metrics(measured, failures)
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in measured),
            "cpu_s": statistics.median(r.get("cpu_s", 0.0) for r in measured),
            "peak_rss_mb": statistics.median(r.get("peak_rss_mb", 0.0) for r in measured),
            "setup_s": statistics.median(r["wall_s"] for r in setups),
        }
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for failure in failures:
        echo(json.dumps({"wrong": failure}))
    return {"correct": not failures, "attempted": attempted + (1 if trace else 0),
            "failed": len(failures), "metrics": metrics}


def _layer_metrics(measured: list[dict], failures: list[str]) -> dict:
    """Per-layer metrics of a traced run; a counter that does not repeat
    exactly between the two traced children is a wrong answer."""
    first, untraced, second = measured
    values = {}
    for name, _unit, _better in PER_LAYER:
        a, b = (child.get("layers", {}).get(name, 0) for child in (first, second))
        if not tracer.is_exact(name):
            values[name] = statistics.median([a, b])
            continue
        values[name] = a
        if a != b:
            failures.append(f"trace: {name} differs between traced runs ({a} vs {b})")
    values["trace_overhead_s"] = (statistics.median([first["wall_s"], second["wall_s"]])
                                  - untraced["wall_s"])
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout = Checkout(os.getcwd())
    checkout.check()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), checkout)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
