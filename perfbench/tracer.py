"""Per-layer tracing from outside the engine.

``install`` wraps public functions of the ``padicmhs`` modules in every
namespace that holds them by name (``cli`` holds its own ``expand_quantity``,
``expansions`` its own ``generate_relations``, and so on), so calls made
inside the engine are seen too.  Nothing under ``src/`` is changed.

Each wrapped call records a span ``[name, label, start, end, parent]``;
``summarize`` turns the spans and counters into the per-layer metrics.  A
few hot functions (``MhsSeries.__init__``, ``MhsSeries.__mul__``,
``stuffle``, ``poly_sum``) are only counted, because a span per call would
cost more than the call.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

NAME, LABEL, START, END, PARENT = range(5)

# metric suffixes of counters that must repeat exactly between two runs of
# the same code and seed
EXACT_SUFFIXES = (".calls", ".hits", ".misses", ".constructions", "cache_bytes",
                  "combination_terms", "terms_out", "refusals")


def is_exact(metric: str) -> bool:
    return metric.endswith(EXACT_SUFFIXES) or ".rank.n" in metric or ".columns.n" in metric


def atom_label(spec) -> str:
    """Metric label of a quantity: its name, plus parameters for curious."""
    if spec.name == "curious":
        return "curious-" + "-".join(str(a) for a in spec.args)
    return spec.name


def _dir_state(path) -> dict:
    """File name -> (size, mtime) of a directory; empty when it is missing."""
    try:
        with os.scandir(path) as it:
            stats = {e.name: e.stat() for e in it}
    except OSError:
        return {}
    return {name: (st.st_size, st.st_mtime_ns) for name, st in stats.items()}


def dir_bytes(path) -> int:
    return sum(size for size, _ in _dir_state(path).values())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self.cache_tables: dict = {}  # metric prefix -> lru_cache function
        self._stack: list[int] = []
        self._seen_moduli: set[int] = set()

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so every call records a span.

        ``before(args, kwargs)`` may return state for ``after(state, args,
        kwargs, result)``, which returns the span's label.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            rec = [name, None, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[LABEL] = "raised:" + type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after:
                rec[LABEL] = after(state, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for labelled layers -------------------------------------------

    def _relations_before(self, args, kwargs):
        n = args[0]
        if n in self._seen_moduli:
            return n, "memory", None
        cache_dir = args[1] if len(args) > 1 else kwargs.get("cache_dir")
        return n, None, (cache_dir, _dir_state(cache_dir) if cache_dir else {})

    def _relations_after(self, state, args, kwargs, basis):
        n, source, snapshot = state
        if source is None:
            cache_dir, files = snapshot
            # a call that wrote to the cache generated the basis; a first
            # call that wrote nothing loaded it
            source = "generated" if cache_dir and _dir_state(cache_dir) != files else "disk"
            self._seen_moduli.add(n)
            self.values[f"prover.rank.n{n}"] = getattr(basis, "rank", 0)
            self.values[f"prover.columns.n{n}"] = len(getattr(basis, "columns", ()))
        return f"{source}:n{n}"

    def _prove_weighted_after(self, state, args, kwargs, cert):
        self.counts["prover.combination_terms"] += len(cert.combination)
        return None

    def _expand_after(self, state, args, kwargs, series):
        self.counts["expansions.terms_out"] += len(series.terms)
        return atom_label(args[0])

    def _eval_after(self, state, args, kwargs, value):
        return f"{atom_label(args[0])}.p{args[1]}"


def _replace_everywhere(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "padicmhs" or modname.startswith("padicmhs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the layer entry points of the imported engine; return the tracer."""
    from padicmhs import cli, compositions, expansions, oracle, powersums, prover, series

    tr = Tracer()
    spans = [
        (prover, "generate_relations", tr._relations_before, tr._relations_after),
        (prover, "prove_weighted", None, tr._prove_weighted_after),
        (prover, "provable_valuation", None, None),
        (prover, "verify_certificate_text", None, None),
        (expansions, "expand_quantity", None, tr._expand_after),
        (expansions, "canonicalize", None, None),
        (powersums, "full_sum", None, None),
        (cli, "parse", None, None),
        (cli, "eval_statement", None, None),
        (oracle, "eval_quantity", None, tr._eval_after),
        (oracle, "eval_series_terms", None, None),
    ]
    for module, name, before, after in spans:
        fn = getattr(module, name)
        layer = module.__name__.rsplit(".", 1)[-1]
        _replace_everywhere(fn, tr.span(f"{layer}.{name}", fn, before, after))
    for module, name, metric in [
        (powersums, "poly_sum", "powersums.poly_sum.calls"),
        (compositions, "stuffle", "compositions.stuffle.calls"),
    ]:
        fn = getattr(module, name)
        _replace_everywhere(fn, tr.counter(metric, fn))
    cls = series.MhsSeries
    cls.__init__ = tr.counter("series.MhsSeries.constructions", cls.__init__)
    cls.__mul__ = tr.counter("series.mul.calls", cls.__mul__)
    # lru_cache tables are read, not wrapped
    tr.cache_tables.update({"powersums.signed_mhs": powersums.signed_mhs,
                            "oracle.eval_mhs": oracle.eval_mhs})
    return tr


def summarize(tr: Tracer, cache_dir=None) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    ``<name>_s`` sums the outermost spans of a function (recursive calls
    are not counted twice); ``<name>.self_s`` subtracts the time covered by
    child spans.
    """
    spans = tr.spans
    child_time = [0.0] * len(spans)
    outer = [True] * len(spans)
    for i, (name, _label, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
        # a span is outermost unless an ancestor has the same name
        a = parent
        while a >= 0:
            if spans[a][NAME] == name:
                outer[i] = False
                break
            a = spans[a][PARENT]

    out: dict[str, float] = defaultdict(int)
    for i, (name, label, start, end, _parent) in enumerate(spans):
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child_time[i]
        if outer[i]:
            out[f"{name}_s"] += dur
        if label and label.startswith("raised:WorkBudgetExceeded"):
            out["oracle.refusals"] += 1
        if label and label.startswith("raised:"):
            continue
        if name == "prover.generate_relations":
            source, n = label.split(":")
            out[f"prover.generate_relations.{source}.calls"] += 1
            if source != "memory":
                out[f"prover.generate_relations.{source}_s"] += dur
                out[f"prover.generate_relations.{source}_s.{n}"] += dur
        elif name == "expansions.expand_quantity" and outer[i]:
            out[f"expansions.expand_s.{label}"] += dur
        elif name == "oracle.eval_quantity":
            atom = label.rsplit(".", 1)[0]
            out[f"oracle.eval_s.{atom}"] += dur
            out[f"oracle.eval_s.{label}"] += dur
    out["prover.replay_s"] = out.pop("prover.verify_certificate_text_s", 0.0)
    out.update(tr.counts)
    out.update(tr.values)
    for prefix, fn in tr.cache_tables.items():
        info = fn.cache_info()
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.misses"] = info.misses
    if cache_dir:
        out["prover.cache_bytes"] = dir_bytes(cache_dir)
    return dict(out)
