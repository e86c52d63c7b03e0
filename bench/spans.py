"""Outside-in tracing of satedge's public functions.

The tracer wraps every public function of the traced modules at each
binding where a caller looks it up: the defining module, the package
namespace, and every satedge module that imported the function by value.
A wrapped call records a span (name, start, end, parent) in memory while the
tracer is active and passes straight through otherwise, so oracle checks made
between timed calls leave no spans.  `restore` puts the original bindings
back.

Private helpers (`graph._find_clique_in`, `packing._PackSearch`,
`packing._cliques_within`, the search's class generator) are not wrapped:
their cost shows only inside the self time of the public function that
called them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("search", "saturation", "constructions", "packing", "graph", "formulas", "verify", "cli")

# Called once per clique or vertex inside the packing and graph loops; a span
# per call would cost more than the call.  Their time stays with the caller.
UNWRAPPED = frozenset({"graph.mask_of"})

SEARCH_ENTRIES = frozenset(
    {
        "search.min_saturating",
        "search.min_saturating_table",
        "search.min_saturating_at_jump",
        "search.min_saturating_constrained",
    }
)
CONSTRUCTORS = frozenset(
    {
        "constructions.turan_graph",
        "constructions.base_graph",
        "constructions.blow_up",
        "constructions.h0",
        "constructions.h1",
        "constructions.h2",
    }
)
PACKING_PHASES = (
    "max_packing",
    "refine_packing",
    "analyze",
    "ell_split",
    "certify_remainder_maximal",
    "best_r_star",
)
COUNT = "saturation.count_saturating"
# canonical_key spans called by the benchmark itself are its relabel probes;
# those with a parent span were made inside satedge (class generation, verify).
KEY = "search.canonical_key"
# count_saturating spans are split by the layer of the span that called them.
COUNT_CALLERS = {
    None: "direct",
    "search": "in_search",
    "constructions": "in_trim",
    "packing": "in_packing",
    "cli": "in_cli",
    "verify": "in_verify",
}


def _info_count(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    return (g.n, g.adj, result.total)


def _info_search(args, kwargs, result):
    if isinstance(result, dict):
        result = next(iter(result.values()))
    return result.explored


def _info_packing(args, kwargs, result):
    return result.size


# Work counters read from a call's inputs and result after its span closed.
INFO = {
    COUNT: _info_count,
    **{name: _info_search for name in SEARCH_ENTRIES},
    "packing.max_packing": _info_packing,
}


class Tracer:
    """Wraps satedge's public functions and records spans while active."""

    def __init__(self, package: str = "satedge"):
        self.package = package
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1, info]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> int:
        """Wrap every public function of the traced layers; returns the count."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        wrapped = 0
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    # a generator's span would close before its body runs
                    or inspect.isgeneratorfunction(fn)
                    or name in UNWRAPPED
                ):
                    continue
                wrapper = self._wrap(name, fn)
                wrapped += 1
                for holder in modules:
                    for binding, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, binding, wrapper)
                            self._patches.append((holder, binding, fn))
        return wrapped

    def restore(self):
        for holder, binding, fn in reversed(self._patches):
            setattr(holder, binding, fn)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def mark(self) -> int:
        """Position in the span list, to cut it into passes."""
        return len(self.spans)

    def write(self, path, meta: dict):
        """Write the recorded spans as gzipped JSON: a name table plus rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3]] for s in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"meta": meta, "names": names, "columns": ["name", "start", "end", "parent"], "spans": rows}, handle)


def layer_metrics(spans: list[list], lo: int, hi: int, traced_wall: float) -> dict[str, float]:
    """Per-layer counts and self times of the spans spans[lo:hi] (one pass).

    A span's self time is its duration minus the durations of its direct
    children.  `traced_wall` is the time the pass spent inside timed calls;
    trace.coverage is the share of it that the reported self times account
    for.
    """
    child_time = defaultdict(float)
    for s in spans[lo:hi]:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    explored = packed = pairs = found = 0
    for i in range(lo, hi):
        name, start, end, parent, info = spans[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        # info stays None when the call raised
        if name == KEY and parent_name is not None:
            name = f"{KEY}.nested"
        elif name == COUNT:
            caller = parent_name.split(".")[0] if parent_name else None
            name = f"{COUNT}.{COUNT_CALLERS.get(caller, 'in_other')}"
            if info is not None:
                n, adj, total = info
                pairs += n * (n - 1) // 2 - sum(a.bit_count() for a in adj) // 2
                found += total
        elif info is not None and name in SEARCH_ENTRIES and parent_name not in SEARCH_ENTRIES:
            explored += info
        elif info is not None and name == "packing.max_packing":
            packed += info
        self_s[name] += end - start - child_time[i]
        calls[name] += 1

    def total(names) -> float:
        return sum(self_s[n] for n in names)

    out: dict[str, float] = {
        "search.canonical_ordering.calls": calls["search.canonical_ordering"],
        "search.canonical_ordering.self_s": self_s["search.canonical_ordering"],
        "search.canonical_graph.self_s": self_s["search.canonical_graph"],
        "search.canonical_key.self_s": self_s[KEY],
        "search.canonical_key.nested.self_s": self_s[f"{KEY}.nested"],
        "graph.graph6_encode.self_s": self_s["graph.graph6_encode"],
        "graph.graph6_decode.calls": calls["graph.graph6_decode"],
        "graph.graph6_decode.self_s": self_s["graph.graph6_decode"],
        "graph.induced_edges.self_s": self_s["graph.induced_edges"],
        "search.generate.self_s": total(SEARCH_ENTRIES),
        "search.explored": explored,
    }
    for caller in sorted(set(COUNT_CALLERS.values())):
        out[f"{COUNT}.{caller}.calls"] = calls[f"{COUNT}.{caller}"]
        out[f"{COUNT}.{caller}.self_s"] = self_s[f"{COUNT}.{caller}"]
    out["saturation.pairs_scanned"] = pairs
    out["saturation.hit_ratio"] = found / pairs if pairs else 0.0
    out["constructions.build.self_s"] = total(CONSTRUCTORS)
    out["constructions.trim_to_target.self_s"] = self_s["constructions.trim_to_target"]
    out["constructions.trim_to_target.recounts"] = calls[f"{COUNT}.in_trim"]
    for phase in PACKING_PHASES:
        out[f"packing.{phase}.self_s"] = self_s[f"packing.{phase}"]
    out["packing.check_switch_inequality.calls"] = calls["packing.check_switch_inequality"]
    out["packing.cliques_packed"] = packed
    out["formulas.self_s"] = total(n for n in self_s if n.startswith("formulas."))
    out["cli.main.self_s"] = self_s["cli.main"]
    out["verify.verify_all_small.self_s"] = self_s["verify.verify_all_small"]
    out["trace.spans"] = hi - lo
    # Each span name feeds at most one of the *.self_s metrics above, so their
    # sum falls short of the traced time by the self time of the functions no
    # metric names, plus any time inside timed calls but outside every span.
    named = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out["trace.coverage"] = named / traced_wall if traced_wall > 0 else 0.0
    return out
