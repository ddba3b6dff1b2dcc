"""Span tracing of weylhom's layer entry points, from outside the program.

`Tracer.install` wraps the entry points below and rebinds every name in
every loaded weylhom module that refers to an original, since `homspace`,
`weyl`, `specht` and the package itself import these functions directly.
Cached entry points keep `cache_clear`, so `clear_caches()` goes on working
while traced.

Each span records its name, start, end and parent span in flat arrays kept
in memory; self time (a span's duration minus its direct children's) is
computed once the round is over.  Counts are taken at the same boundaries.
The wrappers' own work is charged to the caller's self time; the traced
round's extra wall time is reported as `trace.overhead_s`.

Span names are the metric prefixes, `<module>.<entry point>`.  The module
is the layer: tableaux (L1), homspace and polyalg.dp_comult (L2), weyl and
polyalg.dprime (L3), gfp (L4), specht (L5).
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from math import factorial
from time import perf_counter

OP_SPAN = "op"


def _syt_count(shape) -> int:
    """Standard Young tableaux of a shape, by the hook length formula."""
    shape = [v for v in shape if v]
    cols = [sum(1 for v in shape if v > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(shape)) // hooks


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.active = True
        self.counts: dict[str, int] = defaultdict(int)
        self._dp_keys: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._op = self.wrap(OP_SPAN, lambda fn, *args: fn(*args))

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """A traced stand-in for fn that counts its calls; after(args, result)
        runs once the span has ended."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counts = self.counts
        calls_key = name + ".calls"
        counts[calls_key] += 0

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            counts[calls_key] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    def op(self, fn, *args):
        """Run one benchmark op as a root span."""
        return self._op(fn, *args)

    # -- installation -------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "weylhom" and not modname.startswith("weylhom."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, attr, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _cached(self, name, fn, on_miss=None):
        """Trace an lru_cache-wrapped function, telling a miss from a hit by
        its cache statistics around the call (clearing the cache resets
        them); the cache itself stays in place."""
        counts = self.counts
        counts[name + ".misses"] += 0
        info = fn.cache_info
        traced = self.wrap(name, fn)

        def cached(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            misses = info().misses
            result = traced(*args, **kwargs)
            if info().misses != misses:
                counts[name + ".misses"] += 1
                if on_miss is not None:
                    on_miss(args, result)
            return result

        cached.cache_clear = fn.cache_clear
        cached.cache_info = fn.cache_info
        return cached

    def install(self) -> None:
        """Wrap weylhom's layer entry points; `uninstall` restores them."""
        from weylhom import gfp, homspace, polyalg, specht, tableaux, weyl

        counts = self.counts

        def add(key, size):
            counts[key] += 0

            def after(args, result):
                counts[key] += size(args, result)

            return after

        def dp_after(args, result):
            self._dp_keys.add((args[0], tuple(args[1])))

        for key in ("rows", "cols", "rank", "builds"):
            counts["gfp.echelon." + key] += 0
        counts["weyl.solve.calls"] += 0

        def echelon_after(args, result):
            ech = args[0]
            counts["gfp.echelon.builds"] += 1
            counts["gfp.echelon.rows"] += ech.matrix.nrows
            counts["gfp.echelon.cols"] += ech.ncols
            counts["gfp.echelon.rank"] += ech.rank

        functions = (
            (tableaux.enumerate_standard, self._cached(
                "tableaux.enumerate_standard", tableaux.enumerate_standard,
                add("tableaux.enumerate_standard.tableaux", lambda a, r: len(r)))),
            (specht.specht_rep, self._cached("specht.specht_rep", specht.specht_rep)),
            (homspace.hom_dim, self.wrap("homspace.hom_dim", homspace.hom_dim)),
            (homspace.relation_matrix, self.wrap(
                "homspace.relation_matrix", homspace.relation_matrix,
                add("homspace.relation_matrix.nnz", lambda a, m: sum(map(len, m.rows))))),
            (homspace.phi_eval_terms, self.wrap(
                "homspace.phi_eval_terms", homspace.phi_eval_terms,
                add("homspace.phi_eval_terms.terms", lambda a, r: len(r)))),
            (polyalg.dp_comult, self.wrap("polyalg.dp_comult", polyalg.dp_comult, dp_after)),
            (polyalg.dprime, self.wrap(
                "polyalg.dprime", polyalg.dprime,
                add("polyalg.dprime.terms", lambda a, r: len(r)))),
            (specht.specht_hom_dim, self.wrap(
                "specht.specht_hom_dim", specht.specht_hom_dim,
                add("specht.specht_hom_dim.cols",
                    lambda a, r: _syt_count(a[0]) * _syt_count(a[1])))),
        )
        for original, replacement in functions:
            self._rebind(original, replacement)
        methods = (
            (weyl.WeylContext, "straighten_terms", "weyl.straighten_terms", None),
            (gfp.Echelon, "__init__", "gfp.echelon", echelon_after),
            (gfp.Echelon, "solve", "gfp.echelon.solve", None),
            (gfp.MatrixGFp, "mul_vec", "gfp.mul_vec", None),
        )
        for cls, attr, name, after in methods:
            self._patch_method(cls, attr, self.wrap(name, cls.__dict__[attr], after))
        self._weyl = weyl

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def harvest_solves(self) -> None:
        """Add the straightening contexts' exterior-solve counts; call before
        every cache clear and at the end of the round."""
        contexts = self._weyl._contexts.values()
        self.counts["weyl.solve.calls"] += sum(ctx.fallback_solves for ctx in contexts)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name."""
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        children = array("d", bytes(8 * n))
        for i in range(n):
            par = parents[i]
            if par >= 0:
                children[par] += ends[i] - starts[i]
        per_id = [0.0] * len(self.names)
        for i in range(n):
            per_id[names[i]] += (ends[i] - starts[i]) - children[i]
        return dict(zip(self.names, per_id))

    def root_total(self) -> float:
        """Summed duration of the spans no other span encloses."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        return sum(ends[i] - starts[i] for i in range(len(starts)) if parents[i] < 0)

    def layer_metrics(self, wall_s: float) -> dict[str, float | int]:
        """Every count and self time the tracer takes, zero where a layer was
        never called, plus `trace.other_s`: the ops' own self time and the
        time between ops, so that self times sum to wall."""
        selfs = self.self_times()
        out: dict[str, float | int] = dict(self.counts)
        out["polyalg.dp_comult.distinct"] = len(self._dp_keys)
        for name, value in selfs.items():
            if name != OP_SPAN:
                out[name + ".self_s"] = value
        out["trace.other_s"] = selfs.get(OP_SPAN, 0.0) + (wall_s - self.root_total())
        out["trace.wall_s"] = wall_s
        return out


def reconcile(metrics) -> float:
    """Layer self times plus `trace.other_s`, minus `trace.wall_s`: zero up to
    rounding when every layer span lies inside an op."""
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s")) + metrics["trace.other_s"]
    return total - metrics["trace.wall_s"]
