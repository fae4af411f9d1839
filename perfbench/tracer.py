"""Outside-in layer tracing for the twocolor_hhg package.

The package is not edited: :class:`Tracer` wraps every public module-level
function of each layer module and rebinds the wrapper in every
``twocolor_hhg`` namespace that holds the original (re-exports, aliases such
as ``cli.saddle_spectrum`` and the module globals that function-local
imports read at call time).  Each call is a span; a function's self time is
its span's duration minus the time covered by the traced spans it caused.
Counts are taken at the same boundaries from arguments and results, so a
name that a later refactor deletes simply reports zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "twocolor_hhg"
LAYERS = ("field", "saddle", "taxonomy", "dipole", "polarization",
          "trajectory", "phasescan", "oracle", "cli")

# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = ("saddle.seeds", "saddle.unique", "taxonomy.relevant",
                "saddle.newton_solve.calls", "saddle.continue_in.calls",
                "field.calls", "field.points", "phasescan.gaps",
                "oracle.grid_points")


def oracle_grid_points(cfg):
    """Nominal (tr, tau) integrand grid of one oracle call with ``cfg``."""
    n_tr = cfg.n_cycles * cfg.steps_per_period
    n_tau = int(round(cfg.tau_max_periods * cfg.steps_per_period))
    return n_tr * n_tau


def _numeric(values):
    return [v for v in values
            if isinstance(v, (np.ndarray, np.number, int, float, complex))
            and not isinstance(v, bool)]


def _count_field(c, args, kwargs, result):
    nums = _numeric(list(args) + list(kwargs.values()))
    c["field.points"] += max((np.size(v) for v in nums), default=0)
    c["field.bytes_computed"] += (sum(np.asarray(v).nbytes for v in nums)
                                  + np.asarray(result).nbytes)


def _count_saddles(c, result):
    for sp in result:
        c["saddle.residual_max"] = max(c["saddle.residual_max"], sp.residual)


def _count_seed_grid(c, args, kwargs, result):
    c["saddle.seeds"] += result.ti.size


def _count_solve_cycle(c, args, kwargs, result):
    c["saddle.unique"] += len(result)
    _count_saddles(c, result)


def _count_relevance(c, args, kwargs, result):
    mask = np.asarray(result, dtype=bool)
    c["taxonomy.relevant"] += int(mask.sum())
    c["taxonomy.considered"] += mask.size
    c["taxonomy.discards"] += int(mask.size - mask.sum())


def _count_run_scan(c, args, kwargs, result):
    c["phasescan.cells"] += result.qs.size * result.phis.size
    c["phasescan.gaps"] += len(result.gaps)


def _cfg_argument(fn):
    sig = inspect.signature(fn)

    def count(c, args, kwargs, result):
        cfg = sig.bind(*args, **kwargs).arguments.get("cfg")
        if cfg is not None:
            c["oracle.grid_points"] += oracle_grid_points(cfg)
    return count


# per-function count hooks, keyed by "<layer>.<function>"
_HOOKS = {
    "saddle.seed_grid": _count_seed_grid,
    "saddle.solve_cycle": _count_solve_cycle,
    "saddle.newton_solve": lambda c, a, k, r: _count_saddles(c, [r]),
    "taxonomy.relevance_mask": _count_relevance,
    "phasescan.run_scan": _count_run_scan,
}


# counts kept by the hooks (and by the benchmark for cli.bytes_written)
COUNTS = ("field.points", "field.bytes_computed", "saddle.seeds",
          "saddle.unique", "saddle.residual_max", "taxonomy.relevant",
          "taxonomy.discards", "phasescan.cells", "phasescan.gaps",
          "oracle.grid_points", "cli.bytes_written")
_SPAN_STAT = {"calls": "calls", "self_s": "self", "total_s": "total",
              "failed": "raised", "branch_lost": "raised"}


class _Stat:
    __slots__ = ("calls", "total", "self", "raised")

    def __init__(self):
        self.calls, self.total, self.self, self.raised = 0, 0.0, 0.0, 0


class Tracer:
    """Span accounting for the layer functions of an imported package."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0.0])   # (caller, callee)
        self._stack = []
        self._patches = []

    def reset(self):
        self.stats.clear()
        self.counts.clear()
        self.edges.clear()

    def _hook_for(self, name, fn):
        if name.startswith("field."):
            return _count_field
        if name in ("oracle.direct_dipole", "oracle.windowed_dipole"):
            return _cfg_argument(fn)
        return _HOOKS.get(name)

    def _wrap(self, name, fn):
        hook = self._hook_for(name, fn)
        stack, stats, counts, edges = (self._stack, self.stats, self.counts,
                                       self.edges)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]          # [span name, time in child spans]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[name].raised += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total += t1 - t0
                st.self += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                    edge = edges[(stack[-1][0], name)]
                    edge[0] += 1
                    edge[1] += t1 - t0
            if hook is not None:
                hook(counts, args, kwargs, result)
                if stack:
                    # counting is tracer overhead, not the caller's self time
                    stack[-1][1] += clock() - t1
            return result
        return traced

    def install(self):
        """Wrap every public function of every layer module in place."""
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))}
        wrapped = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- reading the accounts ------------------------------------------------

    def _sum(self, layer, stat):
        return sum(getattr(st, stat) for n, st in self.stats.items()
                   if n.startswith(layer + "."))

    def layer_metrics(self, names):
        """Values of the per-layer metrics ``names`` recorded since reset.

        ``<layer>.<function>.<calls|self_s|total_s|failed|branch_lost>`` read
        that function's spans (``failed`` and ``branch_lost`` count calls that
        raised), ``<layer>.self_s`` sums a layer's self time, and the
        remaining names are counts taken by the hooks or ratios of them."""
        c = self.counts
        field_calls = self._sum("field", "calls")
        derived = {
            "field.calls": field_calls,
            "field.points_per_call": c["field.points"] / max(field_calls, 1),
            "saddle.unique_per_seed": c["saddle.unique"] / max(c["saddle.seeds"], 1),
            "taxonomy.relevant_per_unique": (c["taxonomy.relevant"]
                                             / max(c["taxonomy.considered"], 1)),
        }
        out = {}
        for name in names:
            head, _, kind = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif name in COUNTS:
                out[name] = c[name]
            elif head in LAYERS and kind == "self_s":
                out[name] = self._sum(head, "self")
            elif head.partition(".")[0] in LAYERS and kind in _SPAN_STAT:
                st = self.stats.get(head)
                out[name] = getattr(st, _SPAN_STAT[kind]) if st else 0
        return out

    def call_tree(self):
        """Aggregated spans: per function and per caller -> callee edge."""
        return {
            "functions": {n: {"calls": s.calls, "total_s": s.total,
                              "self_s": s.self, "raised": s.raised}
                          for n, s in sorted(self.stats.items())},
            "edges": [{"caller": a, "callee": b, "calls": e[0], "total_s": e[1]}
                      for (a, b), e in sorted(self.edges.items())],
        }
