"""Outside-in tracer for rewardlab: spans around calls into each layer's public functions.

The tracer changes no program file. It wraps every public function of each
layer module and rebinds the wrapper under every name that holds the original,
in every ``rewardlab`` module and in the package namespace, because ``lab``,
``equiv``, ``models``, ``transform`` and ``cli`` import solver functions by
name. Click command callbacks in ``cli`` and the claim bodies in
``lab.CLAIMS`` are wrapped the same way. Names that do not exist are skipped,
so deleting a function or a module leaves the benchmark running.

``_kernels`` is not wrapped: it sits behind ``solve``, so kernel time counts
as self time of the solve function that called it.

Each span records its parent span, so ratios such as "ord/jeq calls whose
brute-force cross-check ran" are measured where the work happens. Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "documents", "lab", "models", "equiv", "transform", "solve", "mdp")

# A call to any of these inside ord_equivalent / j_equal means the
# brute-force cross-check ran for that query.
CROSS_CHECK = frozenset({"equiv.order_signature", "solve.evaluate_action_tuples",
                         "solve.evaluate_policy_batch"})
DECIDERS = frozenset({"equiv.ord_equivalent", "equiv.j_equal"})


class Tracer:
    def __init__(self):
        self.stack = []           # open frames: [span_id, name, child_s, cross_checks_at_entry]
        self.stats = {}           # name -> [calls, self_s, total_s, raised]
        self.edges = {}           # (parent name, child name) -> calls
        self.cross_checked = {}   # decider name -> calls whose cross-check ran
        self.cross_checks = 0
        self.spans = []           # (span_id, parent_id, name, start, end)
        self._next_id = 1
        self._rebound = []        # (target, key, original, is_attribute), for uninstall

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        span_id = self._next_id
        self._next_id += 1
        if name in CROSS_CHECK:
            self.cross_checks += 1
        self.stack.append([span_id, name, 0.0, self.cross_checks])

    def _exit(self, start, end, raised):
        span_id, name, child_s, marks = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dur - child_s
        st[2] += dur
        st[3] += raised
        edge = (parent[1] if parent else None, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if name in DECIDERS and self.cross_checks != marks:
            self.cross_checked[name] = self.cross_checked.get(name, 0) + 1
        self.spans.append((span_id, parent[0] if parent else 0, name, start, end))

    def wrap(self, fn, name):
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            start = perf()
            raised = 1
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                self._exit(start, perf(), raised)

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span named ``name`` (for calls the benchmark itself makes)."""
        return self.wrap(fn, name)(*args, **kwargs)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer's public functions wherever rewardlab binds them."""
        originals = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"rewardlab.{layer}")
            except ModuleNotFoundError:
                continue
            for key, obj in list(vars(mod).items()):
                if key.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self.wrap(obj, f"{layer}.{obj.__name__}"))
                callback = getattr(obj, "callback", None)
                if inspect.isfunction(callback) and callback.__module__ == mod.__name__:
                    self._rebind(obj, "callback", callback, self.wrap(callback, f"{layer}.{key}"),
                                 attr=True)
        claims = getattr(sys.modules.get("rewardlab.lab"), "CLAIMS", None)
        if isinstance(claims, dict):
            for claim_id, body in list(claims.items()):
                self._rebind(claims, claim_id, body, self.wrap(body, f"lab.claim.{claim_id}"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rewardlab" or mod_name.startswith("rewardlab.")):
                continue
            namespace = vars(mod)
            for key, obj in list(namespace.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(namespace, key, obj, hit[1])

    def _rebind(self, target, key, original, wrapper, attr=False):
        if attr:
            setattr(target, key, wrapper)
        else:
            target[key] = wrapper
        self._rebound.append((target, key, original, attr))

    def uninstall(self):
        for target, key, original, attr in reversed(self._rebound):
            if attr:
                setattr(target, key, original)
            else:
                target[key] = original
        self._rebound.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name):
        st = self.stats.get(name)
        return st[0] if st else 0

    def self_s(self, name):
        st = self.stats.get(name)
        return st[1] if st else 0.0

    def total_s(self, name):
        st = self.stats.get(name)
        return st[2] if st else 0.0

    def returned(self, name):
        st = self.stats.get(name)
        return st[0] - st[3] if st else 0

    def layer_totals(self, layer):
        calls, self_s = 0, 0.0
        for name, st in self.stats.items():
            if name.split(".", 1)[0] == layer:
                calls += st[0]
                self_s += st[1]
        return calls, self_s

    def child_calls(self, parent, child):
        return self.edges.get((parent, child), 0)

    def write(self, path):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[s[0], s[1], index[s[2]], round(s[3], 7), round(s[4], 7)] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
