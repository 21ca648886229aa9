"""Per-layer tracing of the qmalab package from outside it.

``install`` wraps every public function of each package module and every
public method of the classes those modules define.  A wrapper is patched into
every place where a caller looks the name up: the defining module, each
package module that imported it by name (``protocol`` imports
``apply_hadamard`` and ``project_predicate`` that way), and, for methods, the
class itself.  ``uninstall`` puts every original object back.

While installed, the tracer keeps, per trial, the call count and self time of
each layer (its duration minus the time covered by wrapped calls inside it),
and a span (name, start, end, parent span, trial id) for each call of a layer
that is not in ``COUNTED_ONLY``.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from array import array

PACKAGE = "qmalab"
MODULES = (
    "gf2",
    "simstate",
    "csa",
    "zxham",
    "permver",
    "ati",
    "toycrypto",
    "nizknp",
    "obfstack",
    "protocol",
)
TRIAL = "trial"

# Layers called hundreds to thousands of times per trial: counters plus
# timing, no span, so that the span log stays small.
COUNTED_ONLY = ("toycrypto.", "gf2.", "obfstack.QPrOSim.", "obfstack.qpro_prf")

# Layers whose arguments are also tallied: bytes processed, and calls whose
# (oracle, instance, key or handle) the same oracle already saw in the trial.
BYTE_COUNTED = ("toycrypto.xor_bytes",)
REPEAT_COUNTED = ("obfstack.QPrOSim.gen", "obfstack.QPrOSim.inv")


def _is_function(obj) -> bool:
    # lru_cache wrappers (protocol.permutation_weights) count as functions
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def discover() -> list[tuple[str, object, str, object]]:
    """(layer name, owner, attribute, original) for every public function and
    method of the package modules, the owner being the module or class that
    defines it."""
    found = []
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if _is_function(obj):
                found.append((f"{short}.{name}", mod, name, obj))
            elif isinstance(obj, type):
                for attr, raw in sorted(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(raw, (types.FunctionType, classmethod, staticmethod)):
                        found.append((f"{short}.{name}.{attr}", obj, attr, raw))
    return found


class Tracer:
    """Span log and per-trial layer counters for one traced run."""

    def __init__(self):
        self.layers: list[str] = [TRIAL]
        self._index = {TRIAL: 0}
        # spans as parallel arrays; parent is -1 for a trial's root span
        self.span_layer = array("i")
        self.span_trial = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # trial id -> {layer index: [calls, self ns]}, trial id -> duration,
        # and trial id -> {"<layer>.bytes" or "<layer>.repeats": count}
        self.trials: dict[int, dict[int, list[int]]] = {}
        self.trial_ns: dict[int, int] = {}
        self.extra: dict[int, dict[str, int]] = {}
        self._stack: list[list[int]] = []  # open calls: [covered ns, span index]
        self._cur: dict[int, list[int]] | None = None
        self._cur_extra: dict[str, int] | None = None
        self._trial = -1
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    def _layer(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.layers)
            self.layers.append(name)
        return self._index[name]

    # -- trials ---------------------------------------------------------------

    def begin_trial(self, trial: int) -> None:
        if self._stack:
            raise RuntimeError("a trial is already open")
        self._trial = trial
        self._cur = self.trials.setdefault(trial, {})
        self._cur_extra = self.extra.setdefault(trial, {})
        self._seen = set()
        idx = self._open_span(0, -1)
        self._stack.append([0, idx])
        self.span_start[idx] = time.perf_counter_ns()

    def end_trial(self) -> None:
        end = time.perf_counter_ns()
        covered, idx = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.trial_ns[self._trial] = dur
        self._add(0, dur - covered)
        self._cur = self._cur_extra = None

    def _open_span(self, layer: int, parent: int) -> int:
        self.span_layer.append(layer)
        self.span_trial.append(self._trial)
        self.span_parent.append(parent)
        self.span_start.append(0)
        self.span_end.append(0)
        return len(self.span_start) - 1

    def _add(self, layer: int, self_ns: int) -> None:
        rec = self._cur.get(layer)
        if rec is None:
            self._cur[layer] = [1, self_ns]
        else:
            rec[0] += 1
            rec[1] += self_ns

    def _count(self, key: str, n: int) -> None:
        self._cur_extra[key] = self._cur_extra.get(key, 0) + n

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn):
        layer = self._layer(name)
        spans = not name.startswith(COUNTED_ONLY)
        counts_bytes = name in BYTE_COUNTED
        counts_repeats = name in REPEAT_COUNTED
        now = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:  # outside a trial: not measured
                return fn(*args, **kwargs)
            if counts_bytes:
                self._count(f"{name}.bytes", len(args[0]))
            elif counts_repeats:
                key = (args[0].master, layer, *args[1:])
                if key in self._seen:
                    self._count(f"{name}.repeats", 1)
                else:
                    self._seen.add(key)
            parent = stack[-1]
            frame = [0, self._open_span(layer, parent[1]) if spans else parent[1]]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                if spans:
                    self.span_start[frame[1]] = start
                    self.span_end[frame[1]] = end
                parent[0] += end - start
                self._add(layer, end - start - frame[0])

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Patch a wrapper over every discovered function and method."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = discover()
        # every package module binding of each module-level function
        bindings: dict[int, list[tuple[object, str]]] = {}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in vars(mod).items():
                if _is_function(obj):
                    bindings.setdefault(id(obj), []).append((mod, attr))
        for name, owner, attr, raw in targets:
            if isinstance(owner, types.ModuleType):
                wrapped = self.wrap(name, raw)
                for site, site_attr in bindings[id(raw)]:
                    self._patch(site, site_attr, raw, wrapped)
            elif isinstance(raw, classmethod):
                self._patch(owner, attr, raw, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(owner, attr, raw, staticmethod(self.wrap(name, raw.__func__)))
            else:
                self._patch(owner, attr, raw, self.wrap(name, raw))

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patches(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- results --------------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: median calls and median self ms per trial (a trial
        without a call counts as 0), totals over the traced trials, and the
        byte and repeat tallies of the layers that keep them."""
        trial_ids = sorted(self.trial_ns)
        out = {}
        for layer, name in enumerate(self.layers):
            calls = [self.trials[t].get(layer, (0, 0))[0] for t in trial_ids]
            ns = [self.trials[t].get(layer, (0, 0))[1] for t in trial_ids]
            if not any(calls):
                continue
            row = {
                "calls": statistics.median(calls),
                "ms": statistics.median(ns) / 1e6,
                "total_calls": sum(calls),
                "total_ms": sum(ns) / 1e6,
            }
            if name in BYTE_COUNTED:
                row["bytes"] = statistics.median(
                    self.extra[t].get(f"{name}.bytes", 0) for t in trial_ids
                )
            if name in REPEAT_COUNTED:
                repeats = sum(self.extra[t].get(f"{name}.repeats", 0) for t in trial_ids)
                row["repeat_share"] = repeats / sum(calls)
            out[name] = row
        return out

    def write_spans(self, path) -> int:
        """Write the span log as CSV; returns the number of spans."""
        with open(path, "w") as fh:
            fh.write("span,name,trial,parent,start_ns,end_ns\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self.layers[self.span_layer[i]]},{self.span_trial[i]},"
                    f"{self.span_parent[i]},{self.span_start[i]},{self.span_end[i]}\n"
                )
        return len(self.span_start)

