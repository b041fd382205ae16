"""Per-layer tracing installed from outside the package.

Every public function of a layer module, and every public method and
arithmetic dunder of the classes it defines, is replaced by a timing
wrapper.  The wrapper is bound under every name that referred to the
original, in every ``diracspace`` module, so ``from .calculus import
contract`` in another module is traced too; methods are wrapped on the
class that defines them.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of the wrapped calls it made, so the self
times of all frames add up to the traced time.  Module functions and
the structural methods in ``SPAN_METHODS`` also record a span (start,
end, parent span, check index) when called from another layer; arithmetic
on values (``Poly``, ``GPoly``, ``Form``, ...) only keeps counters and
summed time, so memory stays bounded at about 10**6 calls per run.
"""

from __future__ import annotations

import json
import time

LAYERS = ("poly", "calculus", "linalg", "courant", "lagrangian",
          "presentations", "linfty", "graded", "sampling", "parser", "cli")

DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__neg__",
           "__mul__", "__rmul__", "__pow__", "__eq__", "__call__", "__str__")

SPAN_METHODS = ("l", "member", "generators", "verify_isotropic",
                "verify_involutive")

SPAN_CAP = 100_000

CLI_SUBCOMMANDS = ("parse", "check-linfty", "check-dirac", "check-morphism",
                   "lagrangian-roundtrip", "multidirac-tiers",
                   "oracle-compare")


class Hook:
    __slots__ = ("layer", "calls", "self_time")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    """Wrappers, counters and spans for one traced pass."""

    def __init__(self):
        self.hooks: dict[str, Hook] = {}
        # frame: [time spent in wrapped callees, layer, enclosing span id]
        self.stack = [[0.0, "bench", 0]]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.opened = 0
        self.check = -1
        self.rref_cells = 0
        self.l_zero = 0

    # -- installation --------------------------------------------------

    def install(self, ds) -> None:
        """Wrap the layer modules of the imported package ``ds``."""
        swap = {}
        for layer in LAYERS:
            mod = getattr(ds, layer)
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj) and not name.startswith("_"):
                    swap[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer,
                                               span=True)
        for mod in ds.modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in swap:
                    setattr(mod, name, swap[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_")
            if not (public or attr in DUNDERS):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            span = attr in SPAN_METHODS
            if isinstance(val, staticmethod):
                if public:
                    setattr(cls, attr, staticmethod(
                        self._wrap(val.__func__, name, layer, span)))
            elif callable(val) and not isinstance(val, type):
                setattr(cls, attr, self._wrap(val, name, layer, span))

    def _wrap(self, fn, name: str, layer: str, span: bool):
        hook = self.hooks.setdefault(name, Hook(layer))
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        observe = {"linalg.rref": self._observe_rref}.get(name)
        if name.startswith("linfty.") and name.endswith(".l"):
            observe = self._observe_l

        def traced(*args, **kwargs):
            parent = stack[-1]
            opens = span and parent[1] != layer
            sid = parent[2]
            if opens:
                self.opened += 1
                sid = self.opened
            frame = [0.0, layer, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                hook.calls += 1
                hook.self_time += dur - frame[0]
                parent[0] += dur
                if opens:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, parent[2], name, self.check,
                                      t0, t1))
                    else:
                        self.dropped += 1
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observe_rref(self, args, out) -> None:
        rows = args[0]
        if rows:
            self.rref_cells += len(rows) * len(rows[0])

    def _observe_l(self, args, out) -> None:
        if out.payload is None:
            self.l_zero += 1

    # -- results ---------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.hooks[n].calls for n in names if n in self.hooks)

    def calls_like(self, prefix: str, suffix: str = "") -> int:
        return sum(h.calls for n, h in self.hooks.items()
                   if n.startswith(prefix) and n.endswith(suffix))

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for h in self.hooks.values():
            out[h.layer] += h.self_time
        return out

    def write_spans(self, path) -> None:
        names = ("id", "parent", "name", "check", "start", "end")
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": names, "dropped": self.dropped})
                     + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tr: Tracer, wall_by_label: dict[str, float],
                  report_bytes: int, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass;
    the CLI wall times come from the untraced pass, by check label."""
    selfs = tr.layer_self()
    l_calls = tr.calls_like("linfty.", ".l")
    m = {
        "poly.new.calls": tr.calls("poly.Poly.__init__"),
        "poly.mul.calls": tr.calls("poly.Poly.__mul__"),
        "poly.add.calls": tr.calls("poly.Poly.__add__"),
        "poly.partial.calls": tr.calls("poly.Poly.partial"),
        "poly.busy_s": selfs["poly"],
        "calculus.contract.calls": tr.calls("calculus.contract"),
        "calculus.deRham.calls": tr.calls("calculus.deRham"),
        "calculus.lie.calls": tr.calls("calculus.lie_derivative",
                                       "calculus.lie_bracket"),
        "calculus.wedge.calls": tr.calls("calculus.wedge",
                                         "calculus.mv_wedge"),
        "calculus.schouten.calls": tr.calls("calculus.schouten"),
        "calculus.self_s": selfs["calculus"],
        "courant.bracket.calls": tr.calls("courant.dorfman",
                                          "courant.multi_bracket"),
        "courant.pairing.calls": tr.calls("courant.pairing",
                                          "courant.multi_pairing"),
        "courant.self_s": selfs["courant"],
        "presentations.ham_bracket.calls": tr.calls(
            "presentations.ham_bracket"),
        "presentations.hamiltonian_solve.calls": tr.calls(
            "presentations.hamiltonian_solve"),
        "presentations.datum.calls": tr.calls(
            "presentations.HamiltonianDatum.__init__"),
        "presentations.self_s": selfs["presentations"],
        "linfty.check_relation.calls": tr.calls("linfty.check_relation"),
        "linfty.l.calls": l_calls,
        "linfty.l.zero_ratio": tr.l_zero / l_calls if l_calls else 0.0,
        "linfty.self_s": selfs["linfty"],
        "graded.oracle_bracket.calls": tr.calls("graded.oracle_bracket"),
        "graded.gbracket.calls": tr.calls("graded.gbracket"),
        "graded.gpoly.new.calls": tr.calls("graded.GPoly.__init__"),
        "graded.gbracket.self_s": (tr.hooks["graded.gbracket"].self_time
                                   if "graded.gbracket" in tr.hooks else 0.0),
        "graded.self_s": selfs["graded"],
        "linalg.rref.calls": tr.calls("linalg.rref"),
        "linalg.rref.cells": tr.rref_cells,
        "linalg.self_s": selfs["linalg"],
        "lagrangian.multidirac_tier.calls": tr.calls(
            "lagrangian.multidirac_tier"),
        "lagrangian.perp_tier.calls": tr.calls("lagrangian.perp_tier"),
        "lagrangian.self_s": selfs["lagrangian"],
        "sampling.calls": tr.calls_like("sampling."),
        "sampling.symmetry_vfield.calls": tr.calls(
            "sampling.random_symmetry_vfield"),
        "sampling.self_s": selfs["sampling"],
        "parser.parse.calls": tr.calls("parser.parse_expression"),
        "parser.self_s": selfs["parser"],
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = wall_by_label.get(sub, 0.0)
    m["cli.report_bytes"] = report_bytes
    m["trace.overhead_s"] = overhead_s
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
