"""Span recording around arithcorr's public functions, from outside the package.

`Tracer.install` replaces each target with a wrapper in every module namespace
that binds it (the package, its defining module, and modules such as `cli`
that import it by name) and, for methods, on the class.  A target that no
longer exists is listed in `missing` and skipped.  Spans live in flat arrays
until the run ends; `Tracer.layer_metrics` derives per-function and
per-module figures from them.
"""

from __future__ import annotations

import functools
import gzip
import operator
import sys
import time
from array import array

# (module, attribute path) of every wrapped function, grouped by layer.
TARGETS = [
    ("gf2m", "make_field"),
    ("gf2m", "find_primitive_polynomials"),
    ("gf2m", "is_irreducible"),
    ("gf2m", "is_primitive"),
    ("gf2m", "GF2m.expand_inverse_one_plus_pi_tau"),
    ("gf2m", "GF2m.pow"),
    ("gf2m", "GF2m.inv"),
    ("sequences", "m_sequence"),
    ("sequences", "BinarySequence.__init__"),
    ("sequences", "BinarySequence.shift"),
    ("sequences", "BinarySequence.classical_autocorr"),
    ("sequences", "BinarySequence.pattern_count"),
    ("arith", "arithmetic_autocorr"),
    ("arith", "distribution"),
    ("blocks", "autocorr_via_blocks"),
    ("blocks", "block_type_counts"),
    ("blocks", "g_of"),
    ("closedform", "predict_acorr"),
    ("closedform", "lemma4_count"),
    ("closedform", "brute_count_eq4"),
    ("closedform", "brute_count_eq5"),
    ("closedform", "weighted_sum"),
    ("closedform", "predict_distribution"),
    ("cli", "main"),
]
MODULES = ["gf2m", "sequences", "arith", "blocks", "closedform", "cli"]
FUNCTION_FIELDS = [("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("errors", "count")]
MODULE_FIELDS = [("self_s", "s"), ("share", "ratio")]


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for module, path in TARGETS:
        names += [(f"{module}.{path}.{f}", unit) for f, unit in FUNCTION_FIELDS]
    for module in MODULES:
        names += [(f"{module}.{f}", unit) for f, unit in MODULE_FIELDS]
    names.append(("trace.overhead_frac", "ratio"))
    return names


class Tracer:
    """Records one span per call of each installed target."""

    def __init__(self, package: str, error_type: type):
        self.package = package
        self.error_type = error_type
        self.names: list[str] = []
        self.missing: list[str] = []
        # span i: name id, parent span (-1 for a root), start/end in ns,
        # and whether it raised error_type
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self._stack = [-1]

    def _wrap(self, fn, nid: int):
        name_id, parent, start, end, raised = self.name_id, self.parent, self.start, self.end, self.raised
        stack, clock, error_type = self._stack, time.perf_counter_ns, self.error_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            raised.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except error_type:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; record the ones that do not resolve in `missing`."""
        loaded = [
            mod for key, mod in list(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        ]
        for module, path in targets:
            name = f"{module}.{path}"
            owner = sys.modules.get(f"{self.package}.{module}")
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, len(self.names))
            self.names.append(name)
            if parents:
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def span_count(self) -> int:
        return len(self.name_id)

    def layer_metrics(self, traced_run_s: float, untraced_run_s: float) -> dict[str, float]:
        """Per-function calls/busy/self/errors, per-module self time and share."""
        count = len(self.name_id)
        dur = array("q", map(operator.sub, self.end, self.start))
        child = array("q", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        calls, busy, own, errors = [0] * k, [0] * k, [0] * k, [0] * k
        for i in range(count):
            nid = self.name_id[i]
            calls[nid] += 1
            own[nid] += dur[i] - child[i]
            errors[nid] += self.raised[i]
            # busy time counts only the outermost of nested calls to one function
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                busy[nid] += dur[i]
        values = {}
        for module, path in TARGETS:
            name = f"{module}.{path}"
            nid = self.names.index(name) if name in self.names else None
            got = (calls[nid], busy[nid] / 1e9, own[nid] / 1e9, errors[nid]) if nid is not None else (0, 0.0, 0.0, 0)
            for (field, _unit), value in zip(FUNCTION_FIELDS, got):
                values[f"{name}.{field}"] = value
        for module in MODULES:
            self_s = sum(
                values[f"{mod}.{path}.self_s"] for mod, path in TARGETS if mod == module
            )
            values[f"{module}.self_s"] = self_s
            values[f"{module}.share"] = self_s / traced_run_s
        values["trace.overhead_frac"] = traced_run_s / untraced_run_s - 1
        return values

    def write(self, path: str, title: str) -> None:
        """Spans as gzip CSV `name,start_ns,end_ns,parent,raised`; title and missing targets as comments."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {title}\n")
            for name in self.missing:
                fh.write(f"# missing target {name}\n")
            fh.write("name,start_ns,end_ns,parent,raised\n")
            names = self.names
            fh.writelines(
                f"{names[self.name_id[i]]},{self.start[i]},{self.end[i]},{self.parent[i]},{self.raised[i]}\n"
                for i in range(len(self.name_id))
            )
