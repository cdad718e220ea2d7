"""In-memory span tracing of liefol's public callables, from outside the package.

Each target is wrapped at every module attribute that binds it (the defining
module, the package, and each module that imported it by name), so callers
inside liefol hit the wrapper too.  Classes are traced through `__init__`,
class methods and methods through the class attribute.  `restore()` puts
every original back.

A span is (id, name, start, end, parent id, run id).  Self time is the span's
duration minus the durations of its direct children; calls never overlap
(single thread), so the children cover disjoint parts of the parent.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, qualified name) of every traced callable, grouped by layer.
TARGETS = (
    ("cli", "main"),
    ("cli", "load_document"),
    ("verifier", "run_sweep"),
    ("verifier", "SweepReport.to_json"),
    ("verifier", "find_conjecture_counterexamples"),
    ("verifier", "oracle_solve_theta"),
    ("verifier", "oracle_conformal_from_definition"),
    ("families", "FamilySpec.create"),
    ("families", "build_family"),
    ("families", "assemble_family_table"),
    ("families", "closed_form_theta"),
    ("families", "closed_form_minimal"),
    ("families", "closed_form_totally_geodesic"),
    ("geometry", "classify"),
    ("geometry", "second_fundamental_form_horizontal"),
    ("geometry", "second_fundamental_form_vertical"),
    ("geometry", "second_fundamental_form_vertical_via_connection"),
    ("geometry", "connection_coefficients"),
    ("algebra", "FoliationSetup"),
    ("algebra", "StructureTensor.from_rows"),
    ("algebra", "jacobi_residual"),
    ("algebra", "killing_form"),
    ("linalg", "solve_linear_system"),
    ("linalg", "determinant"),
)

SPAN_CAP = 50_000  # spans kept for the trace file; the aggregates count every span


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    def __init__(self):
        self.enabled = True
        self.run_id = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.child_calls: Counter = Counter()  # (parent name, child name)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    tracer.child_calls[(parent[1], name)] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (span_id, name, start, end, parent[0] if parent else None, tracer.run_id)
                    )

        return traced

    def install(self, package: str = "liefol") -> None:
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for module_name, qualname in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            name = span_name(module_name, qualname)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                self._patch(owner, attr, raw, replacement)
                continue
            original = getattr(module, attr)
            if isinstance(original, type):
                self._patch(original, "__init__", original.__dict__["__init__"],
                            self._wrap(name, original.__init__))
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def suspended(self):
        """Run harness work (input generation) without recording spans."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, run_id in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                         "parent": parent, "run": run_id}) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for module_name, qualname in TARGETS:
            name = span_name(module_name, qualname)
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        builds = self.calls["families.build_family"]
        jacobi_in_build = self.child_calls[("families.build_family", "algebra.jacobi_residual")]
        out["families.build_family.jacobi_per_build"] = (
            jacobi_in_build / builds if builds else 0.0, "ratio")
        return out
