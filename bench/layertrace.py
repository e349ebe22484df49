"""Layer tracing for the benchmark, built from outside the program.

A Tracer replaces public functions of the `glie` modules with wrappers that
record spans (name, start, end, parent) in memory. Each function is patched
under every name a `glie` module binds it to, so `glie.identities.substitute`
is wrapped as well as `glie.freelie.substitute`; methods are patched on their
class. `restore()` puts every original object back.

FieldElement arithmetic is only counted, never timed: it runs tens of
millions of times per workload, and a timed span per call would dwarf it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (metric prefix, module, attribute path, extra count: (suffix, f(args, result)) or None)
TIMED = [
    ("identities.consequence_span", "glie.identities", "consequence_span",
     ("rank", lambda a, r: r.dim)),
    ("identities.identity_space", "glie.identities", "identity_space", None),
    ("identities.check_identity", "glie.identities", "check_identity",
     ("evaluations", lambda a, r: r.evaluations)),
    ("identities.check_poly_identity", "glie.identities", "check_poly_identity", None),
    ("freelie.substitute", "glie.freelie", "substitute", None),
    ("freelie.degree_bound", "glie.freelie", "degree_bound", None),
    ("freelie.expr_expand", "glie.freelie", "expr_expand", None),
    ("freelie.batch_evaluate", "glie.freelie", "batch_evaluate",
     ("rows", lambda a, r: r.shape[0])),
    ("freelie.word_tree_batch_evaluate", "glie.freelie", "word_tree_batch_evaluate",
     ("rows", lambda a, r: r.shape[0])),
    ("freelie.lyndon_words", "glie.freelie", "lyndon_words", None),
    ("algebra.batch_bracket", "glie.algebra", "GradedLieAlgebra.batch_bracket",
     ("rows", lambda a, r: r.shape[0])),
    ("algebra.bracket", "glie.algebra", "GradedLieAlgebra.bracket", None),
    ("linalg.kernel", "glie.linalg", "MatrixGF.kernel", ("rows", lambda a, r: a[0].rows)),
    ("linalg.from_vectors", "glie.linalg", "SubspaceBasis.from_vectors", None),
    ("gradings.sl2_automorphisms", "glie.gradings", "sl2_automorphisms", None),
    ("gradings.enumerate_z2_gradings", "glie.gradings", "enumerate_z2_gradings", None),
    ("gradings.classify_up_to_iso", "glie.gradings", "classify_up_to_iso", None),
    ("gradings.natural_characterization", "glie.gradings", "natural_characterization", None),
]

COUNTED_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


def layer_metric_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for prefix, _, _, extra in TIMED:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.total_s"] = "s"
        units[f"{prefix}.self_s"] = "s"
        if extra:
            units[f"{prefix}.{extra[0]}"] = "count"
    units["fields.elem_ops"] = "count"
    units["identities.check_identity.evals_per_s"] = "1/s"
    units["freelie.expand_per_substitute"] = "ratio"
    units["identities.span_rank_per_expand"] = "ratio"
    units["trace.verify_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Patches the layer functions; keeps spans and counts in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.counts: dict[str, int] = {}
        self.elem_ops = [0]
        self._stack: list[int] = []
        self.patched: list = []  # (owner, attribute, original object from owner.__dict__)

    # -- installing and restoring ------------------------------------------------

    def install(self) -> None:
        import glie.fields

        for prefix, module, path, extra in TIMED:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._timed(prefix, original.__func__, extra))
                self._patch(owner, attr, wrapped)
            elif isinstance(owner, type):
                self._patch(owner, attr, self._timed(prefix, original, extra))
            else:
                wrapper = self._timed(prefix, original, extra)
                for mod in _glie_modules():
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapper)
        cls = glie.fields.FieldElement
        for attr in COUNTED_OPS:
            self._patch(cls, attr, _counted(cls.__dict__[attr], self.elem_ops))

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, prefix: str, fn, extra):
        name_id = len(self.names)
        self.names.append(prefix)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        extra_key, extract = (f"{prefix}.{extra[0]}", extra[1]) if extra else (None, None)
        if extra_key:
            counts[extra_key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if extra_key:
                counts[extra_key] += int(extract(args, result))
            return result

        return wrapper

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, total_s (outermost spans of each name) and self_s per layer,
        plus the extra counts and FieldElement operation count."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_s = [0.0] * n
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            duration = end - start
            calls[name_id] += 1
            self_s[name_id] += duration - child[idx]
            if not self._has_ancestor(parent, name_id):
                total[name_id] += duration
        out = {}
        for name_id, prefix in enumerate(self.names):
            out[f"{prefix}.calls"] = calls[name_id]
            out[f"{prefix}.total_s"] = total[name_id]
            out[f"{prefix}.self_s"] = self_s[name_id]
        out.update(self.counts)
        out["fields.elem_ops"] = self.elem_ops[0]
        return out

    def _has_ancestor(self, parent: int, name_id: int) -> bool:
        while parent >= 0:
            pname, _, _, parent_of_parent = self.spans[parent]
            if pname == name_id:
                return True
            parent = parent_of_parent
        return False

    def write_spans(self, path) -> None:
        """All spans as gzipped JSON: {"names": [...], "spans": [[name, start, end, parent]]}."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def derived_metrics(layers: dict) -> dict:
    """Ratios measured where the work happens, each over its stated base."""

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "identities.check_identity.evals_per_s": ratio(
            layers["identities.check_identity.evaluations"],
            layers["identities.check_identity.total_s"]),
        "freelie.expand_per_substitute": ratio(
            layers["freelie.expr_expand.calls"], layers["freelie.substitute.calls"]),
        "identities.span_rank_per_expand": ratio(
            layers["identities.consequence_span.rank"], layers["freelie.expr_expand.calls"]),
    }


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def _glie_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "glie" or name.startswith("glie."))]


def _counted(fn, counter):
    if fn.__code__.co_argcount == 1:
        def unary(self):
            counter[0] += 1
            return fn(self)
        return functools.wraps(fn)(unary)

    def binary(self, other):
        counter[0] += 1
        return fn(self, other)
    return functools.wraps(fn)(binary)
