"""Span recording around greenvar's layer boundaries, from outside the package.

``Tracer.install`` replaces each traced public function by a timing wrapper
in every greenvar module that looks it up (the defining module and every
module that imported the name), and ``Tracer.restore`` puts the originals
back.  A span carries a name, start, end, its parent span and the index of
the command that caused it.  Spans stay in memory until the run ends.

Layer metrics are self times: a span's duration minus the part of its
interval that its child spans cover.  The computed counts (products, table
bytes) follow from universe sizes alone, so they repeat exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections.abc import Callable
from typing import Any


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    attrs: dict[str, Any]


def _table_attrs(v: Any) -> dict:
    return {"built": v._table is None, "size": v.size, "n": v.n}


def _structure_size(witness_or_a: Any, **_: Any) -> dict:
    a = getattr(witness_or_a, "a", witness_or_a)
    from greenvar.elements import family_size

    return {"size": family_size("is", a.n)}


# (defining module, attribute, span name or a function of the call's
# arguments giving it, function of the arguments giving the span's attrs)
TARGETS: tuple[tuple[str, str, Any, Any], ...] = (
    ("greenvar.cli", "main", "cli.main", None),
    ("greenvar.elements", "enumerate_family", "elements.enumerate", None),
    ("greenvar.engine", "variant_semigroup", "engine.variant_semigroup", None),
    ("greenvar.engine", "VariantSemigroup.table", "engine.table", _table_attrs),
    ("greenvar.engine", "brute_classification", "engine.brute_classification", None),
    ("greenvar.engine", "green_classes_brute",
     lambda v, relation: f"engine.brute_{relation}", None),
    ("greenvar.engine", "verify_d_equals_j", "engine.d_equals_j", None),
    ("greenvar.engine", "all_egg_boxes", "engine.eggbox", None),
    ("greenvar.engine", "egg_box", "engine.eggbox", None),
    ("greenvar.closedform_is", "closed_classification_is", "closedform_is.classify", None),
    ("greenvar.closedform_t", "closed_classification_t", "closedform_t.classify", None),
    ("greenvar.closedform_is", "count_is_classes", "closedform_is.count", None),
    ("greenvar.closedform_t", "count_t_classes", "closedform_t.count", None),
    ("greenvar.structure", "dual_check", "structure.dual", _structure_size),
    ("greenvar.structure", "verify_isomorphism", "structure.iso_verify", _structure_size),
    ("greenvar.structure", "iso_preserves_classes", "structure.iso_classes", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             attrs: Callable[..., dict] | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(
                name if isinstance(name, str) else name(*args, **kwargs),
                0.0, 0.0,
                tracer._stack[-1] if tracer._stack else None,
                tracer.command,
                attrs(*args, **kwargs) if attrs else {},
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target where its callers look it up."""
        try:
            for module_name, attr, name, attrs in TARGETS:
                owner = sys.modules[module_name]
                if "." in attr:  # a method: patch the class
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    sites = [owner]
                else:
                    sites = [
                        m for key, m in sorted(sys.modules.items())
                        if key.split(".")[0] == "greenvar"
                        and getattr(m, attr, None) is getattr(owner, attr)
                    ]
                original = getattr(owner, attr)
                wrapped = self.wrap(original, name, attrs)
                for site in sites:
                    self._patches.append((site, attr, original))
                    setattr(site, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "elements.enumerate": "elements.enumerate_s",
    "engine.variant_semigroup": "engine.semigroup_s",
    "engine.table": "engine.table_s",
    **{f"engine.brute_{r}": f"engine.brute_{r}_s" for r in "rlhdj"},
    "engine.d_equals_j": "engine.d_equals_j_s",
    "engine.eggbox": "engine.eggbox_s",
    "closedform_is.classify": "closedform_is.classify_s",
    "closedform_t.classify": "closedform_t.classify_s",
    "closedform_is.count": "closedform_is.count_s",
    "closedform_t.count": "closedform_t.count_s",
    "structure.dual": "structure.dual_s",
    "structure.iso_verify": "structure.iso_verify_s",
    "structure.iso_classes": "structure.iso_classes_s",
    "cli.main": "cli.self_s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self times per layer and the counts recorded at the same boundaries."""
    out: dict[str, float] = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    out.update({
        "elements.enumerate_calls": 0,
        "engine.table_calls": 0,
        "engine.products": 0,
        "engine.table_bytes": 0,
        "structure.object_products": 0,
    })
    for span, own in zip(spans, self_times(spans)):
        metric = SELF_TIME_METRICS.get(span.name)
        if metric is not None:
            out[metric] += own
        if span.name == "elements.enumerate":
            out["elements.enumerate_calls"] += 1
        elif span.name == "engine.table" and span.attrs["built"]:
            s, n = span.attrs["size"], span.attrs["n"]
            out["engine.table_calls"] += 1
            out["engine.products"] += s * s
            # (s, s, n) int8 products, their int64 copy, and the int32 table
            out["engine.table_bytes"] += s * s * n * (1 + 8) + s * s * 4
        elif span.name == "structure.dual":
            out["structure.object_products"] += 2 * span.attrs["size"] ** 2
        elif span.name == "structure.iso_verify":
            out["structure.object_products"] += span.attrs["size"] ** 2
    return out
