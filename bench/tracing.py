"""In-memory span tracer for the benchmark's traced run.

The tracer rebinds public entry points of the package with wrappers that
record one span per call (name, start, end, parent span) plus counters, and
restores the originals afterwards.  Nothing inside the package changes: the
wrappers sit at the layer boundaries the benchmark calls through.

A span's self time is its duration minus the time covered by its child
spans.  Calls are single-threaded and nest, so the covered time is the sum
of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

_clock = time.perf_counter_ns

# Spans that build a ring.  Element multiplications inside them are ring
# construction, not criterion search.
_RING_BUILDS = ("bundles.projective_ring", "bundles.q_tilde_ring",
                "bundles.grassmann_ring", "bundles.feder_ring")


class Tracer:
    """Spans in columnar arrays, self time per name, and named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.build_depth = 0
        self._stack: list[list[int]] = []  # [span id, name id, start, child ns]
        self._restore: list[tuple[object, str, object]] = []
        self.rebind_sites: dict[str, list[str]] = defaultdict(list)

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Call fn inside a span named ``name`` and return its result."""
        nid = self._name_id(name)
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0)
        self.counts[name + ".calls"] += 1
        build = name in _RING_BUILDS
        self.build_depth += build
        frame = [sid, nid, _clock(), 0]
        self.span_start.append(frame[2])
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            self.build_depth -= build
            self.span_end[sid] = end
            duration = end - frame[2]
            self.self_ns[name] += duration - frame[3]
            self.total_ns[name] += duration
            if self._stack:
                self._stack[-1][3] += duration

    def in_span(self, name: str) -> bool:
        nid = self._name_ids.get(name)
        return nid is not None and any(f[1] == nid for f in self._stack)

    # -- rebinding -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """A traced stand-in for fn; ``before(args)`` and ``after(args,
        result)`` update counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            result = tracer.span(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def rebind_method(self, name: str, cls: type, attr: str, wrapper: Callable) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)
        self.rebind_sites[name].append(f"{cls.__module__}.{cls.__name__}")

    def rebind_function(self, name: str, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every loaded module of its package that
        holds it, under whatever attribute name."""
        package = original.__module__.split(".")[0]
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    self.rebind_sites[name].append(f"{mod_name}.{attr}")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (times in ns from the first span) and the counters
        as gzipped JSON."""
        t0 = self.span_start[0] if self.span_start else 0
        doc = {
            "meta": meta,
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "span_start_ns": [s - t0 for s in self.span_start],
            "span_end_ns": [e - t0 for e in self.span_end],
            "counts": dict(self.counts),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def instrument(tracer: Tracer) -> None:
    """Rebind the package's layer entry points to traced wrappers.

    Methods are replaced on their class; module functions in every module of
    the package that holds them, so that calls between modules (for example
    ``grassmann_ring`` called from ``bundles.feder_ring`` and from
    ``obstruct``) are traced too.  Planner rules are traced by rebuilding the
    ``Planner`` that ``build_sphere_planner`` returns from wrapped rules.
    """
    from tcbundles import bundles, cli, geomplan, obstruct, polyalg, ringquot

    counts = tracer.counts

    def add(key: str, amount: int) -> None:
        counts[key] += amount

    def search_mul(_args) -> None:
        if tracer.build_depth == 0 and tracer.in_span("cli.run_criteria"):
            counts["cli.search.element_mul"] += 1

    def k_reached(_args, results) -> None:
        add("cli.search.k_reached",
            sum(r.min_k if r.found else r.min_k.k_max for r in results))

    methods = [
        ("polyalg.mul", polyalg.Polynomial, "__mul__", None, None),
        ("polyalg.pow", polyalg.Polynomial, "__pow__", None, None),
        ("ringquot.complete", ringquot.Presentation, "complete",
         lambda a: add("ringquot.complete.relations_in", len(a[0].relations)),
         lambda a, r: add("ringquot.complete.basis_out", len(r.relations))),
        ("ringquot.normal_form", ringquot.Presentation, "normal_form",
         lambda a: add("ringquot.normal_form.terms_in", len(a[1].terms)), None),
        ("ringquot.standard_monomials", ringquot.Presentation, "standard_monomials",
         None, None),
        ("ringquot.element_mul", ringquot.Element, "__mul__", search_mul, None),
        ("ringquot.element_pow", ringquot.Element, "__pow__",
         lambda a: add("ringquot.element_pow.exponent_sum", a[1]), None),
    ]
    for name, cls, attr, before, after in methods:
        tracer.rebind_method(name, cls, attr,
                             tracer.wrap(name, cls.__dict__[attr], before, after))

    functions = [
        (f"bundles.{f.__name__}", f, None)
        for f in (bundles.projective_ring, bundles.q_tilde_ring,
                  bundles.grassmann_ring, bundles.feder_ring)
    ] + [
        (f"obstruct.{f.__name__}", f, None)
        for f in (obstruct.gysin_equivalence_check, obstruct.sphere_divisibility_test,
                  obstruct.symm_sphere_test, obstruct.symm_proj_test)
    ] + [
        ("cli.run_criteria", cli.run_criteria, k_reached),
        ("geomplan.verify_planner", geomplan.verify_planner, None),
    ]
    for name, fn, after in functions:
        tracer.rebind_function(name, fn, tracer.wrap(name, fn, None, after))

    build = geomplan.build_sphere_planner

    @functools.wraps(build)
    def traced_build(*args, **kwargs):
        planner = tracer.span("geomplan.build_sphere_planner", build, args, kwargs)
        rules = tuple(
            geomplan.PlannerRule(rule.name,
                                 tracer.wrap("geomplan.accepts", rule.accepts),
                                 tracer.wrap("geomplan.path", rule.path))
            for rule in planner.rules
        )
        return geomplan.Planner(planner.n, rules, planner.lipschitz)

    tracer.rebind_function("geomplan.build_sphere_planner", build, traced_build)
