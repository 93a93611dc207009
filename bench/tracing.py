"""Per-layer tracing from outside the program.

The tracer replaces the module attributes that the search loops, the
harness and the CLI look up at call time with timed wrappers, rebuilds
objectives around timed evaluate/contains, and wraps policies.  Every
wrapper is a span: its self time is its duration minus the time of the
spans it encloses, so the self times of all spans plus the benchmark's own
glue add up to the traced body.  Spans are aggregated in memory per
(parent, layer) edge and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

ROUND_SPAN = "bench.round"  # one operation of a round: the benchmark's own glue


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()  # (parent, layer) -> calls
        self.clones = 0
        self._stack: list[list] = []  # [layer, time of enclosed spans]

    def wrap(self, layer: str, fn, after=None):
        """fn inside a span named layer; after(args, result) runs inside it."""
        stack = self._stack
        self_s, calls, edges = self.self_s, self.calls, self.edges

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            stack.append([layer, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                dt = perf_counter() - t0
                _, enclosed = stack.pop()
                self_s[layer] += dt - enclosed
                calls[layer] += 1
                edges[(parent, layer)] += 1
                if stack:
                    stack[-1][1] += dt

        return traced

    def exclude(self, seconds: float) -> None:
        """Time spent inside the current span on the benchmark's own
        sampling: no span counts it as self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def count_clone(self, args, result) -> None:
        """After-hook for variation.apply: offspring equal to its parent."""
        if result.value == args[1].value:
            self.clones += 1

    def objective(self, obj):
        """The same objective with evaluate and target.contains in spans."""
        from parallel_ea.objectives.base import Objective, TargetSet

        t = obj.target
        target = TargetSet(
            kind=t.kind,
            contains=self.wrap("objectives.target", t.contains),
            size_bound=t.size_bound,
            description=t.description,
        )
        return Objective(
            name=obj.name,
            n=obj.n,
            evaluate=self.wrap("objectives.evaluate", obj.evaluate),
            target=target,
            direction=obj.direction,
            metadata=obj.metadata,
        )

    @contextlib.contextmanager
    def installed(self):
        """Replace the program's module attributes with spans; restore on exit."""
        from parallel_ea import algorithms, harness, variation
        from parallel_ea.theory import lemmas

        def build_traced(*args, **kwargs):
            return self.objective(make_objective(*args, **kwargs))

        make_objective = harness.make_objective
        patches = [
            (algorithms, "apply", self.wrap("variation.apply", algorithms.apply, self.count_clone)),
            (variation, "apply", self.wrap("variation.apply", variation.apply, self.count_clone)),
            (algorithms, "mirrored", self.wrap("variation.mirrored", algorithms.mirrored)),
            (algorithms, "random_bitstring",
             self.wrap("bitstring.random_bitstring", algorithms.random_bitstring)),
            (harness, "make_objective", self.wrap("objectives.build", build_traced)),
            (lemmas, "delta0_point_log_prob",
             self.wrap("theory.pmf_log", lemmas.delta0_point_log_prob)),
        ]
        for module in (algorithms, harness):
            for fn in ("run_one_plus_lambda", "run_rls", "run_generic_parallel"):
                if hasattr(module, fn):
                    patches.append((module, fn, self.wrap("algorithms.run", getattr(module, fn))))
        for lemma, fn in LEMMAS.items():
            patches.append((lemmas, fn, self.wrap(f"theory.{lemma}", getattr(lemmas, fn))))
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "clones": self.clones,
            "edges": [[p, c, k] for (p, c), k in sorted(self.edges.items(), key=str)],
        }


LEMMAS = {
    "hypergeom-tail": "verify_hypergeom_tail",
    "chvatal": "verify_chvatal",
    "mgf": "verify_mgf_bound",
    "multibit": "verify_multibit_progress",
}
