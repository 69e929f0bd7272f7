"""Per-layer tracing of arrgraph from outside the package.

The tracer wraps the public functions of each layer module (plus a few
public methods named in METHODS) and rebinds every name in every
``arrgraph`` module that refers to a wrapped function, so calls made from
inside the package are traced too. Nothing in the package itself changes:
``install`` swaps the bindings in and ``uninstall`` restores the originals.

Each wrapped call is a span. A span's self time is its duration minus the
time covered by its child spans, so the self times of all spans add up to
the time spent inside the package.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "arrgraph"
LAYERS = ("graphs", "graphio", "autsearch", "perms", "indsets", "actions", "suite")

# Public methods traced as their own spans. Permutation methods are left
# out on purpose: they run millions of times per search, and wrapping them
# would make the wrapper's own cost the largest thing measured.
METHODS = {"graphs": ("Graph.relabeled",), "perms": ("StabilizerChain.contains",)}

# Public tuple helpers that run once per vertex or per vertex pair (the
# construction of A(8,4,4) calls differing_coordinates 1.4M times). A span around
# each would cost more than the helper, so they stay unwrapped and their
# time counts in their caller's self time.
LEAF_HELPERS = {
    "graphs": {"validate_tuple", "tuple_count", "rank_tuple", "unrank_tuple",
               "differing_coordinates", "apply_value_permutation",
               "apply_position_permutation", "invert_tuple",
               "tuple_to_permutation", "permutation_to_tuple"},
}


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class _Target:
    key: str          # "<layer>.<name>" or "<layer>.<Class>.<method>"
    layer: str
    original: object
    cls: type | None = None
    attr: str = ""


class Tracer:
    """Wraps the public API of the package's layer modules with span timers."""

    def __init__(self):
        self.targets = self._find_targets()
        self._rebound: list[tuple[object, str, object]] = []
        self.reset()

    # -- what gets wrapped

    def _package_modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _find_targets(self) -> list[_Target]:
        targets = []
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:  # a layer the package no longer has reports zeros
                continue
            for name, value in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__
                        and name not in LEAF_HELPERS.get(layer, ())):
                    targets.append(_Target(f"{layer}.{name}", layer, value))
            for qualname in METHODS.get(layer, ()):
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and attr in vars(cls):
                    targets.append(_Target(f"{layer}.{qualname}", layer,
                                           vars(cls)[attr], cls, attr))
        return targets

    # -- recorded data

    def reset(self) -> None:
        self.functions = {t.key: FunctionStats() for t in self.targets}
        self.layer_self_s = {layer: 0.0 for layer in LAYERS}
        self.layer_errors = {layer: 0 for layer in LAYERS}
        self.generators = 0
        self.strong_generators = 0
        self.aut_calls = 0
        self.certificates: set[bytes] = set()
        self._stack: list[float] = []

    def _record_aut_result(self, result) -> None:
        self.aut_calls += 1
        self.generators += len(result.generators)
        self.strong_generators += len(result.chain.strong_generators())
        self.certificates.add(result.certificate)

    # -- the span wrapper

    def _wrap(self, target: _Target):
        stats = self.functions[target.key]
        layer = target.layer
        fn = target.original
        on_result = (self._record_aut_result
                     if target.key == "autsearch.automorphism_group" else None)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, in the innermost layer it leaves
                if not getattr(exc, "_perfbench_counted", False):
                    self.layer_errors[layer] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls += 1
                stats.self_s += duration - child
                stats.total_s += duration
                self.layer_self_s[layer] += duration - child
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- binding

    def install(self) -> list[str]:
        """Rebind every reference to a wrapped function; return the names of
        references that still point at an original afterwards (empty when
        coverage is complete)."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        self._stack.clear()
        by_id = {}
        for target in self.targets:
            wrapper = self._wrap(target)
            if target.cls is not None:
                self._rebind(target.cls, target.attr, wrapper)
            else:
                by_id[id(target.original)] = (target.original, wrapper)
        for module in self._package_modules():
            for name, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, name, hit[1])
        return self.unbound_references()

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._rebound.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()

    def unbound_references(self) -> list[str]:
        originals = {id(t.original): t for t in self.targets}
        missed = []
        for module in self._package_modules():
            namespaces = [(module.__name__, vars(module))]
            namespaces += [(f"{module.__name__}.{v.__name__}", vars(v))
                           for v in vars(module).values()
                           if isinstance(v, type) and v.__module__ == module.__name__]
            for where, namespace in namespaces:
                for name, value in namespace.items():
                    target = originals.get(id(value))
                    if target is not None and target.original is value:
                        missed.append(f"{where}.{name}")
        return missed
