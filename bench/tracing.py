"""Runtime tracing of ergoarrays from the outside.

Wrappers are installed around public layer entries for the duration of a
traced round and removed afterwards, so plain rounds run unmodified code.
Entries listed as spans are recorded with name, start, end and parent;
high-frequency leaf calls are only aggregated into per-experiment counters
(calls, inclusive time, self time), which keeps memory bounded.  Self time
is a call's duration minus the time its wrapped callees cover.

A wrapped function is also replaced under every name another ergoarrays
module imported it as (``averages.ordered_map`` as well as
``util.ordered_map``).  A target that a refactor removed is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Fraction operators counted as fractions.ops (reflected forms included).
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)

SYSTEM_CLASSES = (
    "CyclicRotation", "CircleRotation", "BernoulliShift", "MarkovShift",
    "CyclicLattice", "BernoulliLattice", "RelabeledSystem",
)
# the systems that also act by vectors (lattice actions)
VECTOR_CLASSES = ("CyclicRotation", "BernoulliShift", "MarkovShift", "CyclicLattice", "BernoulliLattice")


@dataclass(frozen=True)
class Target:
    """``path`` is "module:attr" or "module:Class.attr"; ``name`` is the
    layer metric it feeds; ``span`` records it as a span (else a leaf);
    ``observe(args, kwargs, result, sums)`` adds computed quantities."""

    path: str
    name: str
    span: bool = False
    observe: Callable | None = None


def _empty_result(args, kwargs, result, sums):
    if result.is_empty():
        sums["sets.intersect_empty"] = sums.get("sets.intersect_empty", 0) + 1


def _system_size(args, kwargs, result, sums):
    size = len(args[0])
    sums["pet.max_system_size"] = max(sums.get("pet.max_system_size", 0), size)


def _subset_pairs(args, kwargs, result, sums):
    states = len(args[0].matrix)
    sums["mixing.subset_pairs"] = sums.get("mixing.subset_pairs", 0) + (2**states - 1) ** 2


def _bits_scanned(args, kwargs, result, sums):
    s, spec, N = args[0], args[1], args[2]
    bits = (N + 1) * len(spec.pairs) * (s.hi - s.lo)
    sums["szemeredi.bits_scanned"] = sums.get("szemeredi.bits_scanned", 0) + bits


def default_targets() -> list[Target]:
    t = [
        Target("ergoarrays.sets:ArcUnion.intersect", "sets.intersect", observe=_empty_result),
        Target("ergoarrays.sets:CylinderUnion.intersect", "sets.intersect", observe=_empty_result),
        Target("ergoarrays.sets:FiniteSubset.intersect", "sets.intersect", observe=_empty_result),
        Target("ergoarrays.sets:ArcUnion.measure", "sets.measure"),
        Target("ergoarrays.systems:MarkovShift.power", "systems.power"),
        Target("ergoarrays.mixing:MarkovChainModel.power", "systems.power"),
        Target("ergoarrays.averages:l2_distance_exact", "averages.l2_distance_exact", span=True),
        Target("ergoarrays.averages:commuting_average", "averages.commuting_average", span=True),
        Target("ergoarrays.averages:convergence_sweep", "averages.convergence_sweep", span=True),
        Target("ergoarrays.averages:vdc_correlations", "averages.vdc_correlations", span=True),
        Target("ergoarrays.averages:_Engine.inner", "averages.inner"),
        Target("ergoarrays.averages:_fast_indicator_pairs", "averages.fast_indicator_pairs"),
        Target("ergoarrays.util:ordered_map", "util.ordered_map", span=True),
        Target("ergoarrays.intpoly:IntPoly2.eval", "intpoly.eval"),
        Target("ergoarrays.intpoly:IntPoly2.parse", "intpoly.parse"),
        Target("ergoarrays.intpoly:IntPoly2.from_coeffs", "intpoly.from_coeffs"),
        Target("ergoarrays.intpoly:count_small_values", "intpoly.count_small_values", span=True),
        Target("ergoarrays.intpoly:minimal_distinct_shift", "intpoly.minimal_distinct_shift", span=True),
        Target("ergoarrays.recurrence:recurrence_series", "recurrence.recurrence_series", span=True),
        Target("ergoarrays.recurrence:commuting_recurrence_series", "recurrence.commuting_recurrence_series", span=True),
        Target("ergoarrays.recurrence:detect_syndetic", "recurrence.detect_syndetic", span=True),
        Target("ergoarrays.recurrence:extract_syndetic_from_grid", "recurrence.extract_syndetic_from_grid", span=True),
        Target("ergoarrays.pet:pet_trace", "pet.pet_trace", span=True),
        Target("ergoarrays.pet:reduce_step", "pet.reduce_step", observe=_system_size),
        Target("ergoarrays.pet:PExpr.mul", "pet.expr_mul"),
        Target("ergoarrays.mixing:alpha_coefficient", "mixing.alpha", observe=_subset_pairs),
        Target("ergoarrays.mixing:joint_measure", "mixing.joint_measure"),
        Target("ergoarrays.mixing:higher_mixing_gap", "mixing.higher_mixing_gap", span=True),
        Target("ergoarrays.mixing:mixing_inequality_check", "mixing.mixing_inequality_check", span=True),
        Target("ergoarrays.szemeredi:pattern_count", "szemeredi.pattern_count", observe=_bits_scanned),
        Target("ergoarrays.szemeredi:syndetic_pattern_report", "szemeredi.syndetic_pattern_report", span=True),
        Target("ergoarrays.szemeredi:lattice_pattern_count", "szemeredi.lattice"),
        Target("ergoarrays.szemeredi:upper_density", "szemeredi.density", span=True),
        Target("ergoarrays.szemeredi:empirical_cylinder_measure", "szemeredi.density", span=True),
        Target("ergoarrays.cli:main", "cli.main", span=True),
    ]
    for cls in ("from_members", "from_residue", "from_random", "from_text"):
        t.append(Target(f"ergoarrays.szemeredi:IntegerSet.{cls}", "szemeredi.set_build"))
    for cls in SYSTEM_CLASSES:
        t.append(Target(f"ergoarrays.systems:{cls}.preimage", "systems.preimage"))
        t.append(Target(f"ergoarrays.systems:{cls}.measure", "systems.measure"))
    for cls in VECTOR_CLASSES:
        t.append(Target(f"ergoarrays.systems:{cls}.translate_preimage", "systems.preimage"))
    return t


class _Frame:
    __slots__ = ("child", "span", "ctx")

    def __init__(self, span, ctx):
        self.child = 0.0
        self.span = span
        self.ctx = ctx


class Tracer:
    """Installs wrappers, keeps spans in memory and per-experiment counters.

    Counters live in one dict per thread (the CLI's thread pool calls
    wrapped code from worker threads), merged when an experiment ends, so
    counts stay exact.  Fraction operators are counted with an
    ``itertools.count``, whose increment is atomic.
    """

    def __init__(self):
        self.targets = default_targets()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counters: list[dict] = []
        self._fork_span: int | None = None
        self._fops = itertools.count()
        self._fops_base = 0

    # -- per-thread state ------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            counters: dict = {}
            st = ([_Frame(self._fork_span, "worker")], counters)
            self._local.state = st
            with self._lock:
                self._thread_counters.append(counters)
        return st

    # -- experiment boundaries -------------------------------------------------

    def begin(self, name: str) -> None:
        stack, _ = self._state()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([f"experiment:{name}", time.perf_counter(), None, None])
        stack.append(_Frame(idx, f"experiment:{name}"))
        self._fops_base = next(self._fops)

    def end(self) -> dict:
        """Close the experiment span; return and reset its counters."""
        stack, _ = self._state()
        frame = stack.pop()
        self.spans[frame.span][2] = time.perf_counter()
        merged: dict = {}
        with self._lock:
            for counters in self._thread_counters:
                for key, val in counters.items():
                    if isinstance(val, list):
                        acc = merged.setdefault(key, [0, 0.0, 0.0])
                        for i in range(3):
                            acc[i] += val[i]
                    elif key == "pet.max_system_size":
                        merged[key] = max(merged.get(key, 0), val)
                    else:
                        merged[key] = merged.get(key, 0) + val
                counters.clear()
            # the pool's worker threads have exited; keep this thread's dict
            self._thread_counters = [self._state()[1]]
        # each read of the count consumes one value: the one at begin()
        merged["fractions.ops"] = next(self._fops) - self._fops_base - 1
        return merged

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            self._install_one(target)
        for op in FRACTION_OPS:
            orig = Fraction.__dict__[op]
            self._patches.append((Fraction, op, orig))
            setattr(Fraction, op, _counting(orig, self))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _install_one(self, target: Target) -> None:
        mod_name, _, attr_path = target.path.partition(":")
        module = sys.modules.get(mod_name)
        owner = module
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        raw = None if owner is None else vars(owner).get(attr)
        if raw is None:
            if target.path not in self.absent:
                self.absent.append(target.path)
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, target))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if owner is module:
            # the same function imported under its name into other modules
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith("ergoarrays"):
                    continue
                if vars(other).get(attr) is raw:
                    self._patches.append((other, attr, raw))
                    setattr(other, attr, wrapped)

    def _wrap(self, fn, target: Target):
        tracer = self
        name, observe, is_span = target.name, target.observe, target.span
        fork = name == "util.ordered_map"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack, counters = tracer._state()
            parent = stack[-1]
            idx = None
            if is_span:
                with tracer._lock:
                    idx = len(tracer.spans)
                    tracer.spans.append([name, None, None, parent.span])
                frame = _Frame(idx, name)
            else:
                frame = _Frame(parent.span, parent.ctx)
            stack.append(frame)
            saved_fork = tracer._fork_span
            if fork:
                tracer._fork_span = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = f"{name}.raised.{type(exc).__name__}"
                counters[key] = counters.get(key, 0) + 1
                raise
            finally:
                t1 = clock()
                tracer._fork_span = saved_fork
                stack.pop()
                dur = t1 - t0
                parent.child += dur
                acc = counters.get(name)
                if acc is None:
                    acc = counters[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame.child
                ctx_key = f"{name}@{parent.ctx}"
                counters[ctx_key] = counters.get(ctx_key, 0) + 1
                if idx is not None:
                    tracer.spans[idx][1] = t0
                    tracer.spans[idx][2] = t1
            if observe is not None:
                observe(args, kwargs, result, counters)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def _counting(orig, tracer: Tracer):
    def op(a, b):
        next(tracer._fops)
        return orig(a, b)

    op.__name__ = orig.__name__
    return op
