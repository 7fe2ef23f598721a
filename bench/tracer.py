"""Span and count wrappers around rwre's layers, installed from outside.

A ``Tracer`` replaces each traced function on every name binding inside the
``rwre`` package (a function imported by name into another module is a
second binding), records one span per call, and restores the originals on
``uninstall``.  Spans are aggregated as they close: calls, total time and
self time (duration minus the time covered by child spans) per span name,
plus call counts per (parent span, span) pair.  Those pair counts let
``identity_failures`` check that no binding was missed.

What is wrapped:

* every public function of ``clocks``, ``walk``, ``regen``, ``quenched``,
  ``experiments``, ``stats``, ``env`` and ``cli``, as a span;
* ``clocks._simulate``, the engine every walk runs in, as a span;
* the samplers ``env.make_weight_sampler`` returns, as ``env.sampler`` spans;
* ``streams.child_digest``, ``clock_init_block`` and
  ``clock_advance_block`` as spans, and ``streams.uniforms_from`` and
  ``vertex_digest`` as counts only (they sit under the other spans).

``WorkCounter`` is the end-to-end run's instrument: it counts a pass's work
through four public entry points and checks nothing about internals.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple

SPAN_MODULES = ("clocks", "walk", "regen", "quenched", "experiments",
                "stats", "env", "cli")
STREAM_SPANS = ("child_digest", "clock_init_block", "clock_advance_block")
STREAM_COUNTS = ("uniforms_from", "vertex_digest")
ENGINE = "clocks._simulate"
# Callers that run the engine without going through run_walk/run_extension.
DIRECT_ENGINE_CALLERS = ("clocks.independence_check", "walk.escape_probability")
KEEP_DURATIONS = ("walk.run_walk", "quenched.beta_root")
CAPTURE_DIGESTS = 2048


def patch_bindings(replace: Dict[int, Tuple[object, Callable]]) -> list:
    """Rebind every name in the ``rwre`` package that refers to a function
    keyed (by id) in ``replace`` to its wrapper; returns what to restore."""
    restore = []
    for modname, mod in list(sys.modules.items()):
        if modname != "rwre" and not modname.startswith("rwre."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    return restore


def restore_bindings(restore: list) -> None:
    for mod, attr, original in reversed(restore):
        setattr(mod, attr, original)
    restore.clear()


def ladder_nodes(bv, args, kwargs) -> int:
    """Weight nodes of the full ladder ``beta_root(spec, ...)`` returned."""
    b = (args[0] if args else kwargs["spec"]).b
    return (b ** bv.depth - 1) // (b - 1) if b > 1 else bv.depth


class WorkCounter:
    """Exact work of one pass, counted through public entry points only, so
    that end-to-end figures do not depend on the internals ``Tracer`` wraps.

    ``walk_steps`` sums the steps of the walks ``run_walk`` returns;
    ``runs`` counts ``run_walk`` and ``run_extension`` calls plus the two
    extensions of every ``independence_check`` trial; ``ladder_nodes``
    sums the full-tree weight nodes of the depths ``beta_root`` returns.
    """

    def __init__(self):
        self.walk_steps = 0
        self.runs = 0
        self.ladder_nodes = 0
        self._restore: list = []

    def _counted(self, fn: Callable, on_result: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result, args, kwargs)
            return result

        return wrapper

    def _walk(self, traj, args, kwargs):
        self.walk_steps += traj.steps_taken
        self.runs += 1

    def _extension(self, traj, args, kwargs):
        self.runs += 1

    def _independence(self, report, args, kwargs):
        self.runs += 2 * report.trials

    def _beta_root(self, bv, args, kwargs):
        self.ladder_nodes += ladder_nodes(bv, args, kwargs)

    def install(self) -> None:
        from rwre import clocks, quenched, walk

        hooks = ((walk.run_walk, self._walk),
                 (clocks.run_extension, self._extension),
                 (clocks.independence_check, self._independence),
                 (quenched.beta_root, self._beta_root))
        self._restore = patch_bindings(
            {id(fn): (fn, self._counted(fn, on)) for fn, on in hooks})

    def uninstall(self) -> None:
        restore_bindings(self._restore)


class Tracer:
    """One traced pass: install, run the pass, uninstall, then read."""

    def __init__(self):
        self._stack: List[list] = []      # frames: [name, group, child_s]
        self.spans: Dict[str, List[float]] = {}   # name -> [calls, total, self]
        self.outer: Counter = Counter()   # group -> time in its outermost spans
        self.pairs: Counter = Counter()   # (parent, name) -> calls
        self.durations: Dict[str, List[float]] = {n: [] for n in KEEP_DURATIONS}
        self.engine_steps: Counter = Counter()   # parent span -> engine steps
        self.engine_runs = 0
        self.fresh = 0
        self.stop_reasons: Counter = Counter()
        self.truncated = 0
        self.trajectory_steps = 0
        self.depths: List[int] = []
        self.ladder_nodes = 0
        self.nonconverged = 0
        self.regen_steps = 0
        self.harvest_walks = 0
        self.harvest_gaps = 0
        self.independence_trials = 0
        self.digests: List[bytes] = []
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, group: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        outer = self.outer
        pairs = self.pairs
        keep = self.durations.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, group, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if parent is None:
                    outer[group] += dur
                    pairs[(None, name)] += 1
                else:
                    parent[2] += dur
                    if parent[1] != group:
                        outer[group] += dur
                    pairs[(parent[0], name)] += 1
                if keep is not None:
                    keep.append(dur)
            if after is not None:
                after(result, parent[0] if parent else None, args, kwargs)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        pairs = self.pairs

        def wrapper(*args, **kwargs):
            pairs[(stack[-1][0] if stack else None, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sampler_factory(self, factory: Callable) -> Callable:
        span = self._span

        def make_weight_sampler(*args, **kwargs):
            return span("env.sampler", "env", factory(*args, **kwargs))

        return make_weight_sampler

    # -- per-call hooks ---------------------------------------------------

    def _after_engine(self, run, parent, args, kwargs):
        self.engine_steps[parent] += run.steps_taken
        self.engine_runs += 1
        self.fresh += len(run.fresh)
        self.stop_reasons[run.stop_reason] += 1
        self.truncated += bool(run.truncated)

    def _after_trajectory(self, traj, parent, args, kwargs):
        self.trajectory_steps += traj.steps_taken

    def _after_beta_root(self, bv, parent, args, kwargs):
        self.depths.append(bv.depth)
        self.ladder_nodes += ladder_nodes(bv, args, kwargs)

    def _after_converged(self, ok, parent, args, kwargs):
        self.nonconverged += not ok

    def _after_regen(self, records, parent, args, kwargs):
        self.regen_steps += len((args[0] if args else kwargs["traj"]).levels) - 1

    def _after_harvest(self, h, parent, args, kwargs):
        self.harvest_walks += h.walks
        self.harvest_gaps += len(h.gaps)

    def _after_independence(self, report, parent, args, kwargs):
        self.independence_trials += report.trials

    def _after_child_digest(self, digest, parent, args, kwargs):
        if len(self.digests) < CAPTURE_DIGESTS:
            self.digests.append(digest)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        import rwre.cli  # noqa: F401  (loads every module that is traced)
        from rwre import streams

        hooks = {
            ENGINE: self._after_engine,
            "walk.run_walk": self._after_trajectory,
            "clocks.run_extension": self._after_trajectory,
            "quenched.beta_root": self._after_beta_root,
            "quenched.effectively_converged": self._after_converged,
            "regen.detect_regenerations": self._after_regen,
            "experiments.harvest_gaps": self._after_harvest,
            "clocks.independence_check": self._after_independence,
            "streams.child_digest": self._after_child_digest,
        }
        replace: Dict[int, Tuple[object, Callable]] = {}

        def add(fn, wrapper):
            replace[id(fn)] = (fn, wrapper)

        for short in SPAN_MODULES:
            mod = sys.modules[f"rwre.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (not isinstance(fn, FunctionType) or attr.startswith("_")
                        or fn.__module__ != mod.__name__):
                    continue
                if (short, attr) == ("env", "make_weight_sampler"):
                    add(fn, self._sampler_factory(fn))
                else:
                    name = f"{short}.{attr}"
                    add(fn, self._span(name, short, fn, hooks.get(name)))
        clocks = sys.modules["rwre.clocks"]
        add(clocks._simulate,
            self._span(ENGINE, "clocks", clocks._simulate, hooks[ENGINE]))
        for attr in STREAM_SPANS:
            name = f"streams.{attr}"
            fn = getattr(streams, attr)
            add(fn, self._span(name, "streams", fn, hooks.get(name)))
        for attr in STREAM_COUNTS:
            fn = getattr(streams, attr)
            add(fn, self._count(f"streams.{attr}", fn))

        self._restore = patch_bindings(replace)

    def uninstall(self) -> None:
        restore_bindings(self._restore)

    # -- reading ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0,))[0])

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def pair_calls(self, parent: Optional[str], name: str) -> int:
        return self.pairs[(parent, name)]

    def name_calls(self, name: str) -> int:
        return sum(c for (_, n), c in self.pairs.items() if n == name)

    @property
    def steps(self) -> int:
        return sum(self.engine_steps.values())

    @property
    def weight_blocks(self) -> int:
        return self.pair_calls("env.sampler", "streams.uniforms_from")

    @property
    def weight_nodes(self) -> int:
        return self.pair_calls("quenched.beta_root", "env.sampler")

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly from one pass to the next."""
        return {
            "spans": {n: int(v[0]) for n, v in sorted(self.spans.items())},
            "pairs": sorted((str(p), n, c) for (p, n), c in self.pairs.items()),
            "engine_steps": dict(self.engine_steps),
            "engine_runs": self.engine_runs,
            "fresh": self.fresh,
            "stop_reasons": dict(self.stop_reasons),
            "truncated": self.truncated,
            "depths": list(self.depths),
            "nonconverged": self.nonconverged,
            "regen_steps": self.regen_steps,
            "harvest": (self.harvest_walks, self.harvest_gaps),
            "independence_trials": self.independence_trials,
        }

    def identity_failures(self) -> List[str]:
        """Wrapper-completeness identities; each failure names a missed
        binding or an uncounted path."""
        out = []
        uniforms = self.name_calls("streams.uniforms_from")
        blocks = (self.calls("streams.clock_init_block")
                  + self.calls("streams.clock_advance_block")
                  + self.weight_blocks)
        if uniforms != blocks:
            out.append(f"streams.uniforms_from.calls {uniforms} != clock_init "
                       f"+ clock_advance + weight blocks {blocks}")
        returned = self.trajectory_steps + sum(
            self.engine_steps[c] for c in DIRECT_ENGINE_CALLERS)
        if self.steps != returned:
            out.append(f"engine.steps {self.steps} != steps of returned "
                       f"trajectories and direct engine runs {returned}")
        in_engine = self.pair_calls(ENGINE, "streams.child_digest")
        if in_engine != self.fresh - self.engine_runs:
            out.append(f"child_digest calls in the engine {in_engine} != fresh "
                       f"non-anchor vertices {self.fresh - self.engine_runs}")
        if self.weight_nodes != self.ladder_nodes:
            out.append(f"sampler calls in beta_root {self.weight_nodes} != "
                       f"ladder weight nodes {self.ladder_nodes}")
        return out


ENGINE_SPANS = ("walk.run_walk", "clocks.run_extension", ENGINE)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ref: Tracer, traced: List[Tracer], wall_s: float,
                  traced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one workload.

    Counts come from ``ref`` (every traced pass repeats them exactly);
    span times are pooled over the ``traced`` passes; rates divide exact
    counts by ``wall_s``, the fastest untraced pass time.
    """
    import numpy as np

    def pooled(f) -> float:
        return sum(f(t) for t in traced)

    def per_pass(f) -> float:
        return pooled(f) / len(traced)

    def per_call_us(name: str) -> float:
        return 1e6 * _ratio(pooled(lambda t: t.total(name)),
                            pooled(lambda t: t.calls(name)))

    def percentile_us(name: str, q: float) -> float:
        xs = [d for t in traced for d in t.durations[name]]
        return 1e6 * float(np.percentile(xs, q)) if xs else 0.0

    steps = ref.steps
    samples = ref.calls("env.sampler")
    return {
        "streams.child_digest.calls": ref.calls("streams.child_digest"),
        "streams.clock_init_block.calls": ref.calls("streams.clock_init_block"),
        "streams.clock_advance_block.calls":
            ref.calls("streams.clock_advance_block"),
        "streams.uniforms_from.calls": ref.name_calls("streams.uniforms_from"),
        "streams.weight_blocks.calls": ref.weight_blocks,
        "streams.vertex_digest.calls": ref.name_calls("streams.vertex_digest"),
        "env.sampler.calls": samples,
        "env.sampler.span_us": per_call_us("env.sampler"),
        "env.blocks_per_vector": _ratio(ref.weight_blocks, samples),
        "engine.runs": ref.engine_runs,
        "engine.steps": steps,
        "engine.fresh_vertices": ref.fresh,
        "engine.fresh_per_step": _ratio(ref.fresh, steps),
        "engine.stop_reasons.level": ref.stop_reasons["level"],
        "engine.stop_reasons.steps": ref.stop_reasons["steps"],
        "engine.stop_reasons.sentinel": ref.stop_reasons["sentinel"],
        "engine.truncated_runs": ref.truncated,
        "engine.self_us_per_step": 1e6 * _ratio(
            pooled(lambda t: sum(t.self_time(n) for n in ENGINE_SPANS)),
            pooled(lambda t: t.steps)),
        "walk.run_walk.calls": ref.calls("walk.run_walk"),
        "walk.run_walk.p50_us": percentile_us("walk.run_walk", 50),
        "walk.run_walk.p99_us": percentile_us("walk.run_walk", 99),
        "clocks.run_extension.calls": ref.calls("clocks.run_extension"),
        "clocks.independence_check.us_per_trial": 1e6 * _ratio(
            pooled(lambda t: t.total("clocks.independence_check")),
            pooled(lambda t: t.independence_trials)),
        "quenched.beta_root.calls": ref.calls("quenched.beta_root"),
        "quenched.beta_root.p50_us": percentile_us("quenched.beta_root", 50),
        "quenched.beta_root.p99_us": percentile_us("quenched.beta_root", 99),
        "quenched.weight_nodes": ref.weight_nodes,
        "quenched.depth_mean": _ratio(sum(ref.depths), len(ref.depths)),
        "quenched.depth_max": max(ref.depths, default=0),
        "quenched.nonconverged": ref.nonconverged,
        "quenched.nodes_per_s": _ratio(ref.weight_nodes, wall_s),
        "quenched.sweep_s": per_pass(lambda t: t.self_time("quenched.beta_root")),
        "regen.detect_regenerations.calls":
            ref.calls("regen.detect_regenerations"),
        "regen.detect_regenerations.us_per_kstep": 1e9 * _ratio(
            pooled(lambda t: t.total("regen.detect_regenerations")),
            pooled(lambda t: t.regen_steps)),
        "experiments.harvest_gaps.walks": ref.harvest_walks,
        "experiments.harvest_gaps.gaps_per_walk":
            _ratio(ref.harvest_gaps, ref.harvest_walks),
        "experiments.final_distances.s":
            per_pass(lambda t: t.total("experiments.final_distances")),
        "experiments.coupling_suite.s":
            per_pass(lambda t: t.total("experiments.coupling_suite")),
        "stats.s": per_pass(lambda t: t.outer["stats"]),
        "cli.self_s": per_pass(lambda t: t.self_time("cli.main")),
        "trace.overhead_ratio": _ratio(traced_wall_s, wall_s),
        "wall_s": wall_s,
        "steps_per_s": _ratio(steps, wall_s),
        "beta_envs_per_s": _ratio(ref.calls("quenched.beta_root"), wall_s),
    }
