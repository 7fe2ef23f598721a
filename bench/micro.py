"""Layer micro-rates: the stream primitives and each weight law's sampler,
called in isolation over vertex digests captured from the workload's own
traced pass, reported as the fastest of several sweeps.  Run with no tracer
installed."""

from __future__ import annotations

import time
from typing import Callable, Dict, List

LAWS = ("const:1.0", "lerrw:1.0", "lerrw:0.5", "gamma:2,0.5")
REPEATS = 7


def law_metric(law: str) -> str:
    """Metric-name form of a weight-law descriptor."""
    return law.replace(":", "-").replace(",", "-")


def _us_per_call(call: Callable[[bytes], object], digests: List[bytes]) -> float:
    clock = time.perf_counter
    runs = []
    for _ in range(REPEATS):
        t0 = clock()
        for d in digests:
            call(d)
        runs.append((clock() - t0) / len(digests))
    return min(runs) * 1e6


def micro_rates(digests: List[bytes], b: int, seed: int) -> Dict[str, float]:
    from rwre import env, streams

    if not digests:  # the pass drew no child digests; derive some instead
        root = streams.root_digest(seed)
        digests = [streams.child_digest(root, 1 + i % b) for i in range(256)]
    w8 = streams.walk_token(0)
    child = streams.child_digest
    init = streams.clock_init_block
    adv = streams.clock_advance_block
    rates = {
        "streams.child_digest.us": _us_per_call(lambda d: child(d, 1), digests),
        "streams.clock_init_block.us":
            _us_per_call(lambda d: init(d, w8, 0), digests),
        "streams.clock_advance_block.us":
            _us_per_call(lambda d: adv(d, w8, 1, 0), digests),
    }
    for law in LAWS:
        sampler = env.make_weight_sampler(env.EnvSpec(b, law, seed))
        rates[f"env.sampler.{law_metric(law)}.us"] = _us_per_call(sampler, digests)
    return rates
