"""Per-call probe of ``evoscm.flowshop.decode_list_schedule`` across sizes,
the per-layer scaling curve of the flow-shop decoder."""

from __future__ import annotations

import statistics
import time

import numpy as np

from evoscm import datagen, flowshop

VARIANTS = ("d1", "d4")
# Calls per size: fewer at large n, where one call costs a few hundred ms.
CALLS = {50: 15, 100: 9, 200: 5, 400: 3}


def probe_decode(seed: int) -> dict:
    """Median ms per call, named ``flowshop.probe_ms.<variant>.n<N>``.
    Instances and permutations are drawn from ``seed``."""
    out = {}
    for v, variant in enumerate(VARIANTS):
        for n, calls in CALLS.items():
            instance = datagen.gen_hfs(variant, n, [seed, v, n])
            rng = np.random.default_rng([seed, v, n])
            times = []
            for _ in range(calls):
                perm = rng.permutation(n).tolist()
                t0 = time.perf_counter()
                flowshop.decode_list_schedule(instance, perm)
                times.append((time.perf_counter() - t0) * 1e3)
            out[f"flowshop.probe_ms.{variant}.n{n}"] = statistics.median(times)
    return out
