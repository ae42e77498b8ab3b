"""Scan-kernel sweep: cost of the public scans as the sequence grows.

Times ``ssm.selective_scan`` and ``ssm.selective_scan_dynamic`` forward, and
forward plus backward, at D=128 (dim 64, expand 2) and N=16 for each T in
SWEEP_T, and records the tracemalloc peak of one dynamic forward plus
backward. ``run.py`` starts it in a fresh process so its arrays neither
inherit nor leave behind another workload's heap; it prints one JSON object
holding the metrics and the sweep points left out, with the reason.

T=160 is left out (see ABSENT); T=80 takes its place and keeps the
quadratic growth of the dynamic scan in view.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
import tracemalloc

import numpy as np

from avparse import ssm
from avparse.tensor import Tensor

SWEEP_T = (10, 40, 80)
ABSENT = {
    "ssm.*.T160": "left out: the O(T^2) dynamic scan builds [T, T, D, N] arrays of "
                  "about 420 MB each at T=160, so one forward plus backward peaks near "
                  "1.9 GB and takes seconds, too much for a 2-core, 8 GB machine that "
                  "every traced run of every workload would spend it on",
}
D_INNER, D_STATE = 128, 16
REPEATS = {10: 21, 40: 9, 80: 5}


def sweep(seed: int) -> dict[str, float]:
    out = {}
    for t_len in SWEEP_T:
        rng = np.random.default_rng(seed + t_len)
        params = ssm.SsmParams(D_INNER, D_STATE, rng, dt_rank=ssm.default_dt_rank(64))
        x = Tensor(rng.standard_normal((t_len, D_INNER)), requires_grad=True)
        logits = Tensor(rng.standard_normal(t_len), requires_grad=True)
        probe = Tensor(rng.standard_normal((t_len, D_INNER)))

        def call(dynamic: bool, backward: bool) -> None:
            y = (ssm.selective_scan_dynamic(x, params, logits) if dynamic
                 else ssm.selective_scan(x, params))
            if backward:
                (y * probe).sum().backward()
                params.reset_grads()
                x.reset_grad()
                logits.reset_grad()

        for key, dynamic, backward in (("fwd", False, False), ("fwd_bwd", False, True),
                                       ("dyn_fwd", True, False), ("dyn_fwd_bwd", True, True)):
            call(dynamic, backward)  # warm-up
            times = []
            for _ in range(REPEATS[t_len]):
                gc.collect()
                started = time.perf_counter()
                call(dynamic, backward)
                times.append((time.perf_counter() - started) * 1e3)
            out[f"ssm.{key}_ms.T{t_len}"] = statistics.median(times)
        gc.collect()
        tracemalloc.start()
        call(True, True)
        out[f"ssm.dyn_peak_mb.T{t_len}"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return out


if __name__ == "__main__":
    import sys

    print(json.dumps({"metrics": sweep(int(sys.argv[1])), "absent": ABSENT}))
