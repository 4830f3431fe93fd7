"""One benchmark child process: set up one workload, then measure it.

    python3 perfbench/worker.py '{"workload": "resolve-wide", "seed": 1, "seconds": 20,
                                  "mode": "measure", "trace": false, "cpus": [0, 1]}'

``cpus`` lists the cores the worker may pin itself to (see host.py).

Set-up imports the package, writes every input of the run as JSON and runs
a few warm-up ops, then prints ``ready``.  A ``setup`` child stops there.
A ``measure`` child then runs each input once, one op at a time (a closed
loop with one client), checks every output outside the timed region, and
prints one JSON result as its last line.

A run has a fixed number of ops, ``seconds`` times the workload's rate, so
that a seed fixes every input and therefore every count and failure.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import host  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402  (imports polyresolve)

WARMUP_OPS = 3
# Stop measuring after this much wall time even if ops are left, so a run
# always ends well inside its time limit.
WALL_CAP_S = 140.0


def ops_per_run(wl, seconds: int) -> int:
    return max(6, round(seconds * wl.rate))


def _failure_kind(exc: Exception) -> str:
    return str(exc) if isinstance(exc, workloads.OpFailed) else type(exc).__name__


def run(cfg: dict) -> dict | None:
    wl = workloads.WORKLOADS[cfg["workload"]]
    n_ops = ops_per_run(wl, cfg["seconds"])
    work = ROOT / ".perfbench-work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random(f"{wl.name}:{cfg['seed']}")
        digest = hashlib.sha256()
        inputs = []
        for i in range(n_ops):
            text = json.dumps(wl.make_input(rng, i))
            digest.update(text.encode())
            inputs.append(work / f"in-{i}.json")
            inputs[-1].write_text(text)
        # Warm-up inputs do not depend on the seed, so set-up costs the same
        # on every seed.
        warm_rng = random.Random(f"{wl.name}:warmup")
        for i in range(WARMUP_OPS):
            path = work / f"warm-{i}.json"
            path.write_text(json.dumps(wl.make_input(warm_rng, i)))
            try:
                wl.run(i, str(path), str(work / "warm-out.json"))
            except Exception:  # noqa: BLE001 - warm-up ops are not counted
                pass
        print("ready", flush=True)
        if cfg["mode"] == "setup":
            return None
        return _measure(cfg, wl, work, inputs, digest.hexdigest())
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Tally:
    """Outcomes of one group of ops."""

    def __init__(self):
        self.failures: Counter[str] = Counter()
        self.rejected = 0
        self.timed = 0.0
        self.ops: list[tuple[int, float, bool]] = []  # (op index, ms, verified)
        self.cert_size = 0
        self.cert_bound = 0

    def summary(self) -> dict:
        """Counts over every op; latencies over the verified ones."""
        lat = [ms for _, ms, ok in self.ops if ok]
        p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else float("nan")
        return {
            "attempted": len(self.ops),
            "verified": sum(ok for _, _, ok in self.ops),
            "failures": dict(self.failures),
            "rejected": self.rejected,
            "timed_s": self.timed,
            "ops_per_s": len(lat) / self.timed if self.timed else float("nan"),
            "op_ms_p50": statistics.median(lat) if lat else float("nan"),
            "op_ms_p90": p90,
            "beyond_p90": sum(1 for x in lat if x > p90),
            "cert_size": self.cert_size,
            "cert_bound": self.cert_bound,
        }


def _measure(cfg, wl, work, inputs, input_sha256) -> dict:
    """Closed loop over every input once.

    A traced run alternates: even ops run untraced and odd ops traced, so
    both halves see the same machine and the tracing overhead is their gap.
    """
    tracer = None
    groups = [Tally()]
    if cfg["trace"]:
        tracer = spans.Tracer()
        tracer.install()
        groups.append(Tally())
    clock = time.perf_counter
    cpus = cfg["cpus"]
    probes: list[float] = []
    wall0 = clock()
    for i, inp in enumerate(inputs):
        if clock() - wall0 > WALL_CAP_S:
            break
        tally = groups[i % len(groups)]
        out = work / f"out-{i}.json"
        if tracer:
            tracer.set_enabled(tally is groups[1], op=i)
        error = None
        # Each CLI call of a real user starts with an empty heap; collect
        # here so no op pays for the garbage of the ones before it.
        gc.collect()
        probes.append(host.pin_fastest(cpus))
        t0 = clock()
        try:
            result = wl.run(i, str(inp), str(out))
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, the run goes on
            error = exc
        dt = clock() - t0
        tally.timed += dt
        verified = False
        if error is not None:
            tally.failures[_failure_kind(error)] += 1
        else:
            try:
                if result is None:
                    result = json.loads(out.read_text())
                reason, size, bound = wl.check(json.loads(inp.read_text()), result, i)
            except Exception as exc:  # noqa: BLE001 - unreadable output is rejected
                reason, size, bound = f"output could not be checked: {exc!r}", 0, 0
            if reason:
                tally.rejected += 1
                tally.failures["rejected"] += 1
                print(f"rejected op {i}: {reason}", flush=True)
            else:
                verified = True
                tally.cert_size += size
                tally.cert_bound += bound
        tally.ops.append((i, dt * 1e3, verified))
        inp.unlink(missing_ok=True)
        out.unlink(missing_ok=True)

    result = {
        "sizes": wl.sizes,
        "ops": len(inputs),
        "probe_ms_p50": statistics.median(probes) * 1e3,
        "input_sha256": input_sha256,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "groups": [g.summary() for g in groups],
    }
    name = f"{wl.name}-seed{cfg['seed']}-trace{int(bool(tracer))}"
    with open(ROOT / ".perfbench-work" / f"ops-{name}.json", "w") as fh:
        json.dump({"fields": ["op", "ms", "verified", "probe_ms"],
                   "ops": sorted((i, ms, ok, probes[i] * 1e3)
                                 for g in groups for i, ms, ok in g.ops)}, fh)
    if tracer:
        tracer.set_enabled(False, op=-1)
        result["per_layer"] = tracer.per_layer(len(groups[1].ops))
        tracer.dump(ROOT / ".perfbench-work" / f"spans-{name}.json")
    return result


if __name__ == "__main__":
    outcome = run(json.loads(sys.argv[1]))
    if outcome is not None:
        print(json.dumps(outcome))
