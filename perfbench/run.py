"""Benchmark of polyresolve: seeded workloads driven through its CLI and oracles.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in fresh child processes, one at a time
(``perfbench/worker.py``).

* ``--trace 0`` starts several set-up-only children and one measuring child,
  and reports the end-to-end metrics.
* ``--trace 1`` starts one measuring child whose ops alternate untraced and
  traced, and reports the per-layer metrics and the tracing overhead.

Lines starting with ``#`` describe the machine, the workload and the
failures.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("resolve-wide", "resolve-many", "cover-delta4", "oracle-crosscheck")
# Set-up is timed this many times per untraced run; setup_s is the median.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cert_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "ratio"
    return "ms" if name.endswith("_ms") else "count"


def spawn(cfg: dict) -> tuple[float, dict | None]:
    """Run one worker on the fastest core; return its set-up time (start to
    ``ready``) and result.  The worker inherits this process's pinning."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    host.pin_fastest(cfg["cpus"])
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (cfg["mode"] == "measure" and not lines):
        raise SystemExit(f"worker for {cfg['workload']} failed with exit code {code}")
    if cfg["mode"] == "setup":
        return ready, None
    for line in lines[:-1]:
        print(f"# {line}")
    return ready, json.loads(lines[-1])


def failure_line(label: str, res: dict) -> str:
    kinds = " ".join(f"{k}={v}" for k, v in sorted(res["failures"].items())) or "none"
    failed = res["attempted"] - res["verified"]
    return (f"# {label}: attempted={res['attempted']} verified={res['verified']} "
            f"failed={failed} failed_frac={failed / res['attempted']:.4f} by type: {kinds}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[dict]]:
    base = {"workload": name, "seed": seed, "seconds": seconds, "cpus": host.cpus()}
    print(f"# workload {name}: seed={seed} seconds={seconds} trace={int(trace)}")
    if trace:
        _, res = spawn({**base, "mode": "measure", "trace": True})
        plain, traced = res["groups"]
        print(f"# sizes: {res['sizes']}")
        print(failure_line("ops (untraced half)", plain))
        print(failure_line("ops (traced half)", traced))
        print(f"# inputs: {res['ops']} ops, sha256={res['input_sha256']}")
        print(f"# tracing overhead: untraced {plain['ops_per_s']:.3f} ops/s, "
              f"traced {traced['ops_per_s']:.3f} ops/s")
        values = dict(res["per_layer"])
        values["trace.overhead_frac"] = 1 - traced["ops_per_s"] / plain["ops_per_s"]
        values["trace.failed_frac"] = (traced["attempted"] - traced["verified"]) / traced["attempted"]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        return metrics, res["groups"]

    # Set-up-only children run before and after the measuring one, so the
    # samples span the whole run rather than one moment of the host.
    setup = {**base, "mode": "setup", "trace": False}
    setups = [spawn(setup)[0] for _ in range(SETUP_SAMPLES // 2)]
    ready, res = spawn({**base, "mode": "measure", "trace": False})
    setups.append(ready)
    setups += [spawn(setup)[0] for _ in range(SETUP_SAMPLES - len(setups))]
    (ops,) = res["groups"]
    print(f"# sizes: {res['sizes']}")
    print(failure_line("ops (untraced)", ops))
    print(f"# timing: {ops['verified']} latency samples, {ops['beyond_p90']} beyond p90, "
          f"op time {ops['timed_s']:.3f} s, median core probe {res['probe_ms_p50']:.3f} ms")
    print(f"# inputs: {res['ops']} ops, sha256={res['input_sha256']}")
    print("# setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    values = {
        "ops_per_s": ops["ops_per_s"],
        "op_ms_p50": ops["op_ms_p50"],
        "op_ms_p90": ops["op_ms_p90"],
        "cert_ratio": ops["cert_size"] / ops["cert_bound"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, [ops]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "polyresolve" / "__init__.py").is_file():
        print(f"error: no polyresolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"# machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"({platform.python_implementation()}) platform={platform.platform()} "
          f"processor={platform.processor() or platform.machine()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    runs: list[dict] = []
    for name in names:
        found, results = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for key, value in found.items():
            print(f"{name} {key} = {value['value']:.6g} {value['unit']}")
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in found.items()})
        runs.extend(results)
    print(json.dumps({
        "correct": all(r["rejected"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["attempted"] - r["verified"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
