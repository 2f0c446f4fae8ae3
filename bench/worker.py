"""One benchmark worker: set up, warm up, run requests in a closed loop, check.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; prints
one JSON object on its last stdout line.  ``--spawned`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux), so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def _run_one(wl, req, records, failures) -> tuple[float, int]:
    """Run one request and keep its output for the checks; return (latency, units)."""
    start = time.perf_counter()
    try:
        out = wl.run(req)
    except Exception:  # a raising request is a failed request, not a crashed benchmark
        latency = time.perf_counter() - start
        failures.append(traceback.format_exc(limit=3))
        records.append((req, None))
        return latency, 0
    latency = time.perf_counter() - start
    records.append((req, out))
    return latency, out.units


def _check_all(wl, records, notes, failures) -> int:
    failed = 0
    for req, out in records:
        if out is None:
            failed += 1
            continue
        try:
            err = wl.check(req, out, notes)
        except Exception:
            err = traceback.format_exc(limit=3)
        if err:
            failed += 1
            failures.append(err)
    return failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import workloads  # imports thermoflow

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, Path(args.workdir), in_process=bool(args.trace), env=dict(os.environ))
    notes: dict = {}
    failures: list[str] = []
    warm_records: list = []
    for req in wl.warmup_requests:
        _run_one(wl, req, warm_records, failures)
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned}

    pool = wl.requests
    if args.trace:
        result.update(_traced(wl, pool[: cls.traced_requests], notes, failures, args))
    else:
        records: list = []
        latencies: list[float] = []
        units = 0
        start = time.perf_counter()
        deadline = start + args.seconds
        i = 0
        # Whole rounds of the request schedule until the deadline has passed,
        # so a run's request mix does not depend on where the deadline falls.
        while args.seconds > 0:
            latency, n = _run_one(wl, pool[i % len(pool)], records, failures)
            latencies.append(latency)
            units += n
            i += 1
            if i % cls.round_size == 0 and time.perf_counter() >= deadline:
                break
        wall = time.perf_counter() - start
        result["failed"] = _check_all(wl, records, notes, failures)
        result.update(attempted=len(records), wall_s=wall, units=units, latencies_s=latencies,
                      rounds=i // cls.round_size)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_batch" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = _peak_rss_mb(who)
    result["warmup_attempted"] = len(warm_records)
    result["warmup_failed"] = _check_all(wl, warm_records, notes, failures)
    result["notes"] = notes
    result["failures"] = failures[:5]
    print(json.dumps(result))
    return 0


def _traced(wl, requests, notes, failures, args) -> dict:
    """Per-layer figures from a traced pass over a fixed request set.

    Untraced passes run before and after it over the same requests; the
    tracing overhead compares the traced wall with their mean.
    """
    from tracing import Tracer

    def one_pass(records, tracer=None) -> float:
        start = time.perf_counter()
        for rid, req in enumerate(requests):
            if tracer is not None:
                tracer.request = rid
            _run_one(wl, req, records, failures)
        return time.perf_counter() - start

    plain_wall = one_pass([])

    tracer = Tracer()
    tracer.install()
    from thermoflow import divergence, states

    # Self-check: the wrappers must see calls made inside the program.
    h = states.Hamiltonian.of([0.0, 1.0])
    probe = divergence.check_cto_transition(
        states.IncoherentState((0.9, 0.1), h), states.gibbs(h, 1.0), 1.0
    )
    inner = tracer.calls_under("divergence.renyi_divergence", ("divergence.check_cto_transition",))
    if not probe.feasible or inner == 0:
        tracer.uninstall()
        raise SystemExit("trace self-check failed: no renyi_divergence spans inside check_cto_transition")
    tracer.reset()

    records: list = []
    traced_wall = one_pass(records, tracer)
    tracer.uninstall()
    plain_wall = 0.5 * (plain_wall + one_pass([]))
    layers = tracer.summary(traced_wall)
    layers["bench.tracing_overhead"] = traced_wall / plain_wall - 1.0
    spans_path = Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    return {
        "layers": layers,
        "self_check_inner_calls": inner,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans_file": str(spans_path),
        "span_count": len(tracer.spans),
        "failed": _check_all(wl, records, notes, failures),
        "attempted": len(records),
    }


if __name__ == "__main__":
    sys.exit(main())
