"""thermoflow benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload second_laws --seed 1 --seconds 20 --trace 0

``--trace 0`` starts three workers one after another, each a fresh
interpreter that imports thermoflow from ``src``, builds the seeded inputs
and warms up; that is one set-up sample each.  The last one then runs
requests in a closed loop with one client, whole rounds of the request
schedule until ``--seconds`` have passed.  It prints the end-to-end
metrics.  ``--trace 1`` starts one worker that runs a fixed request set
twice, untraced and then with per-function spans, and also times
``import thermoflow`` under ``-X importtime``; it prints the per-layer
metrics.  Outputs are checked;
the last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("second_laws", "many_copies", "cli_batch", "oracles")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
RUN_BUDGET_S = 170  # a run must end within 180 s


def controlled_env() -> dict:
    """Child environment: the checkout's src only, default order grid, one BLAS thread."""
    env = dict(os.environ)
    env.pop("THERMOFLOW_ALPHA_GRID", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine_facts() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "THERMOFLOW_ALPHA_GRID": "cleared" if "THERMOFLOW_ALPHA_GRID" in os.environ else "unset",
    }


def start_worker(args, seconds: float, workdir: Path, env: dict, deadline: float) -> dict:
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--spawned", repr(spawned), "--workdir", str(workdir),
    ]
    # own session, so a timeout also ends the CLI processes a worker started
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"worker ran past the {RUN_BUDGET_S} s budget") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def import_times(env: dict) -> dict:
    """Cumulative import seconds of thermoflow, scipy and numpy, median of a few cold starts."""
    samples: dict[str, list[float]] = {"thermoflow": [], "scipy": [], "numpy": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import thermoflow"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import thermoflow failed:\n{proc.stderr[-2000:]}")
        for pkg, value in parse_importtime(proc.stderr).items():
            samples[pkg].append(value)
    return {f"import.{pkg}_s": statistics.median(v) for pkg, v in samples.items()}


def parse_importtime(text: str) -> dict[str, float]:
    """Sum cumulative time of each package's outermost modules.

    ``-X importtime`` prints children before their parent, indented two
    spaces deeper; a module counts when no enclosing module belongs to the
    same package.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"thermoflow": 0.0, "scipy": 0.0, "numpy": 0.0}
    for i, (depth, name, cumulative) in enumerate(rows):
        pkg = name.split(".")[0]
        if pkg not in totals:
            continue
        # enclosing modules appear later with smaller depth
        enclosed = False
        level = depth
        for d, other, _c in rows[i + 1:]:
            if d < level:
                level = d
                if other.split(".")[0] == pkg:
                    enclosed = True
                    break
            if level == 0:
                break
        if not enclosed:
            totals[pkg] += cumulative
    return totals


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Metrics over the workers' timed requests, whole rounds of the request
    schedule; a throughput unit is a pair (second_laws, cli_batch) or a
    request (many_copies, oracles)."""
    latencies = [x for r in results for x in r["latencies_s"]]
    tail, pct, count = tail_latency(latencies)
    units = sum(r["units"] for r in results)
    wall = sum(r["wall_s"] for r in results)
    metrics = {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in results), "unit": "s"},
        "throughput_per_s": {"value": units / wall, "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "latency_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
    }
    info = {
        "tail_percentile": pct,
        "requests": count,
        "units": units,
        "timed_wall_s": wall,
        "rounds": sum(r["rounds"] for r in results),
        "setup_samples_s": [r["setup_s"] for r in results],
    }
    return metrics, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "thermoflow" / "__init__.py").is_file():
        print(f"error: no thermoflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = controlled_env()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir.mkdir(parents=True)
    try:
        if args.workload == "cli_batch":
            import inputs

            inputs.write_cli_tree(args.seed, workdir / "cli_tree")
        if args.trace:
            worker = start_worker(args, args.seconds, workdir, env, deadline)
            layers = dict(worker["layers"])
            layers.update(import_times(env))
            from tracing import PER_LAYER_METRICS, units_of

            metrics = {n: {"value": layers[n], "unit": units_of(n)} for n in PER_LAYER_METRICS}
            results = [worker]
            info = {k: worker[k] for k in (
                "plain_wall_s", "traced_wall_s", "span_count", "spans_file", "self_check_inner_calls",
            )}
            info["setup_s"] = worker["setup_s"]
        else:
            # One timed window rather than several short ones: a window must
            # hold several rounds of a workload's request schedule.
            windows = [0.0] * (SETUP_SAMPLES - 1) + [args.seconds]
            results = [start_worker(args, s, workdir, env, deadline) for s in windows]
            metrics, info = end_to_end(results)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] + r["warmup_attempted"] for r in results)
    failed = sum(r["failed"] + r["warmup_failed"] for r in results)
    info["error_rate"] = failed / attempted
    notes: dict[str, int] = {}
    for r in results:
        for key, count in r["notes"].items():
            notes[key] = notes.get(key, 0) + count
    failures = [f for r in results for f in r["failures"]][:5]

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "machine": machine_facts()}))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"info": info, "notes": notes, "failures": failures}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
