"""The four workloads: how each builds its requests, runs one, and checks it.

Every program call goes through a module attribute (``divergence.X``,
``work.X``, ...) looked up at call time, so the tracing wrappers patched
into those namespaces see the benchmark's calls too.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from thermoflow import cli, divergence, engine, oracle, order, states, thermo_curve, verdicts, work

TOL = 1e-9


@dataclass
class Outcome:
    """What one request produced, kept until the checks run after the timed window."""

    value: object
    units: int = 1


def _state(energies, probs) -> states.IncoherentState:
    return states.IncoherentState(tuple(probs), states.Hamiltonian.of(energies))


def _pair(raw: dict):
    return _state(raw["energies"], raw["p"]), _state(raw["energies"], raw["target"])


# --- second_laws -------------------------------------------------------------


def _replay(cert, p, q, target) -> str | None:
    """An infeasible second-law verdict must carry an order where the divergence grows."""
    if not isinstance(cert, verdicts.AlphaViolation):
        return f"infeasible verdict without an AlphaViolation: {cert!r}"
    d_initial = inputs.renyi(p, q, cert.alpha)
    d_target = inputs.renyi(target, q, cert.alpha)
    if not (math.isfinite(d_initial) and d_initial < d_target):
        return f"certificate at alpha={cert.alpha!r} does not replay: {d_initial!r} >= {d_target!r}"
    return None


class SecondLaws:
    """Pairs on d in [2, 6]; half feasible by construction, half random targets."""

    pool_size = 1500
    round_size = 10  # five dimensions, feasible then random
    traced_requests = 120

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict) -> None:
        self.requests = []
        for raw in inputs.second_law_pairs(seed, self.pool_size):
            rho, target = _pair(raw)
            q = inputs.thermal_vector(np.asarray(raw["energies"]), raw["beta"])
            self.requests.append((rho, target, raw["beta"], raw["feasible"], q))
        self.warmup_requests = self.requests[-10:]

    def run(self, req) -> Outcome:
        rho, target, beta, _feasible, _q = req
        return Outcome((
            divergence.check_cto_transition(rho, target, beta),
            divergence.check_cto_with_ancilla(rho, target, beta),
            work.work_fixed_output(rho, target, beta),
        ))

    def check(self, req, out: Outcome, notes: dict) -> str | None:
        rho, target, _beta, feasible, q = req
        cto, ancilla, w = out.value
        if feasible:
            if not (cto.feasible and ancilla.feasible):
                return f"feasible-by-construction pair judged infeasible: {cto!r} {ancilla!r}"
            if w.value < -TOL:
                return f"work_fixed_output {w.value!r} < 0 on a feasible pair"
        p, t = rho.probability_array(), target.probability_array()
        for verdict in (cto, ancilla):
            if not verdict.feasible:
                err = _replay(verdict.certificate, p, q, t)
                if err:
                    return err
        return None


# --- many_copies -------------------------------------------------------------


class ManyCopies:
    """n-copy pairs in type-class form, 10^2 to 5*10^4 atoms; targets partially thermalized."""

    round_size = len(inputs.MANY_COPY_SHAPES)
    pool_size = 12 * round_size
    traced_requests = round_size

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict) -> None:
        self.requests = []
        for raw in inputs.many_copy_requests(seed, self.pool_size):
            rho, target = _pair(raw)
            self.requests.append((rho, target, raw))
        self.warmup_requests = [self.requests[0]]

    def run(self, req) -> Outcome:
        rho, target, raw = req
        beta, n, eps = raw["beta"], raw["n"], raw["epsilon"]
        rho_n = divergence.iid_extend(rho, n)
        target_n = divergence.iid_extend(target, n)
        smoothed = {
            (alpha, e): divergence.smooth_free_energy(rho_n, beta, alpha, e)
            for alpha in (0.0, math.inf)
            for e in (0.0, eps)
        }
        f_n = divergence.free_energy_alpha(rho_n, beta, raw["alpha"]).value
        thermal = thermo_curve.check_thermal_transition(rho_n, target_n, beta)
        cto = divergence.check_cto_transition(rho_n, target_n, beta)
        return Outcome((smoothed, f_n, thermal.feasible, cto))

    def check(self, req, out: Outcome, notes: dict) -> str | None:
        rho, _target, raw = req
        beta, n, eps, alpha = raw["beta"], raw["n"], raw["epsilon"], raw["alpha"]
        smoothed, f_n, thermal_ok, cto = out.value
        f_1 = divergence.free_energy_alpha(rho, beta, alpha).value
        if abs(f_n - n * f_1) > 1e-9 * max(1.0, abs(n * f_1)):
            return f"free_energy_alpha not additive at n={n}, alpha={alpha}: {f_n!r} vs {n * f_1!r}"
        if smoothed[(0.0, eps)] < smoothed[(0.0, 0.0)] - TOL:
            return f"smoothed order-0 {smoothed[(0.0, eps)]!r} below unsmoothed {smoothed[(0.0, 0.0)]!r}"
        if smoothed[(math.inf, eps)] > smoothed[(math.inf, 0.0)] + TOL:
            return f"smoothed order-inf {smoothed[(math.inf, eps)]!r} above unsmoothed"
        # Targets are feasible by construction.  A negative verdict here is a
        # program defect that the benchmark reports but does not gate on.
        if not thermal_ok:
            notes["nth_thermal_infeasible"] = notes.get("nth_thermal_infeasible", 0) + 1
        if not cto.feasible:
            for key in ("nth_cto_infeasible", f"nth_cto_infeasible_at_alpha={cto.certificate.alpha}"):
                notes[key] = notes.get(key, 0) + 1
        return None


# --- cli_batch ---------------------------------------------------------------


_CHECKS = {
    "thermal": lambda a, b, beta: thermo_curve.check_thermal_transition(a, b, beta),
    "noisy": lambda a, b, beta: order.check_noisy_transition(a, b),
}


class CliBatch:
    """One ``thermoflow.cli batch`` process per directory of 1 to 1024 pairs.

    The JSON tree is written once per run by ``run.py`` (``inputs.write_cli_tree``)
    before any worker starts, so set-up time measures start-up and import,
    not how fast the file system creates files.
    """

    round_size = len(inputs.CLI_DIRECTORIES)
    traced_requests = round_size

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict) -> None:
        self.in_process = in_process
        self.env = env
        root = workdir / "cli_tree"
        self.requests = [
            (str(inputs.cli_directory_path(root, k)), spec["model"], [raw["feasible"] for raw in spec["pairs"]])
            for k, spec in enumerate(inputs.cli_directories(seed))
        ]
        self.warmup_requests = [self.requests[0]]
        self._expected: dict[str, list[str]] = {}

    def run(self, req) -> Outcome:
        directory, model, feasible = req
        argv = ["batch", directory, "--model", model]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return Outcome((code, buf.getvalue()), units=len(feasible))
        proc = subprocess.run(
            [sys.executable, "-m", "thermoflow.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        return Outcome((proc.returncode, proc.stdout), units=len(feasible))

    def _expected_results(self, directory: str, model: str) -> list[str]:
        """Per-pair verdicts from the in-process API, in the CLI's stem order."""
        if directory not in self._expected:
            rows = []
            for in_path in sorted(Path(directory).glob("*.in.json")):
                out_path = in_path.with_name(in_path.name.replace(".in.", ".out."))
                rho, beta = states.load_state_file(str(in_path))
                target, _ = states.load_state_file(str(out_path))
                verdict = _CHECKS[model](rho, target, beta)
                rows.append("feasible" if verdict.feasible else "infeasible")
            self._expected[directory] = rows
        return self._expected[directory]

    def check(self, req, out: Outcome, notes: dict) -> str | None:
        directory, model, feasible = req
        code, stdout = out.value
        if code != 0:
            return f"batch exited {code} on {directory}"
        lines = stdout.splitlines()
        if not lines or lines[0] != "pair,result":
            return f"batch output has no header: {stdout[:80]!r}"
        got = [line.split(",", 1)[1] for line in lines[1:]]
        expected = self._expected_results(directory, model)
        if got != expected:
            return f"batch verdicts differ from the in-process API in {directory}"
        for result, must in zip(got, feasible):
            if must and result != "feasible":
                return f"feasible-by-construction pair came out {result!r} in {directory}"
        return None


# --- oracles -----------------------------------------------------------------


def _check_lp(raw: dict, q, ok: bool, g, thermal_ok: bool) -> str | None:
    if ok != thermal_ok:
        return f"LP verdict {ok} disagrees with the thermal verdict {thermal_ok}"
    if raw["feasible"] and not ok:
        return "feasible-by-construction pair judged infeasible by the LP"
    if ok:
        p, t = np.asarray(raw["p"]), np.asarray(raw["target"])
        if np.any(g < -1e-9) or not np.allclose(g.sum(axis=0), 1.0, atol=1e-7):
            return "LP witness is not column-stochastic"
        if not np.allclose(g @ q, q, atol=1e-7) or not np.allclose(g @ p, t, atol=1e-7):
            return "LP witness does not fix q or map p to the target"
    return None


def _check_birkhoff(p, q, a, terms) -> str | None:
    d = p.size
    if not np.allclose(a @ p, q, atol=1e-9):
        return "construct_bistochastic output does not map p to q"
    total = sum(w * order.permutation_matrix(perm) for w, perm in terms)
    if not np.allclose(total, a, atol=1e-8):
        return "Birkhoff terms do not re-sum to the input"
    if len(terms) > (d - 1) ** 2 + 1:
        return f"{len(terms)} Birkhoff terms exceed (d-1)^2+1 at d={d}"
    return None


class Oracles:
    """Simplex LP, Birkhoff decomposition, catalyst grid search and quasi-static sweeps."""

    round_size = len(inputs.ORACLE_KINDS)
    pool_size = 68 * round_size
    traced_requests = 2 * round_size

    def __init__(self, seed: int, workdir: Path, in_process: bool, env: dict) -> None:
        self.requests = []
        for raw in inputs.oracle_requests(seed, self.pool_size):
            kind = raw["kind"]
            if kind == "lp":
                obj = [
                    (*_pair(pair), inputs.thermal_vector(np.asarray(pair["energies"]), pair["beta"]))
                    for pair in raw["pairs"]
                ]
            elif kind == "birkhoff":
                obj = [(np.asarray(p), np.asarray(q)) for p, q in raw["pairs"]]
            elif kind.startswith("catalyst"):
                obj = _pair(raw)
            else:
                obj = engine.EngineSpec(raw["beta_hot"], raw["beta_cold"], (raw["gap"],), raw["epsilon"])
            self.requests.append((kind, raw, obj))
        self.warmup_requests = self.requests[-len(inputs.ORACLE_KINDS):]

    def run(self, req) -> Outcome:
        kind, raw, obj = req
        if kind == "lp":
            results = []
            for pair, (rho, target, q) in zip(raw["pairs"], obj):
                ok, witness = oracle.feasibility_lp(pair["p"], q, pair["target"])
                verdict = thermo_curve.check_thermal_transition(rho, target, pair["beta"])
                results.append((ok, witness, verdict.feasible))
            return Outcome(results)
        if kind == "birkhoff":
            results = []
            for p, q in obj:
                a = order.construct_bistochastic(p, q)
                results.append((a, order.birkhoff_decompose(a)))
            return Outcome(results)
        if kind.startswith("catalyst"):
            rho, target = obj
            return Outcome(oracle.catalyst_search(rho, target, raw["beta"]))
        return Outcome(engine.quasi_static_estimate(obj, beta_prime_grid=raw["grid"]))

    def check(self, req, out: Outcome, notes: dict) -> str | None:
        kind, raw, obj = req
        if kind == "lp":
            for pair, (_rho, _target, q), (ok, g, thermal_ok) in zip(raw["pairs"], obj, out.value):
                err = _check_lp(pair, q, ok, g, thermal_ok)
                if err:
                    return err
            return None
        if kind == "birkhoff":
            for (p, q), (a, terms) in zip(obj, out.value):
                err = _check_birkhoff(p, q, a, terms)
                if err:
                    return err
            return None
        if kind.startswith("catalyst"):
            rho, target = obj
            catalyst = out.value
            if catalyst is not None:
                joint = thermo_curve.check_thermal_transition(
                    states.tensor(rho, catalyst), states.tensor(target, catalyst), raw["beta"]
                )
                if not joint.feasible:
                    return "returned catalyst fails the joint thermal check"
            if raw["catalysable"] and catalyst is None:
                return "no catalyst found for a pair with a catalyst on the grid"
            if not raw["catalysable"] and catalyst is not None:
                return "catalyst returned for a pair whose free energy must rise"
            return None
        for point in out.value:
            if not (math.isfinite(point.work) and point.work >= 0.0 and math.isfinite(point.efficiency)):
                return f"quasi-static point out of range: {point!r}"
        return None


WORKLOADS = {
    "second_laws": SecondLaws,
    "many_copies": ManyCopies,
    "cli_batch": CliBatch,
    "oracles": Oracles,
}
