"""Seeded workload inputs, built with numpy alone.

Nothing here imports thermoflow, so the inputs for one seed stay
byte-identical across commits of the program under test.  Feasible targets
are made feasible by construction: a Gibbs-preserving map (a chain of
two-level partial swaps that fix the thermal vector) followed by partial
thermalization, or a random mixture of permutations for flat spectra.

Domain: every input keeps beta * E well below 709 and every type-class
count of an n-copy state at or below 2**53, the two limits the program
accepts today.

Each generator returns plain Python data (floats, ints, lists, dicts); the
worker turns them into thermoflow objects as part of its set-up.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Per-workload request schedules.  Fixing the *shape* of each request (its
# dimension, copy number, directory size or oracle kind) and letting the
# seed draw only the values keeps the cost mix of a run nearly the same on
# every seed: seeds differ in values, not in how much work a run holds.

SECOND_LAW_DIMS = (2, 3, 4, 5, 6)

# (distinct energies d, copies n), atoms C(n+d-1, d-1), every count at most
# d**n <= 2**53.  One round of the schedule is every small shape (91 to
# 2300 atoms) twice, the three about 1.2e4-atom shapes once and one
# 5e4-atom shape at the end.  Small shapes make up most requests, so the
# median sits among many near-equal costs.  Every round costs the same, so
# a run that ends on a round boundary holds the same mix at any machine
# speed.  A round takes 3 to 6 s on the VM described in NOTES.md, so fewer
# than ten 5e4-atom requests fit in a 24 s run and the tail percentile
# lands inside the 1.2e4 cluster rather than on the edge between the two.
_SMALL_COPIES = (
    (3, 12), (8, 3), (4, 8), (5, 6), (7, 4), (3, 20), (6, 5), (4, 10), (3, 24),
    (3, 28), (4, 12), (5, 8), (3, 33), (4, 14), (6, 7), (8, 5), (7, 6), (4, 16),
    (5, 10), (4, 18), (8, 6), (4, 20), (5, 12), (6, 9), (4, 22),
)
_LARGE_COPIES = ((8, 9), (7, 11), (6, 14))
_HUGE_COPY = (8, 12)


def _many_copy_schedule() -> tuple[tuple[int, int], ...]:
    out = []
    for k, small in enumerate(2 * _SMALL_COPIES):
        out.append(small)
        if k % 16 == 15:
            out.append(_LARGE_COPIES[k // 16])
    out.append(_HUGE_COPY)
    return tuple(out)


MANY_COPY_SHAPES = _many_copy_schedule()

# (pairs in the directory, model); flat spectra use the noisy model.  Six
# small directories (start-up dominates) put the median among near-equal
# latencies, three of 640-1024 pairs (loading and the curve check
# dominate) hold the tail.
CLI_DIRECTORIES = (
    (1, "thermal"),
    (1024, "thermal"),
    (2, "noisy"),
    (4, "thermal"),
    (640, "thermal"),
    (8, "noisy"),
    (16, "thermal"),
    (832, "thermal"),
    (32, "noisy"),
)

# One cycle of oracle requests.  An "lp" request solves the simplex LP at
# every d in LP_DIMS, a "birkhoff" request decomposes at every d in
# BIRKHOFF_DIMS, so their costs vary little between seeds.  Sorted by cost
# the cycle reads found, lp, lp, birkhoff x3, exhausted, quasi-static: the
# median falls in the middle of the Birkhoff requests, and the exhausted
# catalyst searches and quasi-static sweeps (a quarter of all requests)
# hold the tail.
ORACLE_KINDS = (
    "lp", "birkhoff", "catalyst_found", "birkhoff",
    "catalyst_exhausted", "lp", "birkhoff", "quasi_static",
)
LP_DIMS = (3, 4, 5, 6, 7, 8)
BIRKHOFF_DIMS = (4, 8, 12, 16)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream name)."""
    key = [int(b) for b in stream.encode()]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + key))


def _dirichlet(rng: np.random.Generator, d: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(d))
    return p / p.sum()


def thermal_vector(energies: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def gibbs_preserving_map(rng: np.random.Generator, q: np.ndarray, steps: int) -> np.ndarray:
    """Column-stochastic matrix with ``G q = q``, from two-level partial swaps.

    On levels ``(i, j)`` the map ``[[1-a, b], [a, 1-b]]`` with
    ``b = a q_i / q_j`` fixes ``(q_i, q_j)``; ``a`` is drawn up to the
    largest valid value.
    """
    d = q.size
    g = np.eye(d)
    for _ in range(steps):
        i, j = rng.choice(d, size=2, replace=False)
        a = rng.uniform(0.0, min(1.0, q[j] / q[i]))
        b = a * q[i] / q[j]
        step = np.eye(d)
        step[i, i], step[j, i], step[i, j], step[j, j] = 1.0 - a, a, b, 1.0 - b
        g = step @ g
    return g


def feasible_target(rng: np.random.Generator, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``(1 - lam) G p + lam q`` for a random Gibbs-preserving ``G``."""
    g = gibbs_preserving_map(rng, q, steps=2 * p.size)
    lam = rng.uniform(0.1, 0.6)
    t = (1.0 - lam) * (g @ p) + lam * q
    t = np.clip(t, 0.0, None)
    return t / t.sum()


def random_bistochastic(rng: np.random.Generator, d: int) -> np.ndarray:
    weights = rng.dirichlet(np.ones(d))
    b = np.zeros((d, d))
    for w in weights:
        b[np.arange(d), rng.permutation(d)] += w
    return b


def _energies(rng: np.random.Generator, d: int, beta: float) -> np.ndarray:
    """Distinct levels, ground at 0, spread up to 3 / beta."""
    e = np.sort(rng.uniform(0.05, 3.0, d - 1)) / beta
    return np.concatenate([[0.0], e])


def _floats(a) -> list[float]:
    return [float(x) for x in a]


def _thermal_pair(rng: np.random.Generator, d: int, feasible: bool) -> dict:
    beta = float(rng.uniform(0.5, 2.0))
    e = _energies(rng, d, beta)
    q = thermal_vector(e, beta)
    p = _dirichlet(rng, d)
    target = feasible_target(rng, p, q) if feasible else _dirichlet(rng, d)
    return {
        "beta": beta,
        "energies": _floats(e),
        "p": _floats(p),
        "target": _floats(target),
        "feasible": feasible,
    }


def _flat_pair(rng: np.random.Generator, d: int, feasible: bool) -> dict:
    """Fully degenerate spectrum; feasible targets are bistochastic images."""
    beta = float(rng.uniform(0.5, 2.0))
    p = _dirichlet(rng, d)
    if feasible:
        lam = rng.uniform(0.1, 0.6)
        target = (1.0 - lam) * (random_bistochastic(rng, d) @ p) + lam / d
        target = target / target.sum()
    else:
        target = _dirichlet(rng, d)
    return {
        "beta": beta,
        "energies": [float(rng.uniform(-1.0, 1.0))] * d,
        "p": _floats(p),
        "target": _floats(target),
        "feasible": feasible,
    }


def second_law_pairs(seed: int, count: int) -> list[dict]:
    """Pair ``i`` has ``d = 2 + i % 5``; blocks of five alternate feasible/random."""
    rng = rng_for(seed, "second_laws")
    return [
        _thermal_pair(rng, SECOND_LAW_DIMS[i % 5], feasible=(i // 5) % 2 == 0)
        for i in range(count)
    ]


def many_copy_requests(seed: int, count: int) -> list[dict]:
    rng = rng_for(seed, "many_copies")
    out = []
    for i in range(count):
        d, n = MANY_COPY_SHAPES[i % len(MANY_COPY_SHAPES)]
        beta = float(rng.uniform(0.5, 2.0))
        e = _energies(rng, d, beta)
        q = thermal_vector(e, beta)
        p = _dirichlet(rng, d)
        lam = rng.uniform(0.2, 0.8)
        target = (1.0 - lam) * p + lam * q
        out.append({
            "beta": beta,
            "energies": _floats(e),
            "p": _floats(p),
            "target": _floats(target / target.sum()),
            "n": n,
            "epsilon": float(rng.uniform(0.005, 0.05)),
            "alpha": float(rng.choice([0.5, 1.0, 2.0, 5.0])),
        })
    return out


def cli_directories(seed: int) -> list[dict]:
    """One entry per directory: its model and its pairs (half feasible)."""
    rng = rng_for(seed, "cli_batch")
    dirs = []
    for size, model in CLI_DIRECTORIES:
        make = _flat_pair if model == "noisy" else _thermal_pair
        pairs = [make(rng, int(rng.integers(2, 7)), feasible=k % 2 == 0) for k in range(size)]
        dirs.append({"model": model, "pairs": pairs})
    return dirs


def cli_directory_path(root: Path, k: int) -> Path:
    return root / f"dir{k:02d}"


def write_cli_tree(seed: int, root: Path) -> None:
    """Write ``<root>/dirNN/pJJJJ.{in,out}.json`` in the CLI's state-file schema."""
    for k, spec in enumerate(cli_directories(seed)):
        directory = cli_directory_path(root, k)
        directory.mkdir(parents=True)
        for j, raw in enumerate(spec["pairs"]):
            for suffix, probs in (("in", raw["p"]), ("out", raw["target"])):
                payload = {"beta": raw["beta"], "energies": raw["energies"], "probabilities": probs}
                (directory / f"p{j:04d}.{suffix}.json").write_text(json.dumps(payload), encoding="utf-8")


def _catalysable_pair(rng: np.random.Generator) -> dict:
    """A pair blocked single-shot that a qubit catalyst on the search grid unblocks.

    Flat spectrum, ``(1/2, 1/4, 1/4, 0) -> (2/5, 2/5, 1/10, 1/10)``: no
    majorization, but with the catalyst ``(5/8, 3/8)`` it holds.  The seed
    draws the level order, the energy offset and beta.
    """
    perm = rng.permutation(4)
    p = np.array([0.5, 0.25, 0.25, 0.0])[perm]
    target = np.array([0.4, 0.4, 0.1, 0.1])[rng.permutation(4)]
    beta = float(rng.uniform(0.5, 2.0))
    return {
        "beta": beta,
        "energies": [float(rng.uniform(-1.0, 1.0))] * 4,
        "p": _floats(p),
        "target": _floats(target),
        "feasible": False,
        "catalysable": True,
    }


def _uncatalysable_pair(rng: np.random.Generator, d: int) -> dict:
    """Reverse of a partial thermalization: the free energy must rise, so no
    catalyst of any size exists and the search exhausts its grid."""
    pair = _thermal_pair(rng, d, feasible=True)
    pair["p"], pair["target"] = pair["target"], pair["p"]
    pair["feasible"] = False
    pair["catalysable"] = False
    return pair


def oracle_requests(seed: int, count: int) -> list[dict]:
    rng = rng_for(seed, "oracles")
    out = []
    for i in range(count):
        kind = ORACLE_KINDS[i % len(ORACLE_KINDS)]
        if kind == "lp":
            req = {"pairs": [_thermal_pair(rng, d, feasible=k % 2 == 0) for k, d in enumerate(LP_DIMS)]}
        elif kind == "birkhoff":
            pairs = []
            for d in BIRKHOFF_DIMS:
                p = _dirichlet(rng, d)
                pairs.append((_floats(p), _floats(random_bistochastic(rng, d) @ p)))
            req = {"pairs": pairs}
        elif kind == "catalyst_found":
            req = _catalysable_pair(rng)
        elif kind == "catalyst_exhausted":
            req = _uncatalysable_pair(rng, 3)
        else:
            beta_hot = float(rng.uniform(0.5, 1.5))
            beta_cold = beta_hot * float(rng.uniform(1.5, 3.0))
            span = beta_cold - beta_hot
            req = {
                "beta_hot": beta_hot,
                "beta_cold": beta_cold,
                "gap": float(rng.uniform(0.5, 2.0)),
                "epsilon": 1e-6,
                "grid": [beta_cold - span * float(rng.uniform(0.02, 0.2))],
            }
        req["kind"] = kind
        out.append(req)
    return out


def renyi(p, q, alpha, counts=None) -> float:
    """Reference Renyi divergence on the extended order line (exact supports).

    ``alpha`` is a float or one of the limit labels ``"-inf"``, ``"0-"``,
    ``"0"``, ``"1"``, ``"+inf"``.  Used to replay second-law certificates
    independently of the program.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m = np.ones_like(p) if counts is None else np.asarray(counts, dtype=float)
    labels = {"-inf": -math.inf, "0": 0.0, "1": 1.0, "+inf": math.inf}
    if alpha == "0-":
        return math.inf if np.any((q > 0) & (p == 0)) else 0.0
    a = labels.get(alpha, alpha) if isinstance(alpha, str) else float(alpha)
    sp, sq = p > 0, q > 0
    if a == 0.0:
        kept = float(np.sum(m[sp] * q[sp]))
        return math.inf if kept <= 0 else -math.log(kept)
    if a == 1.0:
        if np.any(sp & ~sq):
            return math.inf
        return float(np.sum(m[sp] * p[sp] * np.log(p[sp] / q[sp])))
    if a == math.inf:
        return math.inf if np.any(sp & ~sq) else float(np.log(np.max(p[sp] / q[sp])))
    if a == -math.inf:
        return math.inf if np.any(sq & ~sp) else float(np.log(np.max(q[sq] / p[sq])))
    if (a < 0 and np.any(sq & ~sp)) or (a > 1 and np.any(sp & ~sq)):
        return math.inf
    both = sp & sq
    x = np.log(m[both]) + a * np.log(p[both]) + (1.0 - a) * np.log(q[both])
    top = float(np.max(x))
    s = top + math.log(float(np.sum(np.exp(x - top))))
    return s / (a - 1.0) if a >= 0 else s / (1.0 - a)
