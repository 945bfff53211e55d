"""Benchmark inputs, built from a seed by the benchmark's own code.

The draws here are copies, not calls: a later change to the package's
instance generator must not move the benchmark's inputs.  Only the final
``PlacementProblem`` construction goes through the package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

M = 20
CPU_RANGE = (10.0, 30.0)
MEM_RANGE = (16.0, 64.0)
POP = 100
# Cycles per solve, cut from the sweep protocol's 500: solve time varies
# 10-30 % from one instance to the next, so a run averages many short
# solves rather than a few long ones.
CYCLES = 50
PLANTED_CONCENTRATION = 4.0
# At 0.35 fill, PSO's early swarm overloads about 60 % of its rows within
# 50 cycles; at 0.3 about a quarter, and lamocs about 8 %, so repair stays
# a minor layer on this workload.
SLACK_FILL = 0.3

# Instances per solver in a run of NOMINAL_SECONDS, sized so one pass takes
# 18-27 s of CPU time on a 2-vCPU x86 box.  Solvers whose time varies more
# between instances get more.
NOMINAL_SECONDS = 25
COUNTS = {
    "saturated": {"lamocs": 20, "ga": 20, "pso": 30},
    "planted": {"lamocs": 7, "ga": 8, "pso": 5},
    "slack": {"lamocs": 24, "ga": 40, "pso": 64},
}
WORKLOADS = tuple(COUNTS)


def counts(workload: str, seconds: float) -> dict[str, int]:
    """Instances per solver for a run of ``seconds``.

    The count scales with the requested time, never with measured speed,
    so one seed and one ``seconds`` always give the same inputs.
    """
    return {name: max(1, round(k * seconds / NOMINAL_SECONDS)) for name, k in COUNTS[workload].items()}

# Copied from the package's instance generator as it stood when the
# benchmark was defined: uniform demands up to 0.99 x mean capacity,
# rescaled up until total demand reaches 0.9 of total capacity.
_DEMAND_CAP_FACTOR = 0.99
_DEMAND_FLOOR_RATIO = 0.9
_MAX_RESCALE_ROUNDS = 100


@dataclass(frozen=True)
class Spec:
    """Arrays for one instance, plus a known feasible placement when planted."""

    name: str
    server_cpu: np.ndarray
    server_mem: np.ndarray
    vm_cpu: np.ndarray
    vm_mem: np.ndarray
    witness: np.ndarray | None  # 1-based server per VM


def derive_seed(seed: int, *parts: object) -> int:
    """Stable 63-bit seed from the run seed and a label path."""
    key = "|".join(str(p) for p in (seed, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def _servers(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(*CPU_RANGE, M), rng.uniform(*MEM_RANGE, M)


def _stratified_servers(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Server capacities with the same uniform marginals, one per stratum of each range.

    Every instance then spans the range alike, while each capacity is still
    uniform on its range.  On a 2-vCPU x86 box this halved the seed-to-seed
    CV of PSO's total solve time over eight seeds, on ``planted`` (0.08 to
    0.04) and on ``slack`` (0.06 to 0.035).
    """

    def strata(lo: float, hi: float) -> np.ndarray:
        return rng.permutation(lo + (hi - lo) * (np.arange(M) + rng.random(M)) / M)

    return strata(*CPU_RANGE), strata(*MEM_RANGE)


def _draw_demands(rng: np.random.Generator, n: int, capacities: np.ndarray) -> np.ndarray:
    cap = _DEMAND_CAP_FACTOR * capacities.mean()
    target = _DEMAND_FLOOR_RATIO * capacities.sum()
    demands = cap * (1.0 - rng.random(n))  # uniform in (0, cap]
    for _ in range(_MAX_RESCALE_ROUNDS):
        total = demands.sum()
        if total >= target and demands.max() <= cap:
            return demands
        if total < target:
            demands = demands * (target / total)
        over = demands > cap
        if over.any():
            under = ~over
            if not under.any():
                break
            excess = float((demands[over] - cap).sum())
            demands = demands.copy()
            demands[over] = cap
            demands[under] += excess / under.sum()
    raise RuntimeError("saturated draw cannot reach its demand floor")


def saturated_spec(seed: int, n: int, index: int) -> Spec:
    """Near-saturation draw; for n >= 2m the demand exceeds capacity."""
    rng = np.random.default_rng(derive_seed(seed, "saturated", n, index))
    server_cpu, server_mem = _servers(rng)
    vm_cpu = _draw_demands(rng, n, server_cpu)
    vm_mem = _draw_demands(rng, n, server_mem)
    return Spec(f"saturated-n{n}-{index}", server_cpu, server_mem, vm_cpu, vm_mem, None)


def planted_spec(seed: int, n: int, fill: float, label: str, index: int) -> Spec:
    """Fill every server to ``fill`` of its capacity in both resources, then shuffle.

    Capacities come from ``_stratified_servers``; the saturated draw keeps
    the package's independent uniform draw.

    Each server hosts ``n // M`` VMs (the first ``n % M`` servers one more);
    its cpu and mem loads are split among them by independent Dirichlet
    shares, concentrated so VM sizes on one server are alike.  The
    pre-shuffle hosting is returned as the witness placement.
    """
    rng = np.random.default_rng(derive_seed(seed, label, n, fill, index))
    server_cpu, server_mem = _stratified_servers(rng)
    per_server = np.full(M, n // M) + (np.arange(M) < n % M)
    host = np.repeat(np.arange(M), per_server)
    cpu_share = np.concatenate([rng.dirichlet(np.full(k, PLANTED_CONCENTRATION)) for k in per_server])
    mem_share = np.concatenate([rng.dirichlet(np.full(k, PLANTED_CONCENTRATION)) for k in per_server])
    vm_cpu = fill * server_cpu[host] * cpu_share
    vm_mem = fill * server_mem[host] * mem_share
    order = rng.permutation(n)
    return Spec(f"{label}-n{n}-{index}", server_cpu, server_mem, vm_cpu[order], vm_mem[order], host[order] + 1)


def build(workload: str, seed: int, k: int) -> tuple[Spec, ...]:
    """The first ``k`` instances of one workload; each solver runs on a prefix of them."""
    if workload == "saturated":
        return tuple(saturated_spec(seed, 40 if i % 2 == 0 else 100, i // 2) for i in range(k))
    if workload == "planted":
        return tuple(planted_spec(seed, 60, 0.7, "planted", i) for i in range(k))
    return tuple(planted_spec(seed, 200, SLACK_FILL, "slack", i) for i in range(k))
