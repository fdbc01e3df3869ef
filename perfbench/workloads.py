"""The command grids and the seeded, cost-stratified sampling of workloads.

A workload is a list of families.  Each family is a fixed grid of CLI argv
lists and a count: every pass of the workload runs ``count`` commands drawn
from that family.  The family's grid is sorted by the reference cost stored
in ``golden.json`` and cut into ``count`` equal slices; the seed picks one
point in each slice.  A different seed therefore gives a different sample of
the same grid whose cost profile (sum, median, tail) stays close to every
other seed's, which keeps the end-to-end figures comparable across seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

Argv = tuple[str, ...]


@dataclass(frozen=True)
class Family:
    name: str
    grid: tuple[Argv, ...]
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: tuple[Family, ...]


def _argv(*parts) -> Argv:
    return tuple(str(p) for p in parts)


def _unit(n: int, i: int) -> str:
    return ",".join("1" if j == i else "0" for j in range(n))


# Genus 1: n = 3..8, and r above 3 only while the leg-vector scan over
# (r-1)^n candidates stays below about 1.2e5.
G1_NR = tuple(
    (n, r) for n in range(3, 9) for r in range(3, 9) if (r - 1) ** n <= 120_000
)
G1_N = tuple(range(3, 9))

# Genus 2 yields a nonzero relation (and an EQUAL span verdict) only at r = 3.
G2_N = tuple(range(8, 13))

# pm-table grid: deep recursions (about 1e3 to 3e3 cache misses a command)
# whose cold cost stays between roughly 0.4 and 1.4 seconds.
PM_MR = tuple(
    (m, r)
    for m in (60, 80, 100, 120, 150, 200)
    for r in range(10, 44, 2)
    if 30_000 <= m * r * r <= 90_000
)
# The deepest table: the largest output and peak RSS of the pm-table runs.
PM_DEEPEST = (200, 24)

WORKLOADS = (
    Workload(
        name="g1-relations",
        why="Genus-1 relation sets, symbolic extraction and span checks: "
        "contraction, interpolation, graph enumeration and the leg scan do "
        "nearly all the work.",
        families=(
            # One family per n for the full sets, so that every pass holds one
            # command of each size and the seed only varies r.
            *(Family(f"g1-verify-n{n}", tuple(
                _argv("verify-ac", "--g", 1, "--n", n, "--r", r, "--format", "json")
                for nn, r in G1_NR if nn == n), 1) for n in G1_N),
            *(Family(f"g1-set-n{n}", tuple(
                _argv("relations", "--g", 1, "--n", n, "--r", r, "--format", "json")
                for nn, r in G1_NR if nn == n), 1) for n in G1_N),
            Family("g1-symbolic", tuple(
                _argv("relations", "--g", 1, "--n", n, "--symbolic", "--format", "json")
                for n in G1_N), 6),
            Family("g1-unit", tuple(
                _argv("relations", "--g", 1, "--n", n, "--r", r, "--a", _unit(n, i),
                      "--format", "json")
                for n, r in G1_NR for i in range(n)), 32),
            Family("g1-unit-symbolic", tuple(
                _argv("relations", "--g", 1, "--n", n, "--symbolic", "--a", _unit(n, i),
                      "--format", "json")
                for n in G1_N[:-1] for i in range(n)), 8),
            # cmd_tail_ms is the 11th-slowest command of a pass.  The ten
            # slowest are the n >= 6 sets and selftest; these six equal-cost
            # commands sit just below them, so that the 11th is not at a
            # jump between two very different command sizes.
            Family("g1-unit-symbolic-n8", tuple(
                _argv("relations", "--g", 1, "--n", 8, "--symbolic", "--a", _unit(8, i),
                      "--format", "json")
                for i in range(8)), 6),
            Family("selftest", (_argv("selftest", "--json"),), 1),
        ),
    ),
    Workload(
        name="g2-wide",
        why="Genus 2 at n=8..12 bypasses contraction; rank over ~6000 columns, "
        "basis building, pullback and 200 KB records dominate, with genus-3 "
        "zero sets and genus-4 refusals.",
        families=(
            Family("g2-verify", tuple(
                _argv("verify-ac", "--g", 2, "--n", n, "--r", 3, "--format", "json")
                for n in G2_N), 5),
            Family("g2-set", tuple(
                argv for n in G2_N for argv in (
                    _argv("relations", "--g", 2, "--n", n, "--r", 3, "--format", "json"),
                    _argv("relations", "--g", 2, "--n", n, "--r", 3, "--a", ",".join("0" * n),
                          "--format", "json"),
                )), 20),
            Family("g3", tuple(
                argv for n in range(0, 7) for argv in (
                    _argv("relations", "--g", 3, "--n", n, "--r", 3, "--format", "json"),
                    *(_argv("verify-ac", "--g", 3, "--n", n, "--r", r, "--format", "json")
                      for r in range(3, 6)),
                )), 8),
            Family("g4", tuple(
                _argv("relations", "--g", 4, "--n", n, "--r", r, "--format", "json")
                for n in range(0, 7) for r in range(3, 6)), 6),
        ),
    ),
    Workload(
        name="pm-deep",
        why="Deep P_m tables: the coefficient recursion and its cache take "
        "nearly all the time, while the relation workloads read only P_1 "
        "from a hot cache.",
        families=(
            Family("pm", tuple(
                _argv("pm-table", "--m-max", m, "--r", r, "--format", "json")
                for m, r in PM_MR), 28),
            # Every pass runs the deepest table, so that peak_rss_mb comes
            # from the same command on every seed.
            Family("pm-deepest", (
                _argv("pm-table", "--m-max", PM_DEEPEST[0], "--r", PM_DEEPEST[1],
                      "--format", "json"),
            ), 1),
        ),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def grid_points() -> list[Argv]:
    """Every distinct argv of every workload, in a stable order."""
    seen: dict[Argv, None] = {}
    for workload in WORKLOADS:
        for family in workload.families:
            for argv in family.grid:
                seen.setdefault(argv, None)
    return list(seen)


def key(argv: Argv) -> str:
    return " ".join(argv)


def hash_seed(argv: Argv) -> int:
    """The ``PYTHONHASHSEED`` a command always runs with.  It is fixed per
    argv, so a command costs the same in every sample that holds it, while
    the grid as a whole still spreads over many hash seeds."""
    return int(hashlib.sha256(key(argv).encode()).hexdigest()[:8], 16)


def sample(workload: Workload, seed: int, cost_ms: dict[str, float]) -> list[tuple[Argv, int]]:
    """The seeded command list of one pass: ``count`` stratified picks per
    family, shuffled, each with its hash seed.  ``cost_ms`` maps each argv key
    to its reference cost."""
    rng = random.Random(f"{workload.name}:{seed}")
    picks: list[Argv] = []
    for family in workload.families:
        ranked = sorted(family.grid, key=lambda argv: (cost_ms[key(argv)], argv))
        size = len(ranked)
        for slot in range(family.count):
            picks.append(ranked[int((slot + rng.random()) * size / family.count)])
    rng.shuffle(picks)
    return [(argv, hash_seed(argv)) for argv in picks]
