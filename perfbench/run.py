"""Cold-CLI benchmark for rspinrel, with an outside-in layer trace.

    python3 perfbench/run.py --workload g1-relations --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is used from ``src`` without being
installed.  One client runs the workload's seeded command list as a closed
loop: one cold ``python -m rspinrel.cli`` process at a time, each started only
after the previous one has ended.  Whole passes over the list repeat until
``--seconds`` have elapsed.  Every command's exit code and normalized output
are checked against ``golden.json``.

Timings are calibrated: a fixed stdlib-only probe process runs at least once
a second between commands, and each command's wall time is scaled by
``PROBE_REF_S`` over the mean time of the two probes on either side of it.  The
host's speed drifts by tens of percent over tens of seconds, and the probe
tracks that drift; the raw figures are kept in the run record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced pass of the same list (``tracer.py`` wraps each
layer's functions inside the child process), checks that both give the same
output digests, and reports the per-layer metrics.  The last line of stdout
is the JSON result; the line before it and
``.perfbench-out/<workload>-seed<seed>-trace<t>.json`` record the run's
environment, sample sizes and failures.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import measure
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = ".perfbench-out"
TRACER = (os.path.join(HERE, "tracer.py"),)

SETUP_RUNS = 9          # cold ``--help`` processes per run; setup_s is their median
COMMAND_TIMEOUT = 60.0  # seconds; the slowest grid point takes about 5 s
RUN_LIMIT = 165.0       # seconds; no command starts or runs past this

# The calibration probe: a cold interpreter, a few imports, and exact
# arithmetic with dict updates, like a small rspinrel command.  It uses
# nothing from the repository, so no change to the program moves it.
PROBE = (
    "import argparse, dataclasses, itertools, json\n"
    "from fractions import Fraction as F\n"
    "d = {}\n"
    "for i in range(1, 8000):\n"
    "    k = (i % 17, i % 13)\n"
    "    d[k] = d.get(k, F(0)) + F(i % 7 + 1, i % 11 + 1)\n"
)
PROBE_REF_S = 0.1       # calibrated figures read as if the probe took this long
PROBE_EVERY_S = 1.0     # longest gap between probes
PROBE_WINDOW = 2        # probes on each side of a command that calibrate it

# (name, unit, better); README.md defines each.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cmd_p50_ms", "ms", "lower"),
    ("cmd_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# (name, unit, better, which end-to-end metric it should move, on which workload)
PER_LAYER = (
    ("relations.contraction.busy_s", "s", "lower", "wall_s, cmd_tail_ms on g1-relations; no change on g2-wide, pm-deep"),
    ("relations.contraction.terms", "count", "lower", "wall_s, cmd_tail_ms on g1-relations"),
    ("relations.contraction.nonzero_frac", "ratio", "higher", "wall_s, cmd_tail_ms on g1-relations"),
    ("relations.edge_constant.calls", "count", "lower", "wall_s, cmd_tail_ms on g1-relations"),
    ("cohft.topological_value.calls", "count", "lower", "wall_s, cmd_tail_ms on g1-relations"),
    ("rpoly.interpolate.busy_s", "s", "lower", "wall_s on g1-relations"),
    ("rpoly.interpolate.calls", "count", "lower", "wall_s on g1-relations"),
    ("relations.extract.busy_s", "s", "lower", "wall_s on g1-relations"),
    ("relations.leg_vectors.busy_s", "s", "lower", "cmd_tail_ms on g1-relations; never called on the genus-2 path"),
    ("relations.leg_vectors.tried", "count", "lower", "cmd_tail_ms on g1-relations"),
    ("relations.leg_vectors.admitted", "count", "higher", "cmd_tail_ms on g1-relations"),
    ("relations.leg_vectors.yield", "ratio", "higher", "cmd_tail_ms on g1-relations"),
    ("strata.enumerate_graphs.busy_s", "s", "lower", "wall_s on g1-relations"),
    ("strata.graphs", "count", "lower", "wall_s on g1-relations"),
    ("strata.divisor_generators.busy_s", "s", "lower", "wall_s on g2-wide"),
    ("strata.divisor_generators.calls", "count", "lower", "wall_s on g2-wide"),
    ("strata.basis_size", "count", "lower", "wall_s on g2-wide"),
    ("relations.pullback.busy_s", "s", "lower", "wall_s on g2-wide"),
    ("linalg.rank.busy_s", "s", "lower", "wall_s, peak_rss_mb on g2-wide; minor on g1-relations"),
    ("linalg.rank.calls", "count", "lower", "wall_s, peak_rss_mb on g2-wide; minor on g1-relations"),
    ("linalg.rref.busy_s", "s", "lower", "wall_s, peak_rss_mb on g2-wide; minor on g1-relations"),
    ("linalg.cells", "count", "lower", "wall_s, peak_rss_mb on g2-wide; minor on g1-relations"),
    ("relations.spans_equal.self_s", "s", "lower", "wall_s, peak_rss_mb on g2-wide; minor on g1-relations"),
    ("relations.ac_reference.busy_s", "s", "lower", "wall_s, peak_rss_mb on g2-wide; minor on g1-relations"),
    ("cohft.pm.busy_s", "s", "lower", "wall_s, cmd_p50_ms on pm-deep"),
    ("cohft.pm.misses", "count", "lower", "wall_s, cmd_p50_ms on pm-deep"),
    ("cohft.pm.hit_frac", "ratio", "higher", "wall_s, cmd_p50_ms on pm-deep; stays near 1 on g1-relations"),
    ("cli.self_s", "s", "lower", "cmd_p50_ms on g2-wide, and setup_s"),
    ("trace.overhead_frac", "ratio", "lower", "none: the cost of tracing itself"),
)


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs commands cold against the golden records and keeps the tallies.

    Each command run is one attempt; ``failures`` maps an attempt to the
    first reason it failed, so a command never counts as failed twice."""

    def __init__(self, golden: dict, deadline: float):
        self.golden = golden
        self.deadline = deadline
        self.attempted = 0
        self.failures: dict[int, str] = {}
        self.timeline: list = []  # probe seconds and command outcomes, in run order
        self.last_probe = float("-inf")
        os.makedirs(OUT_DIR, exist_ok=True)

    def fail(self, attempt: int, reason: str, argv) -> None:
        self.failures.setdefault(attempt, f"{reason}: {workloads.key(argv)}")

    def probe(self) -> None:
        outcome = measure.run_cold(("-c", PROBE), (), COMMAND_TIMEOUT, OUT_DIR, 0)
        if outcome.exit_code != 0 or outcome.timed_out:
            raise RuntimeError(f"calibration probe failed: {outcome.stderr.strip()}")
        self.timeline.append(outcome.seconds)
        self.last_probe = time.monotonic()

    def calibrated(self) -> dict[int, float]:
        """Each command's seconds at the reference probe speed, by ``id`` of
        its outcome: its wall time times ``PROBE_REF_S`` over the mean of the
        ``PROBE_WINDOW`` probes run on each side of it."""
        self.probe()
        probes = [item for item in self.timeline if isinstance(item, float)]
        out, seen = {}, 0
        for item in self.timeline:
            if isinstance(item, float):
                seen += 1
                continue
            window = probes[max(0, seen - PROBE_WINDOW): seen + PROBE_WINDOW]
            out[id(item)] = item.seconds * PROBE_REF_S * len(window) / sum(window)
        return out

    def run(self, prefix, argv, hash_seed: int) -> tuple[int, measure.Outcome | None]:
        """One cold command checked against its golden record; the outcome is
        None if the run's time limit left no room for it."""
        attempt = self.attempted
        self.attempted += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.fail(attempt, "not started before the run limit", argv)
            return attempt, None
        if time.monotonic() - self.last_probe >= PROBE_EVERY_S:
            self.probe()
        outcome = measure.run_cold(prefix, argv, min(COMMAND_TIMEOUT, remaining), OUT_DIR,
                                   hash_seed)
        self.timeline.append(outcome)
        reason = measure.failure(outcome, self.golden[workloads.key(argv)])
        if reason:
            self.fail(attempt, reason, argv)
        return attempt, outcome

    def setup(self) -> list[measure.Outcome]:
        """The set-up runs, each right after a probe: they are short, so the
        once-a-second probes alone would calibrate them poorly."""
        outcomes = []
        for hash_seed in range(SETUP_RUNS):
            self.probe()
            outcomes.append(self.run(measure.CLI, ("--help",), hash_seed)[1])
        return [outcome for outcome in outcomes if outcome is not None]

    def plain_pass(self, commands) -> list[measure.Outcome | None]:
        return [self.run(measure.CLI, argv, hash_seed)[1] for argv, hash_seed in commands]

    def traced_pass(self, commands, plain) -> list[tuple[measure.Outcome | None, dict | None]]:
        """Trace each command; its output digest must equal the untraced one."""
        spans_file = os.path.join(OUT_DIR, f"spans-{os.getpid()}.json")
        out = []
        for (argv, hash_seed), untraced in zip(commands, plain):
            if os.path.exists(spans_file):
                os.remove(spans_file)
            attempt, outcome = self.run(TRACER + (spans_file,), argv, hash_seed)
            trace = None
            if outcome is not None:
                if os.path.exists(spans_file):
                    with open(spans_file) as fh:
                        trace = json.load(fh)
                    os.remove(spans_file)
                else:
                    self.fail(attempt, "traced run wrote no spans", argv)
                if untraced is not None and measure.digest(
                        outcome.exit_code, outcome.stdout) != measure.digest(
                        untraced.exit_code, untraced.stdout):
                    self.fail(attempt, "traced output differs from the untraced output", argv)
            out.append((outcome, trace))
        return out


def pass_wall(outcomes, seconds) -> float:
    return sum(seconds(o) for o in outcomes if o is not None)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(passes, setup, per_pass: int, seconds) -> tuple[dict, dict]:
    """The end-to-end metrics, with ``seconds(outcome)`` as each command's time."""
    latencies = [seconds(o) for outcomes in passes for o in outcomes if o is not None]
    percentile = measure.tail_percentile(per_pass)
    values = {
        "wall_s": statistics.median(pass_wall(p, seconds) for p in passes),
        "cmd_p50_ms": 1000 * statistics.median(latencies),
        "cmd_tail_ms": 1000 * measure.nearest_rank(latencies, percentile),
        "peak_rss_mb": max(o.peak_rss_kb for p in passes for o in p if o is not None) / 1024,
        "setup_s": statistics.median(seconds(o) for o in setup),
    }
    tail = {"percentile": percentile, "samples": len(latencies),
            "beyond": measure.beyond(len(latencies), percentile)}
    return values, tail


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(traced, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass: sums over its commands."""
    busy: dict[str, int] = {}
    own: dict[str, int] = {}
    counters: dict[str, int] = {}
    cli_self = 0.0
    for outcome, trace in traced:
        if outcome is None or trace is None:
            continue
        totals = tracer.layer_totals(trace["spans"])
        for layer, entry in totals.items():
            busy[layer] = busy.get(layer, 0) + entry["busy"]
            own[layer] = own.get(layer, 0) + entry["self"]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        cli_self += outcome.seconds - totals[""]["busy"] / 1e9
    derived = {
        "relations.contraction.nonzero_frac": _ratio(
            counters.get("relations.contraction.nonzero", 0),
            counters.get("relations.contraction.terms", 0)),
        "relations.leg_vectors.yield": _ratio(
            counters.get("relations.leg_vectors.admitted", 0),
            counters.get("relations.leg_vectors.tried", 0)),
        "cohft.pm.hit_frac": _ratio(
            counters.get("cohft.pm.hits", 0),
            counters.get("cohft.pm.hits", 0) + counters.get("cohft.pm.misses", 0)),
        "cli.self_s": cli_self,
        "trace.overhead_frac": overhead,
    }
    values = {}
    for name, _, _, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".busy_s"):
            values[name] = busy.get(name[: -len(".busy_s")], 0) / 1e9
        elif name.endswith(".self_s"):
            values[name] = own.get(name[: -len(".self_s")], 0) / 1e9
        else:
            values[name] = counters.get(name, 0)
    return values


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "rspinrel", "*.py"))):
        with open(path, "rb") as fh:
            sources.update(path.encode() + b"\0" + fh.read())
    return {"seed": seed, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "commit": commit,
            "src_sha256": sources.hexdigest()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rspinrel", "cli.py")):
        print("error: run from the repository root; src/rspinrel/cli.py is missing",
              file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    workload = workloads.BY_NAME[args.workload]
    commands = workloads.sample(
        workload, args.seed, {name: entry["ref_ms"] for name, entry in golden.items()})

    runner = Runner(golden, time.monotonic() + RUN_LIMIT)
    setup = runner.setup()
    plain, traced = [], []
    start = time.monotonic()
    while not plain or time.monotonic() - start < args.seconds:
        plain.append(runner.plain_pass(commands))
        if args.trace:
            traced.append(runner.traced_pass(commands, plain[-1]))
        if time.monotonic() >= runner.deadline:
            break

    calibrated = runner.calibrated()

    def cal(outcome):
        return calibrated[id(outcome)]

    e2e, tail = end_to_end(plain, setup, len(commands), cal)
    raw, _ = end_to_end(plain, setup, len(commands), lambda outcome: outcome.seconds)
    probes = [item for item in runner.timeline if isinstance(item, float)]
    if args.trace:
        overhead = _ratio(statistics.median(pass_wall((t for t, _ in p), cal) for p in traced),
                          e2e["wall_s"]) - 1
        per_pass = [layer_values(p, overhead) for p in traced]
        values = {name: statistics.median(v[name] for v in per_pass)
                  for name, _, _, _ in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}

    failures = list(runner.failures.values())
    failed = len(failures)
    record = {
        "workload": workload.name, "why": workload.why,
        "environment": environment(args.seed), "seconds": args.seconds,
        "passes": len(plain), "commands_per_pass": len(commands),
        "cmd_tail": tail, "end_to_end": e2e, "end_to_end_raw": raw,
        "probe": {"count": len(probes), "median_s": statistics.median(probes),
                  "reference_s": PROBE_REF_S},
        "failures": failures,
        # per command: argv, hash seed, then [raw ms, calibrated ms] per pass
        "commands": [
            [workloads.key(argv), hash_seed,
             [[round(1000 * p[i].seconds, 3), round(1000 * cal(p[i]), 3)] if p[i] else None
              for p in plain]]
            for i, (argv, hash_seed) in enumerate(commands)],
    }
    if args.trace:
        record["per_layer"] = {name: metrics[name]["value"] for name in metrics}
        record["layer_moves"] = {name: moves for name, _, _, moves in PER_LAYER}
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({key: record[key] for key in
                      ("workload", "environment", "passes", "commands_per_pass",
                       "cmd_tail", "probe")} | {"failures": failures[:5], "record": path}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
