"""Running one cold process, checking its output, and the summary statistics.

Every command runs as a fresh process (``python -m rspinrel.cli ...``, or the
tracer) with ``src`` on ``PYTHONPATH``, started and measured by ``launch.py``:
wall time from spawn to reaping, and the peak RSS of that process alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

CLI = ("-m", "rspinrel.cli")
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")


@dataclass(frozen=True)
class Outcome:
    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    peak_rss_kb: int
    timed_out: bool


def child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_cold(prefix: tuple[str, ...], argv: tuple[str, ...], timeout: float,
             scratch_dir: str, hash_seed: int) -> Outcome:
    """Run ``python <prefix> <argv>`` to completion through the launcher.

    The child's ``PYTHONHASHSEED`` is given: set and dict iteration orders,
    and with them the cost of some commands, vary with it by up to about 10%.
    """
    paths = [os.path.join(scratch_dir, f"{name}-{os.getpid()}") for name in ("out", "err")]
    report = subprocess.run(
        [sys.executable, "-S", LAUNCHER, str(timeout), *paths, sys.executable, *prefix, *argv],
        env=child_env(hash_seed), stdin=subprocess.DEVNULL, capture_output=True,
        text=True, check=True, timeout=timeout + 60)
    result = json.loads(report.stdout)
    texts = []
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as fh:
            texts.append(fh.read())
        os.remove(path)
    return Outcome(result["seconds"], result["exit_code"], texts[0], texts[1],
                   result["peak_rss_kb"], result["timed_out"])


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------

def normalize(record: dict) -> dict:
    """The JSON record without its timing fields: the top-level
    ``elapsed_ms`` and each verdict's ``elapsed_s``.  Everything else is kept."""
    out = {k: v for k, v in record.items() if k != "elapsed_ms"}
    if isinstance(out.get("verdicts"), list):
        out["verdicts"] = [
            {k: v for k, v in verdict.items() if k != "elapsed_s"}
            if isinstance(verdict, dict) else verdict
            for verdict in out["verdicts"]
        ]
    return out


def digest(exit_code: int, stdout: str) -> str:
    """Hash of the exit code and the normalized output.  Output that is not a
    JSON record (for example the empty output of a refusal) is hashed as is."""
    try:
        body = json.dumps(normalize(json.loads(stdout)), sort_keys=True,
                          separators=(",", ":"))
    except (ValueError, AttributeError):
        body = stdout
    return hashlib.sha256(f"{exit_code}\n{body}".encode()).hexdigest()


def failure(outcome: Outcome, expected: dict) -> str | None:
    """Why a command failed against its golden entry, or None if it did not."""
    if outcome.timed_out:
        return "timed out"
    if "Traceback (most recent call last)" in outcome.stderr:
        return "traceback on stderr"
    if outcome.exit_code != expected["exit"]:
        return f"exit code {outcome.exit_code}, expected {expected['exit']}"
    if digest(outcome.exit_code, outcome.stdout) != expected["digest"]:
        return "output digest differs from the golden record"
    return None


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def nearest_rank(values: list[float], percentile: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``percentile`` percent of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, percentile: int) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(percentile * count / 100))


def tail_percentile(count: int) -> int:
    """The highest whole percentile, at least the median, that leaves ten or
    more of ``count`` samples beyond it.  Below 20 samples no percentile at
    or above the median qualifies, and the median is returned."""
    for percentile in range(99, 49, -1):
        if beyond(count, percentile) >= 10:
            return percentile
    return 50
