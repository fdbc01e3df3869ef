"""Command-line front end.

Subcommands: ``relations`` (assemble and print divisor relations),
``verify-ac`` (compare spans against the known complete set), ``pm-table``
(coefficient polynomial table), ``selftest`` (acceptance suite).

Exit codes are a stable contract: 0 success, 1 usage error or failed
verification, 2 degree-gate refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import gcd

# The module docstring is the --help text.  A process loads only what its
# subcommand runs: module level needs cohft alone, which is all that --help,
# pm-table and the up-front refusals use, and the other subcommands import
# their modules once their arguments pass.  p_row stays a module global
# because tests patch it here.
from .cohft import DegreeGateError, p_row, phi_degree

SCHEMA_VERSION = 1
# Largest r any subcommand accepts.  The work and output grow with r (a row of
# the P_m table has r - 1 entries), and near r = 10^9 one row exhausts memory.
MAX_R = 1000
# Largest P_m table in entries, m-max + 1 rows of r - 1.  Entries lengthen with
# m; within this bound a table prints at most about 11 MB of JSON.
MAX_PM_ENTRIES = 5000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad arguments; the contract here is 1."""

    def error(self, message):
        raise UsageError(message)


def _format_terms(names: list[str], coeffs: list[int]) -> str:
    terms = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{name}"
                     for c, name in zip(coeffs, names) if c)
    if not terms:
        return "0 = 0"
    return ("-" if terms[0] == "-" else "") + terms[2:] + " = 0"


def _relation_record(names: list[str], coeffs, prov) -> dict:
    """One JSON relation: generator names, primitive integer coefficients and
    the (g, n, a, r) the relation came from."""
    return {
        "generators": names,
        "coeffs": list(coeffs),
        "g": prov.g,
        "n": prov.n,
        "a": list(prov.a_vec) if prov.a_vec is not None else None,
        "r": prov.r_mode,
    }


def _emit(record: dict, fmt: str, text_lines) -> None:
    """Print ``record`` as JSON, or else the lines ``text_lines()`` yields."""
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def _check_space(g: int, n: int) -> None:
    if g < 1:
        raise UsageError("genus must be at least 1 (genus 0 is out of scope)")
    if 2 * g - 2 + n <= 0:
        raise UsageError(f"(g, n) = ({g}, {n}) is unstable")
    if n < 0:
        raise UsageError("n must be nonnegative")


def _check_r(r: int) -> None:
    if r < 3:
        raise UsageError("r must be at least 3")
    if r > MAX_R:
        raise UsageError(f"r must be at most {MAX_R}")


def _cmd_relations(args) -> int:
    g, n = args.g, args.n
    _check_space(g, n)
    if args.symbolic and args.r is not None:
        raise UsageError("--r and --symbolic are mutually exclusive")
    if not args.symbolic and args.r is None:
        raise UsageError("provide --r or --symbolic")
    if args.r is not None:
        _check_r(args.r)

    a_vec = None
    if args.a is not None:
        try:
            a_vec = tuple(int(x) for x in args.a.split(",")) if args.a else ()
        except ValueError:
            raise UsageError(f"cannot parse leg vector {args.a!r}")
        if len(a_vec) != n:
            raise UsageError(f"leg vector length {len(a_vec)} != n = {n}")
    if args.symbolic and g != 1:
        raise UsageError("symbolic mode is supported in genus 1 only")
    if not args.symbolic and a_vec is None:
        # Refuse up front when no leg vector can pass the degree gate; the
        # all-zero vector, whose report is that of no legs, minimizes the
        # gated quantity over all leg choices.
        report = phi_degree(g, 1, (), args.r)
        if not report.relation_exists:
            raise DegreeGateError(g, n, (0,) * n, args.r)

    from .relations import (Provenance, assembled_relation_set, ppz_relation_set,
                            relation_row)
    from .strata import check_space, generator_names

    start = time.perf_counter()
    notes: list[str] = []
    rows, provenances = [], []

    if args.symbolic:
        if a_vec is None:
            # Refuse an oversized basis before n leg vectors are built.
            check_space(g, n)
        a_choices = [a_vec] if a_vec is not None else [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]
        extracted = assembled_relation_set(g, n, a_choices)
        rows, provenances = extracted.rows, extracted.provenances
        header = f"relations g={g} n={n} r=symbolic ({len(rows)} extracted)"
    elif a_vec is not None:
        if g == 2 and n > 0:
            # Marked genus-2 relations are pullbacks of the unmarked one,
            # never direct assemblies; the unmarked space fixes the leg data,
            # and the full set is that one pulled-back row, with a = ().
            if any(a_vec):
                raise UsageError("genus 2 with markings takes only the all-zero leg vector")
            if not phi_degree(2, 1, (), args.r).relation_exists:
                raise DegreeGateError(2, 0, (), args.r)
            pulled = ppz_relation_set(2, n, args.r)
            rows, provenances = pulled.reduced_rows(), pulled.provenances
        else:
            row = relation_row(g, n, a_vec, args.r)
            if any(row):
                rows, provenances = [row], [Provenance(g, n, a_vec, args.r)]
        header = f"relations g={g} n={n} r={args.r} a={list(a_vec)}"
        if not rows:
            notes.append("zero relation: every graph contribution vanishes")
            header += ": 0 = 0"
    else:
        rows = ppz_relation_set(g, n, args.r).reduced_rows()
        provenances = [Provenance(g=g, n=n, a_vec=None, r_mode=args.r)] * len(rows)
        if not rows:
            notes.append("zero relation: every graph contribution vanishes")
            if not report.d_integral:
                notes.append(
                    "auxiliary degree is not an integer multiple of r-1"
                )
        header = f"relations g={g} n={n} r={args.r} ({len(rows)} normalized relations)"

    names = generator_names(g, n)
    payloads = [_relation_record(names, row, prov) for row, prov in zip(rows, provenances)]
    elapsed_ms = round(1000 * (time.perf_counter() - start), 3)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "relations",
        "params": {
            "g": g,
            "n": n,
            "r": "symbolic" if args.symbolic else args.r,
            "a": list(a_vec) if a_vec is not None else None,
            "format": args.format,
        },
        "relations": payloads,
        "verdicts": [],
        "notes": notes,
        "elapsed_ms": elapsed_ms,
    }

    def text_lines():
        yield header
        for payload in payloads:
            # Symbolic relations carry their power of r and leg vector.
            label = f"[{payload['r']}, a={payload['a']}] " if args.symbolic else ""
            yield "  " + label + _format_terms(payload["generators"], payload["coeffs"])
        for note in notes:
            yield f"  note: {note}"

    _emit(record, args.format, text_lines)
    return 0


def _cmd_verify_ac(args) -> int:
    _check_space(args.g, args.n)
    _check_r(args.r)

    from .relations import ac_relations, ppz_relation_set, spans_equal

    start = time.perf_counter()
    computed = ppz_relation_set(args.g, args.n, args.r)
    reference = ac_relations(args.g, args.n)
    report = spans_equal(computed, reference)
    verdict = "EQUAL" if report.equal else "DIFFERENT"
    elapsed_ms = round(1000 * (time.perf_counter() - start), 3)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-ac",
        "params": {"g": args.g, "n": args.n, "r": args.r, "format": args.format},
        "relations": [],
        "verdicts": [
            {
                "name": "span-comparison",
                "verdict": verdict,
                "rank_computed": report.rank_left,
                "rank_reference": report.rank_right,
                "rank_union": report.rank_union,
            }
        ],
        "notes": [],
        "elapsed_ms": elapsed_ms,
    }

    def text_lines():
        yield (
            f"verify-ac g={args.g} n={args.n} r={args.r}: {verdict} "
            f"(computed rank {report.rank_left}, reference rank {report.rank_right}, "
            f"union rank {report.rank_union})"
        )

    _emit(record, args.format, text_lines)
    return 0 if report.equal else 1


def _cmd_pm_table(args) -> int:
    _check_r(args.r)
    if args.m_max < 0:
        raise UsageError("m-max must be nonnegative")
    entries = (args.m_max + 1) * (args.r - 1)
    if entries > MAX_PM_ENTRIES:
        raise UsageError(
            f"the table would have (m-max + 1)(r - 1) = {entries} entries, "
            f"above the limit of {MAX_PM_ENTRIES}"
        )
    start = time.perf_counter()
    rows = []
    for m in range(args.m_max + 1):
        numerators, den = p_row(m, args.r)
        try:  # the text of Fraction(x, den), reduced by one gcd per entry
            rows.append([f"{x // g}/{den // g}" if den != g else str(x // g)
                         for x in numerators for g in (gcd(x, den),)])
        except ValueError:  # past Python's limit on int-to-decimal conversion
            raise ValueError(
                f"the entries of row m={m} are too long to print in decimal; "
                f"lower --m-max below {m}"
            ) from None
    elapsed_ms = round(1000 * (time.perf_counter() - start), 3)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "pm-table",
        "params": {"m_max": args.m_max, "r": args.r, "format": args.format},
        "relations": [],
        "verdicts": [],
        "table": [{"m": m, "values": row} for m, row in enumerate(rows)],
        "notes": [],
        "elapsed_ms": elapsed_ms,
    }

    def text_lines():
        width = max(6, max((len(v) for row in rows for v in row), default=6)) + 1
        header = "m \\ a |" + "".join(f"{a:>{width}}" for a in range(args.r - 1))
        yield f"P_m(r, a) for r={args.r}"
        yield header
        yield "-" * len(header)
        for m, row in enumerate(rows):
            yield f"{m:>5} |" + "".join(f"{v:>{width}}" for v in row)

    _emit(record, args.format, text_lines)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_acceptance

    results = run_acceptance()
    fmt = "json" if args.json else args.format
    passed = sum(res.passed for res in results)
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": "selftest",
        "params": {"format": fmt},
        "relations": [],
        "verdicts": [
            {
                "id": res.id,
                "title": res.title,
                "verdict": "PASS" if res.passed else "FAIL",
                "detail": res.detail,
                "elapsed_s": round(res.elapsed_s, 3),
            }
            for res in results
        ],
        "notes": [],
        "elapsed_ms": round(1000 * sum(res.elapsed_s for res in results), 3),
    }

    def text_lines():
        for res in results:
            yield res.line()
        yield f"{passed}/{len(results)} criteria passed"

    _emit(record, fmt, text_lines)
    return 0 if passed == len(results) else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="rspinrel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rel = sub.add_parser("relations", help="assemble divisor relations")
    p_rel.add_argument("--g", type=int, required=True)
    p_rel.add_argument("--n", type=int, required=True)
    p_rel.add_argument("--r", type=int)
    p_rel.add_argument("--symbolic", action="store_true")
    p_rel.add_argument("--a", type=str, help="comma-separated leg vector")
    p_rel.add_argument("--format", choices=("text", "json"), default="text")
    p_rel.set_defaults(fn=_cmd_relations)

    p_ver = sub.add_parser("verify-ac", help="compare spans with the known set")
    p_ver.add_argument("--g", type=int, required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--r", type=int, required=True)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(fn=_cmd_verify_ac)

    p_tab = sub.add_parser("pm-table", help="print the coefficient table")
    p_tab.add_argument("--m-max", type=int, required=True)
    p_tab.add_argument("--r", type=int, required=True)
    p_tab.add_argument("--format", choices=("text", "json"), default="text")
    p_tab.set_defaults(fn=_cmd_pm_table)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--format", choices=("text", "json"), default="text")
    p_self.add_argument("--json", action="store_true", help="shorthand for --format json")
    p_self.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left early (``| head``): as the Python docs' SIGPIPE note
        # shows, point stdout at devnull so that the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except DegreeGateError as exc:
        print(f"refused: {exc} (target codimension D = 1)", file=sys.stderr)
        return 2
    except ValueError as exc:  # StabilityError and UnsupportedGenusError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
