"""Command-line front end.

Subcommands: ``relations`` (assemble and print divisor relations),
``verify-ac`` (compare spans against the known complete set), ``pm-table``
(coefficient polynomial table), ``selftest`` (acceptance suite).

A command's work after its usage checks lives in the module it loads
(``relations``, ``cohft``, ``selftest``), so a process compiles no other
command's; no library module imports this one.

Exit codes are a stable contract: 0 success, 1 usage error or failed
verification, 2 degree-gate refusal.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from types import SimpleNamespace

# A process loads only what its subcommand runs: module level imports no
# library module and not json, so --help and every usage refusal stop at the
# reading of argv, and each subcommand imports its modules once its arguments
# pass.

SCHEMA_VERSION = 1
# Largest r any subcommand accepts.  The work and output grow with r (a row of
# the P_m table has r - 1 entries), and near r = 10^9 one row exhausts memory.
MAX_R = 1000
# Largest P_m table in entries, m-max + 1 rows of r - 1.  Entries lengthen with
# m; the most JSON within this bound is about 14 MB (``--m-max 793 --r 7``).
MAX_PM_ENTRIES = 5000
# Least length of every write of a JSON record's text but the last, in
# characters (bytes: the text is ASCII).  The text is encoded a piece at a
# time and written in batches, so no process holds it whole, encoded or not.
JSON_SLICE = 1 << 16
# Longest list below a record's top-level lists that is encoded in one piece.
JSON_RUN = 1 << 10


class UsageError(Exception):
    pass


def _json_dumps(fmt: str):
    """``json.JSONEncoder(sort_keys=True).encode`` if the command prints its
    JSON record, else None.  A command asks once its arguments pass and
    before its work, so json loads only for JSON output, and not on top of the
    finished record, where its import would raise the command's peak memory."""
    if fmt == "json":
        import json

        return json.JSONEncoder(sort_keys=True).encode
    return None


def _long(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) > JSON_RUN


def _json_pieces(dumps, value, depth=0, lead=""):
    """The text of ``lead + dumps(value)`` in pieces, for ``value`` at
    ``depth`` in the record: the record key by key and its lists item by
    item; below them a dict with a ``_long`` value key by key (if its keys are
    all str: ``dumps(1)`` is ``1``, not ``"1"``) and a ``_long`` list in runs
    of ``JSON_RUN`` items; all else in one call."""
    if isinstance(value, dict) and value and (not depth or any(map(_long, value.values()))) \
            and all(isinstance(key, str) for key in value):
        for i, key in enumerate(sorted(value)):
            yield from _json_pieces(dumps, value[key], depth + 1,
                                    (lead + "{" if i == 0 else ", ") + dumps(key) + ": ")
        yield "}"
    elif depth == 1 and isinstance(value, (list, tuple)) and value:
        for j, item in enumerate(value):
            yield from _json_pieces(dumps, item, 2, lead + "[" if j == 0 else ", ")
        yield "]"
    elif depth > 1 and _long(value):
        for j in range(0, len(value), JSON_RUN):
            run = dumps(value[j:j + JSON_RUN])[1:-1]
            yield (lead + "[" if j == 0 else ", ") + run
        yield "]"
    else:
        yield lead + dumps(value)


def _emit(dumps, command: str, params: dict, start: float, text_lines, **fields) -> None:
    """Print ``command``'s JSON record with ``dumps``, or without it the lines
    ``text_lines()`` yields.  Only JSON output builds the record, so its
    ``params`` add the format json; ``fields`` are its entries that are not
    empty, and ``elapsed_ms``, unless given, is the time since ``start``.
    The record is built whole, its text never: ``_json_pieces`` encodes it
    an item or a run of a long row at a time, and stdout gets the pieces in
    writes of ``JSON_SLICE`` characters or more, then the rest and a newline;
    a write per piece raised a cold command's peak memory."""
    if dumps:
        record = {"schema_version": SCHEMA_VERSION, "command": command,
                  "params": {**params, "format": "json"}, "relations": [], "verdicts": [],
                  "notes": [], **fields}
        if "elapsed_ms" not in record:
            record["elapsed_ms"] = round(1000 * (time.perf_counter() - start), 3)
        write, pending = sys.stdout.write, ""
        for piece in _json_pieces(dumps, record):
            pending += piece
            if len(pending) >= JSON_SLICE:
                write(pending)
                pending = ""
        write(pending + "\n")
    else:
        for line in text_lines():
            print(line)


def _check_space(g: int, n: int) -> None:
    if g < 1:
        raise UsageError("genus must be at least 1 (genus 0 is out of scope)")
    if n < 0:
        raise UsageError("n must be nonnegative")
    if 2 * g - 2 + n <= 0:
        raise UsageError(f"(g, n) = ({g}, {n}) is unstable")


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
    if args.symbolic and g != 1:
        raise UsageError("symbolic mode is supported in genus 1 only")

    a_vec = None
    if args.a is not None:
        try:
            a_vec = tuple(int(x) for x in args.a.split(",")) if args.a else ()
        except ValueError:
            raise UsageError(f"cannot parse leg vector {args.a!r}")
        if len(a_vec) != n:
            raise UsageError(f"leg vector length {len(a_vec)} != n = {n}")
        # A leg entry is a basis index 0..r-2; under --symbolic, that of
        # r = 3, the smallest r, where the symbolic assembly applies its gate.
        r = 3 if args.symbolic else args.r
        if not all(0 <= a <= r - 2 for a in a_vec):
            sample = "the first r sample, " if args.symbolic else ""
            raise UsageError(
                f"leg vector entries must lie in 0..{r - 2}, the range 0..r-2 at {sample}r = {r}"
            )
        if g == 2 and any(a_vec):
            # Marked genus-2 relations are pullbacks of the unmarked one,
            # whose only leg vector is ().
            raise UsageError("genus 2 with markings takes only the all-zero leg vector")

    if not args.symbolic and a_vec is None:
        from .strata import DegreeGateError, phi_degree

        # Refuse up front when no leg vector can pass the degree gate; the
        # all-zero vector, whose report is that of no legs, minimizes the
        # gated quantity over all leg choices.
        if not phi_degree(g, (), args.r).relation_exists:
            raise DegreeGateError(g, n, 0, args.r)

    from .relations import relation_lines, relation_records

    dumps = _json_dumps(args.format)
    start = time.perf_counter()
    # --r is None exactly under --symbolic.
    records, notes = relation_records(g, n, args.r, a_vec)
    params = {"g": g, "n": n, "r": "symbolic" if args.symbolic else args.r,
              "a": list(a_vec) if a_vec is not None else None}
    _emit(dumps, "relations", params, start, lambda: relation_lines(
        g, n, args.r, a_vec, records, notes), relations=records, notes=notes)
    return 0


def _cmd_verify_ac(args) -> int:
    _check_space(args.g, args.n)
    _check_r(args.r)

    from .relations import verify_ac

    dumps = _json_dumps(args.format)
    start = time.perf_counter()
    verdict = verify_ac(args.g, args.n, args.r)

    def text_lines():
        yield (
            f"verify-ac g={args.g} n={args.n} r={args.r}: {verdict['verdict']} "
            f"(computed rank {verdict['rank_computed']}, reference rank "
            f"{verdict['rank_reference']}, union rank {verdict['rank_union']})"
        )

    _emit(dumps, "verify-ac", {"g": args.g, "n": args.n, "r": args.r}, start, text_lines,
          verdicts=[verdict])
    return 0 if verdict["verdict"] == "EQUAL" else 1


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

    from .cohft import pm_table, pm_table_lines

    dumps = _json_dumps(args.format)
    start = time.perf_counter()
    rows = pm_table(args.m_max, args.r)
    _emit(dumps, "pm-table", {"m_max": args.m_max, "r": args.r}, start,
          lambda: pm_table_lines(rows, args.r),
          table=[{"m": m, "values": row} for m, row in enumerate(rows)])
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_acceptance

    dumps = _json_dumps("json" if args.json else args.format)
    results = run_acceptance()
    passed = sum(res.passed for res in results)

    def text_lines():
        for res in results:
            yield res.line()
        yield f"{passed}/{len(results)} criteria passed"

    # The record's time is that of the criteria alone.
    _emit(dumps, "selftest", {}, None, text_lines,
          verdicts=[res.record() for res in results],
          elapsed_ms=round(1000 * sum(res.elapsed_s for res in results), 3))
    return 0 if passed == len(results) else 1


# Each subcommand's runner, its help line and its options, in help order: an
# option's kind (int, str, bool for a flag, or a tuple of choices, the first of
# them the default), whether it is required, and its help text.  An option not
# given reads as False if it is a flag and as None otherwise.
_FORMAT = {"--format": (("text", "json"), False, "")}
_COMMANDS = {
    "relations": (_cmd_relations, "assemble divisor relations", {
        "--g": (int, True, ""), "--n": (int, True, ""), "--r": (int, False, ""),
        "--symbolic": (bool, False, ""), "--a": (str, False, "comma-separated leg vector"),
        **_FORMAT}),
    "verify-ac": (_cmd_verify_ac, "compare spans with the known set", {
        "--g": (int, True, ""), "--n": (int, True, ""), "--r": (int, True, ""), **_FORMAT}),
    "pm-table": (_cmd_pm_table, "print the coefficient table", {
        "--m-max": (int, True, ""), "--r": (int, True, ""), **_FORMAT}),
    "selftest": (_cmd_selftest, "run the acceptance suite", {
        **_FORMAT, "--json": (bool, False, "shorthand for --format json")}),
}
# Known before and after the subcommand, as options of kind None.
_HELP_OPTIONS = dict.fromkeys(("-h", "--help"), (None, False, "show this help message and exit"))
# The top-level help's description, which restates the module docstring.
_DESCRIPTION = """\
Command-line front end. Subcommands: ``relations`` (assemble and print divisor
relations), ``verify-ac`` (compare spans against the known complete set),
``pm-table`` (coefficient polynomial table), ``selftest`` (acceptance suite).
Exit codes are a stable contract: 0 success, 1 usage error or failed
verification, 2 degree-gate refusal."""


def _invocation(name: str, kind) -> str:
    """How help names an option: a value's metavar follows its name."""
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return name if kind in (bool, None) else f"{name} {name[2:].upper().replace('-', '_')}"


def _usage(command=None) -> str:
    """The usage line of ``command``, or the top-level one for None, wrapped
    as argparse wraps it for 80 columns: a part that would pass column 78
    starts a line under the first part; a required option's metavar is a
    part of its own."""
    prefix, parts = "usage: rspinrel", ["{" + ",".join(_COMMANDS) + "}", "..."]
    if command:
        prefix, parts = f"{prefix} {command}", []
        for name, (kind, required, _) in _COMMANDS[command][2].items():
            invocation = _invocation(name, kind)
            parts += invocation.split() if required else [f"[{invocation}]"]
    lines = [prefix]
    for part in [f"[{next(iter(_HELP_OPTIONS))}]", *parts]:
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(" " * len(prefix))
        lines[-1] += " " + part
    return "\n".join(lines)


def _help(command) -> str:
    """The help text of ``command``, or the top-level one for None, laid out
    from the tables as argparse lays it out for 80 columns: help texts start
    at column 24 on their row's line, since each table has a row 20 columns
    wide or more (the subcommand list, ``--format {text,json}``) and none
    with a help text is wider (18 columns for a subcommand's name)."""
    options = {", ".join(_HELP_OPTIONS): _HELP_OPTIONS["-h"],
               **(_COMMANDS[command][2] if command else {})}
    rows = ["", "options:"] + [f"{'  ' + _invocation(name, kind):<22}  {text}".rstrip()
                               for name, (kind, _, text) in options.items()]
    if command is None:
        rows = ["", _DESCRIPTION, "", "positional arguments:", "  {" + ",".join(_COMMANDS) + "}",
                *(f"    {name:<18}  {entry[1]}" for name, entry in _COMMANDS.items()), *rows]
    return "\n".join([_usage(command), *rows, ""])


def _option(arg: str, names) -> tuple | None:
    """How ``arg`` reads among the option ``names``: None for a value, else
    the option it names (None if none does) and the text joined to it, after
    '=' or after a one-letter option (None if there is none).  A long option
    may be cut to a unique prefix; a negative number is a value."""
    if arg[:1] != "-" or arg == "-":
        return None
    head, eq, joined = arg.partition("=")
    joined = joined if eq else None
    if head in names:
        return head, joined
    if arg[1] == "-":
        found = [name for name in names if name.startswith(head)]
    else:
        found, joined = [arg[:2]] if arg[:2] in names else [], arg[2:]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {arg} could match {', '.join(found)}")
    if found:
        return found[0], joined
    number = arg[1:-1] if arg.endswith("\n") else arg[1:]
    whole, dot, fraction = number.partition(".")
    if number.isdecimal() or dot and fraction.isdecimal() and (whole.isdecimal() or not whole):
        return None
    return None if " " in arg else (None, None)


def _value(name: str, kind, text: str):
    """The value of ``text`` for the option or argument ``name``."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    return text


def _take(argv, command, options: dict, given: dict, extras: list) -> bool:
    """Read argv's ``options`` into ``given`` in order, so the last of a
    repeat wins, and the arguments that name none into ``extras``; False
    once a help option prints ``command``'s help where it stands.  Every
    argument after the first "--" is a value."""
    names = {**_HELP_OPTIONS, **options}
    tokens = [_option(arg, names) for arg in argv[:argv.index("--") if "--" in argv else None]]
    i = 0
    while i < len(tokens):
        token, i = tokens[i], i + 1
        if token is None or token[0] is None:
            extras.append(argv[i - 1])
            continue
        name, joined = token
        kind = names[name][0]
        if kind in (bool, None) and joined is not None:
            # A one-letter flag reads joined text as more flags; -h is the only one.
            rest = joined.lstrip("h") if name == "-h" else joined
            if rest or not joined:
                label = "-h/--help" if kind is None else name
                raise UsageError(f"argument {label}: ignored explicit argument {rest!r}")
        if kind is None:
            sys.stdout.write(_help(command))
            return False
        if kind is not bool and joined is None:
            if i == len(tokens) or tokens[i] is not None:
                raise UsageError(f"argument {name}: expected one argument")
            joined, i = argv[i], i + 1
        given[name] = True if kind is bool else _value(name, kind, joined)
    extras += argv[len(tokens):]
    return True


def _read_argv(argv: list):
    """The arguments of argv's subcommand, with its runner as ``fn``, or None
    once a help text is printed.  Before the subcommand only the help option
    is known: the first value names the subcommand, and the arguments after
    it are its own.  A refusal raises UsageError."""
    i = 0
    while i < len(argv) and argv[i] != "--" and _option(argv[i], _HELP_OPTIONS) is not None:
        i += 1
    given, extras = {}, []
    if not _take(argv[:i], None, {}, given, extras):
        return None
    if argv[i:] in ([], ["--"]):
        raise UsageError("the following arguments are required: command")
    command = argv[i]
    fn, _, options = _COMMANDS[_value("command", tuple(_COMMANDS), command)]
    if not _take(argv[i + 1:], command, options, given, extras):
        return None
    args, missing = SimpleNamespace(fn=fn), []
    for name, (kind, required, _) in options.items():
        if required and name not in given:
            missing.append(name)
        default = False if kind is bool else kind[0] if isinstance(kind, tuple) else None
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        code = args.fn(args) if args else 0
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left early (``| head``): as the Python docs' SIGPIPE note
        # shows, point stdout at devnull so that the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 1
    except ValueError as exc:  # StabilityError and UnsupportedGenusError too
        # A gate refusal comes from strata, so a ValueError raised before
        # strata loads is not one, and loading it here changes no answer.
        from .strata import DegreeGateError

        if isinstance(exc, DegreeGateError):
            print(f"refused: {exc} (target codimension D = 1)", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> int:
    """The process entry point, for ``python -m rspinrel.cli`` and the
    installed ``rspinrel`` script: ``main()``, then a frozen heap."""
    try:
        return main()
    finally:
        # The process exits next, whether main() returned or raised.  The
        # interpreter's shutdown collections skip frozen objects, some 13k
        # here, most of them from interpreter start-up; atexit handlers,
        # flushes and the exit code are unaffected.  main() never freezes, so
        # callers that run it in process keep their heap.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
