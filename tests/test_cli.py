import gc
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rspinrel.cli as cli_module
import rspinrel.cohft as cohft_module
import rspinrel.oracles as oracles_module
import rspinrel.relations as relations_module
import rspinrel.strata as strata_module
from rspinrel.cli import main
from rspinrel.cohft import p_polynomial, p_row
from rspinrel.linalg import primitive_int_vector, rref
from rspinrel.oracles import divisor_generators
from rspinrel.relations import relation_row

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, ROOT)
from perfbench import measure, workloads  # noqa: E402


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env(hash_seed=0):
    """The environment of a cold CLI process on the sources in ``src``."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONDONTWRITEBYTECODE="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_run(argv, *python_flags, hash_seed=0, preexec_fn=None):
    """One cold ``python -m rspinrel.cli`` process on the sources in ``src``;
    ``preexec_fn`` runs in the child before it starts."""
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "rspinrel.cli", *argv],
        env=cli_env(hash_seed), capture_output=True, text=True, timeout=120,
        preexec_fn=preexec_fn,
    )


def span_rank(rows):
    return len(rref(rows)[1])


class TestRelationsCommand:
    def test_golden_two_marked(self, capsys):
        code, out, _ = run(capsys, ["relations", "--g", "1", "--n", "2", "--r", "3"])
        assert code == 0
        assert "3 normalized relations" in out

    def test_golden_two_marked_span(self, capsys):
        # The printed set must span exactly the three golden relations over
        # (psi_1, psi_2, kappa_1, delta_irr, delta_sep).
        _, out, _ = run(
            capsys,
            ["relations", "--g", "1", "--n", "2", "--r", "3", "--format", "json"],
        )
        printed = [payload["coeffs"] for payload in json.loads(out)["relations"]]
        targets = [
            [1, -1, 0, 0, 0],
            [2, 0, -1, 0, -1],
            [12, 0, 0, -1, -12],
        ]
        assert span_rank(printed) == 3
        assert span_rank(targets) == 3
        assert span_rank(printed + targets) == 3

    def test_golden_genus_two_vectors(self, capsys):
        _, out, _ = run(
            capsys,
            ["relations", "--g", "2", "--n", "0", "--r", "3", "--format", "json"],
        )
        record = json.loads(out)
        assert record["relations"][0]["generators"] == [
            "kappa_1", "delta_irr", "delta_{1,{}}"
        ]
        assert record["relations"][0]["coeffs"] == [5, -1, -7]

        _, out, _ = run(
            capsys,
            ["relations", "--g", "2", "--n", "2", "--r", "3", "--format", "json"],
        )
        payload = json.loads(out)["relations"][0]
        coeffs = dict(zip(payload["generators"], payload["coeffs"]))
        # 5(kappa - psi_1 - psi_2 + delta_0) = delta_irr + 7(delta_1 sum),
        # up to an overall sign from normalization.
        vec = [coeffs[name] for name in (
            "kappa_1", "psi_1", "psi_2", "delta_{0,{1,2}}", "delta_irr",
            "delta_{1,{}}", "delta_{1,{1}}")]
        assert vec in ([5, -5, -5, 5, -1, -7, -7], [-5, 5, 5, -5, 1, 7, 7])

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            ["relations", "--g", "1", "--n", "2", "--r", "3", "--format", "json"],
        )
        assert code == 0
        record = json.loads(out)
        assert record == json.loads(json.dumps(record))
        assert record["schema_version"] == 1
        assert record["command"] == "relations"
        assert len(record["relations"]) == 3

    def test_text_and_json_same_vectors(self, capsys):
        _, json_out, _ = run(
            capsys,
            ["relations", "--g", "1", "--n", "2", "--r", "3", "--format", "json"],
        )
        record = json.loads(json_out)
        _, text_out, _ = run(capsys, ["relations", "--g", "1", "--n", "2", "--r", "3"])
        for payload in record["relations"]:
            for name, coeff in zip(payload["generators"], payload["coeffs"]):
                if coeff != 0:
                    assert f"{abs(coeff)}*{name}" in text_out

    def test_single_leg_vector(self, capsys):
        code, out, _ = run(
            capsys,
            ["relations", "--g", "1", "--n", "2", "--r", "3", "--a", "1,0",
             "--format", "json"],
        )
        assert code == 0
        record = json.loads(out)
        assert len(record["relations"]) == 1
        payload = record["relations"][0]
        assert payload["a"] == [1, 0]
        assert payload["coeffs"] == [7, -5, 5, -1, -7]

    def test_genus_two_pullback_route(self, capsys):
        code, out, _ = run(
            capsys,
            ["relations", "--g", "2", "--n", "3", "--r", "3", "--format", "json"],
        )
        assert code == 0
        record = json.loads(out)
        assert len(record["relations"]) == 1
        generators = record["relations"][0]["generators"]
        assert "delta_{1,{}}" in generators

    def test_genus_two_leg_vector_routes_through_pullback(self, capsys):
        code, out, _ = run(
            capsys,
            ["relations", "--g", "2", "--n", "2", "--r", "3", "--a", "0,0",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)["relations"][0]
        assert payload["coeffs"] == [5, 5, -5, 1, -5, 7, 7]
        assert (payload["a"], payload["r"]) == ([], 3)
        # Only the all-zero leg vector exists on the unmarked source space.
        code, _, err = run(
            capsys, ["relations", "--g", "2", "--n", "2", "--r", "3", "--a", "1,0"]
        )
        assert code == 1

    def test_degree_gate_exit_code(self, capsys):
        code, _, err = run(capsys, ["relations", "--g", "4", "--n", "0", "--r", "3"])
        assert code == 2
        assert "D = 1" in err

    def test_genus_three_zero_relation(self, capsys):
        code, out, _ = run(capsys, ["relations", "--g", "3", "--n", "0", "--r", "3"])
        assert code == 0
        assert "zero relation" in out

    def test_symbolic_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["relations", "--g", "1", "--n", "2", "--symbolic", "--a", "1,0",
             "--format", "json"],
        )
        assert code == 0
        record = json.loads(out)
        modes = {payload["r"] for payload in record["relations"]}
        assert "r^3" in modes and "r^2" in modes

    def test_empty_leg_vector_at_no_markings(self, capsys):
        # () is the only leg vector at n = 0, and --a "" spells it.
        code, out, _ = run(capsys, ["relations", "--g", "2", "--n", "0", "--r", "3", "--a", ""])
        assert code == 0
        header, relation = out.splitlines()
        assert header == "relations g=2 n=0 r=3 a=[]"
        _, full_set, _ = run(capsys, ["relations", "--g", "2", "--n", "0", "--r", "3"])
        assert full_set.splitlines()[1:] == [relation]

    @pytest.mark.parametrize("a,message", [
        ("", "leg vector length 0 != n = 2"),
        ("1,", "cannot parse leg vector '1,'"),
    ])
    def test_empty_or_trailing_entry_refused_at_two_markings(self, capsys, a, message):
        code, out, err = run(capsys, ["relations", "--g", "1", "--n", "2", "--r", "3", "--a", a])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}\n")

    SYMBOLIC_RANGE = ("leg vector entries must lie in 0..1, the range 0..r-2 at the first "
                      "r sample, r = 3")

    LEG_REFUSALS = [
        (["--g", "1", "--n", "3", "--symbolic", "--a=2,0,0"], SYMBOLIC_RANGE),
        (["--g", "1", "--n", "3", "--symbolic", "--a=-1,0,0"], SYMBOLIC_RANGE),
        (["--g", "1", "--n", "3", "--r", "5", "--a", "7,0,0"],
         "leg vector entries must lie in 0..3, the range 0..r-2 at r = 5"),
        (["--g", "1", "--n", "3", "--r", "5", "--a=-1,0,0"],
         "leg vector entries must lie in 0..3, the range 0..r-2 at r = 5"),
        (["--g", "3", "--n", "2", "--r", "3", "--a", "5,0"],
         "leg vector entries must lie in 0..1, the range 0..r-2 at r = 3"),
        (["--g", "2", "--n", "3", "--r", "3", "--a", "1,0,0"],
         "genus 2 with markings takes only the all-zero leg vector"),
    ]

    @pytest.mark.parametrize("argv,message", LEG_REFUSALS, ids=[" ".join(a) for a, _ in LEG_REFUSALS])
    def test_symbolic_leg_entry_outside_zero_one_refused_cold(self, argv, message):
        # A leg entry is a basis index 0..r-2, under --symbolic at every
        # sampled r; these refusals name their bound and, like every usage
        # check, come before any relation module loads.
        result = cold_run(["relations", *argv], "-X", "importtime")
        assert result.returncode == 1 and result.stdout == ""
        assert f"error: {message}\n" in result.stderr
        assert "basis index" not in result.stderr
        assert "Traceback" not in result.stderr
        assert "rspinrel.relations\n" not in result.stderr

    def test_symbolic_leg_entries_zero_one_still_answered(self, capsys):
        code, out, _ = run(capsys, ["relations", "--g", "1", "--n", "3", "--symbolic",
                                    "--a", "1,1,0"])
        assert code == 0 and out == "relations g=1 n=3 r=symbolic (0 extracted)\n"

    def test_usage_errors(self, capsys):
        assert run(capsys, ["relations", "--g", "0", "--n", "2", "--r", "3"])[0] == 1
        assert run(capsys, ["relations", "--g", "1", "--n", "0", "--r", "3"])[0] == 1
        assert run(capsys, ["relations", "--g", "1", "--n", "2"])[0] == 1
        assert run(capsys, ["relations", "--g", "1", "--n", "2", "--r", "3",
                            "--a", "1"])[0] == 1
        assert run(capsys, ["relations", "--g", "1", "--n", "2", "--r", "2"])[0] == 1
        assert run(capsys, ["relations", "--g", "2", "--n", "0", "--symbolic"])[0] == 1
        assert run(capsys, ["relations", "--g", "2", "--n", "-1", "--r", "3"])[0] == 1
        assert run(capsys, ["nonsense"])[0] == 1


def pullback_route(n, r):
    """Oracle for ``relations --g 2 --n n --r r --a 0,...,0``: the relations,
    notes and text lines the command printed when it pulled the unmarked
    relation k kappa_1 + irr delta_irr + d1 delta_1 back class by class and
    normalized it over the basis."""
    k, irr, d1 = relation_row(2, 0, (), r)
    pulled = {"psi": -k, "kappa1": k, "delta_irr": irr}
    basis = divisor_generators(2, n)
    names = [d.render() for d in basis]
    header = f"relations g=2 n={n} r={r} a={[0] * n}"
    coeffs = list(primitive_int_vector(
        [pulled.get(d.kind, k if d.kind == "delta_sep" and d.h == 0 else d1) for d in basis]
    ))
    if not any(coeffs):
        note = "zero relation: every graph contribution vanishes"
        return [], [note], [header + ": 0 = 0", f"  note: {note}"]
    # The row is the unmarked relation's, so its record keeps that leg vector.
    record = {"generators": names, "coeffs": coeffs, "g": 2, "n": n, "a": [], "r": r}
    return [record], [], [header, "  " + relations_module._format_terms(names, coeffs)]


class TestGenusTwoLegVector:
    """``--a 0,...,0`` in genus 2 prints the row the full set builds, as the
    pullback route did."""

    @staticmethod
    def argv(n, r):
        return ["relations", "--g", "2", "--n", str(n), "--r", str(r), "--a", ",".join("0" * n)]

    @pytest.mark.parametrize("n,r", [(n, 3) for n in range(1, 13)] + [(3, 4), (3, 5), (12, 5)])
    def test_record_and_text_match_pullback_route(self, capsys, n, r):
        relations, notes, lines = pullback_route(n, r)
        assert bool(relations) == (r == 3)
        code, out, _ = run(capsys, self.argv(n, r) + ["--format", "json"])
        record = json.loads(out)
        assert code == 0
        assert (record["relations"], record["notes"]) == (relations, notes)
        assert record["params"]["a"] == [0] * n
        code, out, _ = run(capsys, self.argv(n, r))
        assert code == 0 and out.splitlines() == lines

    @pytest.mark.parametrize("r", [4, 5])
    def test_nonzero_leg_vector_refused(self, capsys, r):
        code, out, err = run(capsys, ["relations", "--g", "2", "--n", "3", "--r", str(r),
                                      "--a", "0,1,0"])
        assert code == 1 and out == ""
        assert err.startswith("error: genus 2 with markings takes only the all-zero leg vector\n")


class TestBasisSizeGuard:
    """An input whose divisor basis is over the limit exits 1 with the size,
    after the usage checks and degree-gate refusals that come first."""

    UNIT_30 = ",".join(["1"] + ["0"] * 29)
    TWO_30 = ",".join(["1"] * 2 + ["0"] * 28)
    THREE_30 = ",".join(["1"] * 3 + ["0"] * 27)
    THREE_16 = ",".join(["1"] * 3 + ["0"] * 13)

    @pytest.mark.parametrize("argv", [
        ["relations", "--g", "1", "--n", "30", "--r", "3", "--a", UNIT_30],
        ["relations", "--g", "1", "--n", "30", "--r", "3"],
        ["relations", "--g", "1", "--n", "16", "--symbolic"],
        ["relations", "--g", "1", "--n", "30", "--symbolic", "--a", TWO_30],
        ["relations", "--g", "3", "--n", "30", "--r", "3"],
        ["verify-ac", "--g", "1", "--n", "30", "--r", "3"],
    ])
    def test_oversized_basis_exits_1_with_estimate(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "classes, above the limit of" in err

    @pytest.mark.parametrize("argv", [
        ["relations", "--g", "4", "--n", "30", "--r", "3"],
        ["relations", "--g", "1", "--n", "30", "--r", "3", "--a", THREE_30],
        ["relations", "--g", "1", "--n", "16", "--symbolic", "--a", THREE_16],
    ])
    def test_degree_gate_refusals_come_first(self, capsys, argv):
        assert run(capsys, argv)[0] == 2

    @pytest.mark.parametrize("g,r", [(4, 3), (3, 4)])
    def test_degree_gate_refusal_builds_nothing_n_long(self, g, r):
        # A refusal at n = 10^9 under the memory cap, in the time of one at small n.
        start = time.perf_counter()
        result = cold_run(["relations", "--g", str(g), "--n", str(10 ** 9), "--r", str(r)],
                          preexec_fn=_cap_address_space)
        assert time.perf_counter() - start < 2.0
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("refused: ") and "sum(a) = 0" in result.stderr
        assert "Traceback" not in result.stderr

    def test_degree_gate_refusal_message_is_bounded(self):
        result = cold_run(["relations", "--g", "4", "--n", str(10 ** 6), "--r", "3"])
        assert result.returncode == 2 and result.stdout == ""
        assert len(result.stderr.encode()) < 1024
        assert "sum(a) = 0" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [
        [*cmd, "--n", str(n), *tail]
        for cmd, n0, tail in (
            (["relations", "--g", "1"], 1000, ["--r", "3"]),
            (["verify-ac", "--g", "1"], 1000, ["--r", "3"]),
            (["relations", "--g", "1"], 20000, ["--symbolic"]),
            (["relations", "--g", "2"], 15000, ["--r", "3"]),
        )
        for n in (n0, 10 ** 6)
    ], ids=" ".join)
    def test_large_n_refused_cold_before_work_that_grows_with_n(self, argv):
        start = time.perf_counter()
        result = cold_run(argv)
        assert time.perf_counter() - start < 2.0
        assert result.returncode == 1 and result.stdout == ""
        assert "above the limit" in result.stderr
        assert "Traceback" not in result.stderr


def _cap_address_space():
    """Runs in a child process: at most 1.5 GB of address space, so that a
    regression fails there with a MemoryError instead of filling the host."""
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))


class TestLargeR:
    """r above ``cli.MAX_R`` is a usage refusal, made before any work that
    grows with r; every r of the benchmark grid and of these tests is below it."""

    HUGE = str(10 ** 9)

    @pytest.mark.parametrize("argv", [
        ["relations", "--g", "1", "--n", "3", "--r", HUGE],
        ["verify-ac", "--g", "2", "--n", "3", "--r", HUGE],
        ["pm-table", "--m-max", "1", "--r", HUGE],
        ["relations", "--g", "1", "--n", "3", "--r", str(cli_module.MAX_R + 1)],
        ["relations", "--g", "1", "--n", "3", "--r", HUGE, "--a", "1,0,0"],
    ], ids=" ".join)
    def test_refused_cold_under_a_memory_cap(self, argv):
        result = cold_run(argv, preexec_fn=_cap_address_space)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith(f"error: r must be at most {cli_module.MAX_R}\n")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", [
        ["relations", "--g", "1", "--n", "3", "--r"],
        ["verify-ac", "--g", "1", "--n", "3", "--r"],
        ["pm-table", "--m-max", "2", "--r"],
    ], ids=" ".join)
    def test_largest_r_answers_cold_under_a_memory_cap(self, argv):
        result = cold_run([*argv, str(cli_module.MAX_R)], preexec_fn=_cap_address_space)
        assert result.returncode == 0, result.stderr
        assert result.stdout

    def test_bound_is_above_every_r_in_use(self):
        grid = [int(a[a.index("--r") + 1]) for a in workloads.grid_points()
                if "--r" in a]
        assert max(grid) < cli_module.MAX_R and 60 < cli_module.MAX_R


def _table_argv(m_max, r):
    return ["pm-table", "--m-max", str(m_max), "--r", str(r), "--format", "json"]


class TestTableSize:
    """A P_m table of more than ``cli.MAX_PM_ENTRIES`` entries, (m-max + 1)
    rows of r - 1, is a usage refusal made before any row is built; every
    table of the benchmark grid and of the other tests is within it."""

    # (m-max + 1)(r - 1) is the bound itself, or one entry above it.
    AT_BOUND = (99, 51)
    ABOVE_BOUND = (1666, 4)

    def test_sides_sit_at_the_bound(self):
        (m0, r0), (m1, r1) = self.AT_BOUND, self.ABOVE_BOUND
        assert (m0 + 1) * (r0 - 1) == cli_module.MAX_PM_ENTRIES
        assert (m1 + 1) * (r1 - 1) == cli_module.MAX_PM_ENTRIES + 1

    @pytest.mark.parametrize("m_max,r", [ABOVE_BOUND, (60, 1000), (10 ** 9, 1000), (10 ** 30, 3)],
                             ids=str)
    def test_refused_cold_under_a_memory_cap(self, m_max, r):
        result = cold_run(_table_argv(m_max, r), preexec_fn=_cap_address_space)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith(
            f"error: the table would have (m-max + 1)(r - 1) = {(m_max + 1) * (r - 1)} "
            f"entries, above the limit of {cli_module.MAX_PM_ENTRIES}\n"
        )
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("m_max,r", [AT_BOUND, (4, 1000)], ids=str)
    def test_largest_tables_answer_cold_under_a_memory_cap(self, m_max, r):
        result = cold_run(_table_argv(m_max, r), preexec_fn=_cap_address_space)
        assert result.returncode == 0, result.stderr
        table = json.loads(result.stdout)["table"]
        assert [len(row["values"]) for row in table] == [r - 1] * (m_max + 1)

    def test_refusal_builds_no_row(self, capsys, monkeypatch):
        requested = []
        monkeypatch.setattr(cohft_module, "p_row", lambda m, r: requested.append(m))
        code, out, _ = run(capsys, _table_argv(*self.ABOVE_BOUND))
        assert (code, out, requested) == (1, "", [])

    def test_bound_is_above_every_table_in_use(self):
        sizes = [(int(a[a.index("--m-max") + 1]) + 1) * (int(a[a.index("--r") + 1]) - 1)
                 for a in workloads.grid_points() if a[0] == "pm-table"]
        assert max(sizes) == 201 * 23 <= cli_module.MAX_PM_ENTRIES
        # The digit-limit refusal at (1000, 3) and the largest r at m-max 2.
        assert 1001 * 2 <= cli_module.MAX_PM_ENTRIES and 3 * 999 <= cli_module.MAX_PM_ENTRIES


class TestClosedPipe:
    """A reader that closes stdout early (as ``| head`` does) ends the command
    with exit 1 and nothing on stderr."""

    @pytest.mark.parametrize("argv", [
        ["relations", "--g", "2", "--n", "12", "--r", "3"],
        ["relations", "--g", "2", "--n", "12", "--r", "3", "--format", "json"],
        ["pm-table", "--m-max", "200", "--r", "24"],
    ], ids=" ".join)
    def test_no_traceback_cold(self, argv):
        # Each output is far larger than a pipe buffer, so the writer sees
        # the closed pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "rspinrel.cli", *argv], env=cli_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert len(head) == 50
        assert "Traceback" not in err and err == ""


class _RecordingStdout:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


class _CountingStdout:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)


def _record(command, params, **fields):
    """The JSON record of ``command`` with ``fields`` as the only entries that
    are not empty, as ``cli._emit`` builds it."""
    record = {"schema_version": 1, "command": command, "params": {**params, "format": "json"},
              "relations": [], "verdicts": [], "notes": []}
    return {**record, **fields}


# JSON values as records hold them, with strings that need escaping and
# floats whose text has a sign or an exponent.
_JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\u2028\u00e9')),
                     max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT
    | st.sampled_from([-0.0, 1e16, 1e-7]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=10,
)
_JSON_DICTS = st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=4)
# A record's own fields: the skeleton's lists, empty or long (one item
# repeated), and other keys; none is a parameter name of ``cli._emit``.
_FIELDS = st.dictionaries(
    st.sampled_from(["relations", "verdicts", "notes", "table"]) | _JSON_TEXT.filter(
        lambda key: key not in ("dumps", "command", "params", "start", "text_lines")),
    _JSON_VALUES | st.builds(lambda item, count: [item] * count, _JSON_VALUES,
                             st.integers(0, 500)),
    max_size=5,
)


# Long lists below a record's top-level lists, which ``cli._json_pieces``
# encodes in runs of ``cli.JSON_RUN`` items: a genus-2-shaped relation (6,145
# generators and a coefficient tuple), a list of dicts and a list of scalars
# with a dict whose keys are unsorted.
_CLASSES = 6145
_GENUS_TWO_RECORD = {"generators": [f"delta_{{0,{{{i}}}}}" for i in range(_CLASSES)],
                     "coeffs": tuple((-1) ** i * (i % 97) for i in range(_CLASSES)),
                     "g": 2, "n": 12, "r": 3, "a": None}
_LONG_DICTS = [{"z": i, "a": [i, "\u00e9"]} for i in range(3000)]
_LONG_MIXED = [1, "x", None, {"z": -0.0, "b": {"y": 1e16, "a": []}}, 1e-7, True] * 400
_LONG = [0] * (cli_module.JSON_RUN + 1)


class TestJsonWriter:
    """``cli._emit`` builds every command's JSON record, and writes its text
    in batches of at least ``JSON_SLICE`` characters, then the rest and a
    newline, so that it reads back as the whole record."""

    SLICE = cli_module.JSON_SLICE
    # Each record's keys, and the one key pm-table adds.
    SKELETON = {"schema_version", "command", "params", "relations", "verdicts", "notes",
                "elapsed_ms"}

    def assert_joins(self, writes, text):
        """Assert that ``writes`` join to ``text``.  Compared as lists of
        slices, a failure reports the first slice that differs; pytest's diff
        of two texts this long can take minutes."""
        def cuts(string):
            return [string[i:i + self.SLICE] for i in range(0, len(string), self.SLICE)]

        assert cuts("".join(writes)) == cuts(text)

    @settings(max_examples=60, deadline=None)
    @given(params=_JSON_DICTS, fields=_FIELDS, elapsed=_JSON_VALUES)
    # Every kind of value at once, inside a list item and under unsorted keys.
    @example(params={"z": {"b": 1, "a": [None, True]}}, elapsed=-0.0, fields={
        "relations": [{"z": 1e16, "a": 1e-7}, {"y": "\u00e9\"\\\x01\u2028", "b": [False, None]}],
        "notes": [], "verdicts": [-0.0, "\U0001f600"]})
    # A long list whose text is several slices long.
    @example(params={}, elapsed=0, fields={"table": [{"m": 2, "a": "x" * 99}] * 2000})
    # Long lists encoded in runs.
    @example(params={}, elapsed=0, fields={"relations": [_GENUS_TWO_RECORD]})
    @example(params={}, elapsed=0, fields={"relations": [_GENUS_TWO_RECORD] * 2})
    @example(params={}, elapsed=1.5, fields={"relations": [
        {"rows": _LONG_DICTS, "m": 1}, {"rows": tuple(_LONG_MIXED)}], "notes": [_LONG_MIXED]})
    # Empty lists, dicts and tuples at depths 2 and 3, beside a long list.
    @example(params={"e": {}}, elapsed=0, fields={
        "relations": [[], {}, (), {"long": _LONG, "b": [], "a": {}, "c": ()}],
        "verdicts": [{"long": tuple(_LONG), "x": [[], {}, ()]}]})
    # Dicts whose keys are not str, which json.dumps writes as strings.
    @example(params={}, elapsed=0, fields={"relations": [
        {1: 2}, {1: _LONG}, {"long": _LONG, "x": {1: 2}, "y": {2: _LONG, 1.5: None}}]})
    def test_writes_join_to_json_dumps(self, params, fields, elapsed):
        # The writes join to json.dumps's text of the whole record, then "\n".
        fields = {**fields, "elapsed_ms": elapsed}
        text = json.dumps(_record("x", params, **fields), sort_keys=True)
        stdout = _RecordingStdout()
        with mock.patch.object(sys, "stdout", stdout):
            cli_module._emit(cli_module._json_dumps("json"), "x", params, None, None, **fields)
        self.assert_joins(stdout.writes, text + "\n")

    @pytest.mark.parametrize("command", ["pm-table --m-max 200 --r 24",
                                         "relations --g 1 --n 12 --symbolic"])
    def test_encoding_holds_a_fraction_of_the_text(self, command):
        # The record is built whole, but its text is encoded a piece at a
        # time into a stdout that keeps nothing: the encoding's peak stays
        # well below the text it writes.
        if command.startswith("pm-table"):
            fields = {"table": [{"m": m, "values": row}
                                for m, row in enumerate(cohft_module.pm_table(200, 24))]}
        else:
            records, notes = relations_module.relation_records(1, 12, None, None)
            fields = {"relations": records, "notes": notes}
        fields["elapsed_ms"] = 0
        length = len(json.dumps(_record("x", {}, **fields), sort_keys=True))
        assert length > 3_000_000
        stdout, dumps = _CountingStdout(), cli_module._json_dumps("json")
        tracemalloc.start()
        try:
            with mock.patch.object(sys, "stdout", stdout):
                cli_module._emit(dumps, "x", {}, None, None, **fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stdout.length == length + 1
        assert peak < length / 4, (peak, length)

    @settings(max_examples=60, deadline=None)
    @given(params=_JSON_DICTS, fields=_FIELDS, run=st.integers(1, 3))
    def test_short_runs_join_to_json_dumps(self, params, fields, run):
        # With runs of 1 to 3 items, the lists of up to 4 that the
        # strategies build below the top level are encoded in runs too.
        fields = {**fields, "elapsed_ms": 0}
        text = json.dumps(_record("x", params, **fields), sort_keys=True)
        stdout = _RecordingStdout()
        with mock.patch.object(sys, "stdout", stdout), \
                mock.patch.object(cli_module, "JSON_RUN", run):
            cli_module._emit(cli_module._json_dumps("json"), "x", params, None, None, **fields)
        self.assert_joins(stdout.writes, text + "\n")

    @pytest.mark.parametrize("value", [
        {}, {1: 2}, {"a": {1: 2}}, {"a": [{1: 2}]}, {"a": [{1: _LONG}]}, {"a": [{"b": {1: _LONG}}]},
        {"a": [{"b": _LONG, "c": {True: 1, 3: 2}}]}, {"a": [], "b": [[], {}, ()]},
        {"x": {"b": 1, "a": 2}},
    ], ids=["empty", "int-key", "nested-int-key", "int-key-item", "int-key-long-item",
            "int-key-long-value", "non-str-keys-beside-a-long-list", "empty-values",
            "unsorted-nested-keys"])
    def test_pieces_join_to_json_dumps(self, value):
        # json.dumps writes every key as a string; the record's pieces cut
        # only dicts whose keys are all str.
        text = "".join(cli_module._json_pieces(cli_module._json_dumps("json"), value))
        assert text == json.dumps(value, sort_keys=True)

    @pytest.mark.parametrize("g, n, r, bound", [(2, 12, 3, 2), (1, 12, 3, 1 / 4)],
                             ids=["genus-2-n12", "genus-1-n12"])
    def test_encoding_holds_about_one_run(self, g, n, r, bound):
        # A row longer than JSON_RUN is encoded a run at a time: the traced
        # peak of the genus-2 relation's 0.2 MB of text stays below twice
        # its text, and that of 13 genus-1 relations below a quarter of it.
        records, notes = relations_module.relation_records(g, n, r, None)
        assert len(records[0]["coeffs"]) > 4 * cli_module.JSON_RUN
        fields = {"relations": records, "notes": notes, "elapsed_ms": 0}
        length = len(json.dumps(_record("x", {}, **fields), sort_keys=True))
        stdout, dumps = _CountingStdout(), cli_module._json_dumps("json")
        tracemalloc.start()
        try:
            with mock.patch.object(sys, "stdout", stdout):
                cli_module._emit(dumps, "x", {}, None, None, **fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stdout.length == length + 1
        assert peak < bound * length, (peak, length)

    @pytest.mark.parametrize("command", ["pm-table --m-max 200 --r 24",
                                         "relations --g 1 --n 8 --symbolic"])
    def test_short_items_are_encoded_whole(self, command):
        # Items with no list longer than JSON_RUN take one dumps call each,
        # so pm-deep and g1-relations records are not cut any finer: one
        # call per key, per table row or relation record, and per other value.
        if command.startswith("pm-table"):
            fields = {"table": [{"m": m, "values": row}
                                for m, row in enumerate(cohft_module.pm_table(200, 24))]}
        else:
            records, notes = relations_module.relation_records(1, 8, None, None)
            fields = {"relations": records, "notes": notes}
        fields["elapsed_ms"] = 0
        record = _record("x", {}, **fields)
        calls, encode = [], cli_module._json_dumps("json")

        def dumps(value):
            calls.append(value)
            return encode(value)

        with mock.patch.object(sys, "stdout", _CountingStdout()):
            cli_module._emit(dumps, "x", {}, None, None, **fields)
        assert len(calls) == len(record) + sum(
            len(value) if isinstance(value, list) and value else 1 for value in record.values())

    @pytest.mark.parametrize("command, args", [
        ("pm-table", (200, 24)), ("pm-table", (49, 100)), ("pm-table", (12, 385)),
        ("relations", (2, 12, 3, None)), ("relations", (1, 12, 3, None)),
    ], ids=["pm-200-24", "pm-49-100", "pm-12-385", "genus-2-n12", "genus-1-n12-r3"])
    def test_writes_are_few_and_bounded(self, command, args):
        # Every piece of a record the CLI prints is shorter than a slice (the
        # longest, a pm-table row at r = 385 and m = 12, is 46 KB), so every
        # write but the last holds a slice or more and less than two.
        if command == "pm-table":
            fields = {"table": [{"m": m, "values": row}
                                for m, row in enumerate(cohft_module.pm_table(*args))]}
        else:
            records, notes = relations_module.relation_records(*args)
            fields = {"relations": records, "notes": notes}
        fields["elapsed_ms"] = 0
        text = json.dumps(_record("x", {}, **fields), sort_keys=True)
        assert len(text) > 2 * self.SLICE
        stdout = _RecordingStdout()
        with mock.patch.object(sys, "stdout", stdout):
            cli_module._emit(cli_module._json_dumps("json"), "x", {}, None, None, **fields)
        *batches, last = stdout.writes
        assert all(self.SLICE <= len(write) < 2 * self.SLICE for write in batches)
        assert len(last) <= self.SLICE
        self.assert_joins(stdout.writes, text + "\n")

    def test_emit_builds_no_encoder(self):
        # One encoder, built before the record, encodes every piece; with
        # json.dumps(..., sort_keys=True) each piece built its own, 188 here.
        records, notes = relations_module.relation_records(1, 12, 3, None)
        encode, built = cli_module._json_dumps("json"), []
        init = json.JSONEncoder.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        with mock.patch.object(json.JSONEncoder, "__init__", counting_init), \
                mock.patch.object(sys, "stdout", _CountingStdout()):
            cli_module._emit(encode, "x", {}, None, None, relations=records, notes=notes,
                             elapsed_ms=0)
        assert built == []

    def test_text_output_builds_no_record(self, capsys):
        # With no start time, building the record would raise.
        cli_module._emit(None, "x", {}, None, lambda: iter(["one", "two"]))
        assert capsys.readouterr().out == "one\ntwo\n"

    @pytest.mark.parametrize("argv", [
        "relations --g 1 --n 2 --r 3",
        "relations --g 3 --n 0 --r 3",
        "relations --g 1 --n 2 --symbolic --a 1,0",
        "verify-ac --g 1 --n 2 --r 3",
        "pm-table --m-max 2 --r 4",
        "selftest",
    ])
    def test_every_record_has_the_skeleton_keys(self, capsys, argv):
        argv = argv.split()
        _, out, _ = run(capsys, [*argv, "--format", "json"])
        record = json.loads(out)
        assert set(record) == self.SKELETON | ({"table"} if argv[0] == "pm-table" else set())
        assert record["schema_version"] == 1 and record["command"] == argv[0]
        assert record["params"]["format"] == "json"
        assert isinstance(record["elapsed_ms"], float) and record["elapsed_ms"] >= 0

    def test_cold_record_through_a_pipe_is_the_in_process_record(self, capsys):
        argv = ["pm-table", "--m-max", "200", "--r", "24", "--format", "json"]
        code, out, _ = run(capsys, argv)
        result = cold_run(argv)
        assert code == result.returncode == 0 and result.stderr == ""
        assert len(out) > 10 * self.SLICE and result.stdout.endswith("}\n")
        elapsed = re.compile(r'"elapsed_ms": [0-9.]+')
        assert elapsed.sub("", result.stdout) == elapsed.sub("", out)


def _script_entry():
    """The ``module:function`` that pyproject.toml installs as ``rspinrel``."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        return re.search(r'^rspinrel = "([\w.]+:\w+)"$', fh.read(), re.M).group(1)


class TestExitFreeze:
    """A CLI process freezes its heap once the command is done, so the
    interpreter's shutdown collections skip it; ``main()`` run in process
    leaves the caller's heap unfrozen."""

    COMMANDS = [
        pytest.param(["relations", "--g", "1", "--n", "3", "--r", "3"], 0, id="relations"),
        pytest.param(["--help"], 0, id="help"),  # main() returns 0 once help is printed
        pytest.param(["relations", "--g", "1", "--n", "2"], 1, id="usage-error"),
    ]

    @pytest.mark.parametrize("argv,expected", COMMANDS)
    def test_main_in_process_leaves_freeze_count(self, capsys, argv, expected):
        before = gc.get_freeze_count()
        code = main(argv)
        capsys.readouterr()
        assert code == expected
        assert gc.get_freeze_count() == before

    @staticmethod
    def entry_code(entry):
        """Child code that runs the CLI as ``python -m`` or as the script does."""
        if entry == "python -m":
            return "runpy.run_module('rspinrel.cli', run_name='__main__')"
        module, name = _script_entry().split(":")
        return f"from {module} import {name}\nsys.exit({name}())"

    @pytest.mark.parametrize("entry", ["python -m", "script"])
    @pytest.mark.parametrize("argv,expected", COMMANDS)
    def test_cold_process_exits_frozen(self, entry, argv, expected):
        # An atexit hook registered before the CLI runs after it returns, when
        # only the interpreter's own shutdown is left.
        child = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            f"sys.argv = ['rspinrel', *{argv!r}]\n"
            + self.entry_code(entry)
        )
        result = subprocess.run([sys.executable, "-c", child], env=cli_env(),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == expected
        assert "Traceback" not in result.stderr
        frozen = int(re.search(r"^frozen (\d+)$", result.stderr, re.M).group(1))
        assert frozen > 1000


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# The top-level usage line, which follows every error message on stderr.
USAGE = "usage: rspinrel [-h] {relations,verify-ac,pm-table,selftest} ...\n"
# A decimal numeral past Python's limit on int-from-string conversion.
DIGITS = "1" * 5000
# The five help texts, by the subcommand they belong to, as argparse printed
# them with stdout piped and ``COLUMNS`` unset.
HELP_SHA256 = {
    "": "a3d55d99e79b1de333bb94a6d730ee709475e3bc314262c65257d2e13b7bb634",
    "relations": "d5847366f7445b18dda5707a2c96f45d657c138385bb87537f3808c4ffdd7deb",
    "verify-ac": "e86fdc341dfdaf5ee673e1f2cc0e25556d956d5992de22903399970b06d37e97",
    "pm-table": "22e3a0ff9b18abfef9f2cb56c42864df83c838da7b053f71fb3c37f8f15a186a",
    "selftest": "3db33ce5c06fbb165870473763bd7006debe10bc8e51c40d96e84438c8a229b0",
}


def _argv_id(argv):
    return " ".join(arg if len(arg) < 20 else f"<{len(arg)} digits>" for arg in argv) or "(none)"


class TestArgvReading:
    """Each argv below keeps the exit code, stdout (without ``elapsed_ms``)
    and stderr that argparse gave it.  An answer is pinned by its stdout's
    sha256, a refusal by its error message."""

    HELP, RELATIONS_HELP = HELP_SHA256[""], HELP_SHA256["relations"]
    CASES = [
        # Help, answered at the point it is read.
        (["--help"], 0, HELP),
        (["-h"], 0, HELP),
        (["--he", "relations"], 0, HELP),
        (["-hh"], 0, HELP),
        (["relations", "--help"], 0, RELATIONS_HELP),
        (["relations", "--g", "1", "-h"], 0, RELATIONS_HELP),
        (["relations", "extra", "--help"], 0, RELATIONS_HELP),
        (["verify-ac", "--he", "--g", "x"], 0, HELP_SHA256["verify-ac"]),
        (["selftest", "-h"], 0, HELP_SHA256["selftest"]),
        (["pm-table", "--r", "x", "--help"], 1, "argument --r: invalid int value: 'x'"),
        (["-hx"], 1, "argument -h/--help: ignored explicit argument 'x'"),
        (["--help="], 1, "argument -h/--help: ignored explicit argument ''"),
        # --opt=value, unique prefixes, and the last repeat winning.
        (["relations", "--g=1", "--n=3", "--r=3"], 0,
         "ac28cea1b975cf35b4e628aa2228e2bf7de25de96f96a1af0f81cd20fedbef7f"),
        (["relations", "--g", "1", "--n", "3", "--r", "4", "--r", "3"], 0,
         "ac28cea1b975cf35b4e628aa2228e2bf7de25de96f96a1af0f81cd20fedbef7f"),
        (["relations", "--g", "1", "--n", "3", "--a=1,0,0", "--r=3", "--form=json"], 0,
         "52ad498fe21a9b336a3dd22a36daf2de2a0b0c2473de4856eb7e51140dc6a6cb"),
        (["relations", "--g", "1", "--n", "3", "--sym"], 0,
         "67d293a8a75e774074fd61b006165b27da6f1df53901db8b37e444d1ae4a981d"),
        (["pm-table", "--m", "2", "--r", "3"], 0,
         "c08c13f8f823626d5deb44b658e4f3f3961c31e874de79f1cfb0aa0925289b91"),
        (["relations", "--g", "1", "--n", "2", "--r", "3", "--form", "json"], 0,
         "6e00b239467b16b13c0deda3f37169a324d1f7b5439c3c26599d21ce6d48927e"),
        (["relations", "--=x"], 1,
         "ambiguous option: --=x could match --help, --g, --n, --r, --symbolic, --a, --format"),
        # Negative numbers are values; other arguments that start with '-' are not.
        (["relations", "--g", "1", "--n", "-1", "--r", "3"], 1, "n must be nonnegative"),
        (["pm-table", "--m-max", "-.5", "--r", "3"], 1,
         "argument --m-max: invalid int value: '-.5'"),
        (["relations", "--g", "1", "--n", "3", "--r", "3", "--a", "-1,0,0"], 1,
         "argument --a: expected one argument"),
        (["relations", "--g", "1", "--n", "3", "--r", "3", "--a=-1,0,0"], 1,
         "leg vector entries must lie in 0..1, the range 0..r-2 at r = 3"),
        (["relations", "--g", "1", "--n", "3", "--r", "3", "--a", "-1, 0"], 1,
         "leg vector length 2 != n = 3"),
        # int() reads the numbers.
        (["pm-table", "--m-max", "1_0", "--r", "+3"], 0,
         "bc0c26fcf0b3088eea9e1b5d6284afc38a153861511ee55d537174096213d1dd"),
        (["relations", "--g", " 1", "--n", "2", "--r", "3"], 0,
         "312e5e92f5e2275df4775a65d952a5f5772dd618fd4b27ce5829c29f3c6ceaa5"),
        (["pm-table", "--m-max", DIGITS, "--r", "3"], 1,
         f"argument --m-max: invalid int value: '{DIGITS}'"),
        (["relations", "--g", "1", "--n", "3", "--r", "x"], 1,
         "argument --r: invalid int value: 'x'"),
        # Refusals.
        ([], 1, "the following arguments are required: command"),
        (["-x"], 1, "the following arguments are required: command"),
        (["nonsense"], 1, "argument command: invalid choice: 'nonsense' (choose from "
                          "'relations', 'verify-ac', 'pm-table', 'selftest')"),
        (["--g", "1", "relations"], 1, "argument command: invalid choice: '1' (choose from "
                                       "'relations', 'verify-ac', 'pm-table', 'selftest')"),
        (["--", "relations"], 1, "argument command: invalid choice: '--' (choose from "
                                 "'relations', 'verify-ac', 'pm-table', 'selftest')"),
        (["relations", "--g", "1", "--n", "3", "--r", "3", "extra"], 1,
         "unrecognized arguments: extra"),
        (["relations", "--g", "1", "--n", "3", "--r", "3", "-x"], 1,
         "unrecognized arguments: -x"),
        (["-x", "relations", "--g", "1", "--n", "2", "--r", "3"], 1,
         "unrecognized arguments: -x"),
        (["relations", "--g", "1", "--n", "2", "--r", "3", "--"], 1,
         "unrecognized arguments: --"),
        (["relations", "--g", "1", "--n", "3", "--r", "3", "--format", "xml"], 1,
         "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
        (["relations", "--g", "1", "--n", "3", "--symbolic=1"], 1,
         "argument --symbolic: ignored explicit argument '1'"),
        (["relations", "--", "--g", "1"], 1, "the following arguments are required: --g, --n"),
        (["verify-ac", "--g", "1", "--n", "3"], 1, "the following arguments are required: --r"),
        (["relations", "--g", "1", "--n", "3"], 1, "provide --r or --symbolic"),
        (["relations", "--g"], 1, "argument --g: expected one argument"),
        (["relations", "--g", "--", "1"], 1, "argument --g: expected one argument"),
    ]

    @pytest.mark.parametrize("argv,code,expected", CASES, ids=[_argv_id(c[0]) for c in CASES])
    def test_cold_run(self, argv, code, expected):
        result = cold_run(argv)
        out = re.sub(r'"elapsed_ms": [0-9.]+', "", result.stdout)
        assert result.returncode == code
        if code == 0:
            assert sha256(out) == expected and result.stderr == ""
        else:
            assert out == "" and result.stderr == f"error: {expected}\n{USAGE}"

    @pytest.mark.parametrize("option,message", [
        ("--g=--", "argument --g: invalid int value: '--'"),
        ("--format=--", "argument --format: invalid choice: '--' (choose from 'text', 'json')"),
    ])
    def test_joined_double_dash_is_a_value(self, capsys, option, message):
        # A value joined to its option is read as it stands, "--" too.
        code, out, err = run(capsys, ["relations", "--g", "1", "--n", "2", "--r", "3", option])
        assert (code, out, err) == (1, "", f"error: {message}\n{USAGE}")


def argparse_parsers(commands):
    """argparse's parser for the table ``commands``, laid out as cli._COMMANDS,
    and its subcommands' parsers by name."""
    import argparse

    parser = argparse.ArgumentParser(prog="rspinrel", description=cli_module._DESCRIPTION)
    subparsers = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, (_, line, options) in commands.items():
        parsers[command] = subparsers.add_parser(command, help=line)
        for name, (kind, required, text) in options.items():
            how = ({"action": "store_true"} if kind is bool
                   else {"choices": kind, "default": kind[0]} if isinstance(kind, tuple)
                   else {"type": kind})
            parsers[command].add_argument(name, required=required, help=text or None, **how)
    return parser, parsers


WORD = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
NAME = st.lists(WORD, min_size=1, max_size=3).map("-".join)
# Help texts that fit one line beside column 24, as cli._help assumes.
HELP_LINE = st.lists(WORD, min_size=1, max_size=6).map(" ".join).filter(lambda t: len(t) <= 54)


class TestHelpText:
    """The five help texts, byte for byte; a subcommand's usage line names
    the options of its table, in order; and for other tables the texts are
    argparse's at 80 columns."""

    @pytest.mark.parametrize("command", HELP_SHA256)
    def test_digest(self, capsys, command):
        code, out, err = run(capsys, [command, "--help"] if command else ["--help"])
        assert (code, err) == (0, "")
        assert sha256(out) == HELP_SHA256[command], out

    @pytest.mark.parametrize("command", cli_module._COMMANDS)
    def test_usage_line_names_the_table(self, capsys, command):
        usage = run(capsys, [command, "--help"])[1].split("\n\n")[0]
        assert re.findall(r"--[\w-]+", usage) == list(cli_module._COMMANDS[command][2])

    @pytest.mark.parametrize("command", [None, *cli_module._COMMANDS])
    def test_help_is_argparses_for_the_table(self, command):
        # So an entry added to the table keeps argparse's layout, or fails here.
        parser, parsers = argparse_parsers(cli_module._COMMANDS)
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            expected = (parsers[command] if command else parser).format_help()
            assert cli_module._help(command) == expected

    @settings(max_examples=150, deadline=None)
    @given(command=NAME, options=st.dictionaries(
        NAME.map("--".__add__).filter(lambda name: name not in ("--help", "--format")),
        st.tuples(st.one_of(st.sampled_from([int, str, bool]),
                            st.lists(WORD, min_size=1, max_size=3, unique=True).map(tuple)),
                  st.booleans(), st.just("") | HELP_LINE),
        max_size=9), at=st.integers(0, 9))
    def test_subcommand_help_is_argparses(self, command, options, at):
        # Tables as cli._help takes them: each holds --format, and no option
        # with a help text is wider than 20 columns.  Long usage lines wrap,
        # and a required option's metavar may start the next line.
        options = list(options.items())
        options.insert(at, *cli_module._FORMAT.items())
        assume(all(len(cli_module._invocation(name, kind)) <= 20
                   for name, (kind, _, text) in options if text))
        table = {command: (None, "its help", dict(options))}
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                mock.patch.object(cli_module, "_COMMANDS", table):
            assert cli_module._help(command) == argparse_parsers(table)[1][command].format_help()

    @settings(max_examples=100, deadline=None)
    @given(commands=st.dictionaries(NAME.filter(lambda name: len(name) <= 18), HELP_LINE,
                                    min_size=2, max_size=4))
    def test_top_level_help_is_argparses(self, commands):
        table = {command: (None, line, {}) for command, line in commands.items()}
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
                mock.patch.object(cli_module, "_COMMANDS", table):
            # The subcommand list is 20 columns wide or more, and the usage
            # line fits one line, as it does for the four subcommands.
            assume(len(",".join(table)) >= 18 and len(cli_module._usage()) <= 78)
            assert cli_module._help(None) == argparse_parsers(table)[0].format_help()


class TestVerifyAcCommand:
    # At n = 1, 2 in genus 1 the features are the whole basis.
    @pytest.mark.parametrize("g,n,expected_rank", [(1, 4, 5), (2, 0, 1), (3, 0, 0),
                                                   (1, 1, 2), (1, 2, 3)])
    def test_equal_cases(self, capsys, g, n, expected_rank):
        code, out, _ = run(
            capsys, ["verify-ac", "--g", str(g), "--n", str(n), "--r", "3"]
        )
        assert code == 0
        assert "EQUAL" in out
        assert f"union rank {expected_rank}" in out

    def test_json_verdict(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify-ac", "--g", "1", "--n", "2", "--r", "3", "--format", "json"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["verdicts"][0]["verdict"] == "EQUAL"
        assert record["verdicts"][0]["rank_computed"] == 3

    # The generators are independent for every g >= 3 (Arbarello-Cornalba),
    # and from genus 4 on the degree gate admits no leg vector.
    @pytest.mark.parametrize("g,n,r", [(4, 2, 3), (5, 0, 3), (7, 0, 3), (4, 13, 3), (6, 3, 7)])
    def test_genus_four_and_up_equal_cold(self, g, n, r):
        result = cold_run(["verify-ac", "--g", str(g), "--n", str(n), "--r", str(r)])
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == (f"verify-ac g={g} n={n} r={r}: EQUAL "
                                 "(computed rank 0, reference rank 0, union rank 0)\n")

    @pytest.mark.parametrize("command", ["verify-ac", "relations"])
    @pytest.mark.parametrize("g,n", [(1, -1), (2, -1), (1, -3)])
    def test_negative_n_refused_before_stability(self, capsys, command, g, n):
        code, out, err = run(capsys, [command, "--g", str(g), "--n", str(n), "--r", "3"])
        assert code == 1 and out == ""
        assert err.startswith("error: n must be nonnegative\n")

    @pytest.mark.parametrize("g,n,r", [
        (1, 2, 1), (3, 1, 1), (1, 2, 0), (1, 2, -3), (1, 2, 2),
        (0, 3, 3), (-1, 5, 3), (1, 0, 3), (2, -3, 3), (2, -1, 3),
    ])
    def test_invalid_arguments_refused_like_relations(self, g, n, r):
        result = cold_run(["verify-ac", "--g", str(g), "--n", str(n), "--r", str(r)])
        assert "Traceback" not in result.stderr
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "usage: rspinrel" in result.stderr


class TestPmTableCommand:
    def test_first_order_row(self, capsys):
        code, out, _ = run(capsys, ["pm-table", "--m-max", "1", "--r", "3"])
        assert code == 0
        assert "-5/24" in out and "7/24" in out

    def test_order_zero_row_all_ones(self, capsys):
        code, out, _ = run(
            capsys, ["pm-table", "--m-max", "0", "--r", "5", "--format", "json"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["table"][0]["values"] == ["1", "1", "1", "1"]

    def test_deep_table_leaves_p_polynomial_cache_untouched(self, capsys):
        # The table prints from the integer rows; it makes no cached lookup.
        before = p_polynomial.cache_info()
        code, _, _ = run(
            capsys, ["pm-table", "--m-max", "200", "--r", "24", "--format", "json"]
        )
        assert code == 0
        assert p_polynomial.cache_info() == before

    # A one-row table (den = 1), the largest r, and the last rows at r = 3
    # before the digit limit, besides the grid.
    ORACLE_POINTS = [(40, r) for r in range(3, 31)] + [(200, 24), (0, 5), (4, 1000), (900, 3)]

    @pytest.mark.parametrize("m_max,r", ORACLE_POINTS)
    def test_entries_are_the_text_of_p_polynomial(self, capsys, m_max, r):
        expected = [[str(p_polynomial(m, a, r)) for a in range(r - 1)]
                    for m in range(m_max + 1)]
        argv = ["pm-table", "--m-max", str(m_max), "--r", str(r)]
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        assert [row["values"] for row in json.loads(out)["table"]] == expected
        code, out, _ = run(capsys, argv)
        assert code == 0
        # Text rows read "<m> |<entries>" under a title, a header and a rule.
        assert [line.split("|")[1].split() for line in out.splitlines()[3:]] == expected

    def test_oracle_points_reach_the_full_gcd(self):
        # Most entries are prime to their row's denominator and print with no
        # gcd against it; the oracle tables must also hold entries that are
        # not, so that the reduction by the full gcd is compared too.
        reducible = {(m_max, r): sum(gcd(x, den) > 1 for m in range(m_max + 1)
                                     for xs, den in [p_row(m, r)] for x in xs)
                     for m_max, r in self.ORACLE_POINTS}
        assert reducible[(200, 24)] > 0
        assert sum(count > 0 for count in reducible.values()) >= 20

    def test_unprintable_row_refused_where_it_starts(self, capsys, monkeypatch):
        # Python refuses to print integers past a digit limit (4300 by
        # default, which row 930 at r=3 exceeds); the table must stop there.
        requested = []

        def recording(m, r):
            requested.append(m)
            return p_row(m, r)

        monkeypatch.setattr(cohft_module, "p_row", recording)
        code, out, err = run(capsys, ["pm-table", "--m-max", "1000", "--r", "3"])
        assert code == 1
        assert out == ""
        match = re.fullmatch(
            r"error: the entries of row m=(\d+) are too long to print in "
            r"decimal; lower --m-max below \1\n",
            err,
        )
        assert match, err
        first_bad = int(match.group(1))
        assert max(requested) == first_bad
        assert all(str(p_polynomial(first_bad - 1, a, 3)) for a in range(2))


class TestTextOutput:
    """Text-mode stdout is byte-identical to the output these sha256 digests
    were recorded from; ``golden.json`` pins only the JSON records."""

    @pytest.mark.parametrize("argv,sha256", [
        ("pm-table --m-max 6 --r 7",
         "6361ded14dd6c0f29c94f7ec9db3a3d8739d4bf7d98950f6a8708a2f2dc1f4ce"),
        ("relations --g 1 --n 3 --r 3",
         "ac28cea1b975cf35b4e628aa2228e2bf7de25de96f96a1af0f81cd20fedbef7f"),
        ("relations --g 1 --n 3 --r 3 --a 1,0,0",
         "003ce55f0b8b89a5ac6595d2efa9a317500b615312fb32f0befb18c4c0cb80eb"),
        ("relations --g 1 --n 3 --symbolic",
         "67d293a8a75e774074fd61b006165b27da6f1df53901db8b37e444d1ae4a981d"),
        ("relations --g 2 --n 3 --r 3",
         "eaff379ebee5ac67718d35c8ad26937808121423e675b55735f49d233420e985"),
        ("relations --g 2 --n 3 --r 3 --a 0,0,0",
         "c0b141b953910a9511f4a3870651e90c8141a6fbe4a7c98b11815b3a7eb46958"),
        ("relations --g 2 --n 3 --r 4 --a 0,0,0",
         "89b35d9d3d0edd3db5c564116ae185c54fc2edd21bf37af1e93372be43958281"),
        ("verify-ac --g 1 --n 4 --r 3",
         "3bf6ff3bea0cd7cc6ab4b6d1a770c72fb898391037d0889a3cecded38a26ce0b"),
    ])
    def test_text_stdout_digest(self, capsys, argv, sha256):
        code, out, _ = run(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256, out


class TestColdImports:
    """A cold process loads only the library modules its subcommand uses."""

    # Loaded by no command: ``argparse``, with the ``gettext`` it imports and
    # the ``locale`` that gettext's first lookup imports; argv is read without
    # them.
    PARSER = {"argparse", "gettext", "locale"}
    # The two selftest-only oracle modules.
    ORACLES = {"rspinrel.oracles", "rspinrel.matrix_oracles"}
    # Loaded by no relation or table command: the record module ``dataclasses``
    # (with the ``inspect`` it imports), the oracles and PARSER.
    NEVER = {"dataclasses"} | ORACLES | PARSER
    COMMANDS = [
        ["--help"],
        ["pm-table", "--m-max", "3", "--r", "5"],
        ["relations", "--g", "1", "--n", "2", "--r", "3"],
        ["verify-ac", "--g", "1", "--n", "2", "--r", "3"],
    ]

    @staticmethod
    def cold_imports(argv):
        """A cold run under ``-X importtime``: the modules it loaded, and its
        stderr without the import log."""
        result = cold_run(argv, "-X", "importtime")
        assert "Traceback" not in result.stderr
        # Lines read "import time: <self us> | <cumulative us> | <module>".
        lines = result.stderr.splitlines(keepends=True)
        log = [line for line in lines if line.startswith("import time:")]
        loaded = {line.rsplit("|", 1)[1].strip() for line in log if line.count("|") == 2}
        return loaded, "".join(line for line in lines if line not in log)

    @classmethod
    def loaded_modules(cls, argv):
        return cls.cold_imports(argv)[0]

    def test_help_loads_no_library_module(self):
        # ``-m`` runs rspinrel.cli as __main__, so the package is the import
        # log's only rspinrel entry; --help loads neither json nor rationals.
        loaded = self.loaded_modules(["--help"])
        assert {m for m in loaded if m.startswith("rspinrel")} == {"rspinrel"}
        assert not loaded & ({"json", "fractions", "decimal"} | self.PARSER)

    def test_text_pm_table_loads_cohft_alone(self):
        # No relation module, not rpoly, which only the symbolic coefficients
        # use, not json, which only the JSON record needs, and no rationals:
        # the table prints from integer rows.
        loaded = self.loaded_modules(self.COMMANDS[1])
        assert {m for m in loaded if m.startswith("rspinrel")} == {"rspinrel", "rspinrel.cohft"}
        assert not loaded & ({"json"} | self.RATIONALS)

    # ``fractions`` and the two modules it imports; only the code that builds
    # a Fraction loads them.
    RATIONALS = {"fractions", "decimal", "numbers"}

    @pytest.mark.parametrize("argv", [
        ["pm-table", "--m-max", "3", "--r", "5"],
        ["pm-table", "--m-max", "3", "--r", "5", "--format", "json"],
        ["relations", "--g", "3", "--n", "2", "--r", "3"],
        ["verify-ac", "--g", "3", "--n", "2", "--r", "3"],
    ], ids=" ".join)
    def test_tables_and_genus_three_sets_load_no_rationals(self, argv):
        assert not self.loaded_modules(argv) & self.RATIONALS

    USAGE_REFUSALS = [
        ["relations", "--g", "1", "--n", "3", "--r", "5", "--a", "7,0,0", "--format", "json"],
        ["relations", "--g", "2", "--n", "3", "--r", "4", "--a", "0,1,0"],
        ["relations", "--g", "1", "--n", "3", "--r", "2", "--format", "json"],
        ["relations", "--g", "1", "--n", "3", "--symbolic", "--a", "2,0,0"],
        ["verify-ac", "--g", "1", "--n", "0", "--r", "3", "--format", "json"],
        ["verify-ac", "--g", "1", "--n", "3", "--r", "1001"],
        ["pm-table", "--m-max", "5000", "--r", "3", "--format", "json"],
        ["pm-table", "--m-max", "-1", "--r", "3"],
    ]

    @pytest.mark.parametrize("argv", USAGE_REFUSALS, ids=" ".join)
    def test_usage_refusals_load_neither_cohft_nor_json(self, argv):
        loaded, stderr = self.cold_imports(argv)
        assert stderr.startswith("error: ") and "usage: rspinrel" in stderr
        assert not loaded & ({"rspinrel.cohft", "json"} | self.PARSER)

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    @pytest.mark.parametrize("g,n,r,degree", [(4, 0, 3, "1"), (4, 1, 5, "9/5")])
    def test_degree_gate_refusal_loads_strata_alone(self, fmt, g, n, r, degree):
        # The message writes the class degree from integers: no rationals load.
        loaded, stderr = self.cold_imports(["relations", "--g", str(g), "--n", str(n),
                                            "--r", str(r), *fmt])
        assert {m for m in loaded if m.startswith("rspinrel")} == {"rspinrel", "rspinrel.strata"}
        assert not loaded & ({"json"} | self.PARSER | self.RATIONALS)
        assert stderr == (
            f"refused: no relation in codimension D = 1 for (g, n, r) = ({g}, {n}, {r}) with "
            f"sum(a) = 0: the class has degree {degree} and the degree-1 part need not vanish "
            "(target codimension D = 1)\n"
        )

    @pytest.mark.parametrize("argv", COMMANDS[2:])
    def test_relation_commands_skip_selftest_and_oracles(self, argv):
        loaded = self.loaded_modules(argv)
        assert "rspinrel.relations" in loaded
        assert not loaded & ({"rspinrel.selftest"} | self.ORACLES)

    # Numeric commands: genus 2 and 3 never interpolate in r, and one genus-1
    # leg vector at a given r is assembled without polynomials.
    NUMERIC = [
        ["relations", "--g", "2", "--n", "3", "--r", "3"],
        ["relations", "--g", "2", "--n", "3", "--r", "3", "--a", "0,0,0"],
        ["verify-ac", "--g", "2", "--n", "3", "--r", "3"],
        ["verify-ac", "--g", "3", "--n", "2", "--r", "3"],
        ["relations", "--g", "1", "--n", "3", "--r", "3", "--a", "1,0,0"],
    ]
    # Genus-1 sets whose relations are extracted from polynomials in r.
    SYMBOLIC = [
        ["relations", "--g", "1", "--n", "2", "--r", "3"],
        ["relations", "--g", "1", "--n", "2", "--symbolic"],
        ["relations", "--g", "1", "--n", "2", "--symbolic", "--a", "1,0"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS + NUMERIC + SYMBOLIC[1:])
    def test_commands_load_neither_dataclasses_nor_oracles(self, argv):
        assert not self.loaded_modules(argv) & self.NEVER

    @pytest.mark.parametrize("argv", NUMERIC, ids=" ".join)
    def test_numeric_commands_load_no_rpoly(self, argv):
        loaded = {m for m in self.loaded_modules(argv) if m.startswith("rspinrel")}
        assert loaded == {"rspinrel"} | {
            f"rspinrel.{name}" for name in ("relations", "strata", "linalg")
        }

    @pytest.mark.parametrize("argv", SYMBOLIC + COMMANDS[3:], ids=" ".join)
    def test_genus_one_sets_load_neither_rpoly_nor_rationals(self, argv):
        # Interpolation in r runs in integers too.
        assert not self.loaded_modules(argv) & ({"rspinrel.rpoly"} | self.RATIONALS)

    @pytest.mark.parametrize("argv", NUMERIC, ids=" ".join)
    def test_numeric_contraction_loads_no_rationals(self, argv):
        # The contraction runs in integers at scale 24.
        assert not self.loaded_modules(argv) & self.RATIONALS

    @pytest.mark.parametrize("argv", COMMANDS[2:])
    def test_relation_commands_load_exactly_their_modules(self, argv):
        # ``-m`` runs rspinrel.cli as __main__, so the import log lists the
        # package and the three library modules the command uses.
        loaded = {m for m in self.loaded_modules(argv) if m.startswith("rspinrel")}
        assert loaded == {"rspinrel"} | {
            f"rspinrel.{name}" for name in ("relations", "strata", "linalg")
        }

    def test_selftest_loads_the_oracles(self):
        loaded = self.loaded_modules(["selftest", "--json"])
        assert {"rspinrel.selftest"} | self.ORACLES <= loaded
        assert not loaded & self.PARSER


class TestNoDivisorBasis:
    """Relation sets live in feature coordinates: span checks in either genus
    and every genus-2 command build no DivisorClass basis, only the names of
    the rows they print."""

    @pytest.mark.parametrize("argv", [
        ["relations", "--g", "2", "--n", "12", "--r", "3"],
        ["relations", "--g", "2", "--n", "12", "--r", "3", "--a", ",".join("0" * 12)],
        ["verify-ac", "--g", "2", "--n", "12", "--r", "3"],
        ["verify-ac", "--g", "1", "--n", "8", "--r", "3"],
        ["relations", "--g", "1", "--n", "8", "--r", "3"],
        ["relations", "--g", "1", "--n", "8", "--r", "3", "--a", "0,0,1,0,0,0,0,0"],
        ["relations", "--g", "1", "--n", "8", "--symbolic"],
    ], ids=" ".join)
    def test_no_basis_built(self, capsys, argv):
        oracles_module._divisor_generators.cache_clear()
        code, out, _ = run(capsys, argv)
        assert code == 0 and out
        assert oracles_module._divisor_generators.cache_info().currsize == 0

    def test_equality_and_repr_build_no_basis(self):
        # A relation set compares and prints its feature rows, not the
        # 32,769-column rows over the basis.
        oracles_module._divisor_generators.cache_clear()
        relation_set = relations_module.ppz_relation_set(1, 15, 3)
        assert relation_set == relations_module.ppz_relation_set(1, 15, 3)
        assert repr(relation_set).startswith("RelationSet(space=(1, 15), features=[(")
        assert oracles_module._divisor_generators.cache_info().currsize == 0

    def test_cache_sees_a_built_basis(self, capsys):
        oracles_module._divisor_generators.cache_clear()
        divisor_generators(2, 3)
        assert oracles_module._divisor_generators.cache_info().currsize == 1


# Sizes and r near every bound, mostly small values that answer quickly, with
# values below the lower bounds, above the basis limit (genus 1 from n = 16,
# genus 2 from n = 15) and around MAX_R.
SIZES = st.integers(0, 6) | st.integers(-2, 6) | st.sampled_from([14, 15, 16, 30, 65, 10 ** 6])
RS = (st.integers(3, 8) | st.integers(-1, 8)
      | st.sampled_from([cli_module.MAX_R, cli_module.MAX_R + 1, 10 ** 9]))


def leg_vectors(n):
    """--a values: none, lists of length n (when n is small) and of any
    length, with entries inside and outside 0..r-2, and free text (empty,
    short, trailing comma, unparsable)."""
    lists = [st.lists(st.integers(-2, 9), max_size=7)]
    if 0 <= n <= 7:
        lists += [st.lists(st.integers(-1, 4), min_size=n, max_size=n)] * 2
    texts = [s.map(lambda a: ",".join(map(str, a))) for s in lists]
    return st.one_of(st.none(), *texts, st.text("0123-,x ", max_size=6))


FORMATS = st.sampled_from([[], ["--format", "json"]])


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["relations", "verify-ac", "pm-table"]))
    r = ["--r", str(draw(RS))]
    if command == "pm-table":
        m_max = draw(st.integers(0, 6) | st.integers(-2, 6) | st.just(10 ** 9))
        return [command, "--m-max", str(m_max), *r, *draw(FORMATS)]
    n = draw(SIZES)
    g = draw(st.sampled_from([1, 1, 2, 3, -1, 0, 4, 5]))
    argv = [command, "--g", str(g), "--n", str(n)]
    if command == "verify-ac":
        return argv + r + draw(FORMATS)
    argv += draw(st.sampled_from([r, r, ["--symbolic"], [], r + ["--symbolic"]]))
    a = draw(leg_vectors(n))
    return argv + ([f"--a={a}"] if a is not None else []) + draw(FORMATS)


def over_basis_limit(argv):
    """Whether argv names a stable (g, n) whose basis is above the limit."""
    if "--g" not in argv:
        return False
    g, n = (int(argv[argv.index(flag) + 1]) for flag in ("--g", "--n"))
    if g < 1 or n < 0 or 2 * g - 2 + n <= 0:
        return False
    return n > 64 or strata_module.basis_size(g, n) > strata_module.MAX_BASIS_SIZE


class TestCliContract:
    """Every drawn argv gets an answer or a refusal under the exit-code
    contract, with the refusal on stderr."""

    @settings(max_examples=150, deadline=None)
    @given(cli_argv())
    @example(["relations", "--g", "1", "--n", "3", "--r", "5", "--a=7,0,0"])
    @example(["relations", "--g", "3", "--n", "2", "--r", "3", "--a=-1,0"])
    @example(["relations", "--g", "1", "--n", "3", "--r", "3"])
    @example(["verify-ac", "--g", "2", "--n", "0", "--r", "4"])  # DIFFERENT
    @example(["verify-ac", "--g", "2", "--n", "0", "--r", "4", "--format", "json"])
    @example(["verify-ac", "--g", "1", "--n", "16", "--r", "3"])
    @example(["relations", "--g", "2", "--n", "15", "--r", "3", "--format", "json"])
    def test_exit_code_and_stderr(self, argv):
        out, err = StringIO(), StringIO()
        with mock.patch.object(relations_module, "_expand", wraps=relations_module._expand) as expand, \
                mock.patch.object(strata_module, "generator_names",
                                  wraps=strata_module.generator_names) as names, \
                redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 0 or (code == 1 and argv[0] == "verify-ac" and "DIFFERENT" in out):
            assert err == ""
        else:
            assert out == ""
            assert err.startswith("error:" if code == 1 else "refused:"), err
        assert "basis index" not in err and "index a=" not in err
        if over_basis_limit(argv):
            # Refused before any work that grows with n; a degree-gate
            # refusal (exit 2) comes before the basis limit.
            assert code != 0
            assert not expand.called and not names.called


class TestSelftestCommand:
    def test_json_verdicts_and_exit_code(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--json"])
        record = json.loads(out)
        assert len(record["verdicts"]) == 11
        all_pass = all(v["verdict"] == "PASS" for v in record["verdicts"])
        assert code == (0 if all_pass else 1)


def _cold_golden_point(argv):
    """Golden grid points run cold: genus-1 full sets and span checks at
    n = 6, 7, the genus-2 span check at n = 8, and every genus-2 command at
    n = 12, the widest rows the grid writes."""
    if argv[0] not in ("verify-ac", "relations") or "--symbolic" in argv:
        return False
    opts = dict(zip(argv[1::2], argv[2::2]))
    g, n = opts["--g"], opts["--n"]
    if g == "2" and n == "12":
        return True
    if "--a" in opts:
        return False
    return (g == "1" and n in ("6", "7")) or (g == "2" and n == "8" and argv[0] == "verify-ac")


def _genus(argv):
    """The --g of a grid point, 0 for a command without one."""
    return int(argv[argv.index("--g") + 1]) if "--g" in argv else 0


class TestLargeROutputs:
    """Outputs at large r, where the relation path reads P_1 in closed form
    and the golden grid, which stops at r = 8, has no point.  The digests
    (``measure.digest``: exit code and stdout, ``elapsed_ms`` dropped) were
    recorded when that path still read P_1 through the recursion."""

    @pytest.mark.parametrize("argv,sha256", [
        ("relations --g 1 --n 4 --r 100",
         "0a1317a7d150f0e69aad8f15212dc143a25f6c2905a5000598f3056f9f919019"),
        ("relations --g 1 --n 4 --r 100 --format json",
         "449e030895f1259ea9296d2db16b08858e4478c789ae3094bba9e5855e7efb52"),
        ("relations --g 1 --n 5 --r 100 --a 0,1,0,0,0",
         "ece60974b465b99a53c6e9148b28be1996739b241be2c616d6f11381b3a52b70"),
        ("relations --g 1 --n 5 --r 100 --a 0,1,0,0,0 --format json",
         "9c4f965a5c592d57659048f74f5bb6f22b1f2865fe74d76c1eed5d1f791e48a2"),
        ("verify-ac --g 1 --n 4 --r 100",
         "8937665d934ace65ca29422ccd6a8878e692266fb1f5344d00e686c80c70c848"),
        ("verify-ac --g 1 --n 4 --r 100 --format json",
         "a22902435b1802b201f3e7ff8be081e2316791fc3409889c87d595509f566f12"),
        ("relations --g 1 --n 4 --r 997",
         "7b562a9b5479d833947caecef2cb40a38879f28c2c97ef1eee42a109aa1656cc"),
        ("relations --g 1 --n 4 --r 997 --format json",
         "108991601c1878b1e08a936be9ffed27d0038df3e2c08925bbddadfdb994f6a8"),
        ("relations --g 1 --n 5 --r 997 --a 0,1,0,0,0",
         "d61657dc022680c0d6c64b6aa5db912a44c153de42aab50bc53b82282d60a42e"),
        ("relations --g 1 --n 5 --r 997 --a 0,1,0,0,0 --format json",
         "1a1b6eba8146c17f4a361c160524067d06a8f72356dc03697f7a78f2d21781f7"),
        ("verify-ac --g 1 --n 4 --r 997",
         "1c43ba3973f87bbd58baedcbbd8101bda3ad2f6570b111e56379f43987c08c46"),
        ("verify-ac --g 1 --n 4 --r 997 --format json",
         "e148ad0940cf8dc3cf89301c928b59939dc29daab23e860988e01c8bb1dec566"),
        ("relations --g 1 --n 4 --r 1000",
         "571f26de02051df756763b5ac3e7cc8d1e1fbaf0792c0e19e7d5c5e677019b1d"),
        ("relations --g 1 --n 4 --r 1000 --format json",
         "db4cc7df94026d73a3f4f9bca26bed23293a9fb876311dd2e61dc5e9a1591361"),
        ("relations --g 1 --n 5 --r 1000 --a 0,1,0,0,0",
         "fab953c2c3455f7f24ea1e5a6ac82f836feda66ab2dc1047502c5591ef4e9df8"),
        ("relations --g 1 --n 5 --r 1000 --a 0,1,0,0,0 --format json",
         "f85b2acb8f461b8b9ca4ca63dc73e9134c5dd098026c73070fc376b84b36b11d"),
        ("verify-ac --g 1 --n 4 --r 1000",
         "900e671ed5b86bf23e9ad49f4905644695e571fb652c5d77fcfbe5a8dbb6504f"),
        ("verify-ac --g 1 --n 4 --r 1000 --format json",
         "1ae710afab8b68838c999e484589f1f0af337f85d1c719a10cfb57a6a68e4cfc"),
    ])
    def test_stdout_digest(self, capsys, argv, sha256):
        code, out, err = run(capsys, argv.split())
        assert (code, err) == (0, "")
        assert measure.digest(code, out) == sha256, out


class TestLargeNOutputs:
    """Genus-1 outputs beyond the golden grid, which stops at n = 8.  The
    digests (``measure.digest``: exit code and stdout, ``elapsed_ms``
    dropped) were recorded when the symbolic table was still interpolated
    over the rationals."""

    @pytest.mark.parametrize("argv,sha256", [
        ("relations --g 1 --n 12 --symbolic",
         "3eec4597da4c589d1cbe6de595ca5da6ac37a010630eb4c813289c71a001285d"),
        ("relations --g 1 --n 12 --symbolic --format json",
         "9f80cca77f47626fdf31ad067bbe090c4ca0b0559525204b957fe8c1deb71c00"),
        ("relations --g 1 --n 10 --symbolic --a 1,0,0,0,0,0,0,0,0,0",
         "45fefbac3a165c9c1cbf62de65e9872193ba11f87a3d0107c8611815b9f0dd48"),
        ("relations --g 1 --n 10 --symbolic --a 1,0,0,0,0,0,0,0,0,0 --format json",
         "ef4343b9efe0d5e10bbfc5a74ad7a36cdfe8ae5dc2ce569589b97a3f96f90a13"),
        ("relations --g 1 --n 12 --symbolic --a 1,0,0,0,0,0,0,0,0,0,0,0",
         "6cf607b4945ffa1cc4d0e6afab8a403e64c33f059b31e5098e8022be20141e26"),
        ("relations --g 1 --n 12 --symbolic --a 1,0,0,0,0,0,0,0,0,0,0,0 --format json",
         "0555881f4198408b2d7d516663d892fea77fe62b8e66395b40a2be961edc1eb9"),
        ("relations --g 1 --n 10 --r 30",
         "11821b2a58615eb39252c9f83afa145e1e702ca1d04f6e1ec4cad69ac8511a25"),
        ("relations --g 1 --n 10 --r 30 --format json",
         "28b1ba91cb00ec1a64d6eecefc3ac11107140b0d06da829f7e763a491ab42f07"),
        ("verify-ac --g 1 --n 15 --r 3",
         "bf9c00eee35bba615004e199a63616c4dde1abb1e72d9ec6fdb67cf967b87ec8"),
        ("verify-ac --g 1 --n 15 --r 3 --format json",
         "1073a99c0511a59a6d707f38ad28826dbb52b8d5a76a9c86f3ea996e070a6363"),
    ])
    def test_stdout_digest(self, capsys, argv, sha256):
        code, out, err = run(capsys, argv.split())
        assert (code, err) == (0, "")
        assert measure.digest(code, out) == sha256


class TestGoldenOutputs:
    """Cold CLI processes reproduce the benchmark's golden exit codes and
    output digests (``perfbench/golden.json``) on the points of
    ``_cold_golden_point``."""

    GOLDEN = json.load(open(os.path.join(ROOT, "perfbench", "golden.json")))

    def in_process_mismatches(self, capsys, keep):
        """Every grid point that ``keep`` accepts, run through main() in this
        process: how many ran, and the keys that mismatched."""
        points = [a for a in workloads.grid_points() if keep(a)]
        mismatches = []
        for argv in points:
            code, out, _ = run(capsys, list(argv))
            expected = self.GOLDEN[workloads.key(argv)]
            if (code, measure.digest(code, out)) != (expected["exit"], expected["digest"]):
                mismatches.append(workloads.key(argv))
        return len(points), mismatches

    def test_genus_one_points_in_process(self, capsys):
        count, mismatches = self.in_process_mismatches(capsys, lambda a: _genus(a) == 1)
        assert count and mismatches == []

    def test_genus_two_and_up_points_in_process(self, capsys):
        # The g2, g3 and g4 families of g2-wide.
        count, mismatches = self.in_process_mismatches(capsys, lambda a: _genus(a) >= 2)
        assert count == 64 and mismatches == []

    def test_pm_table_points_in_process(self, capsys):
        # The pm-deep family.
        count, mismatches = self.in_process_mismatches(capsys, lambda a: a[0] == "pm-table")
        assert count == 38 and mismatches == []

    def test_selftest_in_process(self, capsys):
        # The criteria's detail strings and the exit code, pinned by digest.
        argv = ["selftest", "--json"]
        code, out, _ = run(capsys, argv)
        expected = self.GOLDEN[workloads.key(argv)]
        assert (code, measure.digest(code, out)) == (expected["exit"], expected["digest"])

    @pytest.mark.parametrize(
        "argv", [a for a in workloads.grid_points() if _cold_golden_point(a)], ids=workloads.key
    )
    def test_cold_run_matches_golden(self, argv):
        result = cold_run(argv, hash_seed=workloads.hash_seed(argv))
        expected = self.GOLDEN[workloads.key(argv)]
        assert result.returncode == expected["exit"], result.stderr
        assert measure.digest(result.returncode, result.stdout) == expected["digest"]
