import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import rspinrel.cli as cli_module
import rspinrel.relations as relations_module
import rspinrel.strata as strata_module
from rspinrel.cli import main
from rspinrel.cohft import PhiDegreeReport, p_polynomial, p_row
from rspinrel.linalg import primitive_int_vector
from rspinrel.oracles import RationalMatrix, rank_and_solve
from rspinrel.relations import DegreeGateError, relation_row
from rspinrel.strata import divisor_generators

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, ROOT)
from perfbench import measure, workloads  # noqa: E402


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env(hash_seed=0):
    """The environment of a cold CLI process on the sources in ``src``."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
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
    rows = [row for row in rows if any(row)]
    if not rows:
        return 0
    return rank_and_solve(RationalMatrix([[Fraction(x) for x in r] for r in rows]))[0]


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
    return [record], [], [header, "  " + cli_module._format_terms(names, coeffs)]


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

    @pytest.mark.parametrize("r", [4, 5])
    def test_closed_gate_refused_as_the_unmarked_assembly(self, capsys, monkeypatch, r):
        # The genus-2 gate is open at every r; closed by hand, the command
        # refuses with the error the unmarked assembly raises.
        def closed(g, D, a_vec, r):
            return PhiDegreeReport(value=1, relation_exists=False, d_integral=False)

        monkeypatch.setattr(relations_module, "phi_degree", closed)
        with pytest.raises(DegreeGateError) as expected:
            relation_row(2, 0, (), r)
        monkeypatch.setattr(cli_module, "phi_degree", closed)
        code, out, err = run(capsys, self.argv(3, r))
        assert code == 2 and out == ""
        assert err == f"refused: {expected.value} (target codimension D = 1)\n"


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
        monkeypatch.setattr(cli_module, "p_row", lambda m, r: requested.append(m))
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


class TestVerifyAcCommand:
    # n = 1, 2 in genus 1 rank over the basis, since their features are dependent.
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

    def test_unsupported_genus(self, capsys):
        code, _, err = run(capsys, ["verify-ac", "--g", "7", "--n", "0", "--r", "3"])
        assert code == 1

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

    @pytest.mark.parametrize("m_max,r", [(40, r) for r in range(3, 31)] + [(200, 24)])
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

    def test_unprintable_row_refused_where_it_starts(self, capsys, monkeypatch):
        # Python refuses to print integers past a digit limit (4300 by
        # default, which row 930 at r=3 exceeds); the table must stop there.
        requested = []

        def recording(m, r):
            requested.append(m)
            return p_row(m, r)

        monkeypatch.setattr(cli_module, "p_row", recording)
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
        ("verify-ac --g 1 --n 4 --r 3",
         "3bf6ff3bea0cd7cc6ab4b6d1a770c72fb898391037d0889a3cecded38a26ce0b"),
    ])
    def test_text_stdout_digest(self, capsys, argv, sha256):
        code, out, _ = run(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256, out


class TestColdImports:
    """A cold process loads only the library modules its subcommand uses."""

    # Loaded by no relation or table command: the record module ``dataclasses``
    # (with the ``inspect`` it imports) and the selftest-only oracles.
    NEVER = {"dataclasses", "rspinrel.oracles"}
    COMMANDS = [
        ["--help"],
        ["pm-table", "--m-max", "3", "--r", "5"],
        ["relations", "--g", "1", "--n", "2", "--r", "3"],
        ["verify-ac", "--g", "1", "--n", "2", "--r", "3"],
    ]

    @staticmethod
    def loaded_modules(argv):
        result = cold_run(argv, "-X", "importtime")
        assert "Traceback" not in result.stderr
        # Lines read "import time: <self us> | <cumulative us> | <module>".
        return {line.rsplit("|", 1)[1].strip()
                for line in result.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2}

    @pytest.mark.parametrize("argv", COMMANDS[:2])
    def test_help_and_pm_table_load_no_relation_modules(self, argv):
        # cohft alone: no relation module, and not rpoly, which only the
        # symbolic coefficients use.
        loaded = {m for m in self.loaded_modules(argv) if m.startswith("rspinrel")}
        assert loaded == {"rspinrel", "rspinrel.cohft"}

    @pytest.mark.parametrize("argv", COMMANDS[2:])
    def test_relation_commands_skip_selftest_and_cyclotomic(self, argv):
        loaded = self.loaded_modules(argv)
        assert "rspinrel.relations" in loaded
        assert not loaded & {"rspinrel.selftest", "rspinrel.cyclotomic"}

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
            f"rspinrel.{name}" for name in ("cohft", "relations", "strata", "linalg")
        }

    @pytest.mark.parametrize("argv", SYMBOLIC, ids=" ".join)
    def test_genus_one_sets_load_rpoly(self, argv):
        assert "rspinrel.rpoly" in self.loaded_modules(argv)

    @pytest.mark.parametrize("argv", COMMANDS[2:])
    def test_relation_commands_load_exactly_their_modules(self, argv):
        # ``-m`` runs rspinrel.cli as __main__, so the import log lists the
        # package and the five library modules the command uses.
        loaded = {m for m in self.loaded_modules(argv) if m.startswith("rspinrel")}
        assert loaded == {"rspinrel"} | {
            f"rspinrel.{name}"
            for name in ("cohft", "rpoly", "relations", "strata", "linalg")
        }

    def test_selftest_loads_the_oracles(self):
        loaded = self.loaded_modules(["selftest"])
        assert {"rspinrel.oracles", "rspinrel.selftest", "rspinrel.cyclotomic"} <= loaded


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
        strata_module._divisor_generators.cache_clear()
        code, out, _ = run(capsys, argv)
        assert code == 0 and out
        assert strata_module._divisor_generators.cache_info().currsize == 0

    def test_equality_and_repr_build_no_basis(self):
        # A relation set compares and prints its feature rows, not the
        # 32,769-column rows over the basis.
        strata_module._divisor_generators.cache_clear()
        relation_set = relations_module.ppz_relation_set(1, 15, 3)
        assert relation_set == relations_module.ppz_relation_set(1, 15, 3)
        assert repr(relation_set).startswith("RelationSet(space=(1, 15), features=[(")
        assert strata_module._divisor_generators.cache_info().currsize == 0

    def test_cache_sees_a_built_basis(self, capsys):
        strata_module._divisor_generators.cache_clear()
        divisor_generators(2, 3)
        assert strata_module._divisor_generators.cache_info().currsize == 1


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


class TestGoldenOutputs:
    """Cold CLI processes reproduce the benchmark's golden exit codes and
    output digests (``perfbench/golden.json``) on the points of
    ``_cold_golden_point``."""

    GOLDEN = json.load(open(os.path.join(ROOT, "perfbench", "golden.json")))

    def in_process_mismatches(self, capsys, genus_ok):
        """Every grid point whose genus passes ``genus_ok``, run through
        main() in this process: how many ran, and the keys that mismatched."""
        points = [a for a in workloads.grid_points()
                  if "--g" in a and genus_ok(int(a[a.index("--g") + 1]))]
        mismatches = []
        for argv in points:
            code, out, _ = run(capsys, list(argv))
            expected = self.GOLDEN[workloads.key(argv)]
            if (code, measure.digest(code, out)) != (expected["exit"], expected["digest"]):
                mismatches.append(workloads.key(argv))
        return len(points), mismatches

    def test_genus_one_points_in_process(self, capsys):
        count, mismatches = self.in_process_mismatches(capsys, lambda g: g == 1)
        assert count and mismatches == []

    def test_genus_two_and_up_points_in_process(self, capsys):
        # The g2, g3 and g4 families of g2-wide.
        count, mismatches = self.in_process_mismatches(capsys, lambda g: g >= 2)
        assert count == 64 and mismatches == []

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
