"""Command-line surface: output formats, exit codes, cross-check flags."""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpl.cli
import qpl.divisors
import qpl.identities
import qpl.partitions
from qpl.cli import main
from qpl.errors import ParameterError
from qpl.reports import Mismatch, VerificationReport
from qpl.series import QSeries

IDENTITIES = (
    "triple_product", "specialized", "berger", "hermite", "boundary_half",
    "sylvester", "partition_shift", "bounded_mult_shift", "apostol", "kim",
)
# theta inputs that once never terminated: NaN q or z, infinite z, a z whose
# reciprocal overflows, and |q| one ulp below 1; one whose powers of z
# underflow to 0, which once ended in a ZeroDivisionError traceback; and two
# whose substituted z (q^ell·z, then q·z in the residual) underflows to 0,
# which were once reported as "z must be nonzero"
THETA_EDGES = (
    ("--q", "nan,0", "--z", "1,0"),
    ("--q", "0.3,0", "--z", "nan,0"),
    ("--q", "0.3,0", "--z", "inf,0"),
    ("--q", "0.3,0", "--z", "1e-310,0"),
    ("--q", "0.9999999999999999,0", "--z", "1,0"),
    ("--q", "1e-200,0", "--z", "1e-200,0"),
    ("--q", "1e-200,0", "--z", "1e-200,0", "--variant", "d", "--k", "2", "--ell", "1"),
    ("--q", "1e-320,0", "--z", "1e-100,0"),
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identity_names_are_the_library_table():
    # IDENTITIES above stays written out, so a name dropped from the table shows
    assert IDENTITIES == tuple(qpl.identities.IDENTITIES)


def test_readme_lists_the_identity_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Identity names for `verify --identity`", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", paragraph.split(":", 1)[1])
    assert tuple(names) == tuple(qpl.identities.IDENTITIES)


class TestFigurate:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "figurate", "--k", "3", "--ell", "1", "--bound", "7")
        assert code == 0
        assert out.splitlines() == ["j,value", "0,0", "1,1", "-1,2", "2,5", "-2,7"]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "figurate", "--k", "4", "--ell", "2", "--bound", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["rows"] == [
            {"j": 0, "value": 0},
            {"j": -1, "value": 2},
            {"j": 1, "value": 2},
        ]

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "figurate", "--k", "3", "--ell", "9", "--bound", "5")
        assert code == 2
        assert "ell" in err


class TestPartitions:
    def test_recursion_row_ends_at_42(self, capsys):
        code, out, _ = run(
            capsys, "partitions", "--set", "Jbar:3,1", "--mode", "unrestricted",
            "--n", "10", "--method", "recursion",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[-1] == "10,42"

    def test_check_agrees(self, capsys):
        code, out, _ = run(
            capsys, "partitions", "--set", "J:4,1", "--mode", "distinct",
            "--gamma", "-1", "--n", "20", "--check",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,gf,oracle,recursion,agree"
        assert all(line.endswith(",yes") for line in lines[1:])

    def test_check_does_not_swallow_a_recursion_error(self, capsys, monkeypatch):
        # --check once caught every ParameterError of route 3 and dropped its column
        def broken(*args, **kwargs):
            raise ParameterError("broken recursion")

        monkeypatch.setattr(qpl.partitions, "recursive_count_j", broken)
        code, out, err = run(capsys, "partitions", "--set", "J:5,2", "--n", "20", "--check")
        assert (code, out, err) == (2, "", "qpl: error: broken recursion\n")

    @pytest.mark.parametrize("part_set", ("I:4,1", "mult:3", "Js:3,1,2", "set:1,3,7"))
    def test_check_has_a_recursion_column_only_for_j_and_jbar(self, capsys, part_set):
        code, out, _ = run(capsys, "partitions", "--set", part_set, "--n", "10", "--check")
        assert code == 0
        assert out.splitlines()[0] == "n,gf,oracle,agree"

    @pytest.mark.parametrize("part_set", ("J:4,1", "Jbar:5,2"))
    @pytest.mark.parametrize("gamma", ("1", "-1"))
    @pytest.mark.parametrize(
        "mode", (("unrestricted",), ("distinct",), ("at-most", "--d", "2"), ("at-most", "--d", "7"))
    )
    def test_check_has_three_agreeing_routes_in_every_mode(self, capsys, part_set, gamma, mode):
        code, out, _ = run(
            capsys, "partitions", "--set", part_set, "--mode", *mode, "--gamma", gamma,
            "--n", "40", "--check",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,gf,oracle,recursion,agree"
        assert len(lines) == 42 and all(line.endswith(",yes") for line in lines[1:])

    def test_oracle_bound_respected(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, "partitions", "--set", "Jbar:3,1", "--n", "200",
            "--method", "oracle",
        )
        assert code == 2 and "bound" in err
        monkeypatch.setenv("QPL_ORACLE_BOUND", "200")
        code, out, _ = run(
            capsys, "partitions", "--set", "Jbar:3,1", "--n", "200",
            "--method", "oracle",
        )
        assert code == 0
        assert out.splitlines()[-1] == "200,3972999029388"

    def test_negative_oracle_bound_rejected(self, capsys, monkeypatch):
        # it once dropped the oracle column of --check and exited 0
        monkeypatch.setenv("QPL_ORACLE_BOUND", "-5")
        code, out, err = run(
            capsys, "partitions", "--set", "Jbar:3,1", "--n", "5", "--check",
        )
        assert (code, out) == (2, "")
        assert err == (
            "qpl: error: QPL_ORACLE_BOUND must be a non-negative integer, got '-5'\n"
        )

    def test_hypothesis_violation_named(self, capsys):
        code, _, err = run(
            capsys, "partitions", "--set", "Jbar:4,2", "--n", "10",
            "--method", "recursion",
        )
        assert code == 2
        assert "k/2" in err or "interior" in err

    def test_at_most_needs_d(self, capsys):
        code, _, err = run(
            capsys, "partitions", "--set", "Jbar:3,1", "--mode", "at-most", "--n", "5"
        )
        assert code == 2

    @pytest.mark.parametrize("mode", ("unrestricted", "distinct"))
    def test_d_without_at_most_rejected(self, capsys, mode):
        code, out, err = run(
            capsys, "partitions", "--set", "Jbar:3,1", "--n", "5", "--mode", mode,
            "--d", "3",
        )
        assert (code, out) == (2, "")
        assert err == f"qpl: error: --d needs --mode at-most, not --mode {mode}\n"

    def test_negative_n_rejected(self, capsys):
        code, out, err = run(capsys, "partitions", "--set", "Jbar:3,1", "--n", "-1")
        assert (code, out) == (2, "")
        assert "--n" in err

    def test_at_most_table(self, capsys):
        code, out, _ = run(
            capsys, "partitions", "--set", "Jbar:3,1", "--mode", "at-most",
            "--d", "1", "--n", "10", "--method", "recursion",
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            f"{n},{v}" for n, v in enumerate((1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10))
        ]

    def test_huge_prefix_is_cheap(self, capsys, qpl_env):
        # a child process with a timeout: a prefix loop over all s members
        # took seconds at s = 10^7 and did not finish at 10^8
        argv = ["partitions", "--set", "Js:3,1,100000000", "--n", "5", "--check"]
        proc = subprocess.run(
            [sys.executable, "-m", "qpl.cli", *argv],
            capture_output=True, text=True, timeout=30, env=qpl_env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        # the members up to 5 are those of the 2-member prefix: 1, 2, 4, 5
        small = argv[:2] + ["Js:3,1,2"] + argv[3:]
        assert proc.stdout == run(capsys, *small)[1]


class TestDivisors:
    def test_scan_row(self, capsys):
        code, out, _ = run(capsys, "divisors", "--k", "3", "--ell", "1", "--n", "12")
        assert code == 0
        assert out.splitlines()[-1] == "12,28"

    def test_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "divisors", "--k", "5", "--ell", "2", "--n", "40", "--check"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,kim,recursion,scan,agree"
        assert all(line.endswith(",yes") for line in lines[1:])

    def test_check_json_has_the_partitions_check_shape(self, capsys):
        code, out, _ = run(
            capsys, "divisors", "--k", "5", "--ell", "2", "--n", "4", "--check",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        code, out, _ = run(
            capsys, "partitions", "--set", "Jbar:3,1", "--n", "4", "--check",
            "--format", "json",
        )
        assert code == 0
        assert payload.keys() == json.loads(out).keys()
        assert payload["schema"] == 1 and payload["agree"] is True
        assert payload["methods"] == ["kim", "recursion", "scan"]
        # the same rows as the CSV, which starts at n = 1
        code, out, _ = run(
            capsys, "divisors", "--k", "5", "--ell", "2", "--n", "4", "--check"
        )
        csv_rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [
            [str(r["n"]), r["kim"], r["recursion"], r["scan"], "yes"]
            for r in payload["rows"]
        ] == csv_rows
        assert [r["n"] for r in payload["rows"]] == [1, 2, 3, 4]

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_disagreement_fails_at_its_row(self, capsys, monkeypatch, fmt):
        # the route dispatch lives in the library, so the route is patched there
        real = qpl.divisors.recursive_divisor_sums

        def corrupted(params, order):
            table = real(params, order)
            values = list(table.coeffs)
            values[3] += 1
            return QSeries(tuple(values))

        monkeypatch.setattr(qpl.divisors, "recursive_divisor_sums", corrupted)
        code, out, _ = run(
            capsys, "divisors", "--k", "5", "--ell", "2", "--n", "4", "--check",
            "--format", fmt,
        )
        assert code == 1
        if fmt == "csv":
            assert out.splitlines()[1:] == ["1,0,0,0,yes", "2,2,2,2,yes", "3,3,4,3,NO", "4,2,2,2,yes"]
        else:
            payload = json.loads(out)
            assert payload["agree"] is False
            assert payload["rows"][2] == {"n": 3, "kim": "3", "recursion": "4", "scan": "3"}

    def test_negative_n_rejected(self, capsys):
        code, out, err = run(capsys, "divisors", "--k", "3", "--ell", "1", "--n", "-2")
        assert (code, out) == (2, "")
        assert "--n" in err

    def test_boundary_rejected(self, capsys):
        code, _, err = run(
            capsys, "divisors", "--k", "4", "--ell", "2", "--n", "10",
            "--method", "recursion",
        )
        assert code == 2
        assert "interior" in err


class TestVerify:
    def test_single_identity(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "specialized", "--k", "7", "--ell", "2",
            "--sign", "1", "--order", "80",
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["outcome"] == "pass"
        assert reports[0]["schema"] == 1
        assert reports[0]["parameters"] == {"ell": 2, "k": 7, "sign": 1}

    @pytest.mark.parametrize(
        "args",
        [
            ("--identity", "triple_product", "--order", "30", "--zwindow", "5"),
            ("--identity", "berger", "--k", "5", "--order", "40"),
            ("--identity", "hermite", "--s", "3"),
            ("--identity", "boundary_half", "--k", "4", "--order", "40"),
            ("--identity", "sylvester", "--k", "5", "--ell", "2", "--order", "40"),
            ("--identity", "partition_shift", "--k", "4", "--ell", "1", "--order", "40"),
            ("--identity", "bounded_mult_shift", "--k", "4", "--ell", "1", "--d", "2", "--order", "40"),
            ("--identity", "apostol", "--k", "4", "--ell", "1", "--order", "40"),
            ("--identity", "kim", "--k", "4", "--ell", "1", "--order", "40"),
        ],
    )
    def test_each_identity_passes(self, capsys, args):
        code, out, _ = run(capsys, "verify", *args)
        assert code == 0
        assert all(r["outcome"] == "pass" for r in json.loads(out))

    def test_all_small_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--all", "--grid", "k=3..4", "--order", "40"
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) > 20
        assert all(r["outcome"] == "pass" for r in reports)

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "--all", "--grid", "k=3..4", "--order", "30")
        _, second, _ = run(capsys, "verify", "--all", "--grid", "k=3..4", "--order", "30")
        assert first == second
        _, with_jobs, _ = run(
            capsys, "verify", "--all", "--grid", "k=3..4", "--order", "30",
            "--jobs", "3",
        )
        assert first == with_jobs

    def test_unknown_identity(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "nope", "--order", "10")
        assert code == 2

    def test_unknown_identity_is_named(self, capsys):
        assert run(capsys, "verify", "--identity", "nosuch") == (
            2, "", "qpl: error: unknown identity 'nosuch'\n"
        )

    def test_unknown_identity_is_named_before_its_parameters(self, capsys):
        # this once said "k must be a positive integer": (k, ell) was built first
        assert run(capsys, "verify", "--identity", "nosuch", "--k", "0") == (
            2, "", "qpl: error: unknown identity 'nosuch'\n"
        )

    def test_dispatch_calls_the_module_binding(self, capsys, monkeypatch):
        # a name table holding function objects would run the unpatched verifier
        failing = VerificationReport("berger", {"k": 5}, 20, False, Mismatch(3, 1, 0))
        monkeypatch.setattr(qpl.identities, "verify_berger", lambda k, order: failing)
        code, out, _ = run(capsys, "verify", "--identity", "berger", "--k", "5", "--order", "20")
        assert code == 1
        assert json.loads(out)[0]["outcome"] == "fail"

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "verify", "--all", "--grid", "m=1..2")
        assert code == 2

    def test_empty_grid_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--all", "--grid", "k=8..3")
        assert (code, out) == (2, "")
        assert "k=8..3" in err

    @pytest.mark.parametrize("grid", ["k=0..2", "k=-1..3"])
    def test_grid_below_one_rejected_before_any_verifier(self, capsys, monkeypatch, grid):
        # k=0..2 once expanded the triple product and the Hermite rows before
        # verify_berger(0) raised
        def refuse(*args):
            raise AssertionError("no verifier may run")

        monkeypatch.setattr(qpl.identities, "verify_triple_product", refuse)
        assert run(capsys, "verify", "--all", "--grid", grid, "--order", "400") == (
            2, "", f"qpl: error: grid {grid!r} starts below k=1: k must be a positive integer\n"
        )

    def test_bounded_mult_shift_d_zero_rejected(self, capsys):
        code, out, err = run(
            capsys, "verify", "--identity", "bounded_mult_shift", "--d", "0",
            "--order", "20",
        )
        assert (code, out) == (2, "")
        assert "d must be >= 1" in err

    def test_bounded_mult_shift_d_defaults_to_one(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "bounded_mult_shift", "--order", "20"
        )
        assert code == 0
        assert json.loads(out)[0]["parameters"]["d"] == 1

    def test_missing_action(self, capsys):
        code, _, _ = run(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("--identity", "boundary_half", "--k", "4"),
            ("--identity", "apostol", "--k", "4", "--ell", "1"),
        ],
    )
    def test_negative_order_rejected(self, capsys, args):
        code, out, err = run(capsys, "verify", *args, "--order", "-2")
        assert (code, out) == (2, "")
        assert err.startswith("qpl: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_rejected(self, capsys, jobs):
        code, out, err = run(
            capsys, "verify", "--all", "--grid", "k=3..3", "--order", "10",
            "--jobs", jobs,
        )
        assert (code, out) == (2, "")
        assert err == f"qpl: error: jobs must be >= 1, got {jobs}\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            (("--identity", "hermite", "--order", "-1"), "order must be non-negative, got -1"),
            (("--identity", "kim", "--order", "5", "--jobs", "0"), "jobs must be >= 1, got 0"),
            (("--identity", "berger", "--order", "5", "--d", "0"), "d must be >= 1, got 0"),
            (("--all", "--grid", "k=3..3", "--order", "5", "--d", "0"), "d must be >= 1, got 0"),
        ],
    )
    def test_flags_checked_whatever_the_identity(self, capsys, args, message):
        # each once exited 0: the flag was checked only where a verifier read it
        assert run(capsys, "verify", *args) == (2, "", f"qpl: error: {message}\n")


    def test_huge_zwindow_is_cheap(self, qpl_env):
        # a child process under an address-space cap and a timeout, so that a
        # window allocating rows it never needs fails here, not the machine
        code = (
            "import resource, sys\n"
            "cap = 512 * 1024 * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "from qpl.cli import main\n"
            "sys.exit(main(['verify', '--identity', 'triple_product', '--order', '60',"
            " '--zwindow', '100000000']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
            env=qpl_env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        (report,) = json.loads(proc.stdout)
        assert report["outcome"] == "pass"
        assert report["parameters"] == {"z_window": 100000000}

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--identity", "berger", "--k", "5", "--order", "20"),
            ("theta", "--q", "0.3,0", "--z", "1,0"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_csv_rejected(self, capsys, argv):
        # verify and theta print JSON only; csv once printed JSON and exited 0
        assert run(capsys, *argv, "--format", "json")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "invalid choice: 'csv'" in captured.err


class TestTheta:
    def test_value_and_residual(self, capsys):
        code, out, _ = run(
            capsys, "theta", "--variant", "a", "--k", "2", "--ell", "1",
            "--q", "0.3,0", "--z", "1,0", "--tol", "1e-12",
        )
        assert code == 0
        payload = json.loads(out)
        direct = sum(0.3 ** (n * n) for n in range(-20, 21))
        assert abs(payload["value"]["re"] - direct) < 1e-10
        assert abs(payload["value"]["im"]) < 1e-12
        r1, r2 = payload["quasi_periodicity_residual"]
        assert r1 < 1e-10 and r2 == 0.0

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "theta", "--q", "1.5,0", "--z", "1,0")
        assert code == 2

    def test_bad_complex(self, capsys):
        code, _, err = run(capsys, "theta", "--q", "abc", "--z", "1,0")
        assert code == 2

    def test_float_overflow_is_usage_error(self, capsys):
        code, out, err = run(capsys, "theta", "--q", "0.3,0", "--z", "1e308,0")
        assert (code, out) == (2, "")
        assert err.startswith("qpl: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edge", THETA_EDGES[-2:], ids=" ".join)
    def test_underflowing_substituted_z_is_overflow(self, capsys, edge):
        code, out, err = run(capsys, "theta", *edge)
        assert (code, out) == (2, "")
        assert err.endswith("overflows a float\n") and err.count("\n") == 1

    def test_zero_substituted_z_at_q_zero(self, capsys):
        # q = 0 makes q^ell·z exactly 0: no underflow, the point itself is invalid
        code, out, err = run(capsys, "theta", "--q", "0,0", "--z", "1,0", "--ell", "1")
        assert (code, out, err) == (2, "", "qpl: error: q^ell·z is 0 at q = 0\n")


    @pytest.mark.parametrize(
        "separate,attached",
        [
            (("--q", "0.3,0", "--z", "-1,0"), ("--q", "0.3,0", "--z=-1,0")),
            (("--q", "-0.3,0.1", "--z", "2,0"), ("--q=-0.3,0.1", "--z", "2,0")),
        ],
    )
    def test_negative_value_as_separate_argument(self, capsys, separate, attached):
        code, out, err = run(capsys, "theta", *separate)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, "theta", *attached)

    @pytest.mark.parametrize("edge", THETA_EDGES, ids=" ".join)
    def test_edge_input_terminates_with_usage_error(self, edge, qpl_env):
        # a child process, so that a regression fails on the timeout
        # instead of hanging the suite
        proc = subprocess.run(
            [sys.executable, "-m", "qpl.cli", "theta", *edge],
            capture_output=True, text=True, timeout=30, env=qpl_env,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("qpl: error: ") and proc.stderr.count("\n") == 1


class TestOutputFile:
    def test_write_to_path(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "figurate", "--k", "3", "--ell", "1", "--bound", "2",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().splitlines() == ["j,value", "0,0", "1,1", "-1,2"]

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run(
            capsys, "figurate", "--k", "3", "--ell", "1", "--bound", "2",
            "--output", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith("qpl: error: cannot write --output ")
        assert err.count("\n") == 1
        assert not target.parent.exists()

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_only_the_asked_format_is_built(self, capsys, monkeypatch, fmt):
        built = []
        real = qpl.cli._emit_table

        def spy(args, payload, header, rows):
            def json_payload():
                built.append("json")
                return payload()

            def csv_rows():
                built.append("csv")
                return rows()

            return real(args, json_payload, header, csv_rows)

        monkeypatch.setattr(qpl.cli, "_emit_table", spy)
        invocations = (
            ("figurate", "--k", "3", "--ell", "1", "--bound", "2"),
            ("partitions", "--set", "J:4,1", "--n", "6"),
            ("partitions", "--set", "J:4,1", "--n", "6", "--check"),
            ("divisors", "--k", "5", "--ell", "2", "--n", "6"),
            ("divisors", "--k", "5", "--ell", "2", "--n", "6", "--check"),
        )
        for argv in invocations:
            code, _, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0
        assert built == [fmt] * len(invocations)


class TestStartup:
    """What a fresh `import qpl.cli` and each command load, against a `pass` child."""

    def test_cli_import_loads_no_theta_json_or_dataclasses(self, newly_loaded):
        new = newly_loaded("import qpl.cli")
        assert {"qpl", "qpl.partitions", "qpl.identities", "qpl.divisors"} <= new
        assert not new & {"dataclasses", "qpl.theta", "json", "concurrent.futures"}

    def test_gf_count_is_bound_where_the_tracer_looks(self):
        # the benchmark's tracer patches module namespaces, not lazy lookups
        import qpl

        gf = qpl.partitions.gf_count
        for module in (qpl, qpl.partitions, qpl.identities, qpl.divisors, qpl.cli):
            assert vars(module)["gf_count"] is gf, module.__name__

    def test_theta_names_load_theta_on_use(self, newly_loaded):
        new = newly_loaded(
            "import qpl\n"
            "assert 'qpl.theta' not in sys.modules\n"
            "from qpl import ThetaPoint, theta_series\n"
            "assert (ThetaPoint, theta_series) == (qpl.theta.ThetaPoint, qpl.theta.theta_series)\n"
        )
        assert "qpl.theta" in new

    def test_unknown_package_attribute_is_an_attribute_error(self):
        import qpl

        with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
            qpl.nosuch

    @pytest.mark.parametrize(
        "argv,theta,json_",
        [
            (["partitions", "--set", "J:5,2", "--n", "30", "--check"], False, False),
            (["partitions", "--set", "J:5,2", "--n", "30", "--format", "json"], False, True),
            (["divisors", "--k", "5", "--ell", "2", "--n", "30", "--check"], False, False),
            (["figurate", "--k", "5", "--ell", "2", "--bound", "4"], False, False),
            (["verify", "--identity", "kim", "--order", "10"], False, True),
            (["theta", "--q", "0.3,0", "--z", "1,0"], True, True),
        ],
    )
    def test_each_command_loads_theta_and_json_only_if_it_uses_them(
        self, newly_loaded, argv, theta, json_
    ):
        new = newly_loaded(
            "import contextlib, io\n"
            "from qpl.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
        )
        assert ("qpl.theta" in new, "json" in new) == (theta, json_)
        assert "dataclasses" not in new


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("partitions", "--set", "J:5,1", "--n", "30000000"), "--n"),
            (("verify", "--identity", "specialized", "--order", "200000000"), "--order"),
        ],
        ids=["partitions", "verify"],
    )
    def test_out_of_memory_is_a_usage_error(self, qpl_env, argv, flag):
        # exit 1 means a verification failed; these once exited 1 with a
        # MemoryError traceback. A child under an address-space cap and a
        # timeout runs out of memory here without straining the machine.
        code = (
            "import resource, sys\n"
            "cap = 400 * 1024 * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            "from qpl.cli import main\n"
            f"sys.exit(main({list(argv)!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env=qpl_env,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"qpl: error: out of memory; try a smaller {flag}\n"


_orders = st.integers(min_value=-3, max_value=30).map(str)
_small = st.integers(min_value=-1, max_value=9).map(str)
_verify_argv = st.tuples(
    st.just("verify"),
    st.one_of(
        st.tuples(st.just("--identity"), st.sampled_from(IDENTITIES + ("nosuch",))),
        st.integers(-1, 3).map(lambda lo: ("--all", "--grid", f"k={lo}..3")),
    ),
    st.just("--order"), _orders, st.just("--k"), _small, st.just("--ell"), _small,
    st.just("--d"), _small, st.just("--s"), st.integers(-1, 8).map(str),
    st.just("--zwindow"), st.integers(-1, 3).map(str),
    st.just("--jobs"), st.integers(-1, 3).map(str),
)
_partitions_argv = st.tuples(
    st.just("partitions"),
    st.just("--set"),
    st.sampled_from(
        [
            "Jbar:3,1", "Jbar:4,2", "J:5,2", "J:4,0", "I:5,2", "Js:5,2,2",
            "Js:3,1,100000000", "mult:3", "set:1,3,7",
        ]
    ),
    st.just("--mode"), st.sampled_from(["unrestricted", "distinct", "at-most"]),
    st.just("--gamma"), st.sampled_from(["1", "-1"]),
    st.one_of(st.just(()), st.tuples(st.just("--d"), _small)),
    # 119..121 straddle the default oracle bound of 120
    st.just("--n"), st.one_of(_orders, st.integers(119, 121).map(str)),
    st.one_of(
        st.just("--check"),
        st.tuples(st.just("--method"), st.sampled_from(["oracle", "gf", "recursion"])),
    ),
)
_divisors_argv = st.tuples(
    st.just("divisors"), st.just("--k"), _small, st.just("--ell"), _small,
    st.just("--n"), _orders,
    st.one_of(
        st.just("--check"),
        st.tuples(st.just("--method"), st.sampled_from(["scan", "recursion", "kim"])),
    ),
)
_theta_argv = st.tuples(
    st.just("theta"),
    st.sampled_from(
        THETA_EDGES
        + (
            ("--q", "0.3,0.1", "--z", "-1,0"),
            ("--q=-0.3,0.1", "--z=-1,0"),
            ("--q", "0,0", "--z", "2,0"),
        )
    ),
    st.just("--variant"), st.sampled_from("abcd"),
    st.just("--k"), st.integers(0, 2).map(str),
    st.just("--ell"), st.integers(0, 2).map(str),
)


def _flatten(parts):
    return [x for part in parts for x in ((part,) if isinstance(part, str) else part)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_verify_argv, _partitions_argv, _divisors_argv, _theta_argv).map(_flatten))
def test_main_exits_0_1_or_2_and_never_raises(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    assert code in (0, 1, 2), argv
