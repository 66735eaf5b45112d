"""The verification harness, including an unclamped reference expansion."""

import json
import os
import subprocess
import sys
from operator import add

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qpl.identities
from qpl.cli import main
from qpl.errors import OrderMismatchError, ParameterError
from qpl.figurate import ModularParams
from qpl.identities import (
    IDENTITIES,
    battery,
    compare_series,
    interior_grid,
    verify_berger,
    verify_boundary_half,
    verify_hermite,
    verify_specialized,
    verify_sylvester,
    verify_triple_product,
)
from qpl.partitions import _gf_product
from qpl.reports import Mismatch, VerificationReport
from qpl.series import (
    QSeries,
    ZLaurentSeries,
    _pochhammer_product,
    binomial_product,
    triple_pochhammer,
    triple_product_rows,
)


def reference_triple_product(q_order: int, factors: int, *, euler: bool) -> ZLaurentSeries:
    """Unclamped product of the first `factors` triples via general Laurent
    mults; without `euler` the (1-q^m) factors are left out, which is the
    finite product of the Hermite identity."""
    acc = ZLaurentSeries.one(q_order)
    for m in range(1, factors + 1):
        if euler:
            one_minus = QSeries.one(q_order)
            if m <= q_order:
                one_minus = one_minus - QSeries.monomial(m, q_order)
            acc = acc * ZLaurentSeries(0, (one_minus,))
        acc = acc * ZLaurentSeries.qz_binomial(1, m, -1, q_order)
        acc = acc * ZLaurentSeries.qz_binomial(1, m - 1, 1, q_order)
    return acc


def margin(q_order: int) -> int:
    """The least B >= 2 with B(B-1)/2 > q_order: rows -B..B hold every term."""
    b = 2
    while b * (b - 1) // 2 <= q_order:
        b += 1
    return b


def euler_product(q_order: int) -> QSeries:
    return binomial_product(q_order, [(-1, m) for m in range(1, q_order + 1)])


def interleaved_triple_product_rows(q_order: int) -> ZLaurentSeries:
    """Rows -B..B of the triple product with (1-q^m) applied inside the
    factor loop and every row updated in full: the reference for the rows
    multiplied by the Euler product afterwards."""
    n = q_order
    b = margin(n)
    size = 2 * b + 1
    rows = [[0] * (n + 1) for _ in range(size)]
    rows[b][0] = 1
    for m in range(1, n + 2):
        if m <= n:
            for row in rows:
                row[m:] = [a - c for a, c in zip(row[m:], row)]
        e_up = m - 1
        for idx in range(size - 1, 0, -1):
            row, src = rows[idx], rows[idx - 1]
            row[e_up:] = [a + c for a, c in zip(row[e_up:], src)]
        if m <= n:
            for idx in range(size - 1):
                row, src = rows[idx], rows[idx + 1]
                row[m:] = [a + c for a, c in zip(row[m:], src)]
    return ZLaurentSeries(-b, tuple(QSeries(tuple(r)) for r in rows))


def list_triple_product_rows(q_order: int) -> ZLaurentSeries:
    """Rows -B..B of prod (1+q^m z^{-1})(1+q^{m-1}z), each z-row a list of
    coefficients updated by a map over the row: the reference for the
    packed-integer rows."""
    n = q_order
    b = margin(n)
    size = 2 * b + 1
    zero_below = [(idx - b) * (idx - b - 1) // 2 for idx in range(size)]
    rows = [[0] * (n + 1) for _ in range(size)]
    rows[b][0] = 1
    for m in range(1, n + 2):
        for idx in range(size - 1, 0, -1):
            p = zero_below[idx - 1]
            e = m - 1 + p
            if e <= n:
                row = rows[idx]
                row[e:] = map(add, row[e:], rows[idx - 1][p:])
        if m <= n:
            for idx in range(size - 1):
                p = zero_below[idx + 1]
                e = m + p
                if e <= n:
                    row = rows[idx]
                    row[e:] = map(add, row[e:], rows[idx + 1][p:])
    return ZLaurentSeries(-b, tuple(QSeries(tuple(r)) for r in rows))


class TestTripleProduct:
    def test_passes_modest_window(self):
        report = verify_triple_product(50, 8)
        assert report.passed
        assert report.order == 50
        assert report.parameters == {"z_window": 8}

    def test_prefix_property(self):
        assert verify_triple_product(50, 8).passed
        assert verify_triple_product(25, 8).passed
        assert verify_triple_product(50, 4).passed

    def test_unclamped_reference_agrees(self):
        # independent route: full-support Laurent products, no window clamping
        q_order, j_win = 16, 4
        ref = reference_triple_product(q_order, q_order + j_win + 2, euler=True)
        for j in range(-j_win, j_win + 1):
            e = (j * j - j) // 2
            expected = (
                QSeries.monomial(e, q_order) if e <= q_order else QSeries.zero(q_order)
            )
            assert ref.zcoeff(j) == expected

    def test_rows_equal_unclamped_reference(self):
        # every stored row and one past each end, against full-support
        # Laurent products that drop nothing but what passes the order
        for q_order in range(17):
            rows = triple_product_rows(q_order, q_order + 1)
            euler = euler_product(q_order)
            ref = reference_triple_product(q_order, q_order + 1, euler=True)
            assert rows.margin == margin(q_order)
            for j in range(-rows.margin - 1, rows.margin + 2):
                assert euler * rows.zcoeff(j) == ref.zcoeff(j), (q_order, j)

    def test_finite_rows_equal_laurent_expansion(self):
        # the Hermite products (s factors at order s^2, s = 0..6) and, at
        # small orders, every factor count up to three past order + 1, where
        # a factor is 1 + O(q^{order+1}); every stored row and one past each end
        cases = [(s * s, s) for s in range(7)]
        cases += [(n, f) for n in range(9) for f in range(n + 4)]
        for q_order, factors in cases:
            rows = triple_product_rows(q_order, factors)
            ref = reference_triple_product(q_order, factors, euler=False)
            for j in range(-rows.margin - 1, rows.margin + 2):
                assert rows.zcoeff(j) == ref.zcoeff(j), (q_order, factors, j)

    def test_rows_reject_negative_arguments(self):
        with pytest.raises(ParameterError):
            triple_product_rows(-1, 0)
        with pytest.raises(ParameterError):
            triple_product_rows(4, -1)

    def test_reordered_rows_equal_interleaved_loop(self):
        # every stored row and one past each end
        for q_order in range(31):
            rows = triple_product_rows(q_order, q_order + 1)
            euler = euler_product(q_order)
            ref = interleaved_triple_product_rows(q_order)
            for j in range(-rows.margin - 1, rows.margin + 2):
                assert euler * rows.zcoeff(j) == ref.zcoeff(j)

    @pytest.mark.parametrize(
        "q_order,z_window",
        [(n, z) for n in (31, 64, 100, 200) for z in (0, 3, 8, 12)] + [(400, 8)],
    )
    def test_packed_rows_equal_list_rows(self, q_order, z_window):
        # past order 30, where the slots are wide and the coefficients large;
        # (400, 8) is the battery's call, with 80-bit slots. Every stored row
        # is compared, and so are the rows past them that z_window reads
        rows = triple_product_rows(q_order, q_order + 1)
        ref = list_triple_product_rows(q_order)
        reach = max(rows.margin, z_window) + 1
        for j in range(-reach, reach + 1):
            assert rows.zcoeff(j) == ref.zcoeff(j)

    def test_window_past_margin_reports_requested_window(self):
        # rows with |j| >= B are zero on both sides, so a window past the
        # margin (B = 9 at order 30) checks nothing more and passes alike;
        # tests/test_cli.py runs a huge window in a memory-capped child
        for z_window in (8, 9, 10, 40):
            report = verify_triple_product(30, z_window)
            assert report.passed
            assert report.parameters == {"z_window": z_window}

    def test_constant_and_first_coefficients(self):
        ref = reference_triple_product(10, 14, euler=True)
        assert ref.zcoeff(0)[0] == 1
        assert ref.zcoeff(1) == QSeries.monomial(0, 10)  # exponent (1-1)/2 = 0
        assert ref.zcoeff(-1) == QSeries.monomial(1, 10)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            verify_triple_product(-1, 3)


class TestSpecialized:
    def test_pentagonal(self):
        assert verify_specialized(ModularParams(3, 1), -1, 60).passed

    def test_boundary_zero_vanishing(self):
        for k in (2, 3, 5):
            for ell in (0, k):
                rep = verify_specialized(ModularParams(k, ell), -1, 40)
                assert rep.passed
                assert triple_pochhammer(k, ell, -1, 40).is_zero()

    def test_plus_sign_large(self):
        assert verify_specialized(ModularParams(7, 2), 1, 100).passed

    def test_reflection_produces_same_lhs(self):
        for sign in (1, -1):
            a = triple_pochhammer(5, 2, sign, 80)
            b = triple_pochhammer(5, 3, sign, 80)
            assert a == b

    def test_full_small_grid(self):
        for k in range(1, 6):
            for ell in range(k + 1):
                for sign in (1, -1):
                    assert verify_specialized(ModularParams(k, ell), sign, 60).passed


class TestBerger:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_passes(self, k):
        rep = verify_berger(k, 60)
        assert rep.passed
        assert rep.parameters == {"k": k}

    def test_signed_coefficients_for_pentagonal(self):
        tp = triple_pochhammer(3, 1, -1, 14)
        expected = {1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
        for n in range(1, 15):
            assert tp[n] == expected.get(n, 0)

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            verify_berger(0, 10)


class TestHermite:
    @pytest.mark.parametrize("s", range(7))
    def test_exact(self, s):
        assert verify_hermite(s).passed

    def test_s_zero_is_unit(self):
        # both sides are the constant 1
        rep = verify_hermite(0)
        assert rep.passed and rep.order == 0

    def test_cap(self):
        with pytest.raises(ParameterError):
            verify_hermite(7)
        with pytest.raises(ParameterError):
            verify_hermite(-1)

    def test_no_laurent_product_is_multiplied(self, monkeypatch):
        # Hermite reads the packed triple-product rows; ZLaurentSeries is
        # the tests' independent reference only
        def refuse(*args, **kwargs):
            raise AssertionError("no library path may multiply a ZLaurentSeries")

        monkeypatch.setattr(ZLaurentSeries, "__mul__", refuse)
        for s in range(7):
            assert verify_hermite(s).passed
        assert all(r.passed for r in battery(3, 4, 40))


class TestBoundaryHalf:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_passes(self, k):
        assert verify_boundary_half(k, 60).passed

    def test_gauss_square_series(self):
        # the k=2 quotient is 1 + 2q + 2q^4 + 2q^9 + ...
        rep = verify_boundary_half(2, 30)
        assert rep.passed

    def test_odd_k_rejected(self):
        with pytest.raises(ParameterError):
            verify_boundary_half(3, 30)
        with pytest.raises(ParameterError):
            verify_boundary_half(0, 30)


class TestSylvester:
    @pytest.mark.parametrize("k,ell", [(3, 1), (8, 3)])
    def test_passes(self, k, ell):
        assert verify_sylvester(ModularParams(k, ell), 150).passed

    def test_boundary_rejected(self):
        with pytest.raises(ParameterError):
            verify_sylvester(ModularParams(4, 2), 50)


class TestCompare:
    def test_perturbation_detected_at_index(self):
        a = QSeries.from_coeffs([1, 2, 3, 4, 5])
        perturbed = QSeries.from_coeffs([1, 2, 3, 9, 5])
        rep = compare_series("selftest", {"case": 1}, 4, a, perturbed)
        assert not rep.passed
        assert rep.mismatch.q_exponent == 3
        assert rep.mismatch.lhs == 4 and rep.mismatch.rhs == 9
        d = rep.to_json_dict()
        assert d["outcome"] == "fail"
        assert d["location"] == {"q": 3, "z": None}
        assert d["lhs"] == "4" and d["rhs"] == "9"

    def test_pass_report_shape(self):
        a = QSeries.one(3)
        rep = compare_series("selftest", {}, 3, a, a)
        assert rep.passed and rep.mismatch is None
        assert rep.to_json_dict()["outcome"] == "pass"

    def test_unequal_orders_raise(self):
        # the right side agrees with 1 up to q^5 but has 7·q^7
        longer = QSeries.from_coeffs([1, 0, 0, 0, 0, 0, 0, 7], 9)
        with pytest.raises(OrderMismatchError):
            compare_series("x", {}, 5, QSeries.one(5), longer)
        with pytest.raises(OrderMismatchError):
            compare_series("x", {}, 9, QSeries.one(5), longer)
        # equal orders that disagree with the order argument
        with pytest.raises(OrderMismatchError):
            compare_series("x", {}, 4, QSeries.one(5), QSeries.one(5))


class TestBattery:
    def test_small_grid_all_pass(self):
        reports = battery(3, 4, 40)
        assert reports and all(r.passed for r in reports)
        names = {r.identity for r in reports}
        assert {
            "triple_product",
            "hermite",
            "berger",
            "specialized",
            "boundary_half",
            "sylvester",
            "partition_shift",
            "bounded_mult_shift",
            "apostol",
            "kim",
        } <= names

    def test_every_task_runs_through_the_identity_table(self, monkeypatch):
        # one call path: the battery reaches each verifier only through
        # verify_identity, as `verify --identity` does
        names = []
        real = qpl.identities.verify_identity

        def recorded(name, flags):
            names.append(name)
            return real(name, flags)

        monkeypatch.setattr(qpl.identities, "verify_identity", recorded)
        reports = battery(3, 8, 60)
        assert len(names) == 285
        assert names == [r.identity for r in reports]
        assert set(names) == set(IDENTITIES)

    @pytest.mark.usefixtures("deadline", "no_child_left")
    def test_a_patched_table_entry_reaches_both_verify_paths(self, monkeypatch, capsys):
        failing = VerificationReport("sylvester", {}, 0, False, Mismatch(0, 1, 0))
        monkeypatch.setitem(IDENTITIES, "sylvester", lambda flags: failing)
        for argv in (
            ["verify", "--identity", "sylvester"],
            ["verify", "--all", "--grid", "k=3..4", "--order", "20"],
        ):
            assert main(argv) == 1
            reports = json.loads(capsys.readouterr().out)
            fails = [r["outcome"] == "fail" for r in reports]
            assert any(fails) and fails == [r["identity"] == "sylvester" for r in reports], argv

    def test_cli_import_leaves_the_thread_pool_unloaded(self, qpl_env):
        # a fresh interpreter: this one may have loaded it for other reasons
        probe = "import sys, qpl.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60, env=qpl_env,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_jobs_flag_runs_without_a_thread_pool(self, qpl_env):
        # --jobs 2 runs the battery on forked processes, never on threads
        probe = (
            "import contextlib, io, sys\n"
            "from qpl.cli import main\n"
            "argv = ['verify', '--all', '--grid', 'k=3..4', '--order', '20', '--jobs', '2']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(argv)\n"
            "print(code, 'concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60, env=qpl_env,
        )
        assert (proc.returncode, proc.stdout) == (0, "0 False\n")

    def test_gf_count_memo_catches_every_repeat(self):
        # work counter, not a timing: every repeated product of the battery
        # (480 calls naming 126 distinct member tuples) must stay within
        # reach of the bounded memo
        _gf_product.cache_clear()
        battery(3, 8, 60)
        info = _gf_product.cache_info()
        _gf_product.cache_clear()
        assert (info.misses, info.hits) == (126, 354)

    def test_triple_pochhammer_memo_catches_every_repeat(self):
        # 90 calls name 42 distinct (k, min(ell, k - ell), sign) products
        _pochhammer_product.cache_clear()
        battery(3, 8, 60)
        info = _pochhammer_product.cache_info()
        _pochhammer_product.cache_clear()
        assert (info.misses, info.hits) == (42, 48)

    def test_interior_grid(self):
        grid = interior_grid(3, 8)
        assert len(grid) == 24
        assert all(p.is_interior for p in grid)
        assert interior_grid(1, 2) == []


@pytest.mark.usefixtures("deadline", "no_child_left")
class TestBatteryWorkers:
    """The battery on forked workers: the k=3..8 grid has seven blocks, the
    k-free one and one per k, and each process pulls the next one when idle,
    so which process runs a block depends on timing."""

    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (8, 7)])
    def test_reports_equal_the_serial_run(self, cpus, monkeypatch, jobs, workers):
        cpus(8)
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        assert battery(3, 8, 60, jobs=jobs) == battery(3, 8, 60)
        assert len(forks) == workers - 1

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ParameterError, match="jobs must be >= 1, got 0"):
            battery(3, 4, 20, jobs=0)

    @staticmethod
    def raise_in(monkeypatch, name, ks):
        real = IDENTITIES[name]

        def entry(flags):
            if flags.k in ks:
                raise ParameterError(f"{name} refused k={flags.k}")
            return real(flags)

        monkeypatch.setitem(IDENTITIES, name, entry)

    @pytest.mark.parametrize(
        "raising,message",
        [
            # two blocks raise; berger k=4 comes first
            ({"berger": {4, 7}}, "berger refused k=4"),
            # berger k=7 comes before kim k=4, whichever process runs each
            ({"berger": {7}, "kim": {4}}, "berger refused k=7"),
        ],
    )
    def test_the_earliest_exception_wins_as_in_a_serial_run(
        self, cpus, monkeypatch, capsys, raising, message
    ):
        cpus(2)
        for name, ks in raising.items():
            self.raise_in(monkeypatch, name, ks)
        outputs = []
        for jobs in ("1", "2"):
            argv = ["verify", "--all", "--grid", "k=3..8", "--order", "30", "--jobs", jobs]
            outputs.append((main(argv), capsys.readouterr()))
        assert outputs[0] == outputs[1] == (2, ("", f"qpl: error: {message}\n"))

    def test_a_worker_that_dies_has_its_share_run_here(self, cpus, monkeypatch):
        cpus(2)
        here = os.getpid()
        real = IDENTITIES["kim"]

        def entry(flags):
            if os.getpid() != here:
                os._exit(9)
            return real(flags)

        monkeypatch.setitem(IDENTITIES, "kim", entry)
        assert battery(3, 8, 60, jobs=2) == battery(3, 8, 60)

    @settings(
        max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        grid=st.lists(st.integers(3, 5), min_size=2, max_size=2).map(sorted),
        order=st.integers(0, 30),
        jobs=st.sampled_from(["1", "2", "3"]),
        fault=st.sampled_from(["ParameterError", "TypeError", "exit"]),
        data=st.data(),
    )
    def test_one_fault_anywhere_ends_as_in_one_process(
        self, cpus, monkeypatch, capsys, grid, order, jobs, fault, data
    ):
        # one task raises, or a worker that runs it dies: stdout, the exit
        # status and the last stderr line are those of --jobs 1
        cpus(3)
        argv = ["verify", "--all", "--grid", "k={}..{}".format(*grid), "--order", str(order)]
        tasks = []
        real = qpl.identities.verify_identity

        def recorded(name, flags):
            tasks.append((name, vars(flags)))
            return real(name, flags)

        with monkeypatch.context() as patch:
            patch.setattr(qpl.identities, "verify_identity", recorded)
            battery(grid[0], grid[1], order)
        target = data.draw(st.sampled_from(tasks), label="faulty task")
        here = os.getpid()
        real_entry = IDENTITIES[target[0]]

        def faulty_verifier(flags):
            if vars(flags) == target[1]:
                if fault == "ParameterError":
                    raise ParameterError(f"refused {target}")
                if fault == "TypeError":
                    raise TypeError(f"broken {target}")
                if os.getpid() != here:
                    os._exit(9)
            return real_entry(flags)

        runs = []
        with monkeypatch.context() as patch:
            patch.setitem(IDENTITIES, target[0], faulty_verifier)
            for j in ("1", jobs):
                code = main([*argv, "--jobs", j])
                out, err = capsys.readouterr()
                runs.append((code, out, err.splitlines()[-1:]))
                if fault == "TypeError":
                    assert ", in faulty_verifier\n" in err
        assert runs[0] == runs[1]
        assert runs[0][0] == {"ParameterError": 2, "TypeError": 3, "exit": 0}[fault]

    def test_an_interrupt_here_reaps_the_worker(self, cpus, monkeypatch):
        # the worker is still busy pulling blocks when this process stops at
        # its first task; no_child_left then finds nothing to reap
        cpus(2)
        here = os.getpid()
        real = qpl.identities.verify_identity

        def interrupted_here(name, flags):
            if os.getpid() == here:
                raise KeyboardInterrupt
            return real(name, flags)

        monkeypatch.setattr(qpl.identities, "verify_identity", interrupted_here)
        with pytest.raises(KeyboardInterrupt):
            battery(3, 8, 400, jobs=2)
