"""Command-line interface.

Sequence tables are emitted as CSV, verification reports as JSON; both
payloads are deterministic for a given invocation.  Exit status: 0 all
computations/verifications succeeded, 1 a verification or cross-check failed,
2 usage error (including violated parameter hypotheses and running out of
memory).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from .divisors import DIVISOR_METHODS, divisor_sums
from .errors import ParameterError
from .figurate import ModularParams, figurate_enumerate
from .identities import battery, verify_identity
from .partitions import (
    RECURSION_KINDS,
    CountMode,
    gf_count,
    oracle_bound,
    oracle_table,
    recursion_table,
)
from .partsets import parse_part_set

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write --output {path!r}: {exc.strerror}") from None


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    import json  # only the JSON outputs load it

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_table(args, payload, header: list[str], rows) -> None:
    """Emit the JSON payload or the CSV header and rows, as --format asks.

    payload and rows are functions, so only the format asked for is built.
    """
    if args.format == "json":
        _emit(_json_text(payload()), args.output)
    else:
        _emit(_csv_text(header, rows()), args.output)


def _emit_check(tables: dict[str, tuple[int, ...]], ns: range, args) -> int:
    """Emit the methods' values side by side for every n in ns, with whether
    they agree; EXIT_FAIL unless every row agrees."""
    methods = sorted(tables)
    rows = [(n, [tables[m][n] for m in methods]) for n in ns]
    oks = [len(set(vals)) == 1 for _, vals in rows]
    _emit_table(
        args,
        lambda: {
            "schema": 1,
            "methods": methods,
            "rows": [{"n": n, **{m: str(v) for m, v in zip(methods, vals)}} for n, vals in rows],
            "agree": all(oks),
        },
        ["n", *methods, "agree"],
        lambda: [[n, *vals, "yes" if ok else "NO"] for (n, vals), ok in zip(rows, oks)],
    )
    return EXIT_OK if all(oks) else EXIT_FAIL


# --------------------------------------------------------------------------
# figurate
# --------------------------------------------------------------------------


def _cmd_figurate(args) -> int:
    params = ModularParams(args.k, args.ell)
    rows = figurate_enumerate(params, args.bound)
    _emit_table(
        args,
        lambda: {"schema": 1, "rows": [{"j": j, "value": v} for j, v in rows]},
        ["j", "value"],
        lambda: [[j, v] for j, v in rows],
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# partitions
# --------------------------------------------------------------------------


def _mode_from_args(args) -> CountMode:
    signed = args.gamma == -1
    if args.d is not None and args.mode != "at-most":
        raise ParameterError(f"--d needs --mode at-most, not --mode {args.mode}")
    if args.mode == "unrestricted":
        return CountMode(None, signed)
    if args.mode == "distinct":
        return CountMode(1, signed)
    if args.d is None:
        raise ParameterError("--mode at-most needs --d")
    return CountMode(args.d, signed)


def _cmd_partitions(args) -> int:
    part_set = parse_part_set(args.set)
    mode = _mode_from_args(args)
    order = args.n
    if order < 0:
        raise ParameterError("--n must be non-negative")
    if args.check:
        tables = {"gf": gf_count(part_set, mode, order).coeffs}
        if order <= oracle_bound():
            tables["oracle"] = oracle_table(part_set, mode, order).coeffs
        if part_set.kind in RECURSION_KINDS:
            tables["recursion"] = recursion_table(part_set, mode, order).coeffs
        return _emit_check(tables, range(order + 1), args)

    route, provenance = {
        "oracle": (oracle_table, "oracle"),
        "gf": (gf_count, "generating-function"),
        "recursion": (recursion_table, "recursion"),
    }[args.method]
    values = route(part_set, mode, order).coeffs
    _emit_table(
        args,
        lambda: {"schema": 1, "provenance": provenance, "values": [str(v) for v in values]},
        ["n", "value"],
        lambda: [[n, v] for n, v in enumerate(values)],
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# divisors
# --------------------------------------------------------------------------


def _cmd_divisors(args) -> int:
    params = ModularParams(args.k, args.ell)
    order = args.n
    if order < 0:
        raise ParameterError("--n must be non-negative")
    if args.check:
        tables = {m: divisor_sums(params, order, m).coeffs for m in DIVISOR_METHODS}
        return _emit_check(tables, range(1, order + 1), args)
    values = divisor_sums(params, order, args.method).coeffs[1:]
    _emit_table(
        args,
        lambda: {"schema": 1, "values": [str(v) for v in values]},
        ["n", "value"],
        lambda: [[n + 1, v] for n, v in enumerate(values)],
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _parse_grid(text: str) -> tuple[int, int]:
    head, sep, tail = text.partition("=")
    if head != "k" or not sep:
        raise ParameterError(f"grid must look like k=3..8, got {text!r}")
    lo, sep, hi = tail.partition("..")
    if not sep:
        raise ParameterError(f"grid must look like k=3..8, got {text!r}")
    try:
        lo_k, hi_k = int(lo), int(hi)
    except ValueError:
        raise ParameterError(f"grid must look like k=3..8, got {text!r}") from None
    if lo_k > hi_k:
        raise ParameterError(f"grid {text!r} is empty: its lower end exceeds its upper end")
    if lo_k < 1:
        raise ParameterError(f"grid {text!r} starts below k=1: k must be a positive integer")
    return lo_k, hi_k


def _cmd_verify(args) -> int:
    # checked whatever the identity; the verifiers that read --s or --zwindow check them
    if args.order < 0:
        raise ParameterError(f"order must be non-negative, got {args.order}")
    if args.d < 1:
        raise ParameterError(f"d must be >= 1, got {args.d}")
    if args.jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {args.jobs}")
    if args.all:
        lo, hi = _parse_grid(args.grid)
        results = battery(lo, hi, args.order, z_window=args.zwindow)
    elif args.identity is None:
        raise ParameterError("verify needs --identity NAME or --all")
    else:
        results = [verify_identity(args.identity, args)]
    payload = [r.to_json_dict() for r in results]
    _emit(_json_text(payload), args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


# --------------------------------------------------------------------------
# theta
# --------------------------------------------------------------------------


def _parse_complex(text: str) -> complex:
    re_part, _, im_part = text.partition(",")
    try:
        return complex(float(re_part), float(im_part) if im_part else 0.0)
    except ValueError:
        raise ParameterError(f"expected RE,IM or RE, got {text!r}") from None


def _attach_theta_values(argv: list[str]) -> list[str]:
    """Rewrite `theta --z -1,0` as `theta --z=-1,0`.

    argparse takes a separate value such as "-1,0" or "-0.3,0.1" for an
    unknown flag, because only plain negative numbers are exempt.  Only the
    theta subcommand is rewritten, and only a --q or --z value that starts
    with a single '-'.
    """
    if argv[:1] != ["theta"]:
        return argv
    attached: list[str] = []
    for arg in argv:
        signed = arg.startswith("-") and not arg.startswith("--")
        if signed and attached[-1:] in (["--q"], ["--z"]):
            attached[-1] += "=" + arg
        else:
            attached.append(arg)
    return attached


def _cmd_theta(args) -> int:
    # the only command that evaluates theta, so the only one that loads it
    from .theta import ThetaPoint, aux_theta, quasi_periodicity_residual, substituted_point

    point = ThetaPoint.from_qz(_parse_complex(args.q), _parse_complex(args.z))
    try:
        sub = substituted_point(point, args.k, args.ell)
        value = aux_theta(args.variant, sub, args.tol)
        if sub.q == 0:
            residual = None
        else:
            residual = quasi_periodicity_residual(sub, args.tol)
    except OverflowError:
        raise ParameterError(
            f"theta at q={args.q} z={args.z} overflows a float"
        ) from None
    payload = {
        "schema": 1,
        "variant": args.variant,
        "k": args.k,
        "ell": args.ell,
        "value": {"re": value.real, "im": value.imag},
        "quasi_periodicity_residual": list(residual) if residual else None,
    }
    _emit(_json_text(payload), args.output)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_io_flags(sub, formats: tuple[str, ...]) -> None:
    """--format (the first of `formats` is the default) and --output."""
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpl",
        description="Exact tables and identity verification for modular partitions.",
    )
    subs = parser.add_subparsers(dest="command")

    fig = subs.add_parser("figurate", help="enumerate modular figurate numbers")
    fig.add_argument("--k", type=int, required=True)
    fig.add_argument("--ell", type=int, required=True)
    fig.add_argument("--bound", type=int, required=True)
    _add_io_flags(fig, ("csv", "json"))
    fig.set_defaults(func=_cmd_figurate)

    parts = subs.add_parser("partitions", help="partition count tables")
    parts.add_argument("--set", required=True, help="I:k,l J:k,l Jbar:k,l Js:k,l,s mult:k set:1,3,7")
    parts.add_argument(
        "--mode", choices=("unrestricted", "distinct", "at-most"), default="unrestricted"
    )
    parts.add_argument("--gamma", type=int, choices=(1, -1), default=1)
    parts.add_argument("--d", type=int, default=None, help="multiplicity cap for at-most")
    parts.add_argument("--n", type=int, required=True)
    parts.add_argument(
        "--method", choices=("oracle", "gf", "recursion"), default="gf"
    )
    parts.add_argument(
        "--check", action="store_true", help="run all applicable methods and compare"
    )
    _add_io_flags(parts, ("csv", "json"))
    parts.set_defaults(func=_cmd_partitions)

    div = subs.add_parser("divisors", help="restricted divisor-sum tables")
    div.add_argument("--k", type=int, required=True)
    div.add_argument("--ell", type=int, required=True)
    div.add_argument("--n", type=int, required=True)
    div.add_argument("--method", choices=DIVISOR_METHODS, default="scan")
    div.add_argument("--check", action="store_true")
    _add_io_flags(div, ("csv", "json"))
    div.set_defaults(func=_cmd_divisors)

    ver = subs.add_parser("verify", help="verify identities, single or grid")
    ver.add_argument("--identity", default=None)
    ver.add_argument("--all", action="store_true")
    ver.add_argument("--grid", default="k=3..8")
    ver.add_argument("--order", type=int, default=120)
    ver.add_argument("--zwindow", type=int, default=8)
    ver.add_argument("--k", type=int, default=3)
    ver.add_argument("--ell", type=int, default=1)
    ver.add_argument("--sign", type=int, choices=(1, -1), default=1)
    ver.add_argument("--gamma", type=int, choices=(1, -1), default=1)
    ver.add_argument("--s", type=int, default=3)
    ver.add_argument("--d", type=int, default=1)
    ver.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for older invocations; the battery runs serially",
    )
    _add_io_flags(ver, ("json",))
    ver.set_defaults(func=_cmd_verify)

    the = subs.add_parser("theta", help="evaluate theta variants numerically")
    the.add_argument("--variant", choices=("a", "b", "c", "d"), default="a")
    the.add_argument("--k", type=int, default=1)
    the.add_argument("--ell", type=int, default=0)
    the.add_argument("--q", required=True, help="RE,IM")
    the.add_argument("--z", required=True, help="RE,IM")
    the.add_argument("--tol", type=float, default=1e-12)
    _add_io_flags(the, ("json",))
    the.set_defaults(func=_cmd_theta)

    return parser


# the flag that sets how much each subcommand computes, named when memory runs out
_SIZE_FLAGS = {"figurate": "--bound", "partitions": "--n", "divisors": "--n", "verify": "--order"}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_theta_values(argv))
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"qpl: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        flag = _SIZE_FLAGS.get(args.command)
        hint = f"; try a smaller {flag}" if flag else ""
        print(f"qpl: error: out of memory{hint}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
