"""Command-line front end: generates point sets, runs discrepancy and
growth scans, emits the exponent curve and certification reports, and
writes the exponent-bracket tables as CSV/JSON.

Every output embeds the run configuration and a format version so a file
can be re-produced byte-for-byte from its own header.  Exit codes:
0 success, 2 usage, 3 guard, 4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import discrepancy, expsum, metric, trigprod
from .numtheory import (
    DEFAULT_WIDTH,
    SpecialAlpha,
    make_unit_fraction,
    rational_bad,
    shallit_beta,
    theorem_alpha,
    user_alpha,
)
from .sequences import PerturbSpec, generate_point_set

FORMAT_VERSION = 2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_CERTIFY = 4

# central defaults, see README
DEFAULT_GRID_LAMBDA = 1 << 14
DEFAULT_DEPTH = 12
DEFAULT_GUARD = 1 << 16
DEFAULT_CERTIFY_GRID = 100_000
DEFAULT_KERNEL_CAP = 1 << 30  # bytes of one transfer-operator kernel
DEFAULT_BOUND_ROW_CAP = 1 << 22  # rows of one bound table


class UsageError(ValueError):
    pass


def parse_range(text: str) -> list[int]:
    """'4..13' -> [4..13]; '3' -> [3]."""
    lo, sep, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise UsageError("range must look like 4..13 or 3") from None
    if hi_i < lo_i:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo_i, hi_i + 1))


def _single_n(ns: list[int], command: str) -> int:
    """The one n of a parsed range, for commands that take a single n."""
    if len(ns) != 1:
        raise UsageError(f"{command} takes a single n")
    return ns[0]


def parse_alpha(text: str, n: int, width: int) -> SpecialAlpha:
    """theorem | shallit | rational | bits:HEX:WIDTH | frac:P/Q."""
    if text == "theorem":
        return theorem_alpha(n, width)
    if text == "shallit":
        return shallit_beta(width)
    if text == "rational":
        return rational_bad(n, width)
    if text.startswith("bits:"):
        try:
            digits, w = text[len("bits:"):].split(":")
            bits, bits_width = int(digits, 16), int(w)
        except ValueError:
            raise UsageError("bits spec must look like bits:0x1234:128") from None
        return user_alpha(bits, bits_width)
    if text.startswith("frac:"):
        try:
            p, q = (int(part) for part in text[len("frac:"):].split("/"))
        except ValueError:
            raise UsageError("frac spec must look like frac:P/Q") from None
        return SpecialAlpha("user_bits", make_unit_fraction(p, q, width))
    raise UsageError(f"unknown alpha spec {text!r}")


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _emit_csv(fh, config: dict, header: list[str], rows: list[list]) -> None:
    _emit_csv_body(fh, config, header, "".join([",".join(map(str, row)) + "\n" for row in rows]))


def _emit_header(fh, config: dict) -> None:
    """The ``# format_version`` and ``# config`` lines of a CSV output."""
    fh.write(f"# format_version: {FORMAT_VERSION}\n")
    fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")


def _emit_csv_body(fh, config: dict, header: list[str], body: str) -> None:
    """The CSV header lines, then ``body``: the data lines, already formatted."""
    _emit_header(fh, config)
    fh.write(",".join(header) + "\n")
    fh.write(body)


def _emit_json(fh, config: dict, payload: dict, indent: int | None = None) -> None:
    """One JSON document, the format version and config first in the same
    object as ``payload``, keys sorted, then a newline."""
    doc = {"format_version": FORMAT_VERSION, "config": config, **payload}
    fh.write(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


def _write_json(path: str | None, config: dict, payload: dict) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        _emit_json(fh, config, payload, indent=2)


def _config(args, keys: list[str]) -> dict:
    cfg = {k: getattr(args, k) for k in keys}
    cfg["width"] = args.width
    return cfg


def _guard_kernels(ns: list[int], grids: list[int], force: bool) -> None:
    """Usage error for a grid that breaks the grid rule; guard error for a
    level kernel above ``DEFAULT_KERNEL_CAP`` unless forced."""
    for n in ns:
        for grid in grids:
            size = metric.kernel_bytes(n, grid)
            if size > DEFAULT_KERNEL_CAP and not force:
                raise discrepancy.GuardError(
                    f"n={n}, grid {grid}: the level kernel needs {size} bytes, "
                    f"above the cap of {DEFAULT_KERNEL_CAP}; pass --force to build it"
                )


def cmd_gen(args) -> int:
    n = _single_n(parse_range(args.n), "gen")
    if args.count < 1:
        raise UsageError("count must be >= 1")
    alpha = parse_alpha(args.alpha, n, args.width)
    spec = PerturbSpec(n)
    ps = generate_point_set(spec, alpha.fraction, args.count)
    cfg = _config(args, ["n", "alpha", "count"])
    with _open_out(args.out) as fh:
        _emit_header(fh, cfg)
        fh.write(f"# alpha: {alpha.to_json()}\n")
        ps.write_csv(fh)
    return EXIT_OK


def cmd_disc(args) -> int:
    n = _single_n(parse_range(args.n), "disc")
    if args.count < 1:
        raise UsageError("count must be >= 1")
    if args.count > args.guard and not args.force:
        raise discrepancy.GuardError(f"count {args.count} exceeds guard {args.guard}")
    alpha = parse_alpha(args.alpha, n, args.width)
    ps = generate_point_set(PerturbSpec(n), alpha.fraction, args.count)
    res = discrepancy.star_discrepancy_2d(ps)
    cfg = _config(args, ["n", "alpha", "count"])
    payload = {
        "n_points": res.n_points,
        "d_star": float(res.d_star),
        "d_star_exact": f"{res.d_star.numerator}/{res.d_star.denominator}",
        "nd_star": float(res.n_points * res.d_star),
        "witness": [
            {"coord": float(s.coord), "closed": s.closed} for s in res.witness_box
        ],
    }
    _write_json(args.json, cfg, payload)
    with _open_out(args.out) as fh:
        _emit_json(fh, cfg, payload)
    return EXIT_OK


def cmd_scan(args) -> int:
    n = _single_n(parse_range(args.n), "scan")
    alpha = parse_alpha(args.alpha, n, args.width)
    ls = parse_range(args.L)
    rec = discrepancy.growth_scan(
        PerturbSpec(n), alpha.fraction, ls, guard=args.guard, force=args.force
    )
    cfg = _config(args, ["n", "alpha", "L", "guard"])
    rows = [
        [ell, n_pts, repr(nd), repr(math.log(n_pts)), repr(math.log(nd))]
        for (ell, n_pts, nd) in rec.samples
    ]
    with _open_out(args.out) as fh:
        _emit_csv(fh, cfg, ["L", "N", "NDstar", "logN", "logNDstar"], rows)
    _write_json(
        args.json,
        cfg,
        {
            "fitted_exponent": rec.fitted_exponent,
            "residual": rec.residual,
            "a_n_reference": rec.reference_exponent,
        },
    )
    return EXIT_OK


def cmd_trig(args) -> int:
    ns = parse_range(args.n)
    cfg = _config(args, ["n", "mode", "grid"])
    if args.mode == "an":
        rows = [[n, repr(trigprod.a_exponent(n))] for n in ns]
        with _open_out(args.out) as fh:
            _emit_csv(fh, cfg, ["n", "a_n"], rows)
        return EXIT_OK
    # mode gn: dichotomy sweep values for one n
    n = _single_n(ns, "trig --mode gn")
    cert = trigprod.gelfond_certify(n, args.grid)
    xs = np.linspace(0.0, 1.0, args.grid + 1)
    g1 = trigprod.g_value(n, xs)
    ok = trigprod.gelfond_violation(n, xs, trigprod.g_at_xi(n)) <= cert.tolerance
    rows = [[repr(float(x)), repr(float(v)), int(o)] for x, v, o in zip(xs, g1, ok)]
    with _open_out(args.out) as fh:
        _emit_csv(fh, cfg, ["x", "Gn", "bound_ok"], rows)
    return EXIT_OK


def cmd_lambda(args) -> int:
    ns = parse_range(args.n)
    cfg = _config(args, ["n", "depth", "grid"])
    _guard_kernels(ns, [g for g in (args.grid, args.compare_grid) if g], args.force)
    brackets = {n: metric.lambda_bracket(n, args.depth, args.grid) for n in ns}
    header = ["j", "m_j", "M_j", "exp_lower", "exp_upper"]
    rows = []
    for n, br in brackets.items():
        for rec in br.levels:
            row = [rec.j, repr(rec.ratio_min), repr(rec.ratio_max),
                   repr(rec.exp_lower), repr(rec.exp_upper)]
            if len(ns) > 1:
                row = [n] + row
            rows.append(row)
    if len(ns) > 1:
        header = ["n"] + header
    with _open_out(args.out) as fh:
        _emit_csv(fh, cfg, header, rows)
    payload = {
        "table": {
            str(n): {"exp_lower": br.exponent_lower, "exp_upper": br.exponent_upper}
            for n, br in brackets.items()
        }
    }
    if args.compare_grid:
        deltas = {}
        for n in ns:
            other = metric.lambda_bracket(n, args.depth, args.compare_grid)
            deltas[str(n)] = {
                "exp_lower_delta": brackets[n].exponent_lower - other.exponent_lower,
                "exp_upper_delta": brackets[n].exponent_upper - other.exponent_upper,
            }
        payload["refinement"] = deltas
    _write_json(args.json, cfg, payload)
    if args.out == "-" and args.json is None:
        for n, br in brackets.items():
            sys.stdout.write(
                f"# n={n}: exponent bracket [{br.exponent_lower:.5f}, {br.exponent_upper:.5f}]\n"
            )
    return EXIT_OK


def cmd_certify(args) -> int:
    ns = parse_range(args.n)
    if args.grid < 1000:
        raise UsageError("certification grid must be >= 1000")
    _guard_kernels(ns, [args.struct_grid], args.force)
    reports = []
    failed = False
    for n in ns:
        cert = trigprod.gelfond_certify(n, args.grid)
        sharp = trigprod.sharpness_identity(n, args.blocks) if n * args.blocks <= 1000 else None
        struct = metric.structural_checks(n, args.struct_grid)
        ok = cert.passed and struct.all_pass
        if sharp is not None:
            ok = ok and sharp.log_diff < 1e-9
        failed = failed or not ok
        reports.append(
            {
                "n": n,
                "gelfond_max_violation": cert.max_violation,
                "gelfond_worst_x": cert.worst_x,
                "gelfond_passed": cert.passed,
                "sharpness_log_diff": None if sharp is None else sharp.log_diff,
                "structural_failures": list(struct.failures),
                "passed": ok,
            }
        )
    cfg = _config(args, ["n", "grid", "blocks", "struct_grid"])
    payload = {"reports": reports}
    _write_json(args.json, cfg, payload)
    with _open_out(args.out) as fh:
        _emit_json(fh, cfg, payload, indent=2)
    return EXIT_CERTIFY if failed else EXIT_OK


def cmd_bound(args) -> int:
    n = _single_n(parse_range(args.n), "bound")
    alpha = parse_alpha(args.alpha, n, args.width)
    params = expsum.BoundParams(args.N, args.H, args.K)
    if params.table_rows > DEFAULT_BOUND_ROW_CAP and not args.force:
        raise discrepancy.GuardError(
            f"the bound table has {params.table_rows} rows, above the cap of "
            f"{DEFAULT_BOUND_ROW_CAP}; pass --force to build it"
        )
    res = expsum.upper_bound_rhs(params, n, alpha.fraction)
    cfg = _config(args, ["n", "alpha", "N", "H", "K"])
    body = "".join([f"{r.ell},{r.h},{r.term_norm!r},{r.term_prod!r}\n" for r in res.rows])
    with _open_out(args.out) as fh:
        _emit_csv_body(fh, cfg, ["ell", "h", "term_norm", "term_prod"], body)
    _write_json(
        args.json,
        cfg,
        {
            "term_nk": res.term_nk,
            "term_nh_log": res.term_nh_log,
            "term_log2": res.term_log2,
            "term_sum": res.term_sum,
            "total": res.total,
            "degenerate": [list(d) for d in res.degenerate],
        },
    )
    return EXIT_OK


def cmd_integral(args) -> int:
    n = _single_n(parse_range(args.n), "integral")
    _guard_kernels([n], [DEFAULT_GRID_LAMBDA], args.force)
    res = metric.integral_pi(n, args.L, args.quad, DEFAULT_GRID_LAMBDA)
    cfg = _config(args, ["n", "L", "quad"])
    payload = {
        "by_recurrence": res.by_recurrence,
        "by_direct": res.by_direct,
        "disagreement": res.disagreement,
        "consistent": res.consistent,
    }
    _write_json(args.json, cfg, payload)
    with _open_out(args.out) as fh:
        _emit_json(fh, cfg, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="halkron",
        description="perturbed Halton-Kronecker hybrid sequences and their discrepancy apparatus",
    )
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH,
                   help="fixed-point width in bits (default 128)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="write a point-set CSV")
    sp.add_argument("--n", required=True)
    sp.add_argument("--alpha", default="theorem")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("disc", help="exact 2D star discrepancy of a generated set")
    sp.add_argument("--n", required=True)
    sp.add_argument("--alpha", default="theorem")
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--out", default="-")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_disc)

    sp = sub.add_parser("scan", help="growth scan N*D*_N over N = 2^{nL}")
    sp.add_argument("--n", required=True)
    sp.add_argument("--alpha", default="theorem")
    sp.add_argument("--L", required=True)
    sp.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--out", default="-")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("trig", help="exponent curve a(n) or dichotomy sweep")
    sp.add_argument("--n", required=True)
    sp.add_argument("--mode", choices=["an", "gn"], default="an")
    sp.add_argument("--grid", type=int, default=DEFAULT_CERTIFY_GRID)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_trig)

    sp = sub.add_parser("lambda", help="per-level exponent bracket table")
    sp.add_argument("--n", required=True)
    sp.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    sp.add_argument("--grid", type=int, default=DEFAULT_GRID_LAMBDA)
    sp.add_argument("--compare-grid", type=int, default=None,
                    help="second grid size; report refinement deltas")
    sp.add_argument("--force", action="store_true", help="build kernels above the cap")
    sp.add_argument("--out", default="-")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("certify", help="dichotomy + sharpness + structural checks")
    sp.add_argument("--n", required=True)
    sp.add_argument("--grid", type=int, default=DEFAULT_CERTIFY_GRID)
    sp.add_argument("--blocks", type=int, default=20,
                    help="L for the sharpness identity")
    sp.add_argument("--struct-grid", type=int, default=DEFAULT_GRID_LAMBDA)
    sp.add_argument("--force", action="store_true", help="build kernels above the cap")
    sp.add_argument("--out", default="-")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("bound", help="generic upper-bound right-hand side terms")
    sp.add_argument("--n", required=True)
    sp.add_argument("--alpha", default="theorem")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--H", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--force", action="store_true", help="build tables above the row cap")
    sp.add_argument("--out", default="-")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("integral", help="integral of the product by both routes")
    sp.add_argument("--n", required=True)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--quad", type=int, default=8)
    sp.add_argument("--force", action="store_true", help="build kernels above the cap")
    sp.add_argument("--out", default="-")
    sp.add_argument("--json")
    sp.set_defaults(func=cmd_integral)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except discrepancy.GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
