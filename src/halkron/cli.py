"""Command-line front end: generates point sets, runs discrepancy and
growth scans, emits the exponent curve and certification reports, and
writes the exponent-bracket tables as CSV/JSON.

Each flag that several commands share is declared once, as a parent
parser (``--width`` with ``--alpha``).  Every output goes through
``_emit``, which embeds a format version and the config, exactly the
flags the result reads: the command and ``--key value`` per config key
re-produce the file byte for byte.  Every size cap is a constant that
counts what the flags ask for (points, levels, terms or rows), checked
through ``_guard``, and ``--force`` is the one way past it: the caps are
CLI policy, and library functions cap no size.
Exit codes: 0 success, 2 usage, 3 guard (a size above its cap, or an
allocation that fails), 4 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain

from . import discrepancy, expsum, metric, trigprod
from .numtheory import (
    DEFAULT_WIDTH,
    UnitFraction,
    from_words,
    make_unit_fraction,
    rational_bad,
    shallit_beta,
    theorem_alpha,
)
from .sequences import PerturbSpec, PointSet2, generate_point_set

FORMAT_VERSION = 3

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_CERTIFY = 4

# central defaults, see README
DEFAULT_DEPTH = 12
DEFAULT_CERTIFY_GRID = 100_000
DEFAULT_POINT_CAP = 1 << 16  # points of `gen` and `disc`, N = 2^(nL) of `scan`
DEFAULT_DEPTH_CAP = 4000  # levels of `lambda`, at most 16 (2^14 + 1) bytes each
DEFAULT_MU_CAP = 1 << 16  # terms 2^n of the mu(n) sum of `certify`
DEFAULT_BOUND_ROW_CAP = 1 << 22  # rows of one bound table


class UsageError(ValueError):
    """A bad argument (exit 2)."""


class GuardError(ValueError):
    """A size above its cap without ``--force`` (exit 3)."""


def parse_range(text: str) -> range:
    """'4..13' -> range(4, 14); '3' -> range(3, 4).  No list is built, so a
    huge range costs nothing before a check reads its ends."""
    lo, sep, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise UsageError("range must look like 4..13 or 3") from None
    if hi_i < lo_i:
        raise UsageError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


def parse_n(text: str) -> range:
    """The ``--n`` range of every command: an n below 1 is a usage error,
    before any other rule reads n."""
    ns = parse_range(text)
    if ns[0] < 1:
        raise UsageError("n must be >= 1")
    return ns


def _single_n(ns: range, command: str) -> int:
    """The one n of a parsed range, for commands that take a single n."""
    if len(ns) != 1:
        raise UsageError(f"{command} takes a single n")
    return ns[0]


def parse_alpha(text: str, n: int, width: int) -> UnitFraction:
    """theorem | shallit | rational | bits:HEX:WIDTH | frac:P/Q; width >= 1, also for bits:."""
    if width < 1:
        raise UsageError(f"width must be >= 1, got {width}")
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
        return UnitFraction(bits, bits_width)
    if text.startswith("frac:"):
        try:
            p, q = (int(part) for part in text[len("frac:"):].split("/"))
        except ValueError:
            raise UsageError("frac spec must look like frac:P/Q") from None
        return make_unit_fraction(p, q, width)
    raise UsageError(f"unknown alpha spec {text!r}")


def _emit(args, config: dict, body: str | None = None, payload: dict | None = None,
          indent: int | None = None) -> None:
    """Write one command's output.  ``--out`` gets the ``# format_version``
    and ``# config`` lines and then ``body``, the formatted data lines; with
    no body it gets ``payload`` as one JSON document instead.  ``--json``,
    where the command has it, gets ``payload`` with indent 2.  A JSON
    document is one object, keys sorted, that holds the format version and
    config next to ``payload``.  The path ``-`` is stdout, written last: a
    file that cannot be written is a usage error before anything reaches
    stdout, though a file written before it stays written."""

    def document(ind: int | None) -> str:
        doc = {"format_version": FORMAT_VERSION, "config": config, **payload}
        return json.dumps(doc, indent=ind, sort_keys=True, allow_nan=False) + "\n"

    if body is None:
        outputs = [(args.out, document(indent))]
    else:
        outputs = [(args.out, f"# format_version: {FORMAT_VERSION}\n"
                              f"# config: {json.dumps(config, sort_keys=True)}\n{body}")]
    if getattr(args, "json", None):
        outputs.append((args.json, document(2)))
    for path, text in sorted(outputs, key=lambda o: o[0] == "-"):  # files first
        if path == "-":
            sys.stdout.write(text)
            continue
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _csv(header: list[str], rows) -> str:
    """CSV lines of ``header`` and ``rows``, each value written by ``str``."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return "".join([line % tuple(row) for row in chain([header], rows)])


def _config(args, keys: list[str], **built) -> dict:
    """The values of the flags ``keys``, exactly those the result reads,
    and ``built``, the values it was built at (an alpha's width)."""
    return {k: getattr(args, k) for k in keys} | built


def _guard(need: int, cap: int, force: bool, what: str) -> None:
    """The one size guard: ``GuardError`` (exit 3) when ``need`` is above
    ``cap`` and ``--force`` is not given.  ``what`` names the size."""
    if need > cap and not force:
        raise GuardError(f"{what}, above the cap of {cap}; pass --force to go past it")


def _point_set(args, command: str) -> PointSet2:
    """The first ``--count`` points for ``--n`` and the alpha, after the
    usage checks and the point guard (``gen`` and ``disc``)."""
    n = _single_n(parse_n(args.n), command)
    if args.count < 1:
        raise UsageError("count must be >= 1")
    _guard(args.count, DEFAULT_POINT_CAP, args.force, f"the point set has {args.count} points")
    return generate_point_set(PerturbSpec(n), parse_alpha(args.alpha, n, args.width), args.count)


def cmd_gen(args) -> int:
    ps = _point_set(args, "gen")
    q = 1 << ps.width
    xs, ys = from_words(ps.x, ps.width), from_words(ps.y, ps.width)
    rows = [[k, f"0x{xb:x}", f"0x{yb:x}", repr(xb / q), repr(yb / q)]
            for k, (xb, yb) in enumerate(zip(xs, ys))]
    _emit(args, _config(args, ["n", "alpha", "count"], width=ps.width),
          _csv(["k", "x_bits_hex", "y_bits_hex", "x_float", "y_float"], rows))
    return EXIT_OK


def cmd_disc(args) -> int:
    ps = _point_set(args, "disc")
    res = discrepancy.star_discrepancy_2d(ps)
    payload = {
        "n_points": res.n_points,
        "d_star": float(res.d_star),
        "d_star_exact": f"{res.d_star.numerator}/{res.d_star.denominator}",
        "nd_star": float(res.n_points * res.d_star),
        "witness": [
            {"coord": float(s.coord), "closed": s.closed} for s in res.witness_box
        ],
    }
    _emit(args, _config(args, ["n", "alpha", "count"], width=ps.width), payload=payload)
    return EXIT_OK


def cmd_scan(args) -> int:
    n = _single_n(parse_n(args.n), "scan")
    alpha = parse_alpha(args.alpha, n, args.width)
    ls = parse_range(args.L)
    if ls[0] < 1:
        raise UsageError("L values must be >= 1")
    bits = n * ls[-1]
    _guard(1 << bits, DEFAULT_POINT_CAP, args.force, f"L = {ls[-1]} gives N = 2^{bits} points")
    rec = discrepancy.growth_scan(PerturbSpec(n), alpha, ls)
    rows = [
        [ell, n_pts, repr(nd), repr(math.log(n_pts)), repr(math.log(nd))]
        for (ell, n_pts, nd) in rec.samples
    ]
    payload = {
        "fitted_exponent": rec.fitted_exponent,
        "residual": rec.residual,
        "a_n_reference": rec.reference_exponent,
    }
    _emit(args, _config(args, ["n", "alpha", "L"], width=alpha.width),
          _csv(["L", "N", "NDstar", "logN", "logNDstar"], rows), payload)
    return EXIT_OK


def cmd_trig(args) -> int:
    ns = parse_n(args.n)
    cfg = _config(args, ["n", "mode"] + ["grid"] * (args.mode == "gn"))
    if args.mode == "an":
        _emit(args, cfg, _csv(["n", "a_n"], [[n, repr(trigprod.a_exponent(n))] for n in ns]))
        return EXIT_OK
    # mode gn: dichotomy sweep values for one n
    n = _single_n(ns, "trig --mode gn")
    xs = trigprod.dichotomy_grid(args.grid)
    g1, v = trigprod.gelfond_sweep(n, xs, trigprod.g_at_xi(n))
    ok = (v <= trigprod.GELFOND_TOLERANCE).astype(int)
    rows = zip(xs.tolist(), g1.tolist(), ok.tolist())
    _emit(args, cfg, _csv(["x", "Gn", "bound_ok"], rows))
    return EXIT_OK


def cmd_lambda(args) -> int:
    ns = parse_n(args.n)
    for n in ns:  # the rules of metric.phi_levels, before any level is built
        metric.check_levels(n, args.grid)
    _guard(args.depth, DEFAULT_DEPTH_CAP, args.force, f"depth {args.depth}")
    brackets = {n: metric.lambda_bracket(n, args.depth, args.grid) for n in ns}
    lead = len(ns) > 1  # a range of n puts n in the first column
    rows = [
        [n] * lead + [rec.j, repr(rec.ratio_min), repr(rec.ratio_max),
                      repr(rec.exp_lower), repr(rec.exp_upper)]
        for n, br in brackets.items() for rec in br.levels
    ]
    body = _csv(["n"] * lead + ["j", "m_j", "M_j", "exp_lower", "exp_upper"], rows) + "".join(
        f"# n={n}: exponent bracket [{br.exponent_lower:.5f}, {br.exponent_upper:.5f}]\n"
        for n, br in brackets.items()
    )
    payload = {
        "table": {
            str(n): {"exp_lower": br.exponent_lower, "exp_upper": br.exponent_upper}
            for n, br in brackets.items()
        }
    }
    _emit(args, _config(args, ["n", "depth", "grid"]), body, payload)
    return EXIT_OK


def cmd_certify(args) -> int:
    ns = parse_n(args.n)
    for n in ns:  # the rules of metric.phi_levels, before any level is built
        metric.check_levels(n, metric.DEFAULT_GRID)
    for n in ns:
        _guard(1 << n, DEFAULT_MU_CAP, args.force, f"n={n}: mu sums 2^{n} terms")
    # every n's sharpness identity first: its size rule fails before any other work
    sharps = [trigprod.sharpness_identity(n, args.blocks) for n in ns]
    reports = []
    failed = False
    for n, sharp in zip(ns, sharps):
        cert = trigprod.gelfond_certify(n, args.grid)
        struct = metric.structural_checks(n)
        ok = cert.passed and struct.all_pass and sharp.log_diff < 1e-9
        failed = failed or not ok
        reports.append(
            {
                "n": n,
                "gelfond_max_violation": cert.max_violation,
                "gelfond_worst_x": cert.worst_x,
                "gelfond_passed": cert.passed,
                "sharpness_log_diff": sharp.log_diff,
                "structural_failures": list(struct.failures),
                "passed": ok,
            }
        )
    _emit(args, _config(args, ["n", "grid", "blocks"]),
          payload={"reports": reports}, indent=2)
    return EXIT_CERTIFY if failed else EXIT_OK


def cmd_bound(args) -> int:
    n = _single_n(parse_n(args.n), "bound")
    alpha = parse_alpha(args.alpha, n, args.width)
    params = expsum.BoundParams(args.N, args.H, args.K)
    _guard(params.table_rows, DEFAULT_BOUND_ROW_CAP, args.force,
           f"the bound table has {params.table_rows} rows")
    res = expsum.upper_bound_rhs(params, n, alpha)
    body = _csv(list(expsum.UpperBoundRow._fields), zip(*res.rows.columns))
    payload = {
        "term_nk": res.term_nk,
        "term_nh_log": res.term_nh_log,
        "term_log2": res.term_log2,
        # a degenerate (ell, h) makes both infinite, which JSON cannot hold
        "term_sum": res.term_sum if res.finite else None,
        "total": res.total if res.finite else None,
        "degenerate": [list(d) for d in res.degenerate],
    }
    _emit(args, _config(args, ["n", "alpha", "N", "H", "K"], width=alpha.width), body, payload)
    return EXIT_OK


def cmd_integral(args) -> int:
    n = _single_n(parse_n(args.n), "integral")
    res = metric.integral_pi(n, args.L)
    payload = {
        "by_recurrence": res.by_recurrence,
        "by_direct": res.by_direct,
        "disagreement": res.disagreement,
        "consistent": res.consistent,
    }
    _emit(args, _config(args, ["n", "L"]), payload=payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    def flag(*names, **kwargs) -> argparse.ArgumentParser:
        """A parent parser that declares one shared flag."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    n_flag = flag("--n", required=True, help="n, or a range such as 1..8 where allowed")
    out = flag("--out", default="-", help="output file (default -, stdout)")
    alpha = flag("--alpha", default="theorem",
                 help="theorem | shallit | rational | bits:HEX:WIDTH | frac:P/Q")
    alpha.add_argument("--width", type=int, default=DEFAULT_WIDTH,
                       help="fixed-point width in bits (default 128); bits: carries its own")
    json_out = flag("--json", help="also write the result as a JSON document to this file")
    force = flag("--force", action="store_true", help="build sizes above their cap")

    p = argparse.ArgumentParser(
        prog="halkron",
        description="perturbed Halton-Kronecker hybrid sequences and their discrepancy apparatus",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, parents=[n_flag, out, *parents], help=summary)
        sp.set_defaults(func=func)
        return sp

    sp = command("gen", cmd_gen, "write a point-set CSV", alpha, force)
    sp.add_argument("--count", type=int, required=True)

    sp = command("disc", cmd_disc, "exact 2D star discrepancy of a generated set",
                 alpha, force, json_out)
    sp.add_argument("--count", type=int, required=True)

    sp = command("scan", cmd_scan, "growth scan N*D*_N over N = 2^{nL}", alpha, force, json_out)
    sp.add_argument("--L", required=True)

    sp = command("trig", cmd_trig, "exponent curve a(n) or dichotomy sweep")
    sp.add_argument("--mode", choices=["an", "gn"], default="an")
    sp.add_argument("--grid", type=int, default=DEFAULT_CERTIFY_GRID)

    sp = command("lambda", cmd_lambda, "per-level exponent bracket table", force, json_out)
    sp.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    sp.add_argument("--grid", type=int, default=metric.DEFAULT_GRID)

    sp = command("certify", cmd_certify, "dichotomy + sharpness + structural checks",
                 force, json_out)
    sp.add_argument("--grid", type=int, default=DEFAULT_CERTIFY_GRID)
    sp.add_argument("--blocks", type=int, default=20, help="L for the sharpness identity")

    sp = command("bound", cmd_bound, "generic upper-bound right-hand side terms",
                 alpha, force, json_out)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--H", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)

    sp = command("integral", cmd_integral, "integral of the product by both routes", json_out)
    sp.add_argument("--L", type=int, required=True)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError:
        print("guard: the sizes asked for do not fit in memory", file=sys.stderr)
        return EXIT_GUARD
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
