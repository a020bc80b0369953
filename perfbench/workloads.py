"""Workloads of the halkron benchmark.

A workload is a fixed list of README CLI commands.  The seed picks one of
``FAMILY`` inputs per workload; member 0 is the paper's parameters.  The
expected output of every distinct command is stored in ``golden.json``
(written by ``make_golden.py``), so a run can check each command's output
without recomputing it.

Each command's stdout is reduced to a summary of the quantities worth
checking.  Exact quantities (N, the exact discrepancy, pass flags, row
indices) are compared exactly.  Float quantities are compared within the
tolerance the test suite already applies to that quantity (``TOLERANCE``).
The ``# format_version`` / ``# config`` header lines and the ``config`` and
``format_version`` JSON keys are never compared.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

NAMES = ("growth", "ties", "brackets")
FAMILY = 16
WIDTH = 128

# (kind, value): "abs" |got - want| <= value, "rel" |got - want| <= value * |want|
TOLERANCE = {
    # tests/test_discrepancy.py compares discrepancy values with abs=1e-12
    "dstar": ("abs", 1e-12),
    # tests/test_metric.py, tests/test_cli.py: exponent brackets with abs=1e-9
    "ratio_min": ("abs", 1e-9),
    "ratio_max": ("abs", 1e-9),
    "exp_lower": ("abs", 1e-9),
    "exp_upper": ("abs", 1e-9),
    # tests/test_trigprod.py: max_violation <= 1e-12, sharpness log_diff < 1e-9
    "gelfond_max_violation": ("abs", 1e-12),
    "sharpness_log_diff": ("abs", 1e-9),
    # tests/test_metric.py: integral routes abs=1e-8, disagreement < 1e-6
    "by_recurrence": ("abs", 1e-8),
    "by_direct": ("abs", 1e-8),
    "disagreement": ("abs", 1e-6),
    # tests/test_expsum.py: product terms with relative tolerance 1e-8
    "term_norm": ("rel", 1e-8),
    "term_prod": ("rel", 1e-8),
    "sum_norm": ("rel", 1e-8),
    "sum_prod": ("rel", 1e-8),
}

# every BOUND_SAMPLE-th row of the bound table is stored in full
BOUND_SAMPLE = 4099

SCAN_N1 = "4..13"
SCAN_N2 = "2..6"
TIES_COUNT = 4096
LAMBDA_N, DEPTH, GRID = (1, 8), 12, 16384
CERTIFY_N = (1, 8)
INTEGRAL_N, INTEGRAL_L = 2, 12
BOUND_SIZE = 65536


def member(seed: int) -> int:
    return seed % FAMILY


def _uniform_alpha(workload: str, m: int, n: int) -> str:
    bits = random.Random(f"{workload}:{m}:{n}").getrandbits(WIDTH)
    return f"bits:{bits:#x}:{WIDTH}"


def _tied_alpha(m: int, n: int) -> str:
    """2^(n-1)/(2^n+1) truncated to WIDTH bits, lowered by a seeded tail
    below 2^-88.  The tail changes the exact points and the exact answer
    but keeps k*alpha on the same doubles for k < 2^12, so the float sweep
    sees the same ties and the exact confirmation does the same work."""
    if m == 0:
        return "rational"
    base = ((1 << (n - 1)) << WIDTH) // ((1 << n) + 1)
    tail = random.Random(f"ties:{m}:{n}").getrandbits(40)
    return f"bits:{base - tail:#x}:{WIDTH}"


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one pass of the workload."""
    m = member(seed)
    if workload == "growth":
        a1 = "theorem" if m == 0 else _uniform_alpha("growth", m, 1)
        a2 = "theorem" if m == 0 else _uniform_alpha("growth", m, 2)
        return [
            ["scan", "--n", "1", "--alpha", a1, "--L", SCAN_N1],
            ["scan", "--n", "2", "--alpha", a2, "--L", SCAN_N2],
        ]
    if workload == "ties":
        return [
            ["disc", "--n", str(n), "--alpha", _tied_alpha(m, n), "--count", str(TIES_COUNT)]
            for n in (1, 2)
        ]
    if workload == "brackets":
        alpha = "theorem" if m == 0 else _uniform_alpha("brackets", m, 1)
        size = str(BOUND_SIZE)
        return [
            ["lambda", "--n", f"{LAMBDA_N[0]}..{LAMBDA_N[1]}", "--depth", str(DEPTH),
             "--grid", str(GRID)],
            ["certify", "--n", f"{CERTIFY_N[0]}..{CERTIFY_N[1]}"],
            ["integral", "--n", str(INTEGRAL_N), "--L", str(INTEGRAL_L)],
            ["bound", "--n", "1", "--alpha", alpha, "--N", size, "--H", size, "--K", size],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _range(text: str) -> range:
    lo, hi = text.split("..")
    return range(int(lo), int(hi) + 1)


def computed_counts(workload: str) -> dict:
    """Work counts implied by the workload's parameters (computed, not
    measured): point pairs of the quadratic discrepancy sweep, transfer
    operator cells (levels x 2^n x (grid+1)) and bound-table factors."""
    if workload == "growth":
        sizes = [1 << L for L in _range(SCAN_N1)] + [1 << (2 * L) for L in _range(SCAN_N2)]
        return {"points": sum(sizes), "pairs": sum(s * s for s in sizes)}
    if workload == "ties":
        return {"points": 2 * TIES_COUNT, "pairs": 2 * TIES_COUNT**2}
    if workload == "brackets":
        # a fresh process per command: lambda tabulates DEPTH+1 levels per n,
        # certify's structural checks DEPTH+1, integral L levels
        lam = sum((DEPTH + 1) << n for n in range(LAMBDA_N[0], LAMBDA_N[1] + 1))
        cert = sum((DEPTH + 1) << n for n in range(CERTIFY_N[0], CERTIFY_N[1] + 1))
        integ = INTEGRAL_L << INTEGRAL_N
        log2n = BOUND_SIZE.bit_length() - 1
        ells = range(1, BOUND_SIZE.bit_length())
        return {
            "level_cells": (lam + cert + integ) * (GRID + 1),
            "bound_rows": sum(BOUND_SIZE >> ell for ell in ells),
            "bound_factors": sum((BOUND_SIZE >> ell) * (log2n - ell) for ell in ells),
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- output summaries ----------------------------------------------------------


def _csv_rows(text: str) -> list[dict]:
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _summary_scan(argv: list[str], text: str, problems: list[str]) -> dict:
    n = int(argv[argv.index("--n") + 1])
    rows = []
    for r in _csv_rows(text):
        ell, big_n, nd = int(r["L"]), int(r["N"]), float(r["NDstar"])
        if big_n != 1 << (n * ell):
            problems.append(f"L={ell}: N={big_n} is not 2^(n*L)")
        if abs(float(r["logN"]) - math.log(big_n)) > 1e-12:
            problems.append(f"L={ell}: logN disagrees with N")
        if abs(float(r["logNDstar"]) - math.log(nd)) > 1e-12:
            problems.append(f"L={ell}: logNDstar disagrees with NDstar")
        rows.append({"L": ell, "N": big_n, "dstar": nd / big_n})
    return {"rows": rows}


def _summary_disc(argv: list[str], text: str, problems: list[str]) -> dict:
    doc = json.loads(text)
    exact = Fraction(doc["d_star_exact"])
    if abs(float(exact) - doc["d_star"]) > 1e-12:
        problems.append("d_star disagrees with d_star_exact")
    if abs(doc["nd_star"] - doc["n_points"] * doc["d_star"]) > doc["n_points"] * 1e-12:
        problems.append("nd_star disagrees with n_points * d_star")
    if len(doc["witness"]) != 2:
        problems.append("witness is not a 2D corner")
    return {"n_points": doc["n_points"], "d_star_exact": str(exact), "dstar": doc["d_star"]}


def _summary_lambda(argv: list[str], text: str, problems: list[str]) -> dict:
    rows = []
    for r in _csv_rows(text):
        rows.append({
            "n": int(r.get("n", argv[argv.index("--n") + 1])),
            "j": int(r["j"]),
            "ratio_min": float(r["m_j"]),
            "ratio_max": float(r["M_j"]),
            "exp_lower": float(r["exp_lower"]),
            "exp_upper": float(r["exp_upper"]),
        })
    return {"rows": rows}


def _summary_certify(argv: list[str], text: str, problems: list[str]) -> dict:
    keys = ("n", "passed", "gelfond_passed", "structural_failures",
            "gelfond_max_violation", "sharpness_log_diff")
    return {"reports": [{k: rep[k] for k in keys} for rep in json.loads(text)["reports"]]}


def _summary_integral(argv: list[str], text: str, problems: list[str]) -> dict:
    doc = json.loads(text)
    return {k: doc[k] for k in ("by_recurrence", "by_direct", "disagreement", "consistent")}


def _summary_bound(argv: list[str], text: str, problems: list[str]) -> dict:
    per_ell: dict[int, dict] = {}
    sample = []
    for i, r in enumerate(_csv_rows(text)):
        ell, h = int(r["ell"]), int(r["h"])
        norm, prod = float(r["term_norm"]), float(r["term_prod"])
        acc = per_ell.setdefault(ell, {"ell": ell, "rows": 0, "sum_norm": 0.0, "sum_prod": 0.0})
        acc["rows"] += 1
        if h != acc["rows"]:
            problems.append(f"row {i}: h={h} out of sequence for ell={ell}")
        acc["sum_norm"] += norm
        acc["sum_prod"] += prod
        if i % BOUND_SAMPLE == 0:
            sample.append({"row": i, "ell": ell, "h": h, "term_norm": norm, "term_prod": prod})
    return {"per_ell": list(per_ell.values()), "sample": sample}


_SUMMARIES = {
    "scan": _summary_scan,
    "disc": _summary_disc,
    "lambda": _summary_lambda,
    "certify": _summary_certify,
    "integral": _summary_integral,
    "bound": _summary_bound,
}


def summarize(argv: list[str], text: str) -> tuple[dict | None, list[str]]:
    """Checked quantities of one command's stdout, plus any internal
    inconsistency found while reading it."""
    problems: list[str] = []
    try:
        return _SUMMARIES[argv[0]](argv, text, problems), problems
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return None, [f"unreadable output: {exc!r}"]


def compare(got, want, path: str = "") -> list[str]:
    """Differences between two summaries; keys in TOLERANCE compare within
    their tolerance, everything else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'summary'}: keys differ"]
        return [d for k in want for d in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]")]
    rule = TOLERANCE.get(path.rsplit(".", 1)[-1])
    if rule is None or want is None or got is None:
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    kind, tol = rule
    limit = tol * abs(want) if kind == "rel" else tol
    if got == want or abs(got - want) <= limit:
        return []
    return [f"{path}: {got!r} differs from {want!r} by more than {kind} {tol}"]
