"""halkron benchmark: runs one workload as a sequence of CLI commands and
prints its metrics.

    python3 perfbench/run.py --workload growth --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; the CLI is imported from the
checkout's ``src/``.  Every command is a fresh ``python -m halkron.cli``
process, started one at a time (a closed loop with one client).  Passes
over the workload's commands repeat until ``--seconds`` is used up; each
command's time is the median over the passes of its wall time scaled to
the reference speed (see ``Speed``).  Every output is checked
against ``golden.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
command untraced and then traced (``tracer.py``) and prints the per-layer
metrics.  The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# The shared host runs this machine's CPUs in phases, from seconds to a
# minute long, in which all code runs up to 1.6x slower; the time of a fixed
# reference loop rises with them.  Each command's wall time is therefore
# scaled by REFERENCE_S / (the loop's time measured just before and after
# it), which makes it the wall time at the speed where the loop takes
# REFERENCE_S (about its time in a quiet phase on the 2-vCPU 2.1 GHz Xeon VM
# the baseline was measured on).
REFERENCE_S = 0.022
REFERENCE_REPEATS = 5
REFERENCE_ROW = np.arange(8192, dtype=np.int64)
COMMAND_LIMIT_S = 150.0  # a command running longer is killed and counted as failed

# traced layer function -> its self-time metric
TIME_LAYERS = {
    "sequences.generate_point_set": "sequences.generate_point_set.s",
    "discrepancy.star_discrepancy_2d": "discrepancy.star_discrepancy_2d.s",
    "discrepancy.growth_scan": "discrepancy.growth_scan.self_s",
    "metric.phi_levels": "metric.phi_levels.s",
    "metric.lambda_bracket": "metric.lambda_bracket.self_s",
    "metric.structural_checks": "metric.structural_checks.self_s",
    "metric.integral_pi": "metric.integral_pi.self_s",
    "expsum.upper_bound_rhs": "expsum.upper_bound_rhs.s",
    "trigprod.gelfond_certify": "trigprod.gelfond_certify.s",
    "trigprod.sharpness_identity": "trigprod.sharpness_identity.s",
}
CALL_COUNTS = {
    "sequences.generate_point_set": "sequences.generate_point_set.calls",
    "discrepancy.star_discrepancy_2d": "discrepancy.star_discrepancy_2d.calls",
    "metric.phi_levels": "metric.phi_levels.calls",
}
SPAN_COUNTS = {
    "points": "sequences.points",
    "pairs": "discrepancy.pairs",
    "rows": "expsum.rows",
    "factors": "expsum.factors",
}

PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.scipy_import_s": "s",
    "sequences.generate_point_set.s": "s",
    "sequences.generate_point_set.calls": "count",
    "sequences.points": "count",
    "discrepancy.star_discrepancy_2d.s": "s",
    "discrepancy.star_discrepancy_2d.calls": "count",
    "discrepancy.pairs": "count",
    "discrepancy.ns_per_pair": "ns",
    "discrepancy.growth_scan.self_s": "s",
    "metric.phi_levels.s": "s",
    "metric.phi_levels.calls": "count",
    "metric.lambda_bracket.self_s": "s",
    "metric.structural_checks.self_s": "s",
    "metric.integral_pi.self_s": "s",
    "expsum.upper_bound_rhs.s": "s",
    "expsum.rows": "count",
    "expsum.factors": "count",
    "trigprod.gelfond_certify.s": "s",
    "trigprod.sharpness_identity.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "process.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    """One command process: wall time seen by run.py, the factor that
    scales it to the reference speed (``Speed``), max RSS, output problems
    (an unexpected exit code is one), stdout size, and the tracer's
    record."""

    wall: float
    scale: float
    rss_kib: int
    problems: list[str]
    out_bytes: int
    trace: dict | None = None
    import_lines: list[str] = field(default_factory=list)


def child_env(root: Path) -> dict:
    """The caller's environment without PYTHON* settings (buffering,
    bytecode writing, import paths) and HK_THREADS, which would change what
    is measured or the CLI's config header; the CLI comes from ./src."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "HK_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list[str], env: dict, root: Path, out: Path, err: Path) -> tuple[float, int, int]:
    """Run argv to completion; returns (wall seconds, max RSS KiB, exit code)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=root)
        killer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def reference_s() -> float:
    """Mean time over REFERENCE_REPEATS runs, in this process, of a fixed
    loop: the machine's current speed, with no halkron code.  Half of it is
    interpreted integer arithmetic (like the exact recounts of ``ties``),
    half short numpy calls on an L2-sized row (like the float sweeps of
    ``growth``); either half alone tracked the other workload's slowdowns
    worse."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        x = 0
        for i in range(200_000):
            x += i * i
        for _ in range(400):
            np.cumsum(REFERENCE_ROW)
    return (time.perf_counter() - t0) / REFERENCE_REPEATS


class Speed:
    """Reference-loop readings taken between child processes; each reading
    serves the process before it and the one after it."""

    def __init__(self) -> None:
        self.last = reference_s()

    def scale(self) -> float:
        """Call after a child process ends: REFERENCE_S / (mean of the
        readings just before and just after it)."""
        before, self.last = self.last, reference_s()
        return 2 * REFERENCE_S / (before + self.last)


def run_command(cli_args: list[str], want: dict | None, env: dict, root: Path,
                work: Path, traced: bool, speed: Speed) -> Outcome:
    out, err, spans = work / "stdout", work / "stderr", work / "spans.json"
    if traced:
        spans.unlink(missing_ok=True)
        argv = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"), str(spans)]
    else:
        argv = [sys.executable, "-m", "halkron.cli"]
    wall, rss, code = spawn(argv + cli_args, env, root, out, err)
    scale = speed.scale()
    text = out.read_text(encoding="utf-8", errors="replace")
    if code != 0:
        problems = [f"exit code {code}: {err.read_text(errors='replace').strip()[-300:]}"]
    else:
        got, problems = workloads.summarize(cli_args, text)
        if got is not None:
            problems += workloads.compare(got, want)
    trace = None
    lines: list[str] = []
    if traced and spans.exists():
        trace = json.loads(spans.read_text(encoding="utf-8"))
        lines = [ln for ln in err.read_text(errors="replace").splitlines()
                 if ln.startswith("import time:")]
    return Outcome(wall, scale, rss, problems, len(text.encode()), trace, lines)


def import_probe(env: dict, root: Path, work: Path, speed: Speed) -> tuple[float, float]:
    """Wall time of a process that only imports halkron.cli, and its scale."""
    wall, _, code = spawn([sys.executable, "-c", "import halkron.cli"], env, root,
                          work / "probe.out", work / "probe.err")
    if code != 0:
        raise RuntimeError(f"import halkron.cli exited with {code}")
    return wall, speed.scale()


def scipy_import_s(lines: list[str]) -> float:
    """Summed self time of the scipy modules in ``-X importtime`` output."""
    total_us = 0
    for ln in lines:
        parts = ln.split("|")
        if len(parts) == 3 and parts[2].strip().split(".")[0] == "scipy":
            total_us += int(parts[0].split(":")[1])
    return total_us * 1e-6


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass, summed over its
    commands.  A span's self time is its duration minus its children's;
    the CLI's self time is the command's main() time minus its top-level
    spans; process.overhead_s is the rest of the command's wall time
    (process start, interpreter start and exit).  So setup.import_s, the
    layer times, cli.self_s and process.overhead_s add up to the pass's
    traced wall time."""
    m: dict[str, float] = defaultdict(float)
    for o in outcomes:
        t = o.trace
        if t is None:
            continue
        m["setup.import_s"] += t["import_s"]
        m["setup.scipy_import_s"] += scipy_import_s(o.import_lines)
        m["cli.output_bytes"] += o.out_bytes
        spans = t["spans"]
        child_time = [0.0] * len(spans)
        top = 0.0
        for layer, start, end, parent, counts in spans:
            if parent < 0:
                top += end - start
            else:
                child_time[parent] += end - start
        for i, (layer, start, end, parent, counts) in enumerate(spans):
            m[TIME_LAYERS[layer]] += end - start - child_time[i]
            if layer in CALL_COUNTS:
                m[CALL_COUNTS[layer]] += 1
            for key, value in counts.items():
                m[SPAN_COUNTS[key]] += value
        m["cli.self_s"] += t["main_s"] - top
        m["process.overhead_s"] += o.wall - t["import_s"] - t["main_s"]
        m["trace.traced_wall_s"] += o.wall
    return m


def environment(root: Path) -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "git_sha": None,
        "git_dirty": None,
    }
    if (root / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                               capture_output=True, text=True)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["git_dirty"] = bool(dirty.stdout.strip())
    return env


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    cmds = workloads.commands(workload, seed)
    wants = [golden[" ".join(c)] for c in cmds]
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    env = child_env(root)

    speed = Speed()
    import_probe(env, root, work, speed)  # warm-up: writes the bytecode caches
    probes = [import_probe(env, root, work, speed) for _ in range(SETUP_PROBES)]
    setup_raw = statistics.median(wall for wall, _ in probes)
    setup_s = statistics.median(wall * scale for wall, scale in probes)

    # with tracing, each command runs untraced and then traced, so the two
    # wall times are taken close together and their difference is the
    # tracing overhead rather than a drift of the machine's speed
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        plain.append([])
        traced.append([])
        for c, w in zip(cmds, wants):
            plain[-1].append(run_command(c, w, env, root, work, False, speed))
            if trace:
                traced[-1].append(run_command(c, w, env, root, work, True, speed))
        now = time.perf_counter()
        if now + (now - start) / len(plain) > start + seconds:
            break

    all_outcomes = [o for batch in plain + traced for o in batch]
    failed = sum(1 for o in all_outcomes if o.problems)
    wall_s = wall_raw = 0.0
    for i, c in enumerate(cmds):
        walls = [batch[i].wall for batch in plain]
        scaled = statistics.median(batch[i].wall * batch[i].scale for batch in plain)
        wall_s += scaled
        wall_raw += statistics.median(walls)
        print(f"command {' '.join(c)}: median {scaled:.4f} s at reference speed, "
              f"{statistics.median(walls):.4f} s as measured, over {len(walls)} passes")
    for o in all_outcomes:
        for p in o.problems:
            print(f"FAIL {p}")
    peak = max(o.rss_kib for batch in plain for o in batch) / 1024.0
    error_rate = failed / len(all_outcomes)
    print(f"wall_s {wall_s:.4f} s, setup_s {setup_s:.4f} s (at reference speed; "
          f"{wall_raw:.4f} s and {setup_raw:.4f} s as measured), "
          f"peak_rss_mib {peak:.1f} MiB, error_rate {error_rate:.4f} "
          f"({failed}/{len(all_outcomes)})")
    print("env " + json.dumps(environment(root), sort_keys=True))
    print("computed " + json.dumps(workloads.computed_counts(workload), sort_keys=True))

    if trace:
        # the traced pass with the median wall time, so its parts add up,
        # and the untraced pass it was paired with
        passes = sorted(zip(plain, traced), key=lambda pair: sum(o.wall for o in pair[1]))
        paired, batch = passes[(len(passes) - 1) // 2]
        layers = layer_metrics(batch)
        layers["trace.wall_s"] = sum(o.wall for o in paired)
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.wall_s"]
        pairs = layers["discrepancy.pairs"]
        layers["discrepancy.ns_per_pair"] = (
            layers["discrepancy.star_discrepancy_2d.s"] / pairs * 1e9 if pairs else 0.0)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }
    return {"correct": failed == 0, "attempted": len(all_outcomes), "failed": failed,
            "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    root = Path.cwd()
    if not (root / "src" / "halkron" / "cli.py").is_file():
        print("perfbench: run from the root of a halkron checkout (no src/halkron/cli.py here)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
