"""Self-test of the benchmark's failure accounting: an injected wrong output
value and an unexpected exit code must each count as a failed command.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  Exits 0 when every check holds.
"""

import copy
import sys
from fractions import Fraction
from pathlib import Path

import run
import workloads

CMD = ["disc", "--n", "1", "--alpha", "theorem", "--count", "64"]


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    env = run.child_env(root)
    argv = [sys.executable, "-m", "halkron.cli", *CMD]
    _, _, code = run.spawn(argv, env, root, work / "stdout", work / "stderr")
    want, problems = workloads.summarize(CMD, (work / "stdout").read_text(encoding="utf-8"))
    if code != 0 or problems:
        print(f"reference command failed: exit {code}, {problems}")
        return 1

    off_exact = copy.deepcopy(want)
    off_exact["d_star_exact"] = str(Fraction(want["d_star_exact"]) + Fraction(1, 1 << 200))
    off_float = copy.deepcopy(want)
    off_float["dstar"] = want["dstar"] + 1e-9  # beyond the 1e-12 tolerance
    within_tol = copy.deepcopy(want)
    within_tol["dstar"] = want["dstar"] + 1e-13
    bad_usage = ["disc", "--n", "1", "--alpha", "theorem", "--count", "0"]  # exits 2

    cases = [
        ("correct output", CMD, want, False),
        ("value within tolerance", CMD, within_tol, False),
        ("wrong exact value", CMD, off_exact, True),
        ("wrong float value", CMD, off_float, True),
        ("unexpected exit code", bad_usage, want, True),
    ]
    failures = 0
    for label, cli_args, expected, should_fail in cases:
        for traced in (False, True):
            out = run.run_command(cli_args, expected, env, root, work, traced, run.Speed())
            counted = bool(out.problems)
            ok = counted == should_fail
            failures += not ok
            mode = "traced" if traced else "untraced"
            print(f"{'ok  ' if ok else 'FAIL'} {label} ({mode}): counted as failure = {counted}")
    print("selftest passed" if failures == 0 else f"selftest: {failures} check(s) wrong")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
