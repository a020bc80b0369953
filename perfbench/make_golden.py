"""Write golden.json: the output summary of every distinct command of every
workload member, as produced by the checkout this is run in.

    python3 perfbench/make_golden.py

Run it from the root of a checkout whose test suite passes.
"""

import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    env = run.child_env(root)
    golden = {}
    for name in workloads.NAMES:
        for m in range(workloads.FAMILY):
            for cli_args in workloads.commands(name, m):
                key = " ".join(cli_args)
                if key in golden:
                    continue
                argv = [sys.executable, "-m", "halkron.cli", *cli_args]
                _, _, code = run.spawn(argv, env, root, work / "stdout", work / "stderr")
                if code != 0:
                    print(f"{key}: exit code {code}", file=sys.stderr)
                    return 1
                summary, problems = workloads.summarize(
                    cli_args, (work / "stdout").read_text(encoding="utf-8"))
                if problems:
                    print(f"{key}: {problems}", file=sys.stderr)
                    return 1
                golden[key] = summary
                print(key, flush=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
