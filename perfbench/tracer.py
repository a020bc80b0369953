"""Run one halkron CLI command with timing wrappers around the public layer
functions, and write the spans to a JSON file when the command ends.

    python perfbench/tracer.py SPANS.json CLI_ARG...

Run it under ``python -X importtime`` to get the per-module import times on
stderr.  Spans stay in memory until the command returns.  Each span is
``[layer, start, end, parent_index, counts]``; the parent is the
enclosing traced call, or -1 for a call made by the CLI code itself.
"""

import json
import sys
import time

T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402


def _points(args, kwargs, result):
    return {"points": len(result)}


def _pairs(args, kwargs, result):
    return {"pairs": len(args[0]) ** 2}


def _bound(args, kwargs, result):
    log2n = args[0].n_points.bit_length() - 1
    return {"rows": len(result.rows), "factors": sum(log2n - r.ell for r in result.rows)}


# layer functions wrapped in every module that holds a reference to them,
# with the counter each span records
LAYERS = {
    "sequences.generate_point_set": _points,
    "discrepancy.star_discrepancy_2d": _pairs,
    "discrepancy.growth_scan": None,
    "metric.phi_levels": None,
    "metric.lambda_bracket": None,
    "metric.structural_checks": None,
    "metric.integral_pi": None,
    "expsum.upper_bound_rhs": _bound,
    "trigprod.gelfond_certify": None,
    "trigprod.sharpness_identity": None,
}


def install(spans: list) -> None:
    stack: list[int] = []

    def wrap(layer, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1, {}])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][1:3] = [t0, time.perf_counter()]
                stack.pop()
            if count is not None:
                spans[idx][4] = count(args, kwargs, result)
            return result

        return traced

    modules = [m for name, m in sys.modules.items() if name.startswith("halkron")]
    for layer, count in LAYERS.items():
        mod_name, fn_name = layer.split(".")
        fn = getattr(importlib.import_module("halkron." + mod_name), fn_name)
        traced = wrap(layer, fn, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import halkron.cli

    import_s = time.perf_counter() - T0
    spans: list = []
    install(spans)
    t0 = time.perf_counter()
    try:
        code = halkron.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    main_s = time.perf_counter() - t0
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
