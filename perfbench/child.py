"""One benchmark instance: a fresh interpreter that imports bbmb from the
checkout's ``src``, parses one generated config and runs one experiment
through the public entry points, as the ``bbmb`` command does.

Usage: child.py CONFIG MODE OUT_DIR [--setup-only] [--spans PATH]

Prints one JSON line with the timestamps and figures the parent needs,
then exits with the experiment's exit code.
"""

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv):
    config_path, mode, out_dir = argv[:3]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None

    sys.path.insert(0, SRC)
    import bbmb
    from bbmb.cli import run_experiment
    from bbmb.config import parse_config

    if not os.path.abspath(bbmb.__file__).startswith(SRC + os.sep):
        print(f"bbmb imported from {bbmb.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    config = parse_config(config_path)
    parse_s = time.perf_counter() - t0
    report = {"ready": time.monotonic(), "parse_s": parse_s}
    if setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if spans_path is None:
        t0 = time.perf_counter()
        code = run_experiment(config, mode, out_dir)
        wall = time.perf_counter() - t0
    else:
        import bbmb.cli
        import bbmb.scheme
        from tracing import Tracer
        tracer = Tracer()
        tracer.install({"bbmb.cli": bbmb.cli, "bbmb.scheme": bbmb.scheme})
        code, wall = tracer.call_root("cli.run_experiment", run_experiment,
                                      config, mode, out_dir)
    report.update(wall_s=wall, exit_code=code,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        from tracing import span_cost, summarize
        tracer.dump(spans_path)
        summary = summarize(tracer.spans, tracer.root)
        cost = span_cost()
        summary["trace.span_cost_us"] = 1e6 * cost
        summary["trace.overhead_est_s"] = cost * len(tracer.spans)
        report["trace"] = summary
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
