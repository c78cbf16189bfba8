"""Run one cablefield CLI command in this process, with timing marks.

Usage: python3 perfbench/op.py MARKS_JSON SPANS_JSON|- OP_ID -- CLI_ARGS...

The command is ``cablefield.cli.main(CLI_ARGS)``, exactly what
``python -m cablefield CLI_ARGS`` runs.  Untraced (SPANS_JSON is ``-``), the
only instrumentation is a clock read on entry to and exit from
``Scenario.simulate``.  Traced, every public function listed in
``tracing.py`` records a span, and the spans are written to SPANS_JSON when
the command returns.  The monotonic clock is shared with the benchmark
process, which subtracts its own spawn time.
"""

import json
import sys
import time


def main(argv):
    marks_path, spans_path, op_id = argv[0], argv[1], int(argv[2])
    cli_args = argv[argv.index("--") + 1:]
    marks = {}
    rec = None
    if spans_path != "-":
        import tracing

        rec = tracing.Recorder(op_id)
        span = rec.begin("cablefield.import")
        import cablefield
        import cablefield.cli
        rec.end(span)
        tracing.instrument(rec, cablefield)
    else:
        import cablefield.cli
        from cablefield.scenario import Scenario

        simulate = Scenario.simulate

        def timed_simulate(self):
            marks["simulate_enter"] = time.monotonic()
            try:
                return simulate(self)
            finally:
                marks["simulate_exit"] = time.monotonic()

        Scenario.simulate = timed_simulate

    rc = cablefield.cli.main(cli_args)
    marks["main_return"] = time.monotonic()
    marks["module"] = cablefield.cli.__file__
    with open(marks_path, "w") as f:
        json.dump(marks, f)
    if rec is not None:
        rec.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
