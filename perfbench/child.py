"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py RESULT.json TRACE(0|1) [qcrys argv ...]

Imports ``qcrys.cli``, stamps ``time.monotonic()`` (a clock shared by all
processes on the machine, so the parent can subtract its launch stamp),
optionally installs the tracer, runs ``qcrys.cli.main(argv)`` and writes
{"import_done", "exit_code", "trace"} to RESULT.json.  If the CLI raises,
no result file is written and the parent counts the operation as failed.
"""

import json
import sys
import time


def main() -> int:
    result_path, trace_flag, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import qcrys.cli

    import_done = time.monotonic()
    run, tracer = qcrys.cli.main, None
    if trace_flag == "1":
        import tracer as tracing  # sits beside this script

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.span("cli.main", run)
    exit_code = run(argv)
    sys.stdout.flush()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_done": import_done,
                "exit_code": exit_code,
                "trace": tracer.dump() if tracer else None,
            },
            fh,
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
