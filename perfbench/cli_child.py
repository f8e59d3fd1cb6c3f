"""Run one ``linrec`` command with every layer traced.

    python cli_child.py TRACE_FILE [linrec arguments...]

Stands in for ``python -m linrec`` in traced ``cli`` runs: it times
``import linrec.cli``, installs the benchmark's wrappers, calls
``linrec.cli.main`` and writes its spans and counts to TRACE_FILE.  The
exit code and stdout are those of the command.
"""

import json
import sys

from tracer import Tracer, clock


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = clock()
    import linrec.cli

    tracer.record("cli.import", start, clock())
    tracer.install()
    code = 1
    try:
        code = linrec.cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
