"""Run one relmod CLI command with the benchmark's tracer installed.

    python3 bench/cli_traced.py OUT.json ARGS...

The traced run of the cli-readme workload starts this in place of
``python -m relmod ARGS...``; when the command ends, its per-function counts
and times go to OUT.json for the parent to merge.
"""

import json
import sys


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import relmod.cli
    from tracing import Tracer

    tracer = Tracer(record_spans=False)
    tracer.install()
    try:
        return relmod.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.end_op()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
