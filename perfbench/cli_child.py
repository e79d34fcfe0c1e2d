"""Traced stand-in for `python -m eccipher`, used by the traced wide-session run.

    python perfbench/cli_child.py OUT_PREFIX OP_ID ECCIPHER_ARGS...

Installs the benchmark's wrappers, calls `eccipher.cli.main(ECCIPHER_ARGS)`
with every span tagged OP_ID, writes OUT_PREFIX.json (calls, self times,
counts) and OUT_PREFIX.tsv.gz (spans), and exits with main's exit code.
The package must be importable, for example through an absolute PYTHONPATH.
"""

import sys

import tracer as tracing

import eccipher.cli


def main() -> int:
    prefix, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.op = op
    try:
        with tracing.installed(tracer):
            return eccipher.cli.main(argv)
    finally:
        tracing.dump_child(tracer, prefix)


if __name__ == "__main__":
    sys.exit(main())
