"""Traced stand-in for ``python -m regtor.cli``: a fresh process that wraps
the traced functions, runs ``regtor.cli.main(argv)`` and writes its spans.

Usage: python cli_child.py SPANS_PATH CLI_ARG...
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import regtor.cli

    try:
        return regtor.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
