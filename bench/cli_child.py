"""Run ``mixednorm.cli.main`` under the tracer and write its spans.

Usage: python bench/cli_child.py SPANS_OUT [cli arguments...]

The traced run of the ``cli`` workload starts this script in place of
``python -m mixednorm`` so that the spans of each cold process can be merged
into one trace.  Exit code and stdout are those of the command.
"""

import sys

import tracer

import mixednorm.cli


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    spans.install()
    try:
        code = spans.call("cli.main", mixednorm.cli.main, (argv,))
    finally:
        spans.uninstall()
        sys.stdout.flush()
        spans.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
