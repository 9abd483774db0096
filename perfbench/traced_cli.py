"""`python -m nkdeform.cli`, with a span on every public function.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Imports the CLI (timing the import in CPU seconds as `cli.import_s`),
installs the span wrappers, runs the command, writes the span totals to
SPANS_JSON, and exits as the CLI would; an uncaught exception still ends in a traceback.
"""

import json
import sys
import time

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    start = time.process_time()
    import nkdeform
    from nkdeform import cli

    tracer.counts["cli.import_s"] = time.process_time() - start
    spans.install(tracer, nkdeform)
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
