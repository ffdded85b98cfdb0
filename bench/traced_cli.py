"""``magiclab`` CLI with spans recorded, for the traced cli-paper run.

    BENCH_SPANS_FILE=spans.json python3 bench/traced_cli.py SUBCOMMAND ...

Behaves as ``python -m magiclab`` (same stdout and exit code) and writes
the spans of the call to ``$BENCH_SPANS_FILE`` when it ends.
"""

import json
import os
import sys

import magiclab.cli

import spans


def main() -> int:
    recorder = spans.Recorder()
    recorder.install()
    recorder.on = True
    try:
        code = magiclab.cli.main(sys.argv[1:])
    finally:
        recorder.on = False
        with open(os.environ["BENCH_SPANS_FILE"], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
