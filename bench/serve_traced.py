"""Run ``repro serve`` with the benchmark's layer wrappers installed.

``python bench/serve_traced.py LEDGER.json serve [flags...]`` wraps the
functions listed in :data:`layers.LAYERS`, runs the CLI with the given
arguments inside one root span, and writes the ledger (per-name counts
and times plus every kept span) to ``LEDGER.json`` when the server
exits. The client places these spans under its own request spans.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402


def main(argv: list[str]) -> int:
    from repro import cli

    ledger = pathlib.Path(argv[0])
    tracer = layers.Tracer().install()
    try:
        with tracer.root(layers.SERVER_ROOT):
            code = cli.main(argv[1:])
    finally:
        tracer.uninstall()
        ledger.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
