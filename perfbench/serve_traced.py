"""Traced server launcher: ``repro-fbc serve`` with the span wrappers installed.

    python3 perfbench/serve_traced.py --spans-out SPANS.json serve ARGS...

Installs the outside-in wrappers of ``spans.py`` around the core, cache,
telemetry, durability, workload and service layers, runs
``repro.cli.main(["serve", ...])`` until SIGTERM shuts it down cleanly,
then writes the spans it kept in memory to ``--spans-out``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        print("usage: serve_traced.py --spans-out PATH serve ARGS...", file=sys.stderr)
        return 2
    out, serve_args = Path(argv[1]), argv[2:]

    import repro.durability.runner as runner
    import repro.service.state as state
    from repro.cli import main as cli_main

    rec = spans.SpanRecorder()
    spans.install_core(rec)
    spans.install_workload(rec)
    spans.install_durability(rec, [runner, state])
    spans.install_service(rec)
    code = cli_main(serve_args)
    rec.unwrap_all()
    rec.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
