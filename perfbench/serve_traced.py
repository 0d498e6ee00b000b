"""``python -m repro ...`` with the live service's layers traced.

Usage: ``python3 perfbench/serve_traced.py OUT serve [serve options]``.
Installs the service wrappers from :mod:`spans`, runs the CLI, and on
exit writes ``OUT.spans`` (every span) and ``OUT.json`` (request,
event and replay counts).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Tracer, install_service


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    install_service(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv[1:])
    services = tracer.objects.get("services", [])
    tracer.write(out.with_suffix(".spans"))
    out.with_suffix(".json").write_text(
        json.dumps(
            {
                "requests": sum(s.requests_handled for s in services),
                "events": sum(
                    s.state.classifier.events_ingested for s in services
                ),
                "replay_s": sum(tracer.durations("service.replay")),
                "replay_events": tracer.counts["service.replay_events"],
                "spans": tracer.span_count(),
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
