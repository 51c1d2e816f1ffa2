"""Run ``python -m repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py --port 0 --workers 2

Takes the arguments of ``python -m repro serve`` and runs that command
itself, so it serves and announces its port exactly as the command does.
When a ``shutdown`` request ends the server, it prints its spans as one
JSON object on standard output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    tracer = spans.Tracer()
    tracer.install()
    try:
        from repro.__main__ import main as repro_main

        code = repro_main(["serve", *argv])
    finally:
        tracer.uninstall()
    json.dump(tracer.export(), sys.stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
