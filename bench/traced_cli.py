"""Run ``python -m coopnet.cli`` with spans recorded around coopnet's layers.

Usage: python bench/traced_cli.py SPANS_JSON CLI_ARGS...

Exits with the CLI's own exit code after writing the spans to SPANS_JSON.
``src`` must be on PYTHONPATH, as for the untraced run.
"""

from __future__ import annotations

import runpy
import sys

from tracer import Tracer


def main() -> int:
    spans_path, *cli_args = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        sys.argv = ["coopnet", *cli_args]
        runpy.run_module("coopnet.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.restore()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
