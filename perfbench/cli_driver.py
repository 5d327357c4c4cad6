"""Run one ``qubo-forge`` CLI command in this fresh interpreter with span wrappers.

    python cli_driver.py --spans FILE -- <qubo-forge arguments>

The worker starts it with the checkout's ``src`` on ``PYTHONPATH`` for the
traced ``cli-solve`` passes; untraced passes run ``python -m
qubo_forge.cli`` itself.  The spans are written to FILE and the process
exits with the CLI's own exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from qubo_forge import cli

from spans import Tracer, installed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    with installed(tracer):
        code = cli.main(argv)
    args.spans.write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
