"""Command-line front end.

    folicalc <verb> <file> [--name X --name Y ...] [--json]

Verbs: check, diff, wedge, restrict, extend, verify.  Exit codes: 0 when
every check passes, 1 when a check fails, 2 on any input error (bad file,
syntax error, unknown name, kind or chart mismatch).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .commands import VERBS, run_command
from .dsl import parse_document
from .errors import FolicalcError, ParseError


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # One per process: parse_args copies the --name default before appending.
    parser = argparse.ArgumentParser(
        prog="folicalc",
        description="Exact leafwise calculus and connection extension on foliated charts.",
    )
    parser.add_argument("verb", choices=VERBS, help="command to run")
    parser.add_argument("file", help="input document")
    parser.add_argument(
        "--name",
        action="append",
        default=[],
        metavar="OBJECT",
        help="named object the verb operates on (repeatable)",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _read_input(args.file)
        document = parse_document(text)
        report = run_command(args.verb, document, args.name)
    except ParseError as error:
        print(f"{args.file}:{error}", file=sys.stderr)
        return 2
    except (FolicalcError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.ok else 1


def _read_input(path: str) -> str:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise FolicalcError(f"{path} is not valid UTF-8: {error}") from None


if __name__ == "__main__":
    sys.exit(main())
