"""The argparse parser of the command line, built from cli's COMMANDS and
FLAGS tables.

cli.parse_args reads a line that names a command and its flags in full
itself and hands every other line here, --help and every usage error
among them, so argparse writes every help text and error message.  No
command line of the tests, CI, the benchmark or the README loads this
module or argparse, whose import and parser take about 4 ms.
"""

import argparse
import sys

from . import __version__
from .cli import COMMANDS, FLAGS, REQUIRED, VERSION
from .output import _emit, _note


class _Parser(argparse.ArgumentParser):
    """Writes help and version text with output._emit, so that a stdout which
    does not take it is an output error, where argparse would drop the
    OSError and exit 0, or write the help of a closed stdout to stderr.
    The usage and error of a usage error go to stderr with output._note,
    which drops what a failing stderr raises, on every Python version."""

    def print_usage(self, file=None):
        # only error() calls this, with sys.stderr, which argparse replaces
        # by stdout when it is None
        _note(self.format_usage(), end="")

    def _print_message(self, message, file=None):
        if not message:
            return
        if file is sys.stdout:
            _emit(message)
        else:
            _note(message, end="")


def _bound(text):
    """The value of --max-order: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def parse(argv):
    """argv read by argparse: the command and its arguments, no handler, or
    --help or --version written to stdout and exit 0, or the usage and an
    error on stderr and exit 2."""
    parser = _Parser(
        prog="affineplane",
        description="Construct finite affine planes and verify their translation-group and "
                    "endomorphism-ring structure.",
    )
    parser.add_argument(VERSION, action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, takes_plane, flags) in COMMANDS.items():
        command = commands.add_parser(name, help=text, description=text)
        if takes_plane:
            command.add_argument("plane", help="the plane's incidence document (JSON)")
        for flag in flags:
            metavar, flag_help, default = FLAGS[flag]
            if metavar is None:
                command.add_argument(flag, action="store_true", help=flag_help)
            else:
                kind = _bound if flag == "--max-order" else int if metavar == "INT" else str
                command.add_argument(flag, metavar=metavar, type=kind, default=default,
                                     required=default is REQUIRED, help=flag_help)
    return parser.parse_args(argv)
