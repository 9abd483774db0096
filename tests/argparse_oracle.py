"""The command-line grammar as an ``argparse`` parser: the test oracle of
``nkdeform.cli.parse_args``.

``build_parser()`` declares the five subcommands, their arguments, choices
and defaults with ``argparse``, independently of ``cli.COMMANDS``.  A usage
error raises ``ValueError`` instead of printing argparse's usage text.
"""

import argparse
import re


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain negative numbers for values; a weight
        # such as -6,6 would otherwise be read as an unknown option.
        self._negative_number_matcher = re.compile(
            r"^-\d+(,-?\d+)*$|^-\d*\.\d+$"
        )

    def error(self, message):
        raise ValueError(message)


def build_parser(version):
    parser = _Parser(prog="nkdeform")
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + version
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, fixtures=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if fixtures:
            p.add_argument("--fixtures", metavar="PATH", default=None)

    p = sub.add_parser("tables")
    p.add_argument("which", choices=("prop-4.2", "thm-5.2-H", "thm-5.2-SU3"))
    add_common(p, fixtures=True)

    p = sub.add_parser("casimir")
    p.add_argument("--pair", required=True)
    p.add_argument("--hw", required=True)
    add_common(p)

    p = sub.add_parser("branch")
    p.add_argument("--coset", required=True)
    p.add_argument("--hw", required=True)
    add_common(p, fixtures=True)

    p = sub.add_parser("tensor")
    p.add_argument("--algebra", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_common(p)

    add_common(sub.add_parser("clifford-verify"))

    return parser
