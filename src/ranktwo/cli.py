"""Command line front end.

Every subcommand wraps exactly one library operation, and its row of
:data:`_COMMANDS` is its one description: name, help, each argument
with its ``add_argument`` keywords, and handler, in help listing order.
Decision commands print a verdict keyword and mirror it in the exit code,
so shell pipelines need no output parsing: 0 for positive verdicts, 1 for
negative ones, 2 for unparsable input or violated preconditions.

Braid arguments contain spaces and signs, so quote them and put ``--``
before a braid that starts with a negative letter:

    ranktwo braid-eq -- "-1 2" "2 -1"
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Iterable
from typing import NoReturn

from .braids import SUITE_NAMES, BraidWord, braid_equal, eq_mod_center, f2_action, relation_suite
from .chains import (
    _chain_members,
    _conjugate_members,
    is_basis,
    nielsen_dehn_oracle,
    palindromize,
    sturmian_position,
)
from .christoffel import (
    christoffel_normal_form,
    christoffel_word,
    is_primitive,
    path_svg,
    upper_christoffel_word,
    word_path,
)
from .morphisms import format_sturmian
from .words import FreeWord


def _pair(args: argparse.Namespace) -> tuple[FreeWord, FreeWord]:
    return FreeWord.parse(args.u), FreeWord.parse(args.v)


def _print_pairs(pairs: Iterable[tuple[object, object]]) -> int:
    for u, v in pairs:
        print("%s %s" % (u, v))
    return 0


def _print_verdict(holds: bool, yes: str, no: str) -> int:
    print(yes if holds else no)
    return 0 if holds else 1


def _cmd_christoffel(args: argparse.Namespace) -> int:
    word = (
        upper_christoffel_word(args.p, args.q)
        if args.upper
        else christoffel_word(args.p, args.q)
    )
    # the drawing is written first, so that a run that fails on it prints nothing
    if args.svg is not None:
        with open(args.svg, "w", encoding="ascii") as handle:
            handle.write(path_svg(args.p, args.q, upper=args.upper))
    print(word)
    if args.path:
        _print_pairs(word_path(word))
    return 0


def _cmd_basis_test(args: argparse.Namespace) -> int:
    u, v = _pair(args)
    verdict = is_basis(u, v)
    code = _print_verdict(verdict.is_basis, "BASIS", "NOT-BASIS")
    if args.oracle:
        code |= _print_verdict(nielsen_dehn_oracle(u, v), "oracle BASIS", "oracle NOT-BASIS")
    if args.trace:
        for record in verdict.trace:
            print(" ".join(["step"] + [str(part) for part in record]))
    return code


def _cmd_chain(args: argparse.Namespace) -> int:
    chain = _chain_members(*_pair(args))
    if chain is None:
        print("INFINITE")
        return 0
    return _print_pairs(chain[1])


def _cmd_braid_apply(args: argparse.Namespace) -> int:
    phi = f2_action(BraidWord.parse(args.braid))
    if args.word is None:
        return _print_pairs([(phi.image_a, phi.image_b)])
    print(phi(FreeWord.parse(args.word)))
    return 0


def _cmd_braid_eq(args: argparse.Namespace) -> int:
    b1 = BraidWord.parse(args.b1)
    b2 = BraidWord.parse(args.b2)
    same = eq_mod_center(b1, b2) if args.mod_center else braid_equal(b1, b2)
    return _print_verdict(same, "EQUAL", "NOT-EQUAL")


def _cmd_decompose(args: argparse.Namespace) -> int:
    standard, offset, conjugator = sturmian_position(*_pair(args))
    print(format_sturmian(standard))
    print(offset)
    print(conjugator)
    return 0


def _cmd_relations_check(args: argparse.Namespace) -> int:
    code = 0
    for label, ok in relation_suite(args.suite, kmax=args.kmax):
        code |= _print_verdict(ok, "PASS " + label, "FAIL " + label)
    return code


_PAIR = {"u": {}, "v": {}}

_COMMANDS = (
    ("christoffel", "Christoffel word for a lattice vector", {
        "p": {"type": int}, "q": {"type": int},
        "--upper": {"action": "store_true", "help": "reversed (upper) word"},
        "--path": {"action": "store_true", "help": "also print the lattice path"},
        "--svg": {"metavar": "FILE", "help": "write an SVG drawing of the path"},
    }, _cmd_christoffel),
    ("basis-test", "decide whether a pair is a basis", {
        **_PAIR,
        "--oracle": {"action": "store_true", "help": "cross-check via the commutator"},
        "--trace": {"action": "store_true", "help": "print normalization steps"},
    }, _cmd_basis_test),
    ("chain", "maximal chain of a positive pair", _PAIR, _cmd_chain),
    ("palindromize", "palindromic conjugate of a basis", _PAIR,
     lambda args: _print_pairs([palindromize(*_pair(args))])),
    ("conjugates", "all cyclically reduced conjugate bases", _PAIR,
     lambda args: _print_pairs(_conjugate_members(*_pair(args))[1])),
    ("normal-form", "Christoffel basis conjugate to a basis", _PAIR,
     lambda args: _print_pairs([christoffel_normal_form(*_pair(args))])),
    ("primitive", "test membership in some basis", {"w": {}}, lambda args: _print_verdict(
        is_primitive(FreeWord.parse(args.w)), "PRIMITIVE", "NOT-PRIMITIVE")),
    ("braid-apply", "automorphism induced by a braid", {
        "braid": {},
        "--word": {"help": "apply to one word instead of printing images"},
    }, _cmd_braid_apply),
    ("braid-eq", "equality of two braids", {
        "b1": {}, "b2": {},
        "--mod-center": {"action": "store_true", "help": "compare modulo the center"},
    }, _cmd_braid_eq),
    ("decompose", "standard decomposition of a positive basis", _PAIR, _cmd_decompose),
    ("relations-check", "run one relation suite", {
        "suite": {"choices": SUITE_NAMES},
        "--kmax": {"type": int, "default": 8, "help": "largest exponent to try"},
    }, _cmd_relations_check),
)


# a value argparse quotes in a message, as repr() writes it, past 64 characters; a pattern
# string, compiled by re on first use, since most processes never print an error
_LONG_QUOTED = r"""(['"])((?:\\.|(?!\1)[^\\]){64})(?:\\.|(?!\1)[^\\])+\1"""
# the longest message printed whole; argparse echoes unknown arguments unquoted
_MESSAGE_LIMIT = 500


def _bounded(message: str) -> str:
    """A message with each long quoted value cut to its first 64 characters, then the
    whole cut to _MESSAGE_LIMIT characters, each cut followed by its full length."""
    message = re.sub(
        _LONG_QUOTED, lambda m: "%s%s...%s (%d characters)" % (m[1], m[2], m[1], len(m[0]) - 2), message
    )
    if len(message) <= _MESSAGE_LIMIT:
        return message
    return "%s... (%d characters)" % (message[:_MESSAGE_LIMIT], len(message))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error messages stay short whatever the arguments."""

    def error(self, message: str) -> NoReturn:
        super().error(_bounded(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ranktwo",
        description="Free group bases, Christoffel words, and braid actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for argument, options in arguments.items():
            p.add_argument(argument, **options)
        p.set_defaults(func=handler, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse's value for a positional after a second "--"
        args.parser.error("an argument is missing after --")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % _bounded(str(exc)), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
