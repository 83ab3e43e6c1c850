"""Command line front end.

Every subcommand wraps exactly one library operation.  Decision
commands print a verdict keyword and mirror it in the exit code, so
shell pipelines need no output parsing: 0 for positive verdicts, 1 for
negative ones, 2 for unparsable input or violated preconditions.

Braid arguments contain spaces and signs, so quote them and put ``--``
before a braid that starts with a negative letter:

    ranktwo braid-eq -- "-1 2" "2 -1"
"""

from __future__ import annotations

import argparse
import sys

from .braids import SUITE_NAMES, BraidWord, braid_equal, eq_mod_center, f2_action, relation_suite
from .chains import (
    conjugate_bases,
    is_basis,
    maximal_chain,
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


def _cmd_christoffel(args: argparse.Namespace) -> int:
    word = (
        upper_christoffel_word(args.p, args.q)
        if args.upper
        else christoffel_word(args.p, args.q)
    )
    print(word)
    if args.path:
        for x, y in word_path(word):
            print("%d %d" % (x, y))
    if args.svg is not None:
        with open(args.svg, "w", encoding="ascii") as handle:
            handle.write(path_svg(args.p, args.q, upper=args.upper))
    return 0


def _cmd_basis_test(args: argparse.Namespace) -> int:
    u, v = _pair(args)
    verdict = is_basis(u, v)
    print("BASIS" if verdict.is_basis else "NOT-BASIS")
    ok = verdict.is_basis
    if args.oracle:
        oracle = nielsen_dehn_oracle(u, v)
        print("oracle %s" % ("BASIS" if oracle else "NOT-BASIS"))
        ok = ok and oracle
    if args.trace:
        for record in verdict.trace:
            print(" ".join(["step"] + [str(part) for part in record]))
    return 0 if ok else 1


def _cmd_chain(args: argparse.Namespace) -> int:
    chain = maximal_chain(*_pair(args))
    if chain.is_infinite:
        print("INFINITE")
        return 0
    for u, v in chain.pairs:
        print("%s %s" % (u, v))
    return 0


def _cmd_palindromize(args: argparse.Namespace) -> int:
    u, v = palindromize(*_pair(args))
    print("%s %s" % (u, v))
    return 0


def _cmd_conjugates(args: argparse.Namespace) -> int:
    for u, v in conjugate_bases(*_pair(args)):
        print("%s %s" % (u, v))
    return 0


def _cmd_normal_form(args: argparse.Namespace) -> int:
    u, v = christoffel_normal_form(*_pair(args))
    print("%s %s" % (u, v))
    return 0


def _cmd_primitive(args: argparse.Namespace) -> int:
    if is_primitive(FreeWord.parse(args.w)):
        print("PRIMITIVE")
        return 0
    print("NOT-PRIMITIVE")
    return 1


def _cmd_braid_apply(args: argparse.Namespace) -> int:
    phi = f2_action(BraidWord.parse(args.braid))
    if args.word is not None:
        print(phi(FreeWord.parse(args.word)))
    else:
        print("%s %s" % (phi.image_a, phi.image_b))
    return 0


def _cmd_braid_eq(args: argparse.Namespace) -> int:
    b1 = BraidWord.parse(args.b1)
    b2 = BraidWord.parse(args.b2)
    same = eq_mod_center(b1, b2) if args.mod_center else braid_equal(b1, b2)
    print("EQUAL" if same else "NOT-EQUAL")
    return 0 if same else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    standard, offset, conjugator = sturmian_position(*_pair(args))
    print(format_sturmian(standard))
    print(offset)
    print(conjugator)
    return 0


def _cmd_relations_check(args: argparse.Namespace) -> int:
    failed = False
    for label, ok in relation_suite(args.suite, kmax=args.kmax):
        print("%s %s" % ("PASS" if ok else "FAIL", label))
        failed = failed or not ok
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranktwo",
        description="Free group bases, Christoffel words, and braid actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("christoffel", help="Christoffel word for a lattice vector")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--upper", action="store_true", help="reversed (upper) word")
    p.add_argument("--path", action="store_true", help="also print the lattice path")
    p.add_argument("--svg", metavar="FILE", help="write an SVG drawing of the path")
    p.set_defaults(func=_cmd_christoffel)

    p = sub.add_parser("basis-test", help="decide whether a pair is a basis")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--oracle", action="store_true", help="cross-check via the commutator")
    p.add_argument("--trace", action="store_true", help="print normalization steps")
    p.set_defaults(func=_cmd_basis_test)

    p = sub.add_parser("chain", help="maximal chain of a positive pair")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("palindromize", help="palindromic conjugate of a basis")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_palindromize)

    p = sub.add_parser("conjugates", help="all cyclically reduced conjugate bases")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_conjugates)

    p = sub.add_parser("normal-form", help="Christoffel basis conjugate to a basis")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("primitive", help="test membership in some basis")
    p.add_argument("w")
    p.set_defaults(func=_cmd_primitive)

    p = sub.add_parser("braid-apply", help="automorphism induced by a braid")
    p.add_argument("braid")
    p.add_argument("--word", help="apply to one word instead of printing images")
    p.set_defaults(func=_cmd_braid_apply)

    p = sub.add_parser("braid-eq", help="equality of two braids")
    p.add_argument("b1")
    p.add_argument("b2")
    p.add_argument("--mod-center", action="store_true", help="compare modulo the center")
    p.set_defaults(func=_cmd_braid_eq)

    p = sub.add_parser("decompose", help="standard decomposition of a positive basis")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("relations-check", help="run one relation suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--kmax", type=int, default=8, help="largest exponent to try")
    p.set_defaults(func=_cmd_relations_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
