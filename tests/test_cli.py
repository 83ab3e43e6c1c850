"""End-to-end exercises of every subcommand through main()."""

from __future__ import annotations

import contextlib
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ranktwo import braids
from ranktwo.christoffel import christoffel_basis
from ranktwo.cli import _COMMANDS, main
from ranktwo.words import FreeWord

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
# the order of the top-level help listing is part of the output
NAMES = [
    "christoffel", "basis-test", "chain", "palindromize", "conjugates", "normal-form",
    "primitive", "braid-apply", "braid-eq", "decompose", "relations-check",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_christoffel(capsys):
    code, out, err = run(capsys, "christoffel", "5", "2")
    assert code == 0 and err == ""
    assert out == "aaabaab\n"
    code, out, _ = run(capsys, "christoffel", "5", "2", "--upper")
    assert code == 0 and out == "baabaaa\n"
    code, out, _ = run(capsys, "christoffel", "--", "-5", "2")
    assert code == 0 and out == "bAAbAAA\n"


def test_christoffel_path(capsys):
    code, out, _ = run(capsys, "christoffel", "5", "2", "--path")
    assert code == 0
    assert out.splitlines() == [
        "aaabaab",
        "0 0",
        "1 0",
        "2 0",
        "3 0",
        "3 1",
        "4 1",
        "5 1",
        "5 2",
    ]


def test_christoffel_svg(capsys, tmp_path):
    target = tmp_path / "path.svg"
    code, out, _ = run(capsys, "christoffel", "5", "2", "--svg", str(target))
    assert code == 0 and out == "aaabaab\n"
    text = target.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_christoffel_svg_to_an_unwritable_file_prints_nothing(capsys, tmp_path):
    target = tmp_path / "missing" / "path.svg"
    code, out, err = run(capsys, "christoffel", "1", "1", "--path", "--svg", str(target))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not target.parent.exists()


def test_christoffel_rejects_bad_pair(capsys):
    code, out, err = run(capsys, "christoffel", "2", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    # a word past the letter limit is refused before it is built
    code, out, err = run(capsys, "christoffel", "10000000000", "1")
    assert code == 2 and out == "" and err.startswith("error:") and len(err) < 100


def test_basis_test(capsys):
    code, out, _ = run(capsys, "basis-test", "abaab", "aba")
    assert code == 0 and out == "BASIS\n"
    code, out, _ = run(capsys, "basis-test", "ab", "ba")
    assert code == 1 and out == "NOT-BASIS\n"


def test_basis_test_oracle_and_trace(capsys):
    code, out, _ = run(capsys, "basis-test", "Ba", "b", "--oracle", "--trace")
    assert code == 0
    assert out.splitlines() == [
        "BASIS",
        "oracle BASIS",
        "step invert-second",
        "step quadrant-map T",
        "step positive-pair ba b",
        "step chain-length 1",
    ]


def test_basis_test_traces_a_deep_conjugation_as_one_step(capsys):
    # a Christoffel basis conjugated by 200,000 seeded letters, decided and traced in well
    # under a second: the words are too long for one argument of a process (at most
    # 128 KiB on Linux), so they go to main directly
    rng = random.Random(27)
    x = ["a"]
    while len(x) < 200_000:
        letter = rng.choice("abAB")
        if letter != x[-1].swapcase():
            x.append(letter)
    conjugator = FreeWord("".join(x))
    u0, v0 = christoffel_basis((5, 3), (3, 2))
    u, v = u0.conjugated_by(conjugator), v0.conjugated_by(conjugator)
    start = time.perf_counter()
    code, out, err = run(capsys, "basis-test", u.letters, v.letters, "--trace")
    elapsed = time.perf_counter() - start
    lines = out.splitlines()
    assert code == 0 and err == "" and len(lines) == 5
    assert elapsed < 0.5, elapsed
    assert lines[0] == "BASIS" and lines[2:] == [
        "step quadrant-map id", "step positive-pair %s %s" % (u0, v0), "step chain-length 11",
    ]
    assert lines[1] == "step conjugate " + conjugator.letters.swapcase()


def test_basis_test_rejects_bad_letters(capsys):
    code, out, err = run(capsys, "basis-test", "axb", "b")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_chain(capsys):
    code, out, _ = run(capsys, "chain", "abaab", "aba")
    assert code == 0
    assert out.splitlines() == [
        "abaab aba",
        "baaba baa",
        "aabab aab",
        "ababa aba",
        "babaa baa",
        "abaab aab",
        "baaba aba",
    ]


def test_chain_infinite(capsys):
    code, out, _ = run(capsys, "chain", "aa", "aaa")
    assert code == 0 and out == "INFINITE\n"


def test_chain_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "chain", "aB", "b")
    assert code == 2 and err.startswith("error:")


def test_palindromize(capsys):
    code, out, _ = run(capsys, "palindromize", "abaab", "aba")
    assert code == 0 and out == "ababa aba\n"
    code, _, err = run(capsys, "palindromize", "ab", "b")
    assert code == 2 and err.startswith("error:")


def test_conjugates(capsys):
    code, out, _ = run(capsys, "conjugates", "aab", "ab")
    assert code == 0
    assert out.splitlines() == ["aba ab", "baa ba", "aab ab", "aba ba"]
    # the pair is refused before the first member is printed
    code, out, err = run(capsys, "conjugates", "ab", "ba")
    assert code == 2 and out == "" and err.startswith("error:")


class _LineCounter:
    """A stdout that counts the lines written to it and keeps none."""

    def __init__(self) -> None:
        self.lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("command", ["chain", "conjugates"])
def test_chain_output_is_printed_member_by_member(command):
    # a Fibonacci basis of 10,946 letters: its 10,945 members hold 120 MB
    u, v = christoffel_basis((4181, 2584), (2584, 1597))
    n = len(u) + len(v)
    sink = _LineCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main([command, u.letters, v.letters])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.lines == n - 1
    # memory linear in |u| + |v|: a few copies of one member
    assert peak < 100 * n, peak


def test_normal_form(capsys):
    code, out, _ = run(capsys, "normal-form", "abaab", "aba")
    assert code == 0 and out == "aabab aab\n"
    code, _, err = run(capsys, "normal-form", "ab", "ba")
    assert code == 2 and err.startswith("error:")


def test_primitive(capsys):
    code, out, _ = run(capsys, "primitive", "baabaaa")
    assert code == 0 and out == "PRIMITIVE\n"
    code, out, _ = run(capsys, "primitive", "abAB")
    assert code == 1 and out == "NOT-PRIMITIVE\n"


def test_braid_apply(capsys):
    code, out, _ = run(capsys, "braid-apply", "1")
    assert code == 0 and out == "a ab\n"
    code, out, _ = run(capsys, "braid-apply", "1 2 3", "--word", "a")
    assert code == 0 and out == "B\n"
    code, out, _ = run(capsys, "braid-apply", "--", "-2")
    assert code == 0 and out == "ba b\n"
    code, _, err = run(capsys, "braid-apply", "5")
    assert code == 2 and err.startswith("error:")
    # an image past the letter limit is refused, with a short message
    code, out, err = run(capsys, "braid-apply", " ".join(["1 -2 3"] * 20))
    assert code == 2 and out == "" and err.startswith("error:") and len(err) < 100


def test_braid_eq(capsys):
    code, out, _ = run(capsys, "braid-eq", "1 2 1", "2 1 2")
    assert code == 0 and out == "EQUAL\n"
    code, out, _ = run(capsys, "braid-eq", "1", "2")
    assert code == 1 and out == "NOT-EQUAL\n"
    code, out, _ = run(capsys, "braid-eq", "--", "-1 2", "2 -1")
    assert code == 1 and out == "NOT-EQUAL\n"
    # a word past the normal form's letter limit is refused at once
    # the limit counts the words as given, not the middles left once
    # their common ends cancel
    too_long = " ".join(["1"] * 8193)
    for other in ("", too_long, too_long + " 2"):
        for flags in ((), ("--mod-center",)):
            code, out, err = run(capsys, "braid-eq", too_long, other, *flags)
            assert (code, out, err) == (2, "", "error: cannot compare braids of more than 8192 letters\n")


def test_braid_eq_mod_center(capsys):
    twist = "1 2 3 1 2 3 1 2 3 1 2 3"
    code, out, _ = run(capsys, "braid-eq", twist, "", "--mod-center")
    assert code == 0 and out == "EQUAL\n"
    code, out, _ = run(capsys, "braid-eq", twist, "")
    assert code == 1 and out == "NOT-EQUAL\n"


def test_braid_letter_four(capsys):
    # 4 lifts Dt^-1 and -4 lifts Dt
    code, out, _ = run(capsys, "braid-apply", "4")
    assert code == 0 and out == "aB b\n"
    code, out, _ = run(capsys, "braid-apply", "--", "-4")
    assert code == 0 and out == "ab b\n"
    code, out, _ = run(capsys, "braid-eq", "--", "4", "-3 -2 1 2 3")
    assert code == 0 and out == "EQUAL\n"
    code, out, _ = run(capsys, "braid-eq", "--", "-4", "-3 -2 1 2 3")
    assert code == 1 and out == "NOT-EQUAL\n"
    twist = "1 2 3 1 2 3 1 2 3 1 2 3"
    code, out, _ = run(capsys, "braid-eq", "--mod-center", "--", "-4 " + twist, "-3 -2 -1 2 3")
    assert code == 0 and out == "EQUAL\n"
    code, out, _ = run(capsys, "braid-eq", "--", "-4 " + twist, "-3 -2 -1 2 3")
    assert code == 1 and out == "NOT-EQUAL\n"
    code, out, _ = run(capsys, "braid-eq", "--mod-center", "4 " + twist, "-4")
    assert code == 1 and out == "NOT-EQUAL\n"


def test_readme_session(capsys):
    # every `$ ranktwo ...` command of the README prints what follows it there
    session = README.split("```sh\n$ ranktwo ", 1)[1].split("```", 1)[0]
    commands = ("ranktwo " + session).split("$ ")
    assert len(commands) == 10
    for block in commands:
        command, expected = block.split("\n", 1)
        argv = shlex.split(command)
        assert argv[0] == "ranktwo"
        code, out, err = run(capsys, *argv[1:])
        assert (code, out, err) == (1 if out.startswith("NOT-") else 0, expected, ""), command


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "ababa", "aba")
    assert code == 0
    assert out.splitlines() == ["G D G E", "3", "aba"]
    code, out, _ = run(capsys, "decompose", "a", "b")
    assert code == 0
    assert out.splitlines() == ["", "0", "1"]
    code, _, err = run(capsys, "decompose", "aa", "ab")
    assert code == 2 and err.startswith("error:")


def test_relations_check(capsys):
    code, out, _ = run(capsys, "relations-check", "lemma1.3")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    code, out, _ = run(capsys, "relations-check", "eq2.1", "--kmax", "2")
    assert code == 0
    assert all(line.startswith("PASS ") for line in out.splitlines())
    code, out, err = run(capsys, "relations-check", "eq2.3-2.4", "--kmax", "257")
    assert (code, out, err) == (2, "", "error: kmax must be at most 256\n")
    code, out, err = run(capsys, "relations-check", "eq2.1", "--kmax", "-1")
    assert (code, out, err) == (2, "", "error: kmax must be nonnegative\n")


def test_relations_check_reports_a_false_relation(capsys, monkeypatch):
    domain, compare, labels, per_k = braids._RELATIONS["lemma1.2"]
    labels = (labels[0], "s1 s2 = s2 s1")
    monkeypatch.setitem(braids._RELATIONS, "lemma1.2", (domain, compare, labels, per_k))
    code, out, err = run(capsys, "relations-check", "lemma1.2")
    assert (code, out, err) == (1, "PASS d s4 d' = s1\nFAIL s1 s2 = s2 s1\n", "")


def test_unknown_suite_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["relations-check", "nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["basis-test", "--", "ab", "--"], ["braid-eq", "--", "", "--"]])
def test_a_positional_after_a_second_double_dash_is_a_parse_error(capsys, argv):
    # argparse hands that positional over as an empty list, which must not read as a
    # word or braid: a crash there exits 1, the code of a negative verdict
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    # a refusal goes through the subcommand's own parser, so its usage is the one printed
    assert "Traceback" not in err and err.startswith(("usage: ranktwo %s " % argv[0], "error:"))


def test_parse_errors_echo_at_most_64_characters_of_a_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["christoffel", "1" * 100000, "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "ranktwo christoffel: error: argument p: invalid int value: '%s...' (100000 characters)\n"
        % ("1" * 64)
    )
    # a value of 64 characters is printed whole, and so is a list of choices
    with pytest.raises(SystemExit):
        main(["christoffel", "x" * 64, "1"])
    assert capsys.readouterr().err.endswith(": error: argument p: invalid int value: '%s'\n" % ("x" * 64))
    with pytest.raises(SystemExit):
        main(["relations-check", "nope"])
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err and all(name in err.split("error:")[1] for name in braids.SUITE_NAMES)


# values for the argv fuzz by argument name, and junk that fits none of them
_WORDS = ["", "a", "b", "ab", "ba", "aa", "aba", "aab", "abaab", "aaabaab", "Ab", "aB", "abAB"]
_BRAIDS = ["", "1", "1 2", "1 -2 3", "-1 2", "4 4", "2 -4", "3 1", "-4"]
_INTEGERS = ["0", "1", "2", "3", "5", "8", "13", "-1", "-3", "300"]
_FUZZ_VALUES = {
    "u": _WORDS, "v": _WORDS, "w": _WORDS, "--word": _WORDS,
    "braid": _BRAIDS, "b1": _BRAIDS, "b2": _BRAIDS,
    "p": _INTEGERS, "q": _INTEGERS, "--kmax": _INTEGERS,
    "suite": ["eq2.1", "lemma1.3", "fg-identity", "nope"], "--svg": ["path.svg", ""],
}
_JUNK = ["", " ", "x", "-", "--x", "-h", "1.5", "G", "--"]
# about 100 KB each: an invalid integer, a spaced run, quotes, an unknown and an ambiguous option
_HUGE = ["1" * 100000, "z " * 50000, "'\"" * 50000, "--" + "x" * 100000, "--=" + "q" * 100000]
# the most stderr any call may write: a usage and a shortened message
_STDERR_BOUND = 1000


def _fuzz_tokens(rng: random.Random, argument: str) -> list[str]:
    """One argument as argv tokens: a flag, a flag and its value, or a value."""
    tokens = [argument] if argument.startswith("--") else []
    if argument in _FUZZ_VALUES:
        tokens.append(rng.choice(_JUNK if rng.random() < 0.15 else _FUZZ_VALUES[argument]))
    return tokens


def test_seeded_argv_fuzz_keeps_exit_codes_and_stderr_bounded(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # for --svg FILE
    rng = random.Random(2205)
    commands = {name: arguments for name, _, arguments, _ in _COMMANDS}
    codes = set()
    for i in range(2000):
        name = rng.choice([*commands, "nope"])
        # the arguments in any order, a flag kept with its value; some left out
        chunks = [
            _fuzz_tokens(rng, argument) for argument in commands.get(name, ())
            if rng.random() < (0.3 if argument.startswith("--") else 0.9)
        ]
        rng.shuffle(chunks)
        argv = [token for chunk in chunks for token in chunk]
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            argv.insert(rng.randint(0, len(argv)), "--")
        if i % 20 == 0:
            argv.insert(rng.randint(0, len(argv)), rng.choice(_HUGE))
        try:
            code = main([name] + argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), [name] + argv
        assert len(err) < _STDERR_BOUND, ([name] + argv, err[:200])
        codes.add(code)
    assert codes == {0, 1, 2}


def test_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", NAMES)
def test_subcommand_help(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ranktwo %s " % name)


def test_help_lists_the_subcommands_in_table_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out.split("positional arguments:\n", 1)[1].splitlines()[1:12]
    assert [line.split()[0] for line in listed] == NAMES == [row[0] for row in _COMMANDS]


def test_readme_synopsis_matches_the_table():
    # the README's "Command line" synopsis: one line per subcommand, in table order
    synopsis = README.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
    assert [line.split()[1] for line in synopsis] == NAMES
    for line, (_, _, arguments, _) in zip(synopsis, _COMMANDS):
        words = line.split()[2:]
        flags = [word.strip("[]") for word in words if word.startswith("[--")]
        positionals = [word for word in words if word[0] != "[" and word[-1] != "]"]
        assert flags == [name for name in arguments if name.startswith("--")], line
        assert len(positionals) == sum(not name.startswith("--") for name in arguments), line


def test_import_loads_no_heavy_stdlib_modules():
    # every CLI call and benchmark probe pays for these imports; -S keeps
    # site-packages .pth files from importing anything on their own
    probe = "import ranktwo, ranktwo.cli, sys; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
