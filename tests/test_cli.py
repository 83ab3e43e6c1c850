"""End-to-end exercises of every subcommand through main()."""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ranktwo import braids
from ranktwo.cli import _COMMANDS, main

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
    code, _, err = run(capsys, "conjugates", "ab", "ba")
    assert code == 2 and err.startswith("error:")


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
    assert len(commands) == 9
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
