"""Mutants that the oracle tests of the fast paths must catch.

Each row names a file under ``src/ranktwo``, an exact piece of its text,
the text a plausible slip would leave there, and the tests that compare
that fast path with a slow oracle.  For each row the script copies
``src/`` to a temporary directory, makes the one replacement, and runs
each named test on its own against the copy; each must fail.  Unpatched, the
same tests must pass.  A row whose old text does not occur exactly once
fails, so a change that rewrites a mutated line must update its row.

Run from the repository root (tier-1 does not collect it)::

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_WORDS = "tests/test_words.py::"
_MORPHISMS = "tests/test_morphisms.py::"
_BRAIDS = "tests/test_braids.py::"
_CHAINS = "tests/test_chains.py::"

# (file, old text, new text, test node ids)
MUTANTS = [
    # the letter loop of short words reports one shared letter too few when all are shared
    ("words.py", "            k += 1\n        return n\n", "            k += 1\n        return n - 1\n", [
        _WORDS + "test_common_prefix_matches_letter_loop",
    ]),
    # the common-prefix bisection skips the letter at mid; only words whose first
    # mismatch lies past a 256-letter window reach it
    ("words.py", "            k = mid\n", "            k = mid + 1\n", [
        _WORDS + "test_common_prefix_finds_the_first_mismatch",
    ]),
    # the lowest differing bit, not byte, of the XOR window
    ("words.py", "bit_length() - 1) >> 3)", "bit_length() - 1))", [
        _WORDS + "test_common_prefix_finds_the_first_mismatch",
        _WORDS + "test_common_prefix_matches_letter_loop",
    ]),
    # XOR windows read big-endian, so the lowest set bit is the last differing letter
    ("words.py",
     'x = _from_bytes(s[k:end].encode("ascii"), "little") ^ _from_bytes(\n'
     '        t[k:end].encode("ascii"), "little"\n',
     'x = _from_bytes(s[k:end].encode("ascii"), "big") ^ _from_bytes(\n'
     '        t[k:end].encode("ascii"), "big"\n', [
        _WORDS + "test_common_prefix_finds_the_first_mismatch",
        _WORDS + "test_common_prefix_matches_letter_loop",
    ]),
    # the cancelled end of an earlier run read one letter too far into its inverse
    ("words.py", "off = len(prev) - end\n", "off = len(prev) - end + 1\n", [
        _WORDS + "test_conjugated_by_matches_the_product_with_the_inverse",
        _WORDS + "test_product_of_long_runs_with_cancelled_middles",
    ]),
    # the pair test of long words looks for the wrong seam byte
    ("words.py", 'return b" " in _seams(s)', 'return b"!" in _seams(s)', [
        _WORDS + "test_has_inverse_pair_in_long_words",
        _WORDS + "test_has_inverse_pair_matches_the_substring_definition",
    ]),
    # the pair test of short words finds a pair only in the generator-first order, not "Aa"
    ("words.py", "            if pair in s or reverse in s:\n", "            if pair in s:\n", [
        _WORDS + "test_reduction_matches_reference_stack",
    ]),
    # the pairs left after the replace passes looked for as the zero byte of the old
    # XOR with the next letter inverted, so none is found and the word stays unreduced
    ("words.py", "    i = seams.find(32)\n", "    i = seams.find(0)\n", [
        _WORDS + "test_reduction_matches_reference_stack",
    ]),
    # a cut one letter early, before the pair's first letter instead of between its two;
    # skipping the second of two overlapping pairs, as in "aAa", would be no slip, since
    # that pair then starts a run and the fold cancels it against the run before
    ("words.py", "cuts.append(i + 1)", "cuts.append(i)", [
        _WORDS + "test_reduction_matches_reference_stack",
    ]),
    # an elementary generator's image keeps its one cancelling pair
    ("morphisms.py", '.replace(x_inverse, image_inverse).replace(pair, "")', ".replace(x_inverse, image_inverse)", [
        _MORPHISMS + "test_each_elementary_map_cancels_in_exactly_one_letter_pair",
        _MORPHISMS + "test_apply_matches_substitute_then_reduce",
    ]),
    # the stored inverse images are sliced one generator off, so a letter folds with
    # the inverse of its neighbour's image
    ("morphisms.py", "images[rank:] + images[:rank]", "images[rank + 1:] + images[:rank + 1]", [
        _BRAIDS + "test_products_keep_the_inverse_images_of_their_left_factor",
        _BRAIDS + "test_f2_action_keeps_the_inverse_images_it_applies_with",
    ]),
    # a run that cancels part of the run before keeps one letter too many of it
    ("words.py", "top[3] = end - k\n", "top[3] = end - k + 1\n", [
        _WORDS + "test_multiply_group_axioms_small",
    ]),
    # x u x^-1 folded with x, not x^-1, as the inverse of its last run
    ("words.py", "(x_inverse, None, x)", "(x, None, x)", [
        _WORDS + "test_conjugated_by_matches_the_product_with_the_inverse",
    ]),
    # the conjugation's one trace step drops the letters of v's new conjugator
    ("chains.py", "        letters += y.letters[:run]\n", "", [
        _CHAINS + "test_conjugation_matches_reference_search",
        _CHAINS + "test_is_basis_records_at_most_one_conjugation_first",
    ]),
    # a signed letter permutation's translate table maps the inverse letters like the letters
    ("morphisms.py", "x + y + (x + y).swapcase()", "x + y + x + y", [
        _MORPHISMS + "test_letter_permutations_match_substitute_then_reduce",
    ]),
    # a letter and its inverse, such as "a" and "A", taken for a signed letter permutation
    ("morphisms.py", "if x.lower() != y.lower()", "if x != y", [
        _MORPHISMS + "test_letter_permutations_match_substitute_then_reduce",
    ]),
    # the short images written by the digits are left unreduced
    ("morphisms.py", "                s = _reduced(s, rank)\n", "", [
        _MORPHISMS + "test_elementary_maps_match_substitute_then_reduce",
    ]),
    # the second quadrant's map without the inversion: it moves the fourth quadrant
    ("chains.py", "lambda w: _T(w.inverse())", "lambda w: _T(w)", [
        _CHAINS + "test_quadrant_maps_are_their_letter_forms",
        _CHAINS + "test_conjugate_bases_round_trip_through_every_quadrant_map",
    ]),
    # the rotation along w^-1 taken when x runs further along w; "left > right" would be
    # no slip, since x[c] cannot start both runs, so they tie only at 0 and agree there
    ("chains.py", "if left >= right else", "if left <= right else", [
        _CHAINS + "test_conjugation_matches_reference_search",
    ]),
    # the steps to the two ends of a chain swapped, back read off the common prefix
    ("chains.py",
     "return _common_prefix(uv[::-1], vu[::-1]), _common_prefix(uv, vu)",
     "return _common_prefix(uv, vu), _common_prefix(uv[::-1], vu[::-1])", [
        _CHAINS + "test_worked_chain",
        _CHAINS + "test_chain_functions_match_reference_walk_exhaustively",
    ]),
    # the common ends stripped as far as the longer of the two runs
    ("chains.py", "c = min(_common_prefix(x, w)", "c = max(_common_prefix(x, w)", [
        _CHAINS + "test_conjugation_matches_reference_search",
    ]),
    # the center taken as generated by delta^2, not delta^4
    ("braids.py", "(p1 - p2) % 4 == 0", "(p1 - p2) % 2 == 0", [
        _BRAIDS + "test_eq_mod_center_tells_every_power_of_delta_from_the_center",
        _BRAIDS + "test_comparisons_cancel_common_ends_as_the_whole_normal_forms_say[4-alphabet1]",
    ]),
    # a letter twisted by the parity of p, as in the classical structure, not by p mod n
    ("braids.py", "twisted[p % order]", "twisted[p & 1]", [
        _BRAIDS + "test_normal_form_matches_both_oracles_where_left_multiplication_branches",
        _BRAIDS + "test_dual_and_classical_normal_forms_give_the_same_classes[4-5-37449-4887]",
        _BRAIDS + "test_dual_and_classical_normal_forms_give_the_same_classes[3-8-87381-2589]",
    ]),
    # the common suffix read on past the common prefix, so 1 1 1 against 1 1 compares
    # the empty word with the empty word
    ("braids.py", "while j < n - i and", "while j < n and", [
        _BRAIDS + "test_equality_agrees_with_the_image_oracle_on_seeded_pairs",
    ]),
    # a one-letter image taken for one that does not cancel at the seam
    ("braids.py", "        if xi[0] == y[0]:\n", "        if xi[0] == y[0] and len(y) > 1:\n", [
        _BRAIDS + "test_actions_match_the_product_by_product_composition[4-alphabet1-5]",
    ]),
    # the inverse image concatenated whole where the seam cancels
    ("braids.py", "images[i_inv] = yi[: len(yi) - k] + xi[k:]", "images[i_inv] = yi + xi", [
        _BRAIDS + "test_f2_action_keeps_the_inverse_images_it_applies_with",
        _BRAIDS + "test_f2_action_matches_the_composition_on_seeded_long_words",
    ]),
]
# christoffel.py's "(p - 1) // q" read as "p // q" would be no slip: with p and q coprime
# the two differ only when q = 1, and the loop then ends on x and y = x^(p-1) y, or on no
# x and y = x^p y, both the word x^p y

# imports the package from the copy and checks that it did, then hands over to pytest;
# exit 9, which pytest never uses, when the copy cannot be imported or was not
_RUN = """
import sys
try:
    import ranktwo
except Exception as exc:
    sys.exit(print("cannot import ranktwo:", exc) or 9)
if not ranktwo.__file__.startswith(sys.argv[1]):
    sys.exit(print("ranktwo imported from", ranktwo.__file__) or 9)
import pytest
sys.exit(pytest.main(sys.argv[2:]))
"""


def _run_tests(src: Path, tests: list[str]) -> int:
    args = [sys.executable, "-c", _RUN, str(src), "-q", "-p", "no:cacheprovider", *tests]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):
        print(result.stdout + result.stderr)
    return result.returncode


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        started = time.perf_counter()
        every_test = list(dict.fromkeys(t for *_, tests in MUTANTS for t in tests))
        code = _run_tests(src, every_test)
        print("unpatched: %s" % ("pass" if code == 0 else "FAIL (exit %d)" % code))
        failed += code != 0
        for file, old, new, tests in MUTANTS:
            path = src / "ranktwo" / file
            text = path.read_text()
            label = "%s: %r -> %r" % (file, old.strip(), new.strip())
            if text.count(old) != 1:
                print("FAIL %s: the old text occurs %d times" % (label, text.count(old)))
                failed += 1
                continue
            path.write_text(text.replace(old, new))
            try:
                # each test on its own; pytest exits 1 when a test fails, anything else is an error
                missed = [test for test in tests if _run_tests(src, [test]) != 1]
            finally:
                path.write_text(text)
            print("%s %s" % ("FAIL, not caught by %s:" % ", ".join(missed) if missed else "caught", label))
            failed += bool(missed)
        print("%d of %d checks failed in %.1f s" % (failed, len(MUTANTS) + 1, time.perf_counter() - started))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
