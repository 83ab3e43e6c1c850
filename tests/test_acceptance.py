"""Acceptance suite: one test per shipped guarantee, exact throughout.

Every check is an identity over exact integers or words, so there are
no tolerances anywhere.  Each test prints a single summary line; run
with ``pytest -v`` to get the per-criterion verdicts, or ``-s`` to see
the summary lines too.
"""

from __future__ import annotations

import inspect
import random
import types
from contextlib import contextmanager
from itertools import product

import ranktwo
from ranktwo.braids import (
    SUITE_NAMES,
    BraidWord,
    ExtBraid,
    delta,
    f2_action,
    from_aut_generator,
    gl2_image,
    relation_suite,
)
from ranktwo.chains import (
    in_same_chain,
    is_basis,
    is_basis_positive,
    maximal_chain,
    nielsen_dehn_oracle,
    step_backward,
)
from ranktwo.christoffel import (
    christoffel_basis,
    christoffel_normal_form,
    christoffel_path,
    christoffel_word,
    satisfies_path_conditions,
    upper_christoffel_word,
    verify_factorization,
)
from ranktwo.cli import main
from ranktwo.morphisms import (
    F2Morphism,
    Mat2,
    eval_sturmian,
    generator_inverse,
    inner,
    inner_witness,
)
from ranktwo.words import FreeWord


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL - %s" % (number, text))
        raise
    print("ACCEPTANCE %d: PASS - %s" % (number, text))


def _positive_words_by_length(max_len: int) -> dict[int, list[FreeWord]]:
    return {
        n: [FreeWord("".join(p)) for p in product("ab", repeat=n)]
        for n in range(1, max_len + 1)
    }


def test_01_christoffel_values():
    with criterion(1, "pinned Christoffel words in all four quadrants"):
        assert str(christoffel_word(1, 0)) == "a"
        assert str(christoffel_word(0, 1)) == "b"
        assert str(christoffel_word(5, 2)) == "aaabaab"
        assert str(christoffel_word(5, -2)) == "aaaBaaB"
        assert str(christoffel_word(-5, 2)) == "bAAbAAA"
        assert str(christoffel_word(-5, -2)) == "BAABAAA"


def test_02_factorization_law():
    with criterion(2, "unimodular factorization over all nonnegative quadruples, sum <= 30"):
        count = 0
        for p in range(31):
            for q in range(31 - p):
                for r in range(31 - p - q):
                    for s in range(31 - p - q - r):
                        if p * s - q * r != 1:
                            continue
                        assert verify_factorization(p, q, r, s), (p, q, r, s)
                        count += 1
        assert count == 277


def test_03_basis_lifting():
    with criterion(3, "every unimodular vector pair with |p|+|q|+|r|+|s| <= 24 lifts to a basis"):
        count = 0
        n = 24
        for p in range(-n, n + 1):
            for q in range(-(n - abs(p)), n - abs(p) + 1):
                rest = n - abs(p) - abs(q)
                for r in range(-rest, rest + 1):
                    for s in range(-(rest - abs(r)), rest - abs(r) + 1):
                        if abs(p * s - q * r) != 1:
                            continue
                        u, v = christoffel_basis((p, q), (r, s))
                        assert is_basis(u, v).is_basis, (p, q, r, s)
                        assert nielsen_dehn_oracle(u, v), (p, q, r, s)
                        count += 1
        assert count > 2000


def test_04_worked_chain(capsys):
    with criterion(4, "the seven-pair chain, its palindromic middle, and its conjugates via the CLI"):
        assert main(["chain", "abaab", "aba"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "abaab aba",
            "baaba baa",
            "aabab aab",
            "ababa aba",
            "babaa baa",
            "abaab aab",
            "baaba aba",
        ]
        assert maximal_chain(FreeWord("abaab"), FreeWord("aba")).length == 6
        assert main(["palindromize", "abaab", "aba"]) == 0
        assert capsys.readouterr().out == "ababa aba\n"
        assert main(["conjugates", "abaab", "aba"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7


def test_05_decision_equivalence():
    with criterion(5, "chain criterion matches the commutator oracle on all positive pairs, |u|+|v| <= 14"):
        words = _positive_words_by_length(13)
        pairs = 0
        bases = 0
        for i in range(1, 14):
            for j in range(1, 15 - i):
                for u in words[i]:
                    for v in words[j]:
                        got = is_basis_positive(u, v)
                        assert got == nielsen_dehn_oracle(u, v), (str(u), str(v))
                        pairs += 1
                        bases += got
        assert pairs == 393220
        assert bases == 1102


def test_06_chain_symmetry_and_palindromes():
    with criterion(6, "chain reversal symmetry, palindromic uniqueness, and even-length exclusion, |u|+|v| <= 14"):
        words = _positive_words_by_length(13)
        chains = 0
        for i in range(1, 14):
            for j in range(1, 15 - i):
                for u in words[i]:
                    for v in words[j]:
                        if not is_basis_positive(u, v):
                            continue
                        assert len(u) % 2 == 1 or len(v) % 2 == 1
                        if step_backward(u, v) is not None:
                            continue  # each chain is checked once, from its left end
                        chain = maximal_chain(u, v).pairs
                        r = len(chain) - 1
                        for k, (cu, cv) in enumerate(chain):
                            assert cu.reverse() == chain[r - k][0]
                            assert cv.reverse() == chain[r - k][1]
                        palindromic = [
                            k
                            for k, (cu, cv) in enumerate(chain)
                            if cu.is_palindrome and cv.is_palindrome
                        ]
                        if len(u) % 2 == 1 and len(v) % 2 == 1:
                            assert palindromic == [(len(u) + len(v)) // 2 - 1]
                        else:
                            assert palindromic == []
                        chains += 1
        assert chains > 100


def test_07_relation_suites():
    with criterion(7, "all eleven relation suites hold with exponents up to 8"):
        for name in SUITE_NAMES:
            for label, ok in relation_suite(name, kmax=8):
                assert ok, "%s: %s" % (name, label)


def test_08_braid_to_morphism_values():
    with criterion(8, "pinned values of the braid-to-automorphism maps and the section witness"):
        assert f2_action(BraidWord(4, (4,))) == generator_inverse("Dt")
        d = delta(4)
        f_delta = f2_action(d)
        assert str(f_delta(FreeWord("a"))) == "B"
        assert str(f_delta(FreeWord("b"))) == "a"
        assert f2_action(d ** 4) == F2Morphism.identity()
        lift = ExtBraid.identity()
        for name in ("O", "E", "O", "Dt", "O", "E", "O"):
            lift = lift * from_aut_generator(name)
        assert lift.equal_mod_center(ExtBraid(BraidWord(4, (1,))))


def test_09_inner_action_and_witnesses():
    with criterion(9, "the kernel generators act by conjugation and witnesses appear exactly on matrix-trivial braids"):
        x = (1, -3)
        y = (2, 1, -3, -2)
        letter_braid = {"x": x, "y": y, "X": tuple(-l for l in reversed(x)), "Y": tuple(-l for l in reversed(y))}
        letter_word = {"x": "a", "X": "A", "y": "Ba", "Y": "Ab"}

        assert f2_action(BraidWord(4, x)) == inner(FreeWord("a"))
        assert f2_action(BraidWord(4, y)) == inner(FreeWord("Ba"))

        sequences = [""]
        for _ in range(6):
            sequences = [
                s + c
                for s in sequences
                for c in "xXyY"
                if not s or s[-1] != c.swapcase()
            ]
            for s in sequences:
                braid = BraidWord(4, tuple(l for c in s for l in letter_braid[c]))
                expected = FreeWord("")
                for c in s:
                    expected = expected * FreeWord(letter_word[c])
                assert expected != FreeWord("")
                assert f2_action(braid) == inner(expected), s
                assert inner_witness(f2_action(braid)) == expected, s

        rng = random.Random(20260815)
        seen_inner = 0
        for _ in range(1000):
            letters = tuple(
                rng.choice((1, 2, 3, 4, -1, -2, -3, -4))
                for _ in range(rng.randint(0, 12))
            )
            b = BraidWord(4, letters)
            witness = inner_witness(f2_action(b))
            assert (gl2_image(b) == Mat2.identity()) == (witness is not None)
            seen_inner += witness is not None
        assert seen_inner > 0
        for _ in range(200):
            parts = [rng.choice((x, y)) for _ in range(rng.randint(1, 3))]
            letters = tuple(l for part in parts for l in part)
            b = BraidWord(4, letters) * (delta(4) ** (4 * rng.choice((-1, 0, 1))))
            assert gl2_image(b) == Mat2.identity()
            assert inner_witness(f2_action(b)) is not None


def test_10_normal_form_invariance():
    with criterion(10, "the Christoffel normal form is conjugation invariant and conjugate to its input"):
        rng = random.Random(8153)
        for _ in range(500):
            tokens = tuple(
                (rng.choice(("G", "D", "Gt", "Dt")), 1)
                for _ in range(rng.randint(1, 8))
            )
            phi = eval_sturmian(tokens)
            u0, v0 = phi(FreeWord("a")), phi(FreeWord("b"))
            w = FreeWord("".join(rng.choice("abAB") for _ in range(rng.randint(0, 6))))
            u, v = u0.conjugated_by(w), v0.conjugated_by(w)
            nf = christoffel_normal_form(u, v)
            assert nf == christoffel_normal_form(u0, v0)
            assert in_same_chain(nf[0], nf[1], u0, v0)


def test_11_path_geometry():
    with criterion(11, "path conditions and the upper/lower relation for all coprime 0 < q < p <= 20"):
        import math

        for p in range(1, 21):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                assert satisfies_path_conditions(christoffel_path(p, q), p, q)
                lower = christoffel_word(p, q)
                upper = upper_christoffel_word(p, q)
                assert upper == lower.reverse()
                assert upper.is_conjugate_to(lower)


def test_12_public_surface():
    with criterion(12, "each public name is declared in one module's __all__ and re-exported flat by the package"):
        modules = (ranktwo.braids, ranktwo.chains, ranktwo.christoffel, ranktwo.morphisms, ranktwo.words)
        names = ranktwo.__all__
        assert names == sorted(set(names))
        public = [n for n in dir(ranktwo) if not n.startswith("_") and not inspect.ismodule(getattr(ranktwo, n))]
        assert public == names
        declared = [n for m in modules for n in m.__all__]
        assert len(declared) == len(set(declared)) and sorted(declared) == names
        for m in modules:
            for name in m.__all__:
                value = getattr(m, name)
                assert getattr(ranktwo, name) is value
                # a type alias such as SturmianWord is a class to inspect on Python 3.10
                if (inspect.isfunction(value) or inspect.isclass(value)) and not isinstance(value, types.GenericAlias):
                    assert value.__module__ == m.__name__, name
        namespace = {}
        exec("from ranktwo import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == names
