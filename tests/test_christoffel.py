"""Digital lower/upper words, lattice paths, and the associated bases."""

from __future__ import annotations

import doctest
import math
import random
from itertools import product

import pytest

import ranktwo.christoffel
from ranktwo.chains import NotABasisError, is_basis
from ranktwo.christoffel import (
    christoffel_basis,
    christoffel_normal_form,
    christoffel_path,
    christoffel_word,
    is_primitive,
    path_svg,
    satisfies_path_conditions,
    upper_christoffel_word,
    verify_factorization,
    word_path,
)
from ranktwo.words import IMAGE_LETTER_LIMIT, FreeWord


def _coprime_pairs(bound):
    for p in range(bound + 1):
        for q in range(bound + 1):
            if (p, q) != (0, 0) and math.gcd(p, q) == 1:
                yield p, q


def _reference_lower_letters(p: int, q: int) -> str:
    """The lower Christoffel word of a coprime pair p, q >= 0 by its floor formula.

    The k-th step goes up exactly when the segment crosses a horizontal
    lattice line during that step; kept as an oracle for the word built
    by partial quotients.
    """
    n = p + q
    return "".join(
        "b" if (k * q) // n > ((k - 1) * q) // n else "a" for k in range(1, n + 1)
    )


def _replaced_lower_letters(p: int, q: int) -> str:
    """The lower Christoffel word of a coprime pair p, q >= 0 by the same Euclid steps as
    christoffel._lower_word, applied to a^p b^q from the last up, one str.replace each;
    kept as an oracle for the word built by concatenation."""
    steps = []
    while p > 1 or q > 1:
        if p > q:
            k = (p - 1) // q
            steps.append(("b", "a" * k + "b"))
            p -= k * q
        else:
            k = (q - 1) // p
            steps.append(("a", "a" + "b" * k))
            q -= k * p
    s = "a" * p + "b" * q
    for letter, image in reversed(steps):
        s = s.replace(letter, image)
    return s


def _in_quadrant(s: str, p: int, q: int) -> str:
    """The word of (p, q) from that of (|p|, |q|): read backwards when
    p < 0, with a inverted when p < 0 and b inverted when q < 0."""
    if p < 0:
        s = s[::-1].replace("a", "A")
    if q < 0:
        s = s.replace("b", "B")
    return s


def _random_reduced(rng: random.Random, n: int) -> FreeWord:
    out = []
    while len(out) < n:
        ch = rng.choice("abAB")
        if not out or out[-1] != ch.swapcase():
            out.append(ch)
    return FreeWord("".join(out))


def test_doctests():
    failures, _ = doctest.testmod(ranktwo.christoffel)
    assert failures == 0


def test_pinned_words():
    cases = {
        (1, 0): "a",
        (0, 1): "b",
        (1, 1): "ab",
        (5, 2): "aaabaab",
        (2, 5): "abbabbb",
        (3, 1): "aaab",
        (1, 2): "abb",
        (2, 3): "ababb",
        (-5, 2): "bAAbAAA",
        (5, -2): "aaaBaaB",
        (-5, -2): "BAABAAA",
        (0, -1): "B",
    }
    for (p, q), expected in cases.items():
        assert str(christoffel_word(p, q)) == expected, (p, q)
    assert str(upper_christoffel_word(5, 2)) == "baabaaa"
    assert str(upper_christoffel_word(2, 3)) == "bbaba"
    assert str(upper_christoffel_word(1, 1)) == "ba"


def test_validation():
    with pytest.raises(ValueError):
        christoffel_word(0, 0)
    with pytest.raises(ValueError):
        christoffel_word(2, 2)
    with pytest.raises(ValueError):
        christoffel_word(4, -6)
    with pytest.raises(ValueError):
        upper_christoffel_word(-5, 2)
    with pytest.raises(ValueError):
        upper_christoffel_word(5, -2)


def test_word_matches_floor_formula():
    for p, q in _coprime_pairs(150):
        s = _reference_lower_letters(p, q)
        for sp, sq in product((1, -1), repeat=2):
            assert christoffel_word(sp * p, sq * q).letters == _in_quadrant(s, sp * p, sq * q)
    rng = random.Random(100_000)
    seen = 0
    while seen < 12:
        p, q = rng.randint(0, 100_000), rng.randint(0, 100_000)
        if math.gcd(p, q) == 1:
            seen += 1
            assert christoffel_word(p, q).letters == _reference_lower_letters(p, q), (p, q)


def test_word_matches_one_replace_per_partial_quotient():
    # seeded pairs of every size up to the letter limit, either slope
    rng = random.Random(1 << 20)
    seeded = [(IMAGE_LETTER_LIMIT - 3, 3)]
    while len(seeded) < 60:
        n = rng.randint(2, 2 ** rng.randint(2, 20))
        p = rng.randint(1, n - 1)
        if math.gcd(p, n) == 1:
            seeded.append((p, n - p))
    # consecutive Fibonacci numbers, whose partial quotients are all 1
    fibonacci = []
    x, y = 1, 1
    while x + y <= IMAGE_LETTER_LIMIT:
        fibonacci += [(x, y), (y, x)]
        x, y = y, x + y
    for p, q in [*_coprime_pairs(150), *seeded, *fibonacci]:
        assert christoffel_word(p, q).letters == _replaced_lower_letters(p, q), (p, q)


def test_letter_limit():
    n = IMAGE_LETTER_LIMIT
    assert christoffel_word(n - 1, 1).letters == "a" * (n - 1) + "b"
    for p, q in ((n, 1), (1, -n), (-n, -1), (10**10, 1)):
        with pytest.raises(ValueError, match="exceeds %d letters" % n):
            christoffel_word(p, q)
    with pytest.raises(ValueError, match="exceeds"):
        upper_christoffel_word(10**10, 1)


def test_upper_is_reversed_lower():
    for p, q in _coprime_pairs(12):
        assert upper_christoffel_word(p, q) == christoffel_word(p, q).reverse()


def test_abelianization_matches_pair():
    for p, q in _coprime_pairs(30):
        if p + q > 31:
            continue
        w = christoffel_word(p, q)
        assert w.abelianization() == (p, q)
        assert len(w) == p + q
        assert w.is_positive


def test_quadrant_coherence():
    # the four quadrant variants come from one positive word
    for p, q in _coprime_pairs(20):
        w = christoffel_word(p, q)
        t = FreeWord._make(w.letters.translate(str.maketrans("bB", "Bb")))
        assert christoffel_word(p, -q) == t
        assert christoffel_word(-p, q) == t.inverse()
        assert christoffel_word(-p, -q) == w.inverse()


def test_extremal_letters():
    for p, q in _coprime_pairs(15):
        if p >= 1 and q >= 1:
            w = str(christoffel_word(p, q))
            assert w[0] == "a" and w[-1] == "b"
            u = str(upper_christoffel_word(p, q))
            assert u[0] == "b" and u[-1] == "a"


def test_word_path():
    assert word_path(FreeWord("ab")) == ((0, 0), (1, 0), (1, 1))
    assert word_path(FreeWord("aB")) == ((0, 0), (1, 0), (1, -1))
    with pytest.raises(ValueError, match="rank 2 only"):
        word_path(FreeWord("abc", rank=3))
    path = christoffel_path(5, 2)
    assert len(path) == 8
    assert path == (
        (0, 0),
        (1, 0),
        (2, 0),
        (3, 0),
        (3, 1),
        (4, 1),
        (5, 1),
        (5, 2),
    )
    assert christoffel_path(-5, -2)[-1] == (-5, -2)


def test_path_conditions_hold():
    for p, q in _coprime_pairs(20):
        if q < 1 or p <= q:
            continue
        assert satisfies_path_conditions(christoffel_path(p, q), p, q), (p, q)


def test_path_conditions_reject_tampering():
    good = christoffel_path(5, 2)
    assert not satisfies_path_conditions(good, 5, 3)
    assert not satisfies_path_conditions(good[:-1], 5, 2)
    # a path that crosses above the segment
    above = word_path(FreeWord("baaabaa"))
    assert not satisfies_path_conditions(above, 5, 2)
    # same endpoint, non-unit step
    jump = ((0, 0), (3, 0), (3, 1), (4, 1), (5, 1), (5, 2))
    assert not satisfies_path_conditions(jump, 5, 2)
    # a path with too much area between it and the segment
    low = word_path(FreeWord("aaaaabb"))
    assert not satisfies_path_conditions(low, 5, 2)


def test_factorization_examples():
    assert verify_factorization(3, 1, 2, 1)
    assert verify_factorization(1, 0, 0, 1)
    assert verify_factorization(2, 1, 1, 1)
    with pytest.raises(ValueError):
        verify_factorization(2, 1, 3, 1)
    with pytest.raises(ValueError):
        verify_factorization(-1, 0, 0, -1)


def test_factorization_exhaustive():
    count = 0
    for p, q, r, s in product(range(17), repeat=4):
        if p * s - q * r != 1 or p + r > 16 or q + s > 16:
            continue
        assert verify_factorization(p, q, r, s), (p, q, r, s)
        count += 1
    assert count > 50


def test_christoffel_basis():
    u, v = christoffel_basis((3, 1), (2, 1))
    assert (str(u), str(v)) == ("aaab", "aab")
    u, v = christoffel_basis((1, 0), (0, 1))
    assert (str(u), str(v)) == ("a", "b")
    u, v = christoffel_basis((2, 1), (-1, 0))
    assert (str(u), str(v)) == ("aab", "A")
    with pytest.raises(ValueError):
        christoffel_basis((2, 1), (4, 2))
    with pytest.raises(ValueError):
        christoffel_basis((2, 0), (0, 1))


def test_christoffel_bases_are_bases():
    for p, q in _coprime_pairs(8):
        for r, s in _coprime_pairs(8):
            if abs(p * s - q * r) != 1:
                continue
            u, v = christoffel_basis((p, q), (r, s))
            assert is_basis(u, v).is_basis, (p, q, r, s)


def test_normal_form():
    u, v = christoffel_normal_form(FreeWord("abaab"), FreeWord("aba"))
    assert (str(u), str(v)) == ("aabab", "aab")
    u, v = christoffel_normal_form(FreeWord("a"), FreeWord("b"))
    assert (str(u), str(v)) == ("a", "b")
    with pytest.raises(NotABasisError):
        christoffel_normal_form(FreeWord("ab"), FreeWord("ba"))


def test_normal_form_conjugation_invariant():
    u, v = FreeWord("abaab"), FreeWord("aba")
    base = christoffel_normal_form(u, v)
    for w in (FreeWord("a"), FreeWord("ba"), FreeWord("aabA")):
        assert christoffel_normal_form(u.conjugated_by(w), v.conjugated_by(w)) == base
    # the normal form of a Christoffel pair is itself
    nu, nv = base
    assert christoffel_normal_form(nu, nv) == base


def test_normal_form_invariant_under_long_conjugation():
    rng = random.Random(10_000)
    cases = [
        (FreeWord("abaab"), FreeWord("aba")),
        (FreeWord("aabA"), FreeWord("abA")),
        christoffel_basis((-3, 4), (-1, 1)),
        christoffel_basis((5, -2), (-2, 1)),
        christoffel_basis((-21, -13), (-8, -5)),
        christoffel_basis((233, 144), (377, 233)),
    ]
    for u, v in cases:
        base = christoffel_normal_form(u, v)
        for _ in range(3):
            x = _random_reduced(rng, rng.randint(10_000, 20_000))
            assert christoffel_normal_form(u.conjugated_by(x), v.conjugated_by(x)) == base
            # conjugating one word alone leaves no basis
            with pytest.raises(NotABasisError):
                christoffel_normal_form(u.conjugated_by(x), v)
    u, v = FreeWord("ab"), FreeWord("ba")
    x = _random_reduced(rng, 10_000)
    with pytest.raises(NotABasisError):
        christoffel_normal_form(u.conjugated_by(x), v.conjugated_by(x))


def test_is_primitive():
    assert is_primitive(FreeWord("a"))
    assert is_primitive(FreeWord("B"))
    assert is_primitive(FreeWord("aaabaab"))
    assert is_primitive(FreeWord("abaab"))  # rotation of aabab
    assert is_primitive(FreeWord("bAAbAAA"))
    assert is_primitive(FreeWord("Ab"))
    assert not is_primitive(FreeWord(""))
    assert not is_primitive(FreeWord("aa"))
    assert not is_primitive(FreeWord("abab"))
    assert not is_primitive(FreeWord("abAB"))
    assert not is_primitive(FreeWord("aabb"))
    assert not is_primitive(FreeWord("abba"))


def test_primitivity_and_normal_form_answer_past_the_letter_limit():
    # their Christoffel words are no longer than the words given, so the cap that
    # christoffel_word keeps does not apply to them; the expected words are
    # written out, since christoffel_word(n, 1) is refused
    n = IMAGE_LETTER_LIMIT
    long = FreeWord("a" * n + "b")
    assert is_primitive(long)
    # abelianizes to the coprime (n + 1, 2), but its blocks of a are n and 1 letters
    assert not is_primitive(FreeWord("a" * n + "bab"))
    assert is_basis(long, FreeWord("a")).is_basis
    assert christoffel_normal_form(long, FreeWord("a")) == (FreeWord("a" * n + "b"), FreeWord("a"))
    with pytest.raises(ValueError, match="exceeds %d letters" % n):
        christoffel_word(n, 1)


def _build_mate(w: FreeWord) -> FreeWord:
    """A word forming a basis with w, assuming w is conjugate to a
    Christoffel word.  Conjugating a Christoffel basis carries the mate
    along."""
    core, conj = w.cyclic_reduce()
    p, q = core.abelianization()
    cw = christoffel_word(p, q)
    k = (cw.letters + cw.letters).index(core.letters)
    rot = FreeWord(cw.letters[:k])
    z = conj * rot.inverse()
    # unimodular complement of (p, q) by the extended Euclid identity
    g, s, t = _egcd(p, q)
    assert g == 1
    mate0 = christoffel_word(-t, s)
    return mate0.conjugated_by(z)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def test_primitive_words_extend_to_bases():
    # a word passes the primitivity test exactly when it extends to a
    # basis; for positives construct a mate, for negatives scan short mates
    words = [FreeWord("")]
    all_words = []
    for _ in range(6):
        words = [
            w * FreeWord(ch)
            for w in words
            for ch in "abAB"
            if len(w * FreeWord(ch)) > len(w)
        ]
        all_words.extend(words)
    short = [FreeWord(s) for s in ("a", "b", "A", "B", "ab", "ba", "aB", "bA")]
    for w in all_words:
        if is_primitive(w):
            assert is_basis(w, _build_mate(w)).is_basis, str(w)
        else:
            for v in short:
                assert not is_basis(w, v).is_basis, (str(w), str(v))


def test_svg():
    svg = path_svg(5, 2)
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "line" in svg
    assert "5,-2" in svg  # y axis points up in lattice terms, down in svg
    upper = path_svg(5, 2, upper=True)
    assert "0,-1" in upper  # upper word starts with the north step
