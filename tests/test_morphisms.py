"""Named automorphisms, composition, matrices, and inner-witness recovery."""

from __future__ import annotations

import doctest
import random
import time

import pytest

import ranktwo.morphisms
from ranktwo.morphisms import (
    GENERATOR_NAMES,
    SHEAR_L,
    SHEAR_R,
    F2Morphism,
    Mat2,
    eval_sturmian,
    format_sturmian,
    generator,
    generator_inverse,
    inner,
    inner_witness,
    is_special_sturmian,
    parse_sturmian,
    sturmian_inverse,
)
from ranktwo.words import IMAGE_LETTER_LIMIT, FreeWord

from test_words import _reference_reduced, words_up_to


def test_doctests():
    failures, _ = doctest.testmod(ranktwo.morphisms)
    assert failures == 0


def test_generator_images():
    expected = {
        "D": ("ba", "b"),
        "Dt": ("ab", "b"),
        "G": ("a", "ab"),
        "Gt": ("a", "ba"),
        "E": ("b", "a"),
        "O": ("A", "b"),
        "T": ("a", "B"),
    }
    for name in GENERATOR_NAMES:
        phi = generator(name)
        assert (phi.image_a.letters, phi.image_b.letters) == expected[name], name


def test_unknown_generator():
    with pytest.raises(ValueError):
        generator("Q")
    with pytest.raises(ValueError):
        generator_inverse("Dtt")


def test_generator_inverse_closed_forms():
    di = generator_inverse("D")
    assert (di.image_a.letters, di.image_b.letters) == ("Ba", "b")
    dti = generator_inverse("Dt")
    assert (dti.image_a.letters, dti.image_b.letters) == ("aB", "b")
    assert generator_inverse("E") == generator("E")


def test_inverses_compose_to_identity():
    for name in GENERATOR_NAMES:
        phi, psi = generator(name), generator_inverse(name)
        assert phi * psi == F2Morphism.identity(), name
        assert psi * phi == F2Morphism.identity(), name


def test_apply():
    G = generator("G")
    assert str(G(FreeWord("b"))) == "ab"
    assert G(FreeWord("")) == FreeWord("")
    assert str(generator("T")(FreeWord("aaabaab"))) == "aaaBaaB"


def _substituted_and_reduced(phi: F2Morphism, s: str) -> str:
    """String-level reference: substitute every letter, then cancel pairs until none is left."""
    images = dict(zip("abcd", (img.letters for img in phi.images)))
    out = "".join(images[ch] if ch in images else images[ch.lower()][::-1].swapcase() for ch in s)
    while True:
        shorter = out
        for pair in ("aA", "Aa", "bB", "Bb", "cC", "Cc", "dD", "Dd"):
            shorter = shorter.replace(pair, "")
        if shorter == out:
            return out
        out = shorter


def test_apply_matches_substitute_then_reduce():
    words = words_up_to(6)
    for name in GENERATOR_NAMES:
        for phi in (generator(name), generator_inverse(name)):
            for w in words:
                assert phi(w).letters == _substituted_and_reduced(phi, w.letters), (name, w)


@pytest.mark.parametrize("longest", [3, 40])
def test_apply_folds_and_joins_alike(monkeypatch, longest):
    # seeded morphisms with images up to `longest` letters, empty ones included
    rng = random.Random(8080 + longest)

    def word(n: int) -> FreeWord:
        return FreeWord("".join(rng.choices("abAB", k=n)))

    cases = []
    for _ in range(400):
        phi = F2Morphism(word(rng.randint(0, longest)), word(rng.randint(0, longest)))
        cases.append((phi, F2Morphism(word(rng.randint(0, 12)), word(rng.randint(0, 12))), word(rng.randint(0, 40))))
    results = []
    for mean in (0, 10**9):  # every image folded at its seams, then every word joined
        monkeypatch.setattr(ranktwo.morphisms, "_FOLD_MEAN_LETTERS", mean)
        results.append([(phi(w), phi * psi) for phi, psi, w in cases])
    assert results[0] == results[1]
    for (phi, _, w), (image, _) in zip(cases, results[0]):
        assert image.letters == _substituted_and_reduced(phi, w.letters), (phi, w)


@pytest.mark.parametrize("rank", [3, 4])
def test_apply_matches_substitute_then_reduce_at_higher_ranks(rank):
    rng = random.Random(3030 + rank)
    alphabet = "abcd"[:rank] + "ABCD"[:rank]

    def word(n: int) -> FreeWord:
        return FreeWord("".join(rng.choices(alphabet, k=n)), rank)

    for _ in range(1500):
        # empty images and letters that map to themselves are common
        images = [
            rng.choice((FreeWord("", rank), FreeWord.generator(rank, i + 1), word(rng.randint(1, 6))))
            for i in range(rank)
        ]
        phi = F2Morphism(*images)
        # a word holding every letter and inverse, so that all 2 * rank digits are in use
        w = FreeWord("", rank)
        while set(w.letters) != set(alphabet):
            w = word(40)
        assert phi(w).letters == _substituted_and_reduced(phi, w.letters), (phi, w)
        psi = F2Morphism(*(word(rng.randint(0, 5)) for _ in range(rank)))
        assert (phi * psi).images == tuple(phi(img) for img in psi.images)


def test_apply_letter_limit():
    # a hundred alternating G D tokens would build about 10^21 letters
    for build in (
        lambda: eval_sturmian(parse_sturmian("G D " * 50)),
        lambda: F2Morphism(FreeWord("ab"), FreeWord("a")) ** 200,
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="this image exceeds %d letters" % IMAGE_LETTER_LIMIT):
            build()
        assert time.perf_counter() - start < 1
    # the bound is on the letters of the image, not on |w| times the longest image
    half = IMAGE_LETTER_LIMIT // 2
    phi = F2Morphism(FreeWord("a" * half), FreeWord("b"))
    assert len(phi(FreeWord("a" + "b" * half))) == IMAGE_LETTER_LIMIT
    for w in ("aba", "Aba", "ABA"):
        with pytest.raises(ValueError, match="exceeds"):
            phi(FreeWord(w))
    with pytest.raises(ValueError, match="exceeds"):
        phi * F2Morphism(FreeWord("a"), FreeWord("aBa"))
    # the unreduced length decides, even when the reduced image is short
    psi = F2Morphism(FreeWord("a" * half + "b"), FreeWord("B" + "A" * half))
    assert len(psi(FreeWord("a"))) == half + 1
    with pytest.raises(ValueError, match="exceeds"):
        psi(FreeWord("ab"))


def test_apply_is_linear_on_long_words():
    # one a in 25, so that the unreduced image, a -> Ba, stays under the letter limit
    w = FreeWord("".join(random.Random(6).choices("ab", weights=(1, 24), k=10**6)))
    start = time.perf_counter()
    image = generator_inverse("D")(w)
    # linear takes well under a second; a quadratic reduction would take hours
    assert time.perf_counter() - start < 10
    assert image.letters == _reference_reduced(w.letters.replace("a", "Ba"))
    assert generator("D")(image) == w


def test_ranks_do_not_mix():
    with pytest.raises(ValueError):
        F2Morphism(FreeWord("a"), FreeWord("b", rank=3))
    with pytest.raises(ValueError):
        F2Morphism(FreeWord("a"))
    with pytest.raises(ValueError, match="rank mismatch"):
        generator("G")(FreeWord("ab", rank=3))
    with pytest.raises(ValueError, match="rank mismatch"):
        generator("G") * F2Morphism.identity(3)
    with pytest.raises(ValueError):
        F2Morphism.identity(3).matrix()
    phi = F2Morphism(FreeWord("b", rank=3), FreeWord("c", rank=3), FreeWord("a", rank=3))
    assert repr(phi) == "F2Morphism(a -> b, b -> c, c -> a)"
    assert phi ** 3 == F2Morphism.identity(3)
    assert phi(FreeWord("abC", rank=3)) == FreeWord("bcA", rank=3)


def test_apply_respects_composition():
    rng = random.Random(5150)
    words = words_up_to(5)
    morphs = [generator(n) for n in GENERATOR_NAMES] + [
        generator_inverse(n) for n in GENERATOR_NAMES
    ]
    for _ in range(300):
        phi, psi, w = rng.choice(morphs), rng.choice(morphs), rng.choice(words)
        assert (phi * psi)(w) == phi(psi(w))


def test_composition_convention():
    E, G, Gt = generator("E"), generator("G"), generator("Gt")
    D, Di = generator("D"), generator_inverse("D")
    assert E * G * E == D
    assert E * Gt * E == generator("Dt")
    assert G * Di * G == Di * G * Di
    f_delta = G * Di * Gt
    assert str(f_delta(FreeWord("a"))) == "B"
    assert str(f_delta(FreeWord("b"))) == "a"


def test_identity_and_powers():
    ident = F2Morphism.identity()
    G = generator("G")
    assert G * ident == G and ident * G == G
    assert G ** 0 == ident
    assert G ** 3 == G * G * G
    with pytest.raises(ValueError):
        G ** -1
    # powers are taken by repeated squaring
    phi = G * generator_inverse("D") * generator("E")
    m = Mat2(2, 1, 1, 1)
    product, matrix = ident, Mat2.identity()
    for n in range(12):
        assert phi ** n == product and m ** n == matrix and m ** -n == matrix.inverse()
        product, matrix = product * phi, matrix * m


def test_matrix_convention():
    assert generator("G").matrix() == SHEAR_R
    assert generator("Gt").matrix() == SHEAR_R
    assert generator("D").matrix() == SHEAR_L
    assert generator("Dt").matrix() == SHEAR_L
    gdg = generator("G") * generator_inverse("D") * generator("Gt")
    assert gdg.matrix() == Mat2(0, 1, -1, 0)


def test_matrix_is_multiplicative():
    rng = random.Random(6006)
    morphs = [generator(n) for n in GENERATOR_NAMES] + [
        generator_inverse(n) for n in GENERATOR_NAMES
    ]
    for _ in range(300):
        phi, psi = rng.choice(morphs), rng.choice(morphs)
        assert (phi * psi).matrix() == phi.matrix() * psi.matrix()


def test_matrix_identities():
    A, B = SHEAR_R, SHEAR_L
    assert A.det == 1 and B.det == 1
    assert A * B.inverse() * A == B.inverse() * A * B.inverse()
    assert (A * B.inverse() * A) ** 4 == Mat2.identity()
    assert A * A.inverse() == Mat2.identity()
    assert A ** -2 == A.inverse() * A.inverse()


def test_matrix_inverse_requires_unimodular():
    with pytest.raises(ValueError):
        Mat2(2, 0, 0, 1).inverse()
    assert Mat2(0, 1, 1, 0).inverse() == Mat2(0, 1, 1, 0)


def test_mat2_keeps_its_record_contract():
    m = Mat2(2, 1, 1, 1)
    assert repr(Mat2.identity()) == "Mat2(a=1, b=0, c=0, d=1)"
    assert repr(m.inverse()) == "Mat2(a=1, b=-1, c=-1, d=2)"
    again = type(m)(m.a, m.b, m.c, m.d)
    assert again == m and hash(again) == hash(m)
    assert len({m, again, m * Mat2.identity()}) == 1
    assert m != Mat2(2, 1, 1, 2) and m != (2, 1, 1, 1)
    for name in "abcd":
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
    assert m == Mat2(2, 1, 1, 1)
    with pytest.raises(TypeError):
        len(m)


def test_positivity():
    assert generator("G").is_positive
    assert generator("Dt").is_positive
    assert not generator("O").is_positive
    assert not generator_inverse("D").is_positive


def test_inner_examples():
    assert inner(FreeWord("")) == F2Morphism.identity()
    phi = inner(FreeWord("a"))
    assert (phi.image_a.letters, phi.image_b.letters) == ("a", "abA")
    assert str(inner(FreeWord("Ba"))(FreeWord("a"))) == "Bab"


def test_inner_witness_examples():
    assert inner_witness(F2Morphism.identity()) == FreeWord("")
    assert inner_witness(inner(FreeWord("a"))) == FreeWord("a")
    assert inner_witness(inner(FreeWord("Ba"))) == FreeWord("Ba")
    assert inner_witness(generator("G")) is None
    assert inner_witness(generator("E")) is None


def test_inner_witness_round_trip_exhaustive():
    for w in words_up_to(8):
        assert inner_witness(inner(w)) == w, str(w)


def test_inner_witness_none_when_matrix_differs():
    rng = random.Random(1234)
    for _ in range(200):
        word = tuple(
            (rng.choice(GENERATOR_NAMES), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))
        )
        phi = eval_sturmian(word)
        if phi.matrix() != Mat2.identity():
            assert inner_witness(phi) is None


def _reference_inner_witness(phi: F2Morphism) -> FreeWord | None:
    """The scan that inner_witness replaced: find k with r^-1 phi(b) r = a^k b ..."""
    core, r = phi.image_a.cyclic_reduce()
    if core.letters != "a":
        return None
    z = (r.inverse() * phi.image_b * r).letters
    k = 0
    n = len(z)
    while k < n and z[k] in "aA":
        k += 1
    if k >= n or z[k] != "b":
        return None
    exp = -k if z.startswith("A") else k
    w = r * FreeWord("a") ** exp
    if phi == inner(w):
        return w
    return None


def test_inner_witness_matches_the_exponent_scan_on_seeded_endomorphisms():
    rng = random.Random(2005)

    def word(n: int) -> FreeWord:
        return FreeWord("".join(rng.choice("abAB") for _ in range(n)))

    cases = []
    for _ in range(1500):
        w = word(rng.randint(0, 12))
        cases.append(inner(w))
        cases.append(inner(w) * generator(rng.choice(GENERATOR_NAMES)))
        cases.append(F2Morphism(word(rng.randint(0, 12)), word(rng.randint(0, 12))))
    # images with a short core a, so that the scan runs often
    cases += [F2Morphism(inner(word(3))(FreeWord("a")), word(rng.randint(0, 9))) for _ in range(1500)]
    found = 0
    for phi in cases:
        witness = inner_witness(phi)
        assert witness == _reference_inner_witness(phi), phi
        found += witness is not None
    assert 1500 <= found < len(cases), found


def test_inner_witness_verifies_its_candidate():
    # a is fixed and b -> (ba) b (ba)^-1, not an automorphism: the candidate
    # read off b is ba, which does not fix a, so only the check rejects it
    phi = F2Morphism(FreeWord("a"), FreeWord("babAB"))
    assert phi.matrix() == Mat2.identity()
    assert inner_witness(phi) is None


def test_sturmian_parse_format():
    word = parse_sturmian("G D' Gt E")
    assert word == (("G", 1), ("D", -1), ("Gt", 1), ("E", 1))
    assert format_sturmian(word) == "G D' Gt E"
    assert parse_sturmian("") == ()
    with pytest.raises(ValueError):
        parse_sturmian("G X")
    with pytest.raises(ValueError):
        parse_sturmian("G''")


def test_eval_sturmian():
    assert eval_sturmian(()) == F2Morphism.identity()
    assert eval_sturmian(parse_sturmian("G D' Gt E")) == generator("T")
    phi = eval_sturmian(parse_sturmian("G D' Gt"))
    assert str(phi(FreeWord("b"))) == "a"


def _reference_eval_sturmian(word) -> F2Morphism:
    """Composition one token at a time; kept as an oracle for the runs
    that eval_sturmian composes as powers."""
    out = F2Morphism.identity()
    for name, exp in word:
        out = out * (generator(name) if exp == 1 else generator_inverse(name))
    return out


def test_eval_sturmian_matches_token_by_token_composition():
    rng = random.Random(5151)
    for _ in range(3000):
        word = tuple(
            (rng.choice(GENERATOR_NAMES), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))
        )
        # repeat tokens so that runs, and runs that cancel, are common
        word = tuple(token for token in word for _ in range(rng.choice((1, 1, 2, 5))))
        assert eval_sturmian(word) == _reference_eval_sturmian(word), word


def test_sturmian_inverse():
    rng = random.Random(11)
    for _ in range(100):
        word = tuple(
            (rng.choice(GENERATOR_NAMES), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))
        )
        assert eval_sturmian(word + sturmian_inverse(word)) == F2Morphism.identity()


def test_special_sturmian():
    assert is_special_sturmian(parse_sturmian("G D Gt Dt"))
    assert is_special_sturmian(())
    assert not is_special_sturmian(parse_sturmian("G E"))
    assert not is_special_sturmian(parse_sturmian("G D'"))


def test_special_sturmian_matrices_unimodular():
    rng = random.Random(22)
    for _ in range(200):
        word = tuple(
            (rng.choice(("G", "Gt", "D", "Dt")), 1) for _ in range(rng.randint(0, 8))
        )
        phi = eval_sturmian(word)
        assert phi.is_positive
        assert phi.matrix().det == 1
