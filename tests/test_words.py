"""Word arithmetic: reduction, conjugacy, and the rank 3 and 4 variants."""

from __future__ import annotations

import doctest
import itertools
import random
import time

import pytest

import ranktwo.words
from ranktwo.words import (
    IMAGE_LETTER_LIMIT,
    FreeWord,
    _common_prefix,
    _joined,
    _product,
    _reduced,
    commutator,
)


def words_up_to(max_len: int) -> list[FreeWord]:
    """Every reduced word of length at most max_len, the empty word included."""
    out = [FreeWord("")]
    frontier = [""]
    for _ in range(max_len):
        new = []
        for s in frontier:
            for ch in "abAB":
                if s and s[-1] == ch.swapcase():
                    continue
                new.append(s + ch)
        out.extend(FreeWord(w) for w in new)
        frontier = new
    return out


def test_doctests():
    failures, _ = doctest.testmod(ranktwo.words)
    assert failures == 0


def test_reduction_examples():
    assert str(FreeWord("abBA")) == "1"
    assert FreeWord("aAaAb") == FreeWord("b")
    assert FreeWord("").letters == ""
    assert str(FreeWord("")) == "1"


def test_rejects_foreign_letters():
    with pytest.raises(ValueError):
        FreeWord("abc")
    with pytest.raises(ValueError):
        FreeWord("a b")
    # each invalid letter is named once, sorted, whatever the word's length
    with pytest.raises(ValueError, match=r"^invalid letter\(s\) ;, c, x: words are written over a, b, A, B$"):
        FreeWord("xab;c" * 300 + "x")
    with pytest.raises(ValueError, match=r"^invalid letter\(s\) e: words are written over a, b, c, d, A, B, C, D$"):
        FreeWord("abcde", rank=4)


def test_parse_round_trip():
    assert FreeWord.parse("1") == FreeWord("")
    assert FreeWord.parse("abAB").letters == "abAB"
    for w in words_up_to(4):
        assert FreeWord.parse(str(w)) == w


def test_multiply_examples():
    assert str(FreeWord("aaab") * FreeWord("aab")) == "aaabaab"
    w = FreeWord("abaB")
    assert w * w.inverse() == FreeWord("")
    assert FreeWord("ab") * FreeWord("BA") == FreeWord("")


def test_multiply_group_axioms_small():
    words = words_up_to(3)
    eps = FreeWord("")
    for u in words:
        assert u * eps == u and eps * u == u
        assert u * u.inverse() == eps and u.inverse() * u == eps
    rng = random.Random(31415)
    for _ in range(300):
        u, v, w = (rng.choice(words) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def _reference_reduced(s: str) -> str:
    """Free reduction with a stack, one letter at a time; kept as an
    oracle for the run fold in _reduced."""
    out: list[str] = []
    for ch in s:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def test_reduction_matches_reference_stack():
    for n in range(9):
        for letters in itertools.product("abAB", repeat=n):
            s = "".join(letters)
            assert _reduced(s) == _reduced(s, 2) == _reference_reduced(s), s
    rng = random.Random(4242)
    for alphabet in ("abAB", "abcABC", "abcdABCD", "aA", "abBA"):
        for _ in range(2000):
            s = "".join(rng.choices(alphabet, k=rng.randint(0, 200)))
            assert _reduced(s) == _reference_reduced(s), s
    # each rank's replace passes, and pairs that cascade past them
    for rank, alphabet in ((2, "abAB"), (3, "abcABC"), (4, "abcdABCD")):
        cascades = ["aaAA", "abBA", "AabB", "aAaA", "abBAab", "ab" * 5 + "BA" * 5]
        if rank > 2:
            cascades += ["abcCBA", "cCa", "acCA", "cbBaAC"]
        if rank > 3:
            cascades += ["abcdDCBA", "dcCD", "ddDcCD"]
        for s in cascades:
            assert _reduced(s, rank) == _reference_reduced(s), (rank, s)
        for _ in range(2000):
            s = "".join(rng.choices(alphabet, k=rng.randint(0, 200)))
            assert _reduced(s, rank) == _reference_reduced(s), (rank, s)
    # reduced runs whose seams cancel partly, wholly or through several runs
    for _ in range(3000):
        runs = []
        for _ in range(rng.randint(0, 6)):
            run = _reference_reduced("".join(rng.choices("abAB", k=rng.randint(0, 12))))
            if runs and rng.random() < 0.6:
                tail = "".join(runs)[-rng.randint(0, 20) :]
                run = _reference_reduced(tail[::-1].swapcase() + run)
            runs.append(run)
        assert _product(runs) == _reference_reduced("".join(runs)), runs
    # two runs, joined at one seam, on every pair of short rank-2 words
    # and on seeded rank-4 pairs that cancel partly or wholly
    pairs = [(x.letters, y.letters) for x in words_up_to(4) for y in words_up_to(4)]
    for _ in range(3000):
        x = _reference_reduced("".join(rng.choices("abcdABCD", k=rng.randint(0, 30))))
        y = _reference_reduced("".join(rng.choices("abcdABCD", k=rng.randint(0, 30))))
        if rng.random() < 0.6:
            y = _reference_reduced(x[-rng.randint(0, len(x) + 1) :][::-1].swapcase() + y)
        pairs.append((x, y))
    for x, y in pairs:
        expected = _reference_reduced(x + y)
        rank = 4 if set(x + y) - set("abAB") else 2
        assert _joined(x, y) == expected, (x, y)
        assert FreeWord(x, rank) * FreeWord(y, rank) == FreeWord._make(expected, rank), (x, y)


def test_common_prefix_matches_letter_loop():
    rng = random.Random(99)
    for _ in range(5000):
        base = "".join(rng.choices("ab", k=40))
        s, t = base[: rng.randint(0, 40)], base[: rng.randint(0, 40)]
        if t and rng.random() < 0.5:
            i = rng.randrange(len(t))
            t = t[:i] + "c" + t[i + 1 :]
        k = 0
        while k < min(len(s), len(t)) and s[k] == t[k]:
            k += 1
        assert _common_prefix(s, t) == k == _common_prefix(t, s), (s, t)


@pytest.mark.parametrize("name", ["a^n A^n", "(abBA)^n", "(ab)^n (BA)^n", "random"])
def test_reduction_is_linear_on_adversarial_words(name):
    n = 10**6
    s = {
        "a^n A^n": "a" * (n // 2) + "A" * (n // 2),
        "(abBA)^n": "abBA" * (n // 4),
        "(ab)^n (BA)^n": "ab" * (n // 4) + "BA" * (n // 4),
        "random": "".join(random.Random(5).choices("abAB", k=n)),
    }[name]
    start = time.perf_counter()
    reduced = _reduced(s)
    # linear takes well under a second; a quadratic fold would take hours
    assert time.perf_counter() - start < 10
    assert reduced == _reference_reduced(s)


def test_no_adjacent_inverse_pair_survives():
    for u in words_up_to(3):
        for v in words_up_to(3):
            s = (u * v).letters
            assert all(s[i] != s[i + 1].swapcase() for i in range(len(s) - 1))


def test_invert_examples():
    assert str(FreeWord("aaabaab").inverse()) == "BAABAAA"
    assert FreeWord("").inverse() == FreeWord("")
    assert str(FreeWord("ab").inverse()) == "BA"


def test_reverse_examples():
    assert str(FreeWord("aab").reverse()) == "baa"
    assert str(FreeWord("aaabaab").reverse()) == "baabaaa"
    assert FreeWord("ababa").reverse() == FreeWord("ababa")


def test_reverse_invert_interplay():
    for w in words_up_to(4):
        assert w.reverse().reverse() == w
        assert w.inverse().inverse() == w
        assert w.reverse().inverse() == w.inverse().reverse()


def test_palindromes():
    assert FreeWord("ababa").is_palindrome
    assert not FreeWord("ab").is_palindrome
    assert FreeWord("").is_palindrome
    assert FreeWord("aBa").is_palindrome


def test_cyclic_reduce_examples():
    core, conj = FreeWord("abA").cyclic_reduce()
    assert (core, conj) == (FreeWord("b"), FreeWord("a"))
    assert FreeWord("aaabaab").cyclic_reduce() == (FreeWord("aaabaab"), FreeWord(""))
    assert FreeWord("").cyclic_reduce() == (FreeWord(""), FreeWord(""))


def test_cyclic_reduce_reassembles():
    for w in words_up_to(5):
        core, conj = w.cyclic_reduce()
        assert core.is_cyclically_reduced
        assert conj * core * conj.inverse() == w


def test_conjugation_examples():
    assert str(FreeWord("b").conjugated_by(FreeWord("a"))) == "abA"
    w = FreeWord("abaB")
    assert w.conjugated_by(FreeWord("")) == w
    assert str(FreeWord("aba").conjugated_by(FreeWord("b"))) == "babaB"


def test_conjugacy_examples():
    assert FreeWord("ab").is_conjugate_to(FreeWord("ba"))
    assert not FreeWord("a").is_conjugate_to(FreeWord("b"))
    assert FreeWord("aaabaab").is_conjugate_to(FreeWord("baabaaa"))


def test_conjugacy_against_brute_force():
    # every conjugacy class at this scale is reachable by a short conjugator
    words = words_up_to(4)
    conjugators = words_up_to(4)
    for u in words_up_to(3):
        for v in words_up_to(3):
            expected = any(u.conjugated_by(x) == v for x in conjugators)
            assert u.is_conjugate_to(v) == expected, (str(u), str(v))
    del words


def test_conjugacy_is_equivalence_on_samples():
    rng = random.Random(999)
    words = words_up_to(4)
    for _ in range(200):
        u, v, w = (rng.choice(words) for _ in range(3))
        assert u.is_conjugate_to(u)
        assert u.is_conjugate_to(v) == v.is_conjugate_to(u)
        if u.is_conjugate_to(v) and v.is_conjugate_to(w):
            assert u.is_conjugate_to(w)


def test_abelianization():
    assert FreeWord("aaabaab").abelianization() == (5, 2)
    assert FreeWord("").abelianization() == (0, 0)
    assert FreeWord("BAABAAA").abelianization() == (-5, -2)
    for w in words_up_to(5):
        p, q = w.abelianization()
        ip, iq = w.inverse().abelianization()
        assert (ip, iq) == (-p, -q)
        assert (len(w) - p - q) % 2 == 0


def test_abelianization_is_homomorphism():
    rng = random.Random(4242)
    words = words_up_to(5)
    for _ in range(200):
        u, v = rng.choice(words), rng.choice(words)
        pu, qu = u.abelianization()
        pv, qv = v.abelianization()
        assert (u * v).abelianization() == (pu + pv, qu + qv)


def _positive_common_root(u: FreeWord, v: FreeWord) -> bool:
    # positive words never cancel, so a common root is a literal prefix
    for n in range(1, min(len(u), len(v)) + 1):
        if len(u) % n or len(v) % n:
            continue
        w = FreeWord(u.letters[:n])
        if w ** (len(u) // n) == u and w ** (len(v) // n) == v:
            return True
    return False


def _centralizer_root(u: FreeWord) -> FreeWord:
    """The generator of the centralizer of a nonempty word."""
    core, conj = u.cyclic_reduce()
    s = core.letters
    n = len(s)
    for d in range(1, n + 1):
        if n % d == 0 and s[:d] * (n // d) == s:
            return conj * FreeWord(s[:d]) * conj.inverse()
    raise AssertionError("unreachable: s is a period of itself")


def test_commutation_examples():
    assert FreeWord("ab").commutes_with(FreeWord("abab"))
    assert not FreeWord("a").commutes_with(FreeWord("b"))
    assert not FreeWord("aab").commutes_with(FreeWord("aba"))
    assert FreeWord("a").commutes_with(FreeWord("A"))


def test_positive_commutation_iff_positive_common_power():
    # the criterion used by the chain machinery, exhaustively at length <= 8
    by_len = {n: ["".join(p) for p in itertools.product("ab", repeat=n)] for n in range(1, 9)}
    for lu in range(1, 9):
        for lv in range(lu, 9):
            for su in by_len[lu]:
                for sv in by_len[lv]:
                    u, v = FreeWord(su), FreeWord(sv)
                    assert u.commutes_with(v) == _positive_common_root(u, v), (su, sv)


def test_general_commutation_iff_common_power():
    # in a free group two nonempty words commute exactly when both are
    # (possibly negative) powers of one word, the centralizer generator
    pool = [w for w in words_up_to(4) if w]
    rng = random.Random(77)
    deep = [w for w in words_up_to(8) if w]
    samples = [(u, v) for u in pool for v in pool]
    samples += [(rng.choice(deep), rng.choice(deep)) for _ in range(2000)]
    for u, v in samples:
        z = _centralizer_root(u)
        limit = len(v) + 2
        expected = any(z ** k == v for k in range(-limit, limit + 1))
        assert u.commutes_with(v) == expected, (str(u), str(v))


def test_powers():
    w = FreeWord("ab")
    assert w ** 0 == FreeWord("")
    assert w ** 3 == FreeWord("ababab")
    assert w ** -2 == (w.inverse()) ** 2
    assert FreeWord("aBa") ** 2 == FreeWord("aBaaBa")
    for w in words_up_to(4):
        product = FreeWord("")
        for n in range(5):
            assert w ** n == product and w ** -n == product.inverse(), (str(w), n)
            product = product * w


def test_power_letter_limit():
    n = IMAGE_LETTER_LIMIT
    # conjugator a, core B: a power of k letters has k + 2 letters
    w = FreeWord("aBA")
    assert len(w ** (n - 2)) == n
    with pytest.raises(ValueError, match="exceeds %d letters" % n):
        w ** (n - 1)
    for k in (10**10, -(10**10)):
        with pytest.raises(ValueError, match="exceeds %d letters" % n):
            FreeWord("ab") ** k
    assert FreeWord("") ** 10**10 == FreeWord("")


def test_commutator():
    assert str(commutator(FreeWord("a"), FreeWord("b"))) == "abAB"
    assert commutator(FreeWord("ab"), FreeWord("ab")) == FreeWord("")


def test_ranked_examples():
    x1 = FreeWord.generator(4, 1)
    assert x1 * x1.inverse() == FreeWord(rank=4)
    assert FreeWord("ab", rank=3) * FreeWord("B", rank=3) == FreeWord("a", rank=3)
    assert FreeWord("abA", rank=4) * FreeWord("a", rank=4) == FreeWord("ab", rank=4)


def test_ranked_validation():
    with pytest.raises(ValueError):
        FreeWord("a", rank=5)
    with pytest.raises(ValueError):
        FreeWord("d", rank=3)
    with pytest.raises(ValueError):
        FreeWord("c", rank=2)
    with pytest.raises(ValueError):
        FreeWord.generator(3, 4)
    with pytest.raises(ValueError):
        FreeWord("a", rank=3) * FreeWord("a", rank=4)


def test_ranked_rank_two_matches_free_word():
    # rank 2 is the default, and the same letters at rank 3 make another word
    for letters in itertools.product("abAB", repeat=3):
        s = "".join(letters)
        assert FreeWord(s).rank == 2
        assert FreeWord(s, rank=2) == FreeWord(s) != FreeWord(s, rank=3)


def test_ranks_do_not_mix():
    assert FreeWord("ab", rank=3) != FreeWord("ab")
    assert FreeWord("ab", rank=3) != FreeWord("ab", rank=4)
    assert repr(FreeWord("abc", rank=3)) == "FreeWord('abc', rank=3)"
    with pytest.raises(ValueError, match="rank mismatch"):
        FreeWord("a", rank=3).conjugated_by(FreeWord("b"))
    assert (FreeWord("ab", rank=3) ** 2).rank == 3
    assert all(w.rank == 4 for w in FreeWord("abC", rank=4).cyclic_reduce())
    with pytest.raises(ValueError, match="rank mismatch"):
        FreeWord("a", rank=3).is_conjugate_to(FreeWord("a"))
    with pytest.raises(ValueError, match="rank mismatch"):
        FreeWord("a", rank=3).commutes_with(FreeWord("a"))
    assert FreeWord("bab", rank=3).is_conjugate_to(FreeWord("abb", rank=3))
    with pytest.raises(ValueError, match="rank 2"):
        FreeWord("c", rank=3).abelianization()
