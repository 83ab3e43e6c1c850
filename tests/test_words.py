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
    _has_inverse_pair,
    _inverted,
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


def test_invalid_letters_are_named_up_to_eight():
    letters = "".join(map(chr, range(0x4E00, 0x4E00 + 20_000)))
    with pytest.raises(ValueError) as exc:
        FreeWord("ab" + letters[::-1] * 2)
    # eight named, sorted, then a count: one line, however many distinct letters there are
    message = str(exc.value)
    assert message == "invalid letter(s) %s and 19992 more: words are written over a, b, A, B" % ", ".join(
        letters[:8]
    )
    assert len(message) <= 120
    with pytest.raises(ValueError, match=r"^invalid letter\(s\) 1, 2, 3, 4, 5, 6, 7, 8: "):
        FreeWord("a87654321b")
    with pytest.raises(ValueError, match=r"^invalid letter\(s\) 0, 1, 2, 3, 4, 5, 6, 7 and 1 more: "):
        FreeWord("87654321a0", rank=3)


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
        assert _product((x, y)) == expected, (x, y)
        assert FreeWord(x, rank) * FreeWord(y, rank) == FreeWord._make(expected, rank), (x, y)


def _reference_product(runs: list[str]) -> str:
    """The reduced product of reduced words by a [run, used] stack, each cancelled
    end inverted letter by letter; kept as an oracle for the index-bound fold."""
    stack: list[list] = []
    for run in runs:
        start, n = 0, len(run)
        while stack and start < n:
            top = stack[-1]
            prev, used = top
            if prev[used - 1] != run[start].swapcase():
                break
            m = min(used, n - start)
            k = _common_prefix(prev[used - m : used][::-1].swapcase(), run[start : start + m])
            start += k
            if k < used:
                top[1] = used - k
                break
            stack.pop()
        if start < n:
            stack.append([run[start:], n - start])
    return "".join([run[:used] for run, used in stack])


def _splits(s: str):
    """Every way of cutting s into reduced runs: each cut is optional, except
    between two letters that cancel."""
    seams = [i for i in range(1, len(s)) if s[i - 1] != s[i].swapcase()]
    forced = [i for i in range(1, len(s)) if s[i - 1] == s[i].swapcase()]
    for chosen in itertools.product((False, True), repeat=len(seams)):
        cuts = sorted(forced + [i for i, cut in zip(seams, chosen) if cut])
        yield [s[i:j] for i, j in zip([0] + cuts, cuts + [len(s)])]


def _assert_products_agree(runs: list[str], expected: str) -> None:
    assert _reference_product(runs) == expected, runs
    assert _product(runs) == expected, runs
    assert _product(runs, [_inverted(r) for r in runs]) == expected, runs


def _assert_mixed_products_agree(runs: list[str], expected: str) -> None:
    # the inverses of every other run, and None for the rest, starting either way
    for parity in (0, 1):
        inverses = [_inverted(r) if i % 2 == parity else None for i, r in enumerate(runs)]
        assert _product(runs, inverses) == expected, (runs, inverses)


def test_product_with_and_without_inverses_matches_the_reference_fold():
    # every split into reduced runs of every rank-2 word of up to 6 letters; of the
    # 7- and 8-letter words, the split at each cancelling pair only and one seeded
    # split (all splits of them are 3.8 million products)
    rng = random.Random(1887)
    for n in range(9):
        for letters in itertools.product("abAB", repeat=n):
            s = "".join(letters)
            expected = _reference_reduced(s)
            if n <= 6:
                for runs in _splits(s):
                    _assert_products_agree(runs, expected)
                    _assert_mixed_products_agree(runs, expected)
                continue
            for cut in (0.0, 0.5):
                cuts = [i for i in range(1, n) if s[i - 1] == s[i].swapcase() or rng.random() < cut]
                runs = [s[i:j] for i, j in zip([0] + cuts, cuts + [n])]
                _assert_products_agree(runs, expected)
                _assert_mixed_products_agree(runs, expected)


def test_product_of_long_runs_with_cancelled_middles():
    # seeded runs up to 20,000 letters in all, each either free or starting with the
    # inverse of a tail of the product so far, so that its seam cancels into one or
    # several earlier runs, or it cancels wholly against them
    rng = random.Random(2024)
    for rank, alphabet in ((2, "abAB"), (4, "abcdABCD")):
        for _ in range(40):
            runs: list[str] = []
            product = ""
            while len(product) + sum(map(len, runs)) < rng.choice([200, 2000, 20_000]):
                run = _reference_reduced("".join(rng.choices(alphabet, k=rng.choice([1, 5, 50, 700]))))
                if product and rng.random() < 0.7:
                    j = rng.choice([1, len(runs[-1]), len(runs[-1]) + rng.randint(0, 40), len(product)])
                    tail = _inverted(product[-j:])
                    run = tail if rng.random() < 0.3 else _reference_reduced(tail + run)
                runs.append(run)
                product = _reference_reduced(product + run)
            _assert_products_agree(runs, product)
            assert _product(iter(runs), map(_inverted, runs)) == product


def test_conjugated_by_matches_the_product_with_the_inverse():
    # the seam x|u reads a slice of the inverse of x; seeded words on which it
    # cancels partly, wholly (u = x^-1 y x leaves y), or past u into x^-1
    rng = random.Random(1914)
    for rank, alphabet in ((2, "abAB"), (4, "abcdABCD")):
        for _ in range(500):
            x = FreeWord("".join(rng.choices(alphabet, k=rng.randint(0, 40))), rank)
            u = FreeWord("".join(rng.choices(alphabet, k=rng.randint(0, 40))), rank)
            tail = x.letters[len(x) - rng.randint(0, len(x)) :]
            for v in (u, FreeWord(_inverted(tail), rank) * u, x.inverse() * u * x, x.inverse()):
                assert v.conjugated_by(x) == x * v * x.inverse(), (x, v)
    x = FreeWord("abAAb")
    assert x.inverse().conjugated_by(x) == x.inverse()
    assert FreeWord("").conjugated_by(x) == FreeWord("")


def test_free_word_iterates_its_letters():
    assert list(FreeWord("abA")) == ["a", "b", "A"]
    assert list(FreeWord("cD", 4)) == ["c", "D"]


def _reference_common_prefix(s: str, t: str) -> int:
    """The common prefix length by doubling blocks and bisecting down to one letter."""
    n = min(len(s), len(t))
    k = 0
    while k < n and k < 8:
        if s[k] != t[k]:
            return k
        k += 1
    step = 8
    while True:
        end = min(k + step, n)
        if s[k:end] != t[k:end]:
            break
        if end == n:
            return n
        k = end
        step *= 2
    while end - k > 1:
        mid = (k + end) // 2
        if s[k:mid] == t[k:mid]:
            k = mid
        else:
            end = mid
    return k


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
        assert _reference_common_prefix(s, t) == k, (s, t)


def test_common_prefix_on_all_short_pairs():
    words = ["".join(w) for n in range(6) for w in itertools.product("abAB", repeat=n)]
    for s in words:
        expected = [_reference_common_prefix(s, t) for t in words]
        assert list(map(_common_prefix, [s] * len(words), words)) == expected, s
        assert list(map(_common_prefix, words, [s] * len(words))) == expected, s


# first mismatches on both sides of the letter loop, the first gallop block,
# the largest XOR window and later gallop blocks
_MISMATCHES = [*range(15), 31, 32, 33, 255, 256, 257, 1023, 1024, 1025, 4095, 4096, 4097]


@pytest.mark.parametrize("at", _MISMATCHES)
def test_common_prefix_finds_the_first_mismatch(at):
    rng = random.Random(at)
    for _ in range(40):
        s = "".join(rng.choices("abAB", k=at + rng.choice([1, 2, 8, 300, rng.randint(1, 9000)])))
        t = s[:at] + rng.choice([c for c in "abAB" if c != s[at]]) + s[at + 1 :]
        t = t[: rng.randint(at + 1, len(t))] + "".join(rng.choices("abAB", k=rng.randint(0, 600)))
        for x, y in ((s, t), (t, s)):
            assert _common_prefix(x, y) == at == _reference_common_prefix(x, y), (at, len(x), len(y))


def test_common_prefix_of_prefixes_and_equal_words():
    rng = random.Random(2718)
    lengths = [*range(40), 255, 256, 257, 1024, 4096, 4097, 65536, 100_000]
    lengths += [rng.randint(1, 100_000) for _ in range(12)]
    for n in lengths:
        s = "".join(rng.choices("abAB", k=n))
        assert _common_prefix(s, s) == n == _common_prefix(s, (s + "a")[:n]), n
        for m in {0, n // 3, max(n - 1, 0), rng.randint(0, n)}:
            assert _common_prefix(s, s[:m]) == m == _common_prefix(s[:m], s), (n, m)
            assert _reference_common_prefix(s[:m], s) == m
    # a mismatch in the last letter of a 100,000-letter word
    s = "ab" * 50_000
    t = s[:-1] + "A"
    assert _common_prefix(s, t) == 99_999 == _common_prefix(t, s)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_is_positive_matches_islower(rank):
    alphabet = "abcdABCD"[:rank] + "abcdABCD"[4 : 4 + rank]
    for n in range(7):
        for letters in itertools.product(alphabet, repeat=n):
            s = "".join(letters)
            assert FreeWord._make(s, rank).is_positive == (s.islower() or not s), s
    rng = random.Random(rank)
    for _ in range(20):
        s = "".join(rng.choices(alphabet[:rank], k=100_000))
        i = rng.choice([0, rng.randrange(100_000), 99_999])
        t = s[:i] + rng.choice(alphabet[rank:]) + s[i + 1 :]
        for w in (s, t):
            assert FreeWord._make(w, rank).is_positive == w.islower(), (rank, i)


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


def _counted_abelianization(s: str) -> tuple[int, int]:
    """Exponent sums by one str.count per letter; kept as an oracle for the bit count."""
    return s.count("a") - s.count("A"), s.count("b") - s.count("B")


def test_abelianization_matches_letter_counts():
    for w in words_up_to(8):
        assert w.abelianization() == _counted_abelianization(w.letters), w
    # seeded words up to 20,000 letters: mixed, positive, of one sign, one letter, empty
    rng = random.Random(2121)
    for alphabet in ("abAB", "ab", "AB", "aB", "Ab", "a", "B"):
        for n in (0, 1, 2, 7, 8, 9, 63, 64, 65, 999, 4096, 12_345, 20_000):
            w = FreeWord("".join(rng.choices(alphabet, k=n)))
            assert w.abelianization() == _counted_abelianization(w.letters), (alphabet, n)
    for _ in range(300):
        w = FreeWord("".join(rng.choices("abAB", weights=rng.choices(range(1, 9), k=4), k=rng.randint(0, 20_000))))
        assert w.abelianization() == _counted_abelianization(w.letters)


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


def test_commutator_is_the_product_of_four_words():
    rng = random.Random(1958)
    rank_two = words_up_to(4)
    pairs = [(u, v) for u in rank_two for v in rank_two]
    for rank, alphabet in ((2, "abAB"), (3, "abcABC"), (4, "abcdABCD")):
        for _ in range(60):
            u = FreeWord("".join(rng.choices(alphabet, k=rng.randint(0, 300))), rank)
            v = FreeWord("".join(rng.choices(alphabet, k=rng.randint(0, 300))), rank)
            x = FreeWord("".join(rng.choices(alphabet, k=rng.choice([0, 10, 1000, 10_000]))), rank)
            pairs.append((u.conjugated_by(x), v.conjugated_by(x)))
            # v a power or a prefix of u, so that whole words cancel
            pairs.append((u.conjugated_by(x), (u ** rng.randint(-3, 3)).conjugated_by(x)))
            k = rng.randint(0, len(u))
            pairs.append((u.conjugated_by(x), FreeWord._make(u.letters[:k], rank).conjugated_by(x)))
    for u, v in pairs:
        assert commutator(u, v) == u * v * u.inverse() * v.inverse(), (u, v)
    with pytest.raises(ValueError, match="rank mismatch"):
        commutator(FreeWord("a"), FreeWord("a", rank=3))


def _has_inverse_pair_by_definition(s: str, rank: int) -> bool:
    return any(x + x.upper() in s or x.upper() + x in s for x in "abcd"[:rank])


@pytest.mark.parametrize("xor_from", [ranktwo.words._XOR_PAIR_LETTERS, 2])
def test_has_inverse_pair_matches_the_substring_definition(monkeypatch, xor_from):
    # every short word, by the substring scans and (xor_from 2) by the XOR
    monkeypatch.setattr(ranktwo.words, "_XOR_PAIR_LETTERS", xor_from)
    for rank in (2, 3, 4):
        alphabet = "abcd"[:rank] + "ABCD"[:rank]
        for n in range(7):
            for letters in itertools.product(alphabet, repeat=n):
                s = "".join(letters)
                assert _has_inverse_pair(s, rank) == _has_inverse_pair_by_definition(s, rank), (rank, s)


def test_has_inverse_pair_in_long_words():
    # reduced words on both sides of the XOR threshold, without a pair and with
    # one planted at the first seam, a middle one or the last
    rng = random.Random(512)
    n0 = ranktwo.words._XOR_PAIR_LETTERS
    for rank in (2, 3, 4):
        alphabet = "abcd"[:rank] + "ABCD"[:rank]
        for n in (n0 - 2, n0 - 1, n0, n0 + 1, n0 + 2, 6000, 60_000):
            s = ""
            while len(s) < n:
                s = _reference_reduced(s + "".join(rng.choices(alphabet, k=n - len(s))))
            assert not _has_inverse_pair(s, rank), (rank, n)
            positive = "".join(rng.choices(alphabet[:rank], k=n))
            assert not _has_inverse_pair(positive, rank), (rank, n)
            for i in (0, rng.randrange(1, n - 2), n - 2):
                t = s[: i + 1] + s[i].swapcase() + s[i + 2 :]
                assert _has_inverse_pair(t, rank) == _has_inverse_pair_by_definition(t, rank) == True, (rank, n, i)


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
    # 2.0 hashes and compares equal to 2, and a list cannot be hashed at all
    for rank in (2.0, 4.0, [2], True):
        with pytest.raises(ValueError, match=r"^rank must be 2, 3 or 4$"):
            FreeWord("ab", rank=rank)


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
