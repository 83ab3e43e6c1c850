"""Reduced words in free groups of small rank.

Rank-two words, the common currency of this package, are strings over
``a``, ``b`` with capital letters denoting inverses; the empty word
prints as ``1``.  Ranks 3 and 4 add the letters ``c`` and ``d`` and are
used by the braid machinery.  Values are immutable and every operation
returns a fresh reduced word, so they are safe to share freely.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

_GENERATORS = "abcd"
_ALPHABETS = {2: "abAB", 3: "abcABC", 4: "abcdABCD"}
# deletes the letters of each rank, so that what a word keeps is invalid
_DELETE_ALPHABET = {rank: str.maketrans("", "", letters) for rank, letters in _ALPHABETS.items()}

IMAGE_LETTER_LIMIT = 1 << 20
"""The most letters a word built from a short description may have.

A power of a word, a Christoffel word, the free-group image of a braid
and the image of a word under a morphism can be far longer than what
describes them, so the functions that build them raise ValueError past
this size instead of running out of time or memory.  For a braid the
letters are summed over the generator images; a morphism image counts
its letters before cancellation.
"""


def _common_prefix(s: str, t: str) -> int:
    """The number of leading letters s and t share.

    A few letters are compared one at a time, then blocks of doubling
    size, and the block that differs is bisected: O(k) work in C and
    O(log k) interpreted steps for k shared letters.
    """
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
    # s[k:end] and t[k:end] differ; bisect down to the first letter that does
    while end - k > 1:
        mid = (k + end) // 2
        if s[k:mid] == t[k:mid]:
            k = mid
        else:
            end = mid
    return k


# (inverted letter, pair, reversed pair) for each generator's inverse pairs
_PAIRS = (("A", "aA", "Aa"), ("B", "bB", "Bb"), ("C", "cC", "Cc"), ("D", "dD", "Dd"))
# zero-width, so that overlapping pairs such as the two in "aAa" are all found
_SEAM = re.compile("(?=%s)" % "|".join("%s|%s" % (pair, reverse) for _, pair, reverse in _PAIRS))
_SWAP = str.maketrans("abcdABCD", "ABCDabcd")


def _has_inverse_pair(s: str, rank: int) -> bool:
    # a pair holds its inverted letter, which a one-letter scan in C rules out
    for inverse, pair, reverse in _PAIRS[:rank]:
        if inverse in s and (pair in s or reverse in s):
            return True
    return False


def _reduced(s: str, rank: int = 4) -> str:
    """Cancel adjacent inverse pairs until none remain.

    Two str.replace passes per generator of the rank remove most pairs
    (free reduction is confluent, so their order does not matter); the
    pairs left over cut the word into reduced runs, whose product
    :func:`_product` takes, so the work is linear in len(s).
    """
    if not _has_inverse_pair(s, rank):
        return s
    for inverse, pair, reverse in _PAIRS[:rank]:
        if inverse in s:
            s = s.replace(pair, "").replace(reverse, "")
    if not _has_inverse_pair(s, rank):
        return s
    cuts = [m.start() + 1 for m in _SEAM.finditer(s)]
    return _product([s[i:j] for i, j in zip([0] + cuts, cuts + [len(s)])])


def _product(runs: Iterable[str]) -> str:
    """The reduced product of reduced words.

    Neighbouring runs cancel only at their seam, as far as the end of
    one is the inverse of the start of the next, so each run costs
    O(log k) interpreted steps for k cancelled letters and nothing
    more when its seam does not cancel.
    """
    # [run, used]: the first `used` letters of each run survive so far,
    # and no two neighbouring entries cancel
    stack: list[list] = []
    for run in runs:
        start, n = 0, len(run)
        while stack and start < n:
            top = stack[-1]
            prev, used = top
            if prev[used - 1] != run[start].swapcase():
                break
            k = _cancelled(prev, used, run, start)
            start += k
            if k < used:
                top[1] = used - k
                break
            stack.pop()
        if start < n:
            stack.append([run[start:], n - start])
    return "".join([run[:used] for run, used in stack])


def _cancelled(x: str, end: int, y: str, start: int) -> int:
    """How many letters cancel where x[:end] meets y[start:], both reduced:
    how far the end of one is the inverse of the start of the other."""
    m = min(end, len(y) - start)
    return _common_prefix(_inverted(x[end - m : end]), y[start : start + m])


def _joined(x: str, y: str) -> str:
    """The reduced product of two reduced words: x + y unless their seam cancels."""
    if not x or not y or x[-1] != y[0].swapcase():
        return x + y
    k = _cancelled(x, len(x), y, 0)
    return x[: len(x) - k] + y[k:]


def _inverted(s: str) -> str:
    return s[::-1].translate(_SWAP)


def _check_same_rank(r1: int, r2: int) -> None:
    if r1 != r2:
        raise ValueError("rank mismatch: %d vs %d" % (r1, r2))


class FreeWord:
    """A reduced word in the free group of rank 2, 3 or 4.

    The generators are ``a`` through ``d`` with capitals for inverses;
    the default rank 2 has only ``a`` and ``b``.  Words of different
    ranks are never equal, and multiplying them is an error.

    >>> FreeWord("abBA")
    FreeWord('')
    >>> str(FreeWord("ab") * FreeWord("BA"))
    '1'
    >>> FreeWord("aaabaab").abelianization()
    (5, 2)
    """

    __slots__ = ("_s", "_rank")

    def __init__(self, letters: str = "", rank: int = 2) -> None:
        delete = _DELETE_ALPHABET.get(rank)
        if delete is None:
            raise ValueError("rank must be 2, 3 or 4")
        bad = letters.translate(delete)
        if bad:
            raise ValueError(
                "invalid letter(s) %s: words are written over %s"
                % (", ".join(sorted(set(bad))), ", ".join(_ALPHABETS[rank]))
            )
        self._s = _reduced(letters, rank)
        self._rank = rank

    @classmethod
    def _make(cls, reduced: str, rank: int = 2) -> FreeWord:
        # trusted constructor, `reduced` must already be reduced over the rank's letters
        w = object.__new__(cls)
        w._s = reduced
        w._rank = rank
        return w

    @classmethod
    def generator(cls, rank: int, index: int) -> FreeWord:
        """The index-th generator (1-based) of the given rank as a one-letter word."""
        if not 1 <= index <= rank:
            raise ValueError("generator index out of range")
        return cls(_GENERATORS[index - 1], rank)

    @classmethod
    def parse(cls, text: str) -> FreeWord:
        """Parse the exchange format: a word over {a, b, A, B}, with ``1`` for the empty word."""
        if text == "1":
            return cls._make("")
        return cls(text)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def letters(self) -> str:
        return self._s

    def __str__(self) -> str:
        return self._s or "1"

    def __repr__(self) -> str:
        if self._rank == 2:
            return "FreeWord(%r)" % self._s
        return "FreeWord(%r, rank=%d)" % (self._s, self._rank)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeWord)
            and self._s == other._s
            and self._rank == other._rank
        )

    def __hash__(self) -> int:
        return hash(self._s)

    def __len__(self) -> int:
        return len(self._s)

    def __bool__(self) -> bool:
        return bool(self._s)

    def __iter__(self) -> Iterator[str]:
        return iter(self._s)

    def __mul__(self, other: FreeWord) -> FreeWord:
        if not isinstance(other, FreeWord):
            return NotImplemented
        _check_same_rank(self._rank, other._rank)
        return FreeWord._make(_joined(self._s, other._s), self._rank)

    def __pow__(self, n: int) -> FreeWord:
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return FreeWord._make("", self._rank)
        # conjugator * core^n * conjugator^-1 is reduced as written
        core, conjugator = self.cyclic_reduce()
        if 2 * len(conjugator) + n * len(core) > IMAGE_LETTER_LIMIT:
            raise ValueError("this power exceeds %d letters" % IMAGE_LETTER_LIMIT)
        c = conjugator._s
        return FreeWord._make(c + core._s * n + _inverted(c), self._rank)

    def inverse(self) -> FreeWord:
        return FreeWord._make(_inverted(self._s), self._rank)

    def reverse(self) -> FreeWord:
        """The same letters written backwards, signs kept."""
        return FreeWord._make(self._s[::-1], self._rank)

    @property
    def is_palindrome(self) -> bool:
        return self._s == self._s[::-1]

    @property
    def is_positive(self) -> bool:
        """True when no letter is inverted, i.e. the word lies in the monoid on the generators."""
        s = self._s
        return s.islower() or not s

    def cyclic_reduce(self) -> tuple[FreeWord, FreeWord]:
        """Split into (core, conjugator) with self == conjugator * core * conjugator^-1.

        The core is cyclically reduced: its first letter is not the
        inverse of its last.

        >>> FreeWord("abA").cyclic_reduce()
        (FreeWord('b'), FreeWord('a'))
        """
        s = self._s
        if self.is_cyclically_reduced:
            return self, FreeWord._make("", self._rank)
        i = min(_common_prefix(s, _inverted(s)), (len(s) - 1) // 2)
        return FreeWord._make(s[i : len(s) - i], self._rank), FreeWord._make(s[:i], self._rank)

    @property
    def is_cyclically_reduced(self) -> bool:
        s = self._s
        return len(s) < 2 or s[0] != s[-1].swapcase()

    def conjugated_by(self, x: FreeWord) -> FreeWord:
        """x * self * x^-1, reduced."""
        _check_same_rank(self._rank, x._rank)
        return FreeWord._make(
            _product((x._s, self._s, _inverted(x._s))), self._rank
        )

    def is_conjugate_to(self, other: FreeWord) -> bool:
        """Conjugacy test: cyclically reduce both sides, then compare cyclic rotations."""
        _check_same_rank(self._rank, other._rank)
        c1, _ = self.cyclic_reduce()
        c2, _ = other.cyclic_reduce()
        return len(c1._s) == len(c2._s) and c2._s in c1._s + c1._s

    def abelianization(self) -> tuple[int, int]:
        """Exponent sums of a and b; defined for rank-2 words only."""
        if self._rank != 2:
            raise ValueError("abelianization is defined for words of rank 2 only")
        s = self._s
        return s.count("a") - s.count("A"), s.count("b") - s.count("B")

    def commutes_with(self, other: FreeWord) -> bool:
        _check_same_rank(self._rank, other._rank)
        return _joined(self._s, other._s) == _joined(other._s, self._s)


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def _shown(w: FreeWord) -> str:
    """A word for an error message: its first 64 letters and its length when longer."""
    if len(w) <= 64:
        return str(w)
    return "%s... (%d letters)" % (w.letters[:64], len(w))
