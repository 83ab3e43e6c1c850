"""Reduced words in free groups of small rank.

Rank-two words, the common currency of this package, are strings over
``a``, ``b`` with capital letters denoting inverses; the empty word
prints as ``1``.  Ranks 3 and 4 add the letters ``c`` and ``d`` and are
used by the braid machinery.  Values are immutable and every operation
returns a fresh reduced word, so they are safe to share freely.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

__all__ = ["FreeWord", "commutator"]

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
its letters before cancellation.  ``is_primitive`` and
``christoffel_normal_form``, whose words are no longer than their input,
are not capped.
"""


def _common_prefix(s: str, t: str) -> int:
    """The number of leading letters s and t share.

    Words of up to 12 letters are compared one letter at a time.  Longer
    ones gallop over blocks growing fourfold from 32 letters, bisect the
    block that differs down to a window of at most 256 letters, and find
    the first differing letter of the window in one step, as the lowest
    set bit of the XOR of the two windows read as little-endian integers
    of ASCII codes: O(k) work in C and O(log k) interpreted steps for k
    shared letters.
    """
    n = min(len(s), len(t))
    k = 0
    if n <= 12:
        while k < n:
            if s[k] != t[k]:
                return k
            k += 1
        return n
    step = 32
    while True:
        end = min(k + step, n)
        if s[k:end] != t[k:end]:
            break
        if end == n:
            return n
        k = end
        step *= 4
    # s[k:end] and t[k:end] differ; bisect down to a window that does
    while end - k > 256:
        mid = (k + end) // 2
        if s[k:mid] == t[k:mid]:
            k = mid
        else:
            end = mid
    # little-endian, so the first differing letter holds the lowest differing byte
    x = _from_bytes(s[k:end].encode("ascii"), "little") ^ _from_bytes(
        t[k:end].encode("ascii"), "little"
    )
    return k + (((x & -x).bit_length() - 1) >> 3)


# (inverted letter, pair, reversed pair) for each generator's inverse pairs
_PAIRS = (("A", "aA", "Aa"), ("B", "bB", "Bb"), ("C", "cC", "Cc"), ("D", "dD", "Dd"))
_SWAP = str.maketrans("abcdABCD", "ABCDabcd")
# bits per letter for FreeWord.abelianization: the letter 2, its inverse 0, the other letters 1;
# int.from_bytes is bound once, since looking it up is about a third of a short word's cost
_A_BITS, _B_BITS = bytes.maketrans(b"aAbB", b"\3\0\1\1"), bytes.maketrans(b"aAbB", b"\1\1\3\0")
_from_bytes = int.from_bytes


def _seams(s: str) -> bytes:
    """Each letter's ASCII code XOR the next one's (the last letter's code alone): 0x20, a
    space, exactly at an inverse pair, so overlapping pairs as in ``aAa`` are all found."""
    x = _from_bytes(s.encode("ascii"), "little")  # little-endian: x >> 8 starts at the second letter
    return (x ^ x >> 8).to_bytes(len(s), "little")


# the length from which _has_inverse_pair reads the seams instead of making
# up to 2 * rank substring scans; below it their fixed cost is the larger
_XOR_PAIR_LETTERS = 512


def _has_inverse_pair(s: str, rank: int) -> bool:
    # a pair holds its inverted letter, which a one-letter scan in C rules out
    for inverse, pair, reverse in _PAIRS[:rank]:
        if inverse in s:
            if len(s) >= _XOR_PAIR_LETTERS:
                return b" " in _seams(s)
            if pair in s or reverse in s:
                return True
    return False


def _reduced(s: str, rank: int = 4) -> str:
    """Cancel adjacent inverse pairs until none remain.

    Two str.replace passes per generator of the rank remove most pairs
    (free reduction is confluent, so their order does not matter); the
    pairs left over, read off the seams, cut the word into reduced runs,
    whose product :func:`_product` takes, so the work is linear in len(s).
    """
    if not _has_inverse_pair(s, rank):
        return s
    for inverse, pair, reverse in _PAIRS[:rank]:
        if inverse in s:
            s = s.replace(pair, "").replace(reverse, "")
    seams = _seams(s)
    cuts = []
    i = seams.find(32)
    while i >= 0:
        cuts.append(i + 1)
        i = seams.find(32, i + 1)
    return _product([s[i:j] for i, j in zip([0] + cuts, cuts + [len(s)])]) if cuts else s


def _product(runs: Iterable[str], inverses: Iterable[str] | None = None) -> str:
    """The reduced product of reduced words, given with their inverses or not.

    Neighbouring runs cancel only at their seam, as far as the end of
    one is the inverse of the start of the next, so each run costs
    O(log k) interpreted steps for k cancelled letters and nothing
    more when its seam does not cancel.  Where a seam cancels, the
    inverted end of the earlier run is a slice of its inverse when the
    caller passes the inverses, and is inverted only when not.
    """
    # [run, its inverse or None, start, end]: run[start:end] survives so far,
    # and no two neighbouring entries cancel
    stack: list[list] = []
    for run, inverse in zip(runs, inverses or repeat(None)):
        start, n = 0, len(run)
        while stack and start < n:
            top = stack[-1]
            prev, prev_inverse, first, end = top
            if prev[end - 1] != run[start].swapcase():
                break
            m = min(end - first, n - start)
            if prev_inverse is None:
                tail = _inverted(prev[end - m : end])
            else:
                off = len(prev) - end
                tail = prev_inverse[off : off + m]
            k = _common_prefix(tail, run[start : start + m])
            start += k
            if k < end - first:
                top[3] = end - k
                break
            stack.pop()
        if start < n:
            stack.append([run, inverse, start, n])
    return "".join([run[start:end] for run, _, start, end in stack])


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
        # 2.0 hashes and compares equal to 2, so only an int is looked up
        delete = _DELETE_ALPHABET.get(rank) if isinstance(rank, int) else None
        if delete is None:
            raise ValueError("rank must be 2, 3 or 4")
        bad = letters.translate(delete)
        if bad:
            bad = sorted(set(bad))  # eight named, the rest counted, so the message stays short
            more = " and %d more" % (len(bad) - 8) if len(bad) > 8 else ""
            raise ValueError(
                "invalid letter(s) %s%s: words are written over %s"
                % (", ".join(bad[:8]), more, ", ".join(_ALPHABETS[rank]))
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
        return FreeWord._make(_product((self._s, other._s)), self._rank)

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
        # substring tests scan at C speed, where str.islower decodes every letter
        s = self._s
        return "A" not in s and "B" not in s and (self._rank == 2 or "C" not in s and "D" not in s)

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
        x, x_inverse = x._s, _inverted(x._s)
        return FreeWord._make(_product((x, self._s, x_inverse), (x_inverse, None, x)), self._rank)

    def is_conjugate_to(self, other: FreeWord) -> bool:
        """Conjugacy test: cyclically reduce both sides, then compare cyclic rotations."""
        _check_same_rank(self._rank, other._rank)
        c1, _ = self.cyclic_reduce()
        c2, _ = other.cyclic_reduce()
        return len(c1._s) == len(c2._s) and c2._s in c1._s + c1._s

    def abelianization(self) -> tuple[int, int]:
        """Exponent sums of a and b, each a count of bits past the length; rank 2 only."""
        if self._rank != 2:
            raise ValueError("abelianization is defined for words of rank 2 only")
        s = self._s.encode()
        a = _from_bytes(s.translate(_A_BITS), "little").bit_count()
        b = _from_bytes(s.translate(_B_BITS), "little").bit_count()
        return a - len(s), b - len(s)

    def commutes_with(self, other: FreeWord) -> bool:
        return self * other == other * self


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """u v u^-1 v^-1, as one product of the four words, each with its inverse in hand."""
    _check_same_rank(u._rank, v._rank)
    x, y = u._s, v._s
    x_inverse, y_inverse = _inverted(x), _inverted(y)
    return FreeWord._make(_product((x, y, x_inverse, y_inverse), (x_inverse, y_inverse, x, y)), u._rank)


def _shown(w: FreeWord) -> str:
    """A word for an error message: its first 64 letters and its length when longer."""
    if len(w) <= 64:
        return str(w)
    return "%s... (%d letters)" % (w.letters[:64], len(w))
