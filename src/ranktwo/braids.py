"""Words in the braid groups on three and four strands.

A braid word is a sequence of nonzero generator indices, negative for
inverses.  On four strands the index 4 is the paper's fourth letter,
the conjugate sigma_4 = delta sigma_3 delta^-1, and every computation
reads it as one letter, through tables built at import from its
expansion sigma_3^-1 sigma_2^-1 sigma_1 sigma_2 sigma_3; in the rank-two
action it is Dt^-1, by the paper's realization.  Equality of
braids is decided by the Garside left normal form Delta^p A1 ... Ar,
whose factors are permutation braids (Garside 1969; Thurston in Epstein
et al., *Word Processing in Groups*, ch. 9): two words are equal exactly
when their normal forms are, and the form costs O(L^2) table lookups in
the word length L at worst.  Each letter is a power of Delta and one or
two simple factors.  The word is read right to left, each letter
multiplying the form on the left.  Since f Delta^p = Delta^p tau^p(f) for
an involution tau, each factor enters behind the Delta power as tau^p of
itself, so a Delta power costs nothing.  The faithful action on a free
group of the same rank, :func:`artin_action`, stays as an independent
oracle: generator i sends x_i to x_i x_{i+1} x_i^-1 and x_{i+1} to x_i,
and a word acts by composing the generator actions left to right, the
same convention as for morphisms.  Each letter rebuilds only the images
its generator moves, joining old images one seam at a time, and two
reduced words cancel only at their seam: a letter costs O(log seam)
interpreted steps per join plus the C copying of the images it moves.
In the rank-two action :func:`f2_action` every letter moves one image,
the product of two old ones.  The images are kept with their inverses,
so a letter is one table row, one common prefix and two concatenations,
and inverts nothing.  Those images grow exponentially with the word, so
every free-group image is capped at
:data:`~ranktwo.words.IMAGE_LETTER_LIMIT` letters after each letter.

A comparison first cancels the common prefix and suffix of its two
words: P x S and P y S are equal exactly when x and y are, so only the
normal forms of the differing middles are built, and the cost is theirs.

:meth:`BraidWord.expand` still writes 4 out as its five letters, for the
mirror :func:`omega` and :func:`to_b3`.  :class:`ExtBraid` adjoins the
mirror involution w as a semidirect Z/2 factor, elements being written
in the normal form (braid, flag) for braid * w^flag.
"""

from __future__ import annotations

import operator
import re
from functools import reduce
from itertools import permutations
from typing import Iterable

from .morphisms import (
    GENERATOR_NAMES,
    F2Morphism,
    Mat2,
    SturmianWord,
    generator,
    generator_inverse,
    is_special_sturmian,
    _power,
)
from .words import _GENERATORS, IMAGE_LETTER_LIMIT, FreeWord, _common_prefix, _inverted, _joined

# sigma_4 = delta sigma_3 delta^-1 and its inverse over sigma_1..sigma_3
_EXPANSIONS = {4: (-3, -2, 1, 2, 3), -4: (-3, -2, -1, 2, 3)}
_LETTERS = {3: frozenset((1, 2, -1, -2)), 4: frozenset((1, 2, 3, 4, -1, -2, -3, -4))}
_IMAGE_TOO_LONG = "the free-group image of this braid exceeds %d letters" % IMAGE_LETTER_LIMIT


class BraidWord:
    """A word in the braid group on `strands` strands (3 or 4).

    ``==`` is letter-for-letter word equality; equality in the group is
    :func:`braid_equal`.
    """

    __slots__ = ("_strands", "_letters")

    def __init__(self, strands: int = 4, letters: Iterable[int] = ()) -> None:
        valid = _LETTERS.get(strands)
        if valid is None:
            raise ValueError("strands must be 3 or 4")
        letters = tuple(letters)
        # True and 1.0 equal 1, so the set test alone would let them in;
        # it comes second, so that an unhashable letter never reaches it
        integers = all(issubclass(t, int) and t is not bool for t in set(map(type, letters)))
        if not (integers and valid.issuperset(letters)):
            raise ValueError(
                "braid letters on %d strands are nonzero integers with absolute value at most %d"
                % (strands, max(valid))
            )
        self._strands = strands
        self._letters = letters

    @classmethod
    def _make(cls, strands: int, letters: tuple[int, ...]) -> BraidWord:
        # trusted constructor, the letters must already be valid on `strands` strands
        w = object.__new__(cls)
        w._strands = strands
        w._letters = letters
        return w

    @classmethod
    def parse(cls, text: str, strands: int = 4) -> BraidWord:
        """Parse whitespace-separated signed generator indices, e.g. ``1 -2 3 4``."""
        try:
            letters = tuple(int(tok) for tok in text.split())
        except ValueError:
            raise ValueError("braid words are whitespace-separated signed integers") from None
        return cls(strands, letters)

    @property
    def strands(self) -> int:
        return self._strands

    @property
    def letters(self) -> tuple[int, ...]:
        return self._letters

    def __str__(self) -> str:
        return " ".join(str(l) for l in self._letters)

    def __repr__(self) -> str:
        return "BraidWord(%d, %r)" % (self._strands, list(self._letters))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BraidWord)
            and self._strands == other._strands
            and self._letters == other._letters
        )

    def __hash__(self) -> int:
        return hash((self._strands, self._letters))

    def __len__(self) -> int:
        return len(self._letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self._strands != other._strands:
            raise ValueError("cannot multiply braids on different strand counts")
        return BraidWord._make(self._strands, self._letters + other._letters)

    def __pow__(self, n: int) -> BraidWord:
        if len(self._letters) * abs(n) > IMAGE_LETTER_LIMIT:
            raise ValueError("this power exceeds %d letters" % IMAGE_LETTER_LIMIT)
        if n < 0:
            return self.inverse() ** (-n)
        return BraidWord._make(self._strands, self._letters * n)

    def inverse(self) -> BraidWord:
        return BraidWord._make(self._strands, tuple(-l for l in reversed(self._letters)))

    def expand(self) -> BraidWord:
        """The same braid over indices 1..3, each 4 written out as five letters."""
        if self._strands != 4 or all(abs(l) != 4 for l in self._letters):
            return self
        return BraidWord._make(4, tuple(x for l in self._letters for x in _EXPANSIONS.get(l, (l,))))

    def exponent_sum(self) -> int:
        """Image under the abelianization to Z; the expansion of 4 counts 1."""
        return sum(1 if l > 0 else -1 for l in self._letters)


def delta(strands: int = 4) -> BraidWord:
    """The product of all generators in index order."""
    return BraidWord(strands, tuple(range(1, strands)))


def _artin_generator(rank: int, letter: int) -> F2Morphism:
    i = abs(letter)
    lo, hi = _GENERATORS[i - 1], _GENERATORS[i]
    images = list(_GENERATORS[:rank])
    if letter > 0:
        images[i - 1 : i + 1] = lo + hi + lo.upper(), lo
    else:
        images[i - 1 : i + 1] = hi, hi.upper() + lo + hi
    return F2Morphism(*(FreeWord(s, rank) for s in images))


_ARTIN = {
    rank: {
        letter: _artin_generator(rank, letter)
        for i in range(1, rank)
        for letter in (i, -i)
    }
    for rank in (3, 4)
}
_ARTIN[4].update({l: reduce(operator.mul, map(_ARTIN[4].get, e)) for l, e in _EXPANSIONS.items()})


def _seam_rules(table: dict[int, F2Morphism]) -> dict[int, tuple]:
    """For each letter, the images its morphism moves and how to rebuild them.

    Composing phi with the letter's morphism g sends generator i to
    phi(g(x_i)), the product of phi's images of the letters of g(x_i)
    (inverted for capitals).  A rule lists (i, ((j, inverted), ...)) for
    each i with g(x_i) != x_i.
    """
    return {
        letter: tuple(
            (i, tuple((_GENERATORS.index(c.lower()), c.isupper()) for c in img.letters))
            for i, img in enumerate(g.images)
            if img.letters != _GENERATORS[i]
        )
        for letter, g in table.items()
    }


def _composed(rank: int, rules: dict[int, tuple], letters: tuple[int, ...]) -> F2Morphism:
    """The morphism of the letters composed left to right, by their seam rules.

    The images stay strings between letters, and each letter rebuilds
    only the images it moves, folding their one to five old pieces with
    :func:`~ranktwo.words._joined`.  This loop serves ranks 3 and 4,
    where a letter moves two or four images; the rank-two action has its
    own loop in :func:`f2_action`.
    """
    images = list(_GENERATORS[:rank])
    for letter in letters:
        moved = [
            (i, reduce(_joined, [_inverted(images[j]) if inv else images[j] for j, inv in pieces]))
            for i, pieces in rules[letter]
        ]
        for i, image in moved:
            images[i] = image
        if sum(map(len, images)) > IMAGE_LETTER_LIMIT:
            raise ValueError(_IMAGE_TOO_LONG)
    return F2Morphism._make(tuple(FreeWord._make(s, rank) for s in images))


_ARTIN_RULES = {rank: _seam_rules(table) for rank, table in _ARTIN.items()}


def artin_action(w: BraidWord) -> F2Morphism:
    """The action of the braid on the free group of rank `strands`."""
    return _composed(w.strands, _ARTIN_RULES[w.strands], w.letters)


def _inversions(perm: tuple[int, ...]) -> int:
    return sum(x > y for i, x in enumerate(perm) for y in perm[i + 1 :])


def _garside_tables(
    n: int,
) -> tuple[int, list[int], list[int], list[int], list[int], list[int], dict[int, int]]:
    """Tables of the permutation braids on n strands, indexed by descending length.

    So Delta is 0 and the identity is the last index.  Returns the table
    size, then flat products ``mul[a * size + b]``, inverses, complements
    a^-1 Delta, tau(a) = Delta^-1 a Delta, flat meets (longest common
    left divisors) and each letter as (Delta power, simple factors):
    (0, (sigma_i,)) for i > 0, and (-1, (tau(sigma_i^-1 Delta),)) for -i,
    since sigma_i^-1 is Delta^-1 times that factor.
    """
    perms = sorted(permutations(range(n)), key=_inversions, reverse=True)
    size = len(perms)
    index = {p: k for k, p in enumerate(perms)}
    length = [_inversions(p) for p in perms]
    mul = [index[tuple(a[i] for i in b)] for a in perms for b in perms]
    inv = [index[tuple(sorted(range(n), key=p.__getitem__))] for p in perms]
    comp = [mul[inv[a] * size] for a in range(size)]
    tau = [mul[mul[a] * size] for a in range(size)]
    # a left-divides b when the lengths add up: l(a) + l(a^-1 b) = l(b)
    divisors = [
        sum(1 << a for a in range(size) if length[a] + length[mul[inv[a] * size + b]] == length[b])
        for b in range(size)
    ]
    # the longest common divisor is the lowest common bit, by the ordering
    common = (divisors[a] & divisors[b] for a in range(size) for b in range(size))
    meet = [(c & -c).bit_length() - 1 for c in common]
    letters = {}
    for i in range(1, n):
        s = index[tuple(range(i - 1)) + (i, i - 1) + tuple(range(i + 1, n))]
        letters[i], letters[-i] = (0, (s,)), (-1, (tau[comp[s]],))
    return size, mul, inv, comp, tau, meet, letters


def _steps(tables: tuple) -> list[list]:
    """One bubble step per pair of factors, in rows: ``steps[a][b]``.

    None when (a, b) is left-weighted, else (a m, m^-1 b) for the meet m
    of a^-1 Delta and b, which moves m from b onto a.
    """
    size, mul, inv, comp, _, meet, _ = tables

    def step(a: int, b: int) -> tuple[int, int] | None:
        m = meet[comp[a] * size + b]
        return None if m == size - 1 else (mul[a * size + m], mul[inv[m] * size + b])

    return [[step(a, b) for b in range(size)] for a in range(size)]


_GARSIDE = {n: _garside_tables(n) for n in (3, 4)}
_STEPS = {n: _steps(tables) for n, tables in _GARSIDE.items()}


NORMAL_FORM_LETTER_LIMIT = 2 ** 13
"""The most letters of a word that :func:`braid_equal` and :func:`eq_mod_center` compare.

The normal form is quadratic at worst: at 8,192 letters 4^n (-2)^n, the
slowest family known, takes 2.2 to 2.9 s, since each factor of each 4 is
carried past every factor of (-2)^n, and (1 4 4)^n takes 1.4 to 1.8 s
(2-vCPU VM; a random word of 8,192 letters takes 5 ms, and 1^n (-1)^n
3 ms), so a longer word raises ValueError.  The limit counts the letters
of each word as given, before the common ends are cancelled, so whether
a word is refused does not depend on the word it is compared with.
"""


def _normal_form(w: BraidWord) -> tuple[int, tuple[int, ...]]:
    """The left normal form Delta^p A1 ... Ar of the braid, as (p, (A1, ..., Ar)).

    Each factor indexes the permutation braids of :func:`_garside_tables`;
    none is Delta or the identity, and each pair is left-weighted:
    the meet of A(k-1)^-1 Delta and A(k) is the identity.  The word is
    read right to left, and each letter left-multiplies the form by its
    simple factors, last first, then by its precomputed Delta power.  A
    factor f enters behind Delta^p as x = tau^p(f), since f Delta^p =
    Delta^p tau^p(f), and is carried right by one row lookup in
    :data:`_STEPS` per step (Thurston's left multiplication).  Only the
    front factor can become Delta, and it joins p; a carry that becomes
    the identity leaves the rest of the form as it was.
    """
    size, _, _, _, tau, _, letters = _GARSIDE[w.strands]
    steps = _STEPS[w.strands]
    identity = size - 1
    p = 0
    # Ar ... A1 above the identity, which no factor steps past, so a carry
    # stops without a bounds test; a carry is stored only where it stops
    rev = [identity]
    for letter in reversed(w.letters):
        power, simple = letters[letter]
        for f in reversed(simple):
            # the twist is per factor: a Delta formed by the factor after
            # this one (in the word) has already moved p
            x = tau[f] if p & 1 else f
            k = len(rev)
            rev.append(x)
            while True:
                k -= 1
                step = steps[x][rev[k]]
                if not step:
                    rev[k + 1] = x
                    break
                rev[k + 1], x = step
                if x == identity:
                    del rev[k]
                    break
            if not rev[-1]:  # Delta, index 0, can only form at the front
                rev.pop()
                p += 1
        p += power
    return p, tuple(rev[:0:-1])


# the letter table gets sigma_4 and its inverse, each Delta^-1 times two factors
_GARSIDE[4][6].update({l: _normal_form(BraidWord._make(4, e)) for l, e in _EXPANSIONS.items()})


def _middle_forms(w1: BraidWord, w2: BraidWord) -> tuple[tuple, tuple]:
    """The normal forms of the two words with their common prefix and suffix removed.

    The words must have the same strand count.  The suffix is taken from
    what the prefix leaves of the shorter word, so 1 1 1 against 1 1
    leaves 1 against the empty word.
    """
    a, b = w1.letters, w2.letters
    if max(len(a), len(b)) > NORMAL_FORM_LETTER_LIMIT:
        raise ValueError("cannot compare braids of more than %d letters" % NORMAL_FORM_LETTER_LIMIT)
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    j = 0
    while j < n - i and a[-1 - j] == b[-1 - j]:
        j += 1
    return (
        _normal_form(BraidWord._make(w1.strands, a[i : len(a) - j])),
        _normal_form(BraidWord._make(w1.strands, b[i : len(b) - j])),
    )


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality in the braid group.

    P x S and P y S are the same braid exactly when x and y are, so the
    left normal forms compared are those of the differing middles x and y;
    the cost is theirs, not that of the whole words.
    """
    if w1.strands != w2.strands:
        raise ValueError("cannot compare braids on different strand counts")
    form1, form2 = _middle_forms(w1, w2)
    return form1 == form2


def eq_mod_center(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality modulo the center of the four-strand group.

    The center is generated by Delta^2 (which is delta^4), and
    multiplying by it adds 2 to the Delta power of the left normal form
    and leaves the factors alone.  So the braids agree modulo the center
    exactly when their factors agree and their Delta powers differ by an
    even number.  For z central, P x S = P y S z exactly when x = y z, so,
    as in :func:`braid_equal`, only the differing middles x and y are
    compared.
    """
    if w1.strands != 4 or w2.strands != 4:
        raise ValueError("equality modulo the center applies to four-strand braids")
    (p1, factors1), (p2, factors2) = _middle_forms(w1, w2)
    return factors1 == factors2 and (p1 - p2) % 2 == 0


_OMEGA_TABLE = {1: -2, -1: 2, 2: -1, -2: 1, 3: -4, -3: 4, 4: -3, -4: 3}


def omega(w: BraidWord) -> BraidWord:
    """The mirror involution: 1 <-> 2^-1 and 3 <-> 4^-1, letter by letter."""
    if w.strands != 4:
        raise ValueError("the mirror involution lives on four strands")
    return BraidWord(4, tuple(_OMEGA_TABLE[l] for l in w.letters)).expand()


class ExtBraid:
    """An element braid * w^flag of the extension of the four-strand group by the mirror."""

    __slots__ = ("braid", "flag")

    def __init__(self, braid: BraidWord | None = None, flag: int = 0) -> None:
        if braid is None:
            braid = BraidWord(4)
        if braid.strands != 4:
            raise ValueError("extended elements carry four-strand braids")
        if not isinstance(flag, int) or flag not in (0, 1):
            raise ValueError("flag must be 0 or 1")
        self.braid = braid
        self.flag = flag

    @classmethod
    def identity(cls) -> ExtBraid:
        return cls(BraidWord(4), 0)

    @classmethod
    def mirror(cls) -> ExtBraid:
        return cls(BraidWord(4), 1)

    def __repr__(self) -> str:
        return "ExtBraid(%r, flag=%d)" % (self.braid, self.flag)

    def __eq__(self, other: object) -> bool:
        # letter-for-letter, like BraidWord; equality in the group is .equal
        return isinstance(other, ExtBraid) and self.flag == other.flag and self.braid == other.braid

    def __hash__(self) -> int:
        return hash((self.flag, self.braid))

    def __mul__(self, other: ExtBraid) -> ExtBraid:
        if not isinstance(other, ExtBraid):
            return NotImplemented
        right = omega(other.braid) if self.flag else other.braid
        return ExtBraid(self.braid * right, self.flag ^ other.flag)

    def inverse(self) -> ExtBraid:
        b = self.braid.inverse()
        return ExtBraid(omega(b) if self.flag else b, self.flag)

    def equal(self, other: ExtBraid) -> bool:
        return self.flag == other.flag and braid_equal(self.braid, other.braid)

    def equal_mod_center(self, other: ExtBraid) -> bool:
        return self.flag == other.flag and eq_mod_center(self.braid, other.braid)


_EMBED = {"G": 1, "Gt": 3, "D": -2, "Dt": -4}
_F2_ACTION = {
    sign * letter: act(name)
    for name, letter in _EMBED.items()
    for sign, act in ((1, generator), (-1, generator_inverse))
}
# each letter moves one image i to the join of images j and l, each
# inverted when its flag says so; the unpacking checks that shape at import.
# A row names slots of the images of a, b, a^-1 and b^-1 (slot s inverted is
# s ^ 2): the moved one, then each piece, each followed by its inverse
_F2_ACTION_RULES = {
    letter: (i, i + 2, j + 2 * inv_j, j + 2 * (not inv_j), l + 2 * inv_l, l + 2 * (not inv_l))
    for letter, ((i, ((j, inv_j), (l, inv_l))),) in _seam_rules(_F2_ACTION).items()
}


def f2_action(w: BraidWord) -> F2Morphism:
    """The rank-two morphism of a four-strand braid: 1 -> G, 2 -> D^-1, 3 -> Gt, 4 -> Dt^-1.

    The letters compose left to right as in :func:`_composed`, each by
    one row of :data:`_F2_ACTION_RULES`: the image x y cancels as far as
    x^-1 and y share a prefix, and it and its inverse y^-1 x^-1 are two
    concatenations.
    """
    if w.strands != 4:
        raise ValueError("the rank-two action is defined on four strands")
    images = ["a", "b", "A", "B"]
    for letter in w.letters:
        i, i_inv, s, s_inv, t, t_inv = _F2_ACTION_RULES[letter]
        x, xi, y, yi = images[s], images[s_inv], images[t], images[t_inv]
        if xi[0] == y[0]:
            k = _common_prefix(xi, y)
            images[i] = x[: len(x) - k] + y[k:]
            images[i_inv] = yi[: len(yi) - k] + xi[k:]
        else:
            images[i] = x + y
            images[i_inv] = yi + xi
        if len(images[0]) + len(images[1]) > IMAGE_LETTER_LIMIT:
            raise ValueError(_IMAGE_TOO_LONG)
    return F2Morphism._make((FreeWord._make(images[0]), FreeWord._make(images[1])))


def f2_action_ext(e: ExtBraid) -> F2Morphism:
    """The rank-two morphism of an extended element; the mirror acts as E."""
    out = f2_action(e.braid)
    if e.flag:
        out = out * generator("E")
    return out


_GL2 = {
    letter: (m.a, m.b, m.c, m.d)
    for letter, m in zip(_F2_ACTION, map(F2Morphism.matrix, _F2_ACTION.values()))
}


def gl2_image(w: BraidWord) -> Mat2:
    """The induced matrix on Z^2 (odd indices to the R shear, even to the inverse L shear)."""
    a, b, c, d = 1, 0, 0, 1
    for letter in w.letters:
        e, f, g, h = _GL2[letter]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return Mat2(a, b, c, d)


_TO_B3 = {1: 1, -1: -1, 2: 2, -2: -2, 3: 1, -3: -1}


def to_b3(w: BraidWord) -> BraidWord:
    """Collapse a four-strand word to three strands: 1, 3 -> 1 and 2 -> 2."""
    if w.strands != 4:
        raise ValueError("only four-strand words collapse to three strands")
    return BraidWord(3, tuple(_TO_B3[l] for l in w.expand().letters))


def acts_by_inner(w: BraidWord) -> bool:
    """True when the rank-two action of the braid is an inner automorphism."""
    return gl2_image(w) == Mat2.identity()


def embed_sturmian(word: SturmianWord) -> BraidWord:
    """The braid of a positive tree word: G -> 1, Gt -> 3, D -> -2, Dt -> -4."""
    if not is_special_sturmian(word):
        raise ValueError("only positive words over G, Gt, D, Dt embed")
    return BraidWord(4, tuple(_EMBED[name] for name, _ in word))


def from_aut_generator(name: str) -> ExtBraid:
    """An extended braid mapping to the named involution or shear under the rank-two action."""
    if name == "E":
        return ExtBraid.mirror()
    if name == "Dt":
        return ExtBraid(BraidWord(4, (_EMBED[name],)), 0)
    if name == "O":
        return ExtBraid.mirror() * ExtBraid(delta(), 0)
    raise ValueError("no braid lift is defined for %r; expected E, Dt or O" % (name,))


def _ext_power(x: ExtBraid, k: int) -> ExtBraid:
    # BraidWord.__pow__ keeps its letter limit; an element with the mirror is a product of copies
    if x.flag:
        return _power(x.inverse() if k < 0 else x, abs(k), ExtBraid())
    return ExtBraid(x.braid ** k)


def _braid_domain() -> tuple:
    """Names, inverse, power and functions of the labels read in B4 extended by the mirror."""
    d = ExtBraid(delta())
    names = {"s%d" % i: ExtBraid(BraidWord(4, (i,))) for i in (1, 2, 3, 4)}
    names.update({"d": d, "delta": d, "w": ExtBraid.mirror(), "1": ExtBraid()})
    names.update({"g" + n: from_aut_generator(n) for n in ("E", "O", "Dt")})
    functions = {
        "w": lambda x: ExtBraid(omega(x.braid), x.flag),
        "th": lambda x: ExtBraid(BraidWord(4, [-l for l in x.braid.expand().letters]), x.flag),
    }
    return names, ExtBraid.inverse, _ext_power, functions


def _aut_domain() -> tuple:
    """Names, inverse, power and functions of the labels read in Aut(F2)."""
    names = {n: generator(n) for n in GENERATOR_NAMES}
    inverses = {phi: generator_inverse(n) for n, phi in names.items()}
    names["id"] = F2Morphism.identity()
    return names, inverses.__getitem__, operator.pow, {}


_TOKEN = re.compile(r"f\(g\(\w+\)\)|\w*\(|\^-?\d+|\w+|\S")


def _evaluate(domain: tuple, side: str) -> ExtBraid | F2Morphism:
    """The value of one side of a label: its factors multiplied left to right."""
    names, inverse, power, functions = domain
    frames = [("", [])]  # each open parenthesis with its function and factors
    for token in _TOKEN.findall(side):
        factors = frames[-1][1]
        if token.startswith("f(g("):
            factors.append(f2_action_ext(from_aut_generator(token[4:-2])))
        elif token.endswith("("):
            frames.append((token[:-1], []))
        elif token.startswith("^"):
            factors[-1] = power(factors[-1], int(token[1:]))
        elif token == "'":
            factors[-1] = inverse(factors[-1])
        elif token == ")":
            function, inner = frames.pop()
            value = reduce(operator.mul, inner)
            frames[-1][1].append(functions[function](value) if function else value)
        else:
            factors.append(names[token])
    ((_, factors),) = frames  # fails on an unclosed parenthesis
    return reduce(operator.mul, factors)


# suite: (domain, comparator, fixed labels, labels checked for each exponent k from 0
# to kmax, with {k} replaced by k); relation_suite documents the label language
_RELATIONS = {
    "lemma1.1": (_aut_domain, operator.eq, (
        "G D' G = D' G D'", "D' Gt D' = Gt D' Gt", "G Gt = Gt G",
        "Gt Dt' Gt = Dt' Gt Dt'", "Dt' G Dt' = G Dt' G", "D Dt = Dt D",
        "G D Gt = Gt Dt G", "D G Dt = Dt Gt D",
        "E E = id", "D = E G E", "Dt = E Gt E",
    ), ()),
    "lemma1.2": (_braid_domain, ExtBraid.equal, (
        "d s4 d' = s1",
        "s1 s2 s3 = d", "s2 s3 s4 = d", "s3 s4 s1 = d", "s4 s1 s2 = d",
        "s2 s4 = s4 s2", "s3 s4 s3 = s4 s3 s4", "s4 s1 s4 = s1 s4 s1",
    ), ()),
    "lemma1.3": (_braid_domain, ExtBraid.equal, (
        "w(w(s1)) = s1", "w(w(s2)) = s2", "w(w(s3)) = s3", "w(w(s4)) = s4",
        "w(s4) = s3'", "w(d) = d'",
    ), ()),
    "eq1.7": (_braid_domain, ExtBraid.equal, (
        "s1 s2 s1 = s2 s1 s2", "s2 s3 s2 = s3 s2 s3", "s1 s3 = s3 s1",
        "s4 = d s3 d'", "s4 = s3' s1 s2 s3 s1'", "s4 = s1 s2 s3 s2' s1'",
        "s2 s4 = s4 s2", "s3 s4 s3 = s4 s3 s4", "s4 s1 s4 = s1 s4 s1",
    ), ()),
    "eq1.9-1.10": (_braid_domain, ExtBraid.equal, (
        "w w = 1", "w s1 = s2' w", "w s2 = s1' w", "w s3 = s4' w", "w d = d' w",
    ), ()),
    "eq1.11-in-ext": (_braid_domain, ExtBraid.equal_mod_center, (
        "gE gE = 1", "gO gO = 1", "(gE gO gE gDt)^2 = 1",
        "(gO gDt)^2 = (gDt gO)^2", "(gE gO)^4 = 1", "(gDt gO gE)^3 = 1",
    ), ()),
    "remark1.4": (_braid_domain, ExtBraid.equal, (
        "w(s1) = (s1 s2 s1) th(s1) (s1 s2 s1)'",
        "w(s2) = (s1 s2 s1) th(s2) (s1 s2 s1)'",
        "w(s3) = (s1 s2 s1) th(s3) (s1 s2 s1)'",
        "w(s4) = (s1 s2 s1) th(s4) (s1 s2 s1)'",
        "w(delta) = (s1 s2 s1) th(delta) (s1 s2 s1)'",
    ), ()),
    "fg-identity": (_aut_domain, operator.eq, (
        "f(g(E)) = E", "f(g(Dt)) = Dt", "f(g(O)) = O",
    ), ()),
    "eq2.1": (_aut_domain, operator.eq, ("E E = id",), (
        "G E G^{k} E Gt = Gt E Gt^{k} E G",
    )),
    "eq2.2": (_aut_domain, operator.eq, (), (
        "G D^{k} Gt = Gt Dt^{k} G", "D G^{k} Dt = Dt Gt^{k} D",
    )),
    "eq2.3-2.4": (_braid_domain, ExtBraid.equal, (), (
        "s1 s2^-{k} s3 = s3 s4^-{k} s1", "s2' s1^{k} s4' = s4' s3^{k} s2'",
    )),
}

SUITE_NAMES = tuple(sorted(_RELATIONS))

KMAX_LIMIT = 256
"""The largest exponent :func:`relation_suite` accepts.

Each doubling of kmax makes the power suites three to four times slower:
eq2.2, the costliest, takes 0.16 s at 256, 0.5 s at 512 and 1.9 s at 1024
(medians of five runs on a 2-vCPU VM), so a larger kmax raises ValueError.
"""


def relation_suite(name: str, kmax: int = 8) -> list[tuple[str, bool]]:
    """Run one named identity suite; each entry is (label, holds).

    kmax, the largest exponent the power suites try, is an integer from 0 to
    :data:`KMAX_LIMIT`.  Each label is the relation checked, its two sides
    read as products, left to right, in one of two domains:

    - in B4 extended by the mirror, the names are s1 to s4, d and delta
      (both :func:`delta`), w (the mirror), gE, gO and gDt (the lifts
      :func:`from_aut_generator` of E, O and Dt) and 1, and the sides
      compare by :meth:`ExtBraid.equal` or :meth:`ExtBraid.equal_mod_center`;
    - in Aut(F2), the names are the generator tokens and id, and the sides
      compare by ``==``.

    A factor is a name, or a product in parentheses after an optional
    function: ``w(...)`` is :func:`omega`, so a bare w is the mirror, and
    ``th(...)`` is theta, which negates every letter of the expansion.
    ``f(g(X))`` is f2_action_ext(from_aut_generator(X)) for a token X.  A
    factor takes the suffixes ``'`` for its inverse (in Aut(F2), the
    generator inverse) and ``^k`` for its k-th power (k >= 0 in Aut(F2)).
    """
    if name not in SUITE_NAMES:
        raise ValueError(
            "unknown suite %r; available: %s" % (name, ", ".join(SUITE_NAMES))
        )
    if isinstance(kmax, bool) or not isinstance(kmax, int):
        raise ValueError("kmax must be an integer")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if kmax > KMAX_LIMIT:
        raise ValueError("kmax must be at most %d" % KMAX_LIMIT)
    make_domain, compare, labels, per_k = _RELATIONS[name]
    domain = make_domain()
    labels += tuple(t.format(k=k) for k in range(kmax + 1) for t in per_k)
    return [
        (label, compare(*(_evaluate(domain, side) for side in label.split(" = "))))
        for label in labels
    ]
