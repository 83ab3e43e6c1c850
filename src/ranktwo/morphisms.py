"""Endomorphisms of free groups of rank 2 to 4 and the 2x2 integer shadows of rank 2.

A morphism is stored by the images of its generators (a and b at rank
two) and composed like any map:
``(phi * psi)(w) == phi(psi(w))``.  Seven classical generators are
available by name, with the same tokens used in text input and output:

====== ==============================
token  images
====== ==============================
``D``  a -> ba,   b -> b
``Dt`` a -> ab,   b -> b
``G``  a -> a,    b -> ab
``Gt`` a -> a,    b -> ba
``E``  a -> b,    b -> a
``O``  a -> a^-1, b -> b
``T``  a -> a,    b -> b^-1
====== ==============================

Words over these tokens ("Sturmian words") are kept as tuples of
``(token, exponent)`` pairs with exponent +1 or -1, and evaluate to a
morphism by composing left to right.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .words import (
    _ALPHABETS, _GENERATORS, IMAGE_LETTER_LIMIT, FreeWord, _check_same_rank, _inverted, _product, _reduced
)

__all__ = [
    "GENERATOR_NAMES", "SHEAR_L", "SHEAR_R", "F2Morphism", "Mat2", "SturmianWord", "eval_sturmian",
    "format_sturmian", "generator", "generator_inverse", "inner", "inner_witness", "is_special_sturmian",
    "parse_sturmian", "sturmian_inverse",
]


def _power(x, n: int, out):
    """out * x^n for n >= 0, by repeated squaring."""
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class Mat2:
    """An exact 2x2 integer matrix [[a, b], [c, d]] with read-only entries."""

    __slots__ = ("_entries",)

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        self._entries = (a, b, c, d)

    a = property(lambda self: self._entries[0])
    b = property(lambda self: self._entries[1])
    c = property(lambda self: self._entries[2])
    d = property(lambda self: self._entries[3])

    @classmethod
    def identity(cls) -> Mat2:
        return cls(1, 0, 0, 1)

    def __repr__(self) -> str:
        return "Mat2(a=%r, b=%r, c=%r, d=%r)" % self._entries

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mat2) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __mul__(self, other: Mat2) -> Mat2:
        if not isinstance(other, Mat2):
            return NotImplemented
        a, b, c, d = self._entries
        e, f, g, h = other._entries
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __pow__(self, n: int) -> Mat2:
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, Mat2.identity())

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> Mat2:
        d = self.det
        if d == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if d == -1:
            return Mat2(-self.d, self.b, self.c, -self.a)
        raise ValueError("matrix is not invertible over the integers")


# the mean image length from which F2Morphism._apply folds images at their seams
_FOLD_MEAN_LETTERS = 8

# the letters of each rank to the digits 0, 1, ... in _ALPHABETS order, for F2Morphism._apply
_DIGITS = {rank: str.maketrans(s, "01234567"[: len(s)]) for rank, s in _ALPHABETS.items()}

# Stern-Brocot shears: the abelianized images of the G-type and D-type
# generators respectively.
SHEAR_R = Mat2(1, 1, 0, 1)
SHEAR_L = Mat2(1, 0, 1, 1)


class F2Morphism:
    """An endomorphism of a free group of rank 2, 3 or 4, by the images of its generators.

    The rank is the number of images, and every image must have it.
    Applying it, and so ``*`` and ``**``, raises ValueError when an image
    would pass :data:`~ranktwo.words.IMAGE_LETTER_LIMIT` letters before
    cancellation.
    """

    # _inverses: the letters of the inverse images when they came with the images, else None
    __slots__ = ("_images", "_inverses")

    def __init__(self, *images: FreeWord) -> None:
        rank = len(images)
        if rank not in (2, 3, 4) or any(w.rank != rank for w in images):
            raise ValueError("a morphism of rank 2, 3 or 4 takes that many images of that rank")
        self._images, self._inverses = images, None

    @classmethod
    def identity(cls, rank: int = 2) -> F2Morphism:
        return cls(*(FreeWord.generator(rank, i) for i in range(1, rank + 1)))

    @property
    def images(self) -> tuple[FreeWord, ...]:
        return self._images

    @property
    def image_a(self) -> FreeWord:
        return self._images[0]

    @property
    def image_b(self) -> FreeWord:
        return self._images[1]

    def __repr__(self) -> str:
        return "F2Morphism(%s)" % ", ".join(
            "%s -> %s" % pair for pair in zip(_GENERATORS, self._images)
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, F2Morphism) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    @classmethod
    def _make(cls, images: tuple[FreeWord, ...], inverses: list[str] | None = None) -> F2Morphism:
        # trusted constructor, the images must already share a rank of 2, 3 or 4,
        # and the inverses, when given, be the inverted letters of each image
        phi = object.__new__(cls)
        phi._images, phi._inverses = images, inverses
        return phi

    def _apply(self, words: tuple[FreeWord, ...]) -> tuple[FreeWord, ...]:
        rank = len(self._images)
        images = [img._s for img in self._images]
        lengths = list(map(len, images))
        # long images cancel only at their seams, where they are folded; short ones found in
        # _BY_IMAGES are a rank-two signed letter permutation, which keeps words reduced, or
        # G, Gt, D, Dt or an inverse, which cancel in one pair; other short images are written
        # in C by one translate to digits and one replace per digit, then reduced
        fold = sum(lengths) >= _FOLD_MEAN_LETTERS * rank
        fast = None if fold else _BY_IMAGES.get(tuple(images))
        if not fast:
            # the letter images in _ALPHABETS order, with the inverse images the morphism
            # came with, else inverting only those the words use
            inverses = self._inverses
            if not inverses:
                occurring = "".join([w._s for w in words])
                inverses = [_inverted(s) if g.upper() in occurring else "" for g, s in zip(_GENERATORS, images)]
            images += inverses
        if fold:
            # the fold reads a cancelled image end off the image of the letter's inverse when
            # the morphism came with them all; else it inverts that end, which costs less than
            # inverting every image per call, as the seams of short words rarely cancel
            letter_images = dict(zip(_ALPHABETS[rank], images))
            inverse_images = self._inverses and dict(zip(_ALPHABETS[rank], images[rank:] + images[:rank]))
        out = []
        for w in words:
            _check_same_rank(w._rank, rank)
            s = w._s
            # the exact unreduced length takes 2 * rank scans, so only when it may pass the limit
            if len(s) * max(lengths) > IMAGE_LETTER_LIMIT and sum(
                (s.count(gen) + s.count(gen.upper())) * n for gen, n in zip(_GENERATORS, lengths)
            ) > IMAGE_LETTER_LIMIT:
                raise ValueError("this image exceeds %d letters" % IMAGE_LETTER_LIMIT)
            if fold:
                runs = map(letter_images.__getitem__, s)
                s = _product(runs, inverse_images and map(inverse_images.__getitem__, s))
            elif isinstance(fast, dict):
                s = s.translate(fast)
            elif fast:
                x, image, x_inverse, image_inverse, pair = fast
                s = s.replace(x, image).replace(x_inverse, image_inverse).replace(pair, "")
            else:
                s = s.translate(_DIGITS[rank])
                for digit, image in enumerate(images):
                    s = s.replace(str(digit), image)
                s = _reduced(s, rank)
            out.append(FreeWord._make(s, rank))
        return tuple(out)

    def __call__(self, w: FreeWord) -> FreeWord:
        return self._apply((w,))[0]

    def __mul__(self, other: F2Morphism) -> F2Morphism:
        if not isinstance(other, F2Morphism):
            return NotImplemented
        out = self._apply(other._images)
        return F2Morphism._make(out, self._inverses and [_inverted(w._s) for w in out])

    def __pow__(self, n: int) -> F2Morphism:
        if n < 0:
            raise ValueError("no general inverse; compose generator inverses instead")
        return _power(self, n, F2Morphism.identity(len(self._images)))

    def matrix(self) -> Mat2:
        """The induced matrix on Z^2 (rank 2 only); columns are the abelianized images of a and b."""
        p, q = self.image_a.abelianization()
        r, s = self.image_b.abelianization()
        return Mat2(p, r, q, s)

    @property
    def is_positive(self) -> bool:
        return all(w.is_positive for w in self._images)


GENERATOR_NAMES = ("D", "Dt", "G", "Gt", "E", "O", "T")


def _named(image_a: str, image_b: str) -> F2Morphism:
    return F2Morphism(FreeWord(image_a), FreeWord(image_b))


# each generator and its inverse in closed form; E, O and T are involutions
_GENERATORS_AND_INVERSES = {
    "D": (_named("ba", "b"), _named("Ba", "b")),
    "Dt": (_named("ab", "b"), _named("aB", "b")),
    "G": (_named("a", "ab"), _named("a", "Ab")),
    "Gt": (_named("a", "ba"), _named("a", "bA")),
    "E": (_named("b", "a"),) * 2,
    "O": (_named("A", "b"),) * 2,
    "T": (_named("a", "B"),) * 2,
}


def _elementary(images: tuple[str, str]) -> tuple[str, str, str, str, str]:
    """(x, its image, x^-1, its image, the pair that cancels) for G, Gt, D, Dt or an inverse."""
    letter = dict(zip("abAB", images + tuple(map(_inverted, images))))
    x = "a" if len(images[0]) == 2 else "b"
    # x goes to two letters, so by bounded cancellation (Cooper, J. Algebra 111, 1987) the
    # images of neighbouring letters cancel in one letter at most, and in one pair of the
    # 12 reduced letter pairs, or the unpacking fails; removing it once leaves none
    (pair,) = {
        letter[p][-1] + letter[q][0] for p in letter for q in letter
        if p != q.swapcase() and letter[p][-1] == letter[q][0].swapcase()
    }
    return x, letter[x], x.upper(), letter[x.upper()], pair


# G, Gt, D, Dt and their inverses by their images, for F2Morphism._apply
_ELEMENTARY = {
    images: _elementary(images)
    for name in ("D", "Dt", "G", "Gt")
    for images in (tuple(w.letters for w in phi.images) for phi in _GENERATORS_AND_INVERSES[name])
}

# by their images, for F2Morphism._apply: the _ELEMENTARY rows, and the translate tables of
# the eight rank-two signed letter permutations (the identity, E, O, T and their products)
_BY_IMAGES = _ELEMENTARY | {
    (x, y): str.maketrans("abAB", x + y + (x + y).swapcase()) for x in "abAB" for y in "abAB" if x.lower() != y.lower()
}


def _lookup(name: str, inverse: bool) -> F2Morphism:
    try:
        return _GENERATORS_AND_INVERSES[name][inverse]
    except KeyError:
        raise ValueError(
            "unknown generator %r; expected one of %s" % (name, ", ".join(GENERATOR_NAMES))
        ) from None


def generator(name: str) -> F2Morphism:
    """One of the seven named automorphisms, by token."""
    return _lookup(name, False)


def generator_inverse(name: str) -> F2Morphism:
    """The inverse of :func:`generator` by its closed form."""
    return _lookup(name, True)


def inner(w: FreeWord) -> F2Morphism:
    """Conjugation x -> w x w^-1."""
    return F2Morphism(
        FreeWord("a").conjugated_by(w), FreeWord("b").conjugated_by(w)
    )


def inner_witness(phi: F2Morphism) -> FreeWord | None:
    """The unique w with phi == inner(w), or None when phi is not inner.

    phi(a) must cyclically reduce to the letter a through some conjugator
    r, and then w = r a^k, where r^-1 phi(b) r = a^k b a^-k: its own
    cyclic reduction has the conjugator a^k.  The candidate is verified
    before it is returned, so a None answer is authoritative.
    """
    core, r = phi.image_a.cyclic_reduce()
    if core.letters != "a":
        return None
    _, y = (r.inverse() * phi.image_b * r).cyclic_reduce()
    w = r * y
    return w if phi == inner(w) else None


SturmianWord = tuple[tuple[str, int], ...]

_STURMIAN_TOKENS = ("G", "Gt", "D", "Dt", "E")


def parse_sturmian(text: str) -> SturmianWord:
    """Parse whitespace-separated tokens, a trailing apostrophe meaning inverse.

    >>> parse_sturmian("G D' Gt E")
    (('G', 1), ('D', -1), ('Gt', 1), ('E', 1))
    """
    out = []
    for tok in text.split():
        exp = 1
        if tok.endswith("'"):
            exp = -1
            tok = tok[:-1]
        if tok not in _STURMIAN_TOKENS:
            raise ValueError(
                "unknown token %r; expected one of %s with optional ' suffix"
                % (tok, ", ".join(_STURMIAN_TOKENS))
            )
        out.append((tok, exp))
    return tuple(out)


def format_sturmian(word: SturmianWord) -> str:
    return " ".join(name + ("" if exp == 1 else "'") for name, exp in word)


def sturmian_inverse(word: SturmianWord) -> SturmianWord:
    return tuple((name, -exp) for name, exp in reversed(word))


def is_special_sturmian(word: SturmianWord) -> bool:
    """True for words over G, Gt, D, Dt with no inverses (the positive tree)."""
    return all(exp == 1 and name in ("G", "Gt", "D", "Dt") for name, exp in word)


def eval_sturmian(word: SturmianWord) -> F2Morphism:
    """Compose the named generators left to right, each run of one token as a power."""
    out = F2Morphism.identity()
    for name, run in groupby(word, key=itemgetter(0)):
        k = sum(exp for _, exp in run)
        out = out * (generator(name) if k > 0 else generator_inverse(name)) ** abs(k)
    return out
