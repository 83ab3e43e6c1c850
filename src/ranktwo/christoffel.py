"""Christoffel words and the lattice geometry behind them.

The word of a coprime pair (p, q) in the first quadrant reads off the
monotone lattice path from the origin to (p, q) that stays weakly below
the segment joining them and encloses no interior lattice point, with
``a`` for a right step and ``b`` for an up step.  The other quadrants
are reached by inverting the word, flipping the sign of b (the morphism
T), or both.  Christoffel words of unimodular vector pairs assemble
into distinguished bases of the free group, one in each conjugacy class
of bases.
"""

from __future__ import annotations

import math

from .chains import NotABasisError, _quadrant_map, nielsen_dehn_oracle
from .words import IMAGE_LETTER_LIMIT, FreeWord, _shown

__all__ = [
    "christoffel_basis", "christoffel_normal_form", "christoffel_path", "christoffel_word", "is_primitive",
    "path_svg", "satisfies_path_conditions", "upper_christoffel_word", "verify_factorization", "word_path",
]

Point = tuple[int, int]


def _lower_word(p: int, q: int) -> FreeWord:
    """The lower Christoffel word of a coprime pair, any quadrant; the pair is not checked.

    G: b -> ab sends the word of (p, q) to that of (p + q, q), and
    D~: a -> ab sends it to that of (p, p + q) (Berstel, Lauve,
    Reutenauer and Saliola, *Combinatorics on Words*, 2008).  Euclid's
    algorithm on |p|, |q| peels whole powers G^k: b -> a^k b and
    D~^k: a -> a b^k down to (1, 0), (0, 1) or (1, 1), composed on the
    images (x, y) of a and b as it goes: one concatenation each.  The
    quadrant map of (p, q) moves the word x^|p| y^|q| into its quadrant.
    """
    _, involution = _quadrant_map((p, q), (p, q))
    p, q = abs(p), abs(q)
    x, y = "a", "b"
    while p > 1 or q > 1:
        if p > q:
            k = (p - 1) // q
            y = x * k + y
            p -= k * q
        else:
            k = (q - 1) // p
            x += y * k
            q -= k * p
    return involution(FreeWord._make(x * p + y * q))


def christoffel_word(p: int, q: int) -> FreeWord:
    """The lower Christoffel word of (p, q), any quadrant.

    Raises ValueError past :data:`~ranktwo.words.IMAGE_LETTER_LIMIT`
    letters, that is when |p| + |q| exceeds it.

    >>> str(christoffel_word(5, 2))
    'aaabaab'
    >>> str(christoffel_word(-5, 2))
    'bAAbAAA'
    """
    # math.gcd reads |p| and |q|, and gcd(0, 0) is 0
    if math.gcd(p, q) != 1:
        raise ValueError("(%d, %d) must be coprime and not both zero" % (p, q))
    if abs(p) + abs(q) > IMAGE_LETTER_LIMIT:
        raise ValueError(
            "the Christoffel word of this pair exceeds %d letters" % IMAGE_LETTER_LIMIT
        )
    return _lower_word(p, q)


def upper_christoffel_word(p: int, q: int) -> FreeWord:
    """The reversal of the lower word; first quadrant only."""
    if p < 0 or q < 0:
        raise ValueError("the upper word is defined in the first quadrant")
    return christoffel_word(p, q).reverse()


def word_path(w: FreeWord) -> tuple[Point, ...]:
    """Replay a word as a lattice path from the origin (a east, b north)."""
    if w.rank != 2:
        raise ValueError("lattice paths are defined for words of rank 2 only")
    x, y = 0, 0
    points = [(0, 0)]
    steps = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}
    for ch in w.letters:
        dx, dy = steps[ch]
        x += dx
        y += dy
        points.append((x, y))
    return tuple(points)


def christoffel_path(p: int, q: int) -> tuple[Point, ...]:
    """The lattice path of the lower word, starting at (0, 0) and ending at (p, q)."""
    return word_path(christoffel_word(p, q))


def satisfies_path_conditions(points: tuple[Point, ...], p: int, q: int) -> bool:
    """Check the three defining conditions of a first-quadrant lower path.

    The path must run from (0, 0) to (p, q) in unit east or north steps,
    stay weakly below the segment from the origin to (p, q), and bound a
    region containing no interior lattice point (counted exactly with
    Pick's theorem).
    """
    if p < 0 or q < 0:
        raise ValueError("path conditions apply to the first quadrant")
    if not points or points[0] != (0, 0) or points[-1] != (p, q):
        return False
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if (x1 - x0, y1 - y0) not in ((1, 0), (0, 1)):
            return False
    if any(q * x < p * y for x, y in points):
        return False
    # Pick: 2 * interior = 2 * area - boundary + 2.  The closing segment
    # back to the origin meets no lattice point besides its ends.
    twice_area = 0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        twice_area += x0 * y1 - x1 * y0
    boundary = len(points)
    return abs(twice_area) - boundary + 2 == 0


def verify_factorization(p: int, q: int, r: int, s: int) -> bool:
    """Whether the words of (p, q) and (r, s) concatenate to the word of the sum.

    Requires nonnegative entries with ps - qr = 1.
    """
    if min(p, q, r, s) < 0:
        raise ValueError("factorization applies to first-quadrant pairs")
    if p * s - q * r != 1:
        raise ValueError("expected determinant 1, got %d" % (p * s - q * r))
    return christoffel_word(p, q) * christoffel_word(r, s) == christoffel_word(
        p + r, q + s
    )


def christoffel_basis(
    u_vec: tuple[int, int], v_vec: tuple[int, int]
) -> tuple[FreeWord, FreeWord]:
    """The pair of Christoffel words of a unimodular pair of integer vectors."""
    p, q = u_vec
    r, s = v_vec
    if abs(p * s - q * r) != 1:
        raise ValueError("(%s, %s) is not a unimodular pair" % (u_vec, v_vec))
    return christoffel_word(p, q), christoffel_word(r, s)


def christoffel_normal_form(u: FreeWord, v: FreeWord) -> tuple[FreeWord, FreeWord]:
    """The Christoffel basis with the same abelianization as the basis (u, v).

    The result depends only on the conjugacy class of the pair, which
    makes it a normal form for bases up to simultaneous conjugation.
    """
    if not nielsen_dehn_oracle(u, v):
        raise NotABasisError("(%s, %s) is not a basis" % (_shown(u), _shown(v)))
    # a basis abelianizes to a unimodular pair, both of whose vectors are coprime
    return _lower_word(*u.abelianization()), _lower_word(*v.abelianization())


def is_primitive(w: FreeWord) -> bool:
    """Whether w is part of some basis: a conjugate of a Christoffel word."""
    core, _ = w.cyclic_reduce()
    p, q = core.abelianization()
    return math.gcd(p, q) == 1 and core.is_conjugate_to(_lower_word(p, q))


def path_svg(p: int, q: int, upper: bool = False) -> str:
    """An SVG drawing of the path and the segment, exact at unit scale."""
    word = upper_christoffel_word(p, q) if upper else christoffel_word(p, q)
    points = word_path(word)
    xs = [x for x, _ in points]
    ys = [-y for _, y in points]
    min_x, max_x = min(xs + [0]), max(xs + [0])
    min_y, max_y = min(ys + [0]), max(ys + [0])
    poly = " ".join("%d,%d" % (x, -y) for x, y in points)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%d %d %d %d">\n'
        '  <line x1="0" y1="0" x2="%d" y2="%d" stroke="gray" stroke-width="0.05"/>\n'
        '  <polyline points="%s" fill="none" stroke="black" stroke-width="0.1"/>\n'
        "</svg>\n"
        % (min_x - 1, min_y - 1, max_x - min_x + 2, max_y - min_y + 2, p, -q, poly)
    )
