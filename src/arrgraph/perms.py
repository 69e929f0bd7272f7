"""Exact permutation arithmetic, connection sets, and stabilizer chains.

A stabilizer chain keeps each level's orbit as a Schreier vector over one
shared list of generators and their inverses, not as transversal elements
(see ``StabilizerChain``). It is built once and never extended: by
Schreier-Sims over its whole generator list, which closes each (orbit
point, generator) pair of a level once, or, when a base and a strong
generating set for it are known, from one breadth-first pass per level
(``StabilizerChain.from_strong_generators``).
Conventions used throughout the package:

- points are 0-based internally, 1-based only at I/O boundaries;
- composition is left-to-right: ``(p * q)(i) == q(p(i))`` (apply p first),
  matching the superscript action notation i^(pq) = (i^p)^q;
- images are validated at the API boundary only: ``Permutation(...)`` checks
  that it is given a permutation, while results of internal arithmetic
  (``compose``, ``inverse``, ``identity``, stabilizer chains, the IR search)
  are built with the trusted constructor ``Permutation._trusted``, which
  skips the check because a composite of permutations is one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .config import Config, DEFAULT_CONFIG
from .errors import ValidationError


class Permutation:
    """Immutable permutation of {0, ..., n-1} stored in one-line form."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValidationError("permutation degree must be >= 1")
        seen = [False] * n
        for x in images:
            if type(x) is not int or not 0 <= x < n or seen[x]:
                raise ValidationError(f"{images} is not a permutation of 0..{n - 1}")
            seen[x] = True
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple already known to be a permutation, without checking.
        Internal only: outside input goes through the validating constructor."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValidationError("permutation degree must be >= 1")
        return cls._trusted(tuple(range(degree)))

    def to_one_based(self) -> list[int]:
        return [x + 1 for x in self.images]

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __getitem__(self, point: int) -> int:
        return self.images[point]

    def compose(self, other: "Permutation") -> "Permutation":
        """self followed by other: result(i) = other(self(i))."""
        if self.degree != other.degree:
            raise ValidationError(
                f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation._trusted(_then(self.images, other.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inverse(self.images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.to_one_based()) + "]"


def transposition(degree: int, a: int, b: int) -> Permutation:
    imgs = list(range(degree))
    imgs[a], imgs[b] = imgs[b], imgs[a]
    return Permutation(imgs)


def cycle(degree: int) -> Permutation:
    """The full cycle (0 1 ... degree-1)."""
    return Permutation([(i + 1) % degree for i in range(degree)])


def symmetric_group_generators(degree: int) -> list[Permutation]:
    """Small standard generating set of the symmetric group: the
    transposition (0 1) and the full cycle. Degenerates gracefully for
    degree 1 (empty) and degree 2 (one transposition)."""
    if degree <= 1:
        return []
    if degree == 2:
        return [transposition(2, 0, 1)]
    return [transposition(degree, 0, 1), cycle(degree)]


def _inverse(images: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(images)
    for i, x in enumerate(images):
        inv[x] = i
    return tuple(inv)


def orbits(generators: Sequence[Sequence[int]], degree: int) -> list[int]:
    """orbit[x]: the least point of x's orbit under the group generated by
    the given permutations of 0..degree-1 (image tuples or Permutations),
    one breadth-first pass per orbit. The package's one orbit-label routine:
    both searches' symmetry pruning skip a point whose label is that of one
    they already branched on."""
    orbit = [-1] * degree
    for v in range(degree):
        if orbit[v] < 0:
            orbit[v] = v
            frontier = [v]
            for x in frontier:  # grows while it is read
                for images in generators:
                    y = images[x]
                    if orbit[y] < 0:
                        orbit[y] = v
                        frontier.append(y)
    return orbit


# --------------------------------------------------------------------------
# Connection sets of Cayley graphs on the symmetric group


KIND_TRANSPOSITIONS = "transpositions"
KIND_DERANGEMENTS = "derangements"
KIND_FIXED = "fixed"


def _kind_fixed_points(n: int, kind: str, fixed_points: Optional[int]) -> int:
    """The fixed-point count of every element of a connection set of the
    kind on n points; ValidationError for an unknown kind, or for "fixed"
    without a count in 0..n-2."""
    if kind == KIND_TRANSPOSITIONS:
        return n - 2
    if kind == KIND_DERANGEMENTS:
        return 0
    if kind != KIND_FIXED:
        raise ValidationError(f"unknown connection set kind {kind!r}")
    if fixed_points is None:
        raise ValidationError("kind 'fixed' requires a fixed-point count")
    _require_ints(f=fixed_points)
    if not 0 <= fixed_points <= n - 2:
        raise ValidationError(
            f"fixed-point count must satisfy 0 <= f <= n-2, got {fixed_points} for n={n}")
    return fixed_points


@dataclass(frozen=True)
class ConnectionSet:
    """An inverse-closed subset of S_n whose elements all have the kind's
    fixed-point count: n-2 for "transpositions", 0 for "derangements", and
    for "fixed" the exact count fixed_points (0 <= f <= n-2). So no set
    holds the identity, which fixes all n points.
    """

    degree: int
    kind: str
    fixed_points: Optional[int]
    elements: frozenset[Permutation]

    def __post_init__(self):
        want = _kind_fixed_points(self.degree, self.kind, self.fixed_points)
        for p in self.elements:
            if p.degree != self.degree:
                raise ValidationError("connection set element of wrong degree")
            if sum(1 for i, x in enumerate(p.images) if i == x) != want:
                raise ValidationError(
                    f"connection set element {p.images} does not have the {want} "
                    f"fixed points of kind {self.label()!r}")
            if p.inverse() not in self.elements:
                raise ValidationError("connection set is not closed under inversion")

    def __len__(self) -> int:
        return len(self.elements)

    def label(self) -> str:
        if self.kind == KIND_FIXED:
            return f"fixed:{self.fixed_points}"
        return self.kind


def _require_ints(**values) -> None:
    """ValidationError unless each value is an exact int, not a bool."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValidationError(f"{name} must be an int, got {value!r}")


def check_tuple_count(n: int, k: int, config: Config = DEFAULT_CONFIG) -> None:
    """ValidationError unless n and k are ints, 0 <= k <= n, and the k-tuples
    of distinct values in 0..n-1 (S_n when k = n) are within the vertex guard.
    n(n-1)...(n-k+1) is not formed past the guard, so huge n, k fail at once."""
    _require_ints(n=n, k=k)
    if not 0 <= k <= n:
        raise ValidationError(f"need 0 <= k <= n, got k={k} n={n}")
    size = 1
    for i in range(n - k + 1, n + 1):
        size *= i
        if size > config.vertex_guard:
            what = (f"S_{n}" if k == n
                    else f"the set of {k}-tuples of distinct values in 0..{n - 1}")
            raise ValidationError(
                f"{what} has more than {config.vertex_guard} elements, over the vertex guard")


def connection_set(n: int, kind: str, fixed_points: Optional[int] = None,
                   config: Config = DEFAULT_CONFIG) -> ConnectionSet:
    """All permutations of S_n of the requested kind, once S_n passes the
    vertex guard. "transpositions" and "derangements" coincide with
    fixed-point counts n-2 and 0 respectively."""
    _require_ints(n=n)
    if n < 2:
        raise ValidationError(f"connection sets need n >= 2, got {n}")
    want = _kind_fixed_points(n, kind, fixed_points)
    check_tuple_count(n, n, config)
    elems = frozenset(
        Permutation(imgs)
        for imgs in itertools.permutations(range(n))
        if sum(1 for i, x in enumerate(imgs) if i == x) == want
    )
    return ConnectionSet(n, kind, fixed_points if kind == KIND_FIXED else None, elems)


# --------------------------------------------------------------------------
# Stabilizer chains over Schreier vectors


def _then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Images of p followed by q. An itemgetter of one index returns the
    bare item, not a tuple, and one of no index cannot be made, so degrees
    below 2 take the loop."""
    if len(p) < 2:
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


class _Level:
    """One chain level: its base point, the generators of the group at this
    level (indexes into the chain's generator list; each fixes the earlier
    base points), the fundamental orbit in discovery order, and its
    Schreier vector (Seress 2003, section 4.1). reached_by[y] is the index
    of the generator g that first reached the orbit point y, from the
    orbit point g^-1(y); it is -1 at the base point and None off the orbit.
    The transversal element of y is that of g^-1(y) followed by g, so no
    element is stored: a walk from y back to the base point through the
    generators' inverses strips it."""

    __slots__ = ("point", "gens", "orbit", "reached_by")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[int] = []
        self.orbit = [point]
        self.reached_by: list[Optional[int]] = [None] * degree
        self.reached_by[point] = -1


class StabilizerChain:
    """Base and strong generating set of a permutation group, built once
    from its whole generator list and never extended.

    The chain keeps each generator's images and their inverse once, in
    one list that every level indexes, and each level a Schreier vector in
    place of its transversal, so its memory grows with the generators and
    the degree times the base length, not with the orbits times the
    degree. A sift strips a level by walking its Schreier tree from the
    image of the base point back to the base point.

    Schreier-Sims (Seress, *Permutation Group Algorithms*, 2003, section
    4.2) over a flat list of levels, taking the generators in order. A
    non-member sifts to a residue h that fixes the base points before some
    level m and drops out there: it moves that level's base point out of
    the orbit, or m is one past the last level. h is appended to every
    level from the one it entered at down to m, and the levels are closed
    bottom-up. Orbits are only extended, never rebuilt, and each (orbit
    point, generator) pair gives one Schreier generator t_x*g*t_y^-1,
    sifted once from the level below. The transversal elements and the
    counts of pairs closed that this needs are kept only until the
    constructor returns.

    Deterministic: a new base point is the first point moved by the residue
    that needs it, and an orbit point is reached by the first generator
    that reaches it, so two builds from the same generator list give
    identical bases, orbits and strong generators.
    """

    def __init__(self, generators: Iterable[Permutation], degree: Optional[int] = None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValidationError("degree required for an empty generator list")
            degree = generators[0].degree
        self.degree = degree
        self._identity = tuple(range(degree))
        self._levels: list[_Level] = []
        # images of every generator of the chain, and of its inverse
        self._gens: list[tuple[int, ...]] = []
        self._invs: list[tuple[int, ...]] = []
        # per level, while the chain is built: each orbit point's
        # transversal element and its inverse, and per orbit position the
        # count of the level's generators applied to that point
        building: list[tuple[dict, list[int]]] = []
        for p in generators:
            if p.degree != degree:
                raise ValidationError("generators of mixed degree")
            h, m = self._sift(p.images, 0)
            first = 0
            while h != self._identity:
                # h enters at level `first` and drops out at level m
                if m == len(self._levels):
                    point = next(i for i, x in enumerate(h) if i != x)
                    self._levels.append(_Level(point, degree))
                    building.append(({point: (self._identity, self._identity)}, [0]))
                index = len(self._gens)
                self._gens.append(h)
                self._invs.append(_inverse(h))
                for level in self._levels[first:m + 1]:
                    level.gens.append(index)
                h, m, first = self._next_residue(m, building)

    def _next_residue(self, m: int, building: list[tuple[dict, list[int]]]
                      ) -> tuple[tuple[int, ...], int, int]:
        """Close the levels bottom-up from m: apply each level's generators
        to its orbit points, pair by pair, until a Schreier generator of
        some level i sifts from level i + 1 to a non-identity residue.
        Returns that residue, its drop-out level and i + 1, the level it
        enters at; or the identity once every level is closed."""
        for i in range(m, -1, -1):
            level = self._levels[i]
            gens, orbit, reached_by = level.gens, level.orbit, level.reached_by
            elements, applied = building[i]
            for j, x in enumerate(orbit):  # the orbit grows while it is scanned
                tx, tx_inv = elements[x]
                while applied[j] < len(gens):
                    index = gens[applied[j]]
                    applied[j] += 1
                    g = self._gens[index]
                    tg = _then(tx, g)
                    y = g[x]
                    if reached_by[y] is None:
                        reached_by[y] = index
                        elements[y] = tg, _then(self._invs[index], tx_inv)
                        orbit.append(y)
                        applied.append(0)
                        continue
                    h, drop = self._sift(_then(tg, elements[y][1]), i + 1)
                    if h != self._identity:
                        return h, drop, i + 1
        return self._identity, 0, 0

    @classmethod
    def from_strong_generators(cls, base: Iterable[int],
                               generators: Iterable[Permutation],
                               degree: int) -> "StabilizerChain":
        """The chain of the group generated by a strong generating set for
        a known base (Seress 2003, ch. 4): level i is generated by the
        generators that fix base[:i] pointwise, and its orbit and Schreier
        vector come from one breadth-first pass over them. No Schreier
        generator is sifted. Base points whose orbit is trivial get no
        level.

        Raises ValidationError if a base point is not an int in
        0..degree-1, and AssertionError if a generator does not sift to
        the identity, which a set that is not strong for the base can
        cause.
        """
        base = list(base)
        for point in base:
            if type(point) is not int or not 0 <= point < degree:
                raise ValidationError(f"base point {point!r} is not a point of 0..{degree - 1}")
        strong = [g.images for g in generators]
        if any(len(g) != degree for g in strong):
            raise ValidationError("generators of mixed degree")
        chain = cls([], degree)
        chain._gens = strong
        chain._invs = [_inverse(g) for g in strong]
        gens = list(range(len(strong)))
        for point in base:
            if not gens:
                break
            level = _Level(point, degree)
            level.gens = gens
            orbit, reached_by = level.orbit, level.reached_by
            pairs = [(i, strong[i]) for i in gens]
            for x in orbit:  # the orbit grows while it is scanned
                for i, g in pairs:
                    y = g[x]
                    if reached_by[y] is None:
                        reached_by[y] = i
                        orbit.append(y)
            if len(orbit) > 1:
                chain._levels.append(level)
            # the generators of the next level also fix this base point
            gens = [i for i in gens if strong[i][point] == point]
        for g in strong:
            if chain._sift(g, 0)[0] != chain._identity:
                raise AssertionError(
                    "generators are not a strong generating set for the base")
        return chain

    @property
    def base(self) -> list[int]:
        return [level.point for level in self._levels]

    def strong_generators(self) -> list[Permutation]:
        """Each generator once, grouped by the level whose base point it
        moves."""
        return [Permutation._trusted(g) for level in self._levels
                for g in map(self._gens.__getitem__, level.gens)
                if g[level.point] != level.point]

    def fundamental_orbits(self) -> list[list[int]]:
        return [sorted(level.orbit) for level in self._levels]

    def order(self) -> int:
        return math.prod(len(level.orbit) for level in self._levels)

    def sift(self, p: Permutation) -> Permutation:
        if p.degree != self.degree:
            raise ValidationError("degree mismatch in membership test")
        return Permutation._trusted(self._sift(p.images, 0)[0])

    def contains(self, p: Permutation) -> bool:
        return self.sift(p).is_identity()

    def _sift(self, images: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int]:
        """Strip images through the levels from i on, each by the walk
        back through its Schreier tree from the image of its base point.
        Returns the residue and the level it drops out at (len(levels) if
        it gets through)."""
        levels, invs = self._levels, self._invs
        while i < len(levels):
            level = levels[i]
            point, reached_by = level.point, level.reached_by
            x = images[point]
            if x != point:
                if reached_by[x] is None:
                    break
                while x != point:
                    inv = invs[reached_by[x]]
                    images = _then(images, inv)
                    x = inv[x]
            i += 1
        return images, i
