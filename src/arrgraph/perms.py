"""Exact permutation arithmetic, connection sets, and stabilizer chains.

A stabilizer chain keeps each level's orbit as a Schreier vector over one
shared list of generators and their inverses, not as transversal elements
(see ``StabilizerChain``). It is built by incremental Schreier-Sims that
closes each (orbit point, generator) pair of a level once, or, when a base
and a strong generating set for it are known, from one breadth-first pass
per level (``StabilizerChain.from_strong_generators``).
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
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
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


def check_tuple_count(n: int, k: int, config: Config = DEFAULT_CONFIG) -> None:
    """ValidationError if there are more k-tuples of distinct values in
    0..n-1 than the vertex guard; k = n counts the elements of S_n. The
    product n(n-1)...(n-k+1) is not formed past the guard, so huge n and k
    fail at once."""
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
    """Base and strong generating set of a permutation group.

    The chain keeps each generator's images and their inverse once, in
    one list that every level indexes, and each level a Schreier vector in
    place of its transversal, so its memory grows with the generators and
    the degree times the base length, not with the orbits times the
    degree. A sift strips a level by walking its Schreier tree from the
    image of the base point back to the base point.

    Incremental Schreier-Sims (Seress, *Permutation Group Algorithms*,
    2003, section 4.2) over a flat list of levels. A non-member sifts to a
    residue h that fixes the base points before some level m and drops out
    there: it moves that level's base point out of the orbit, or m is one
    past the last level. h is appended to every level from the one it
    entered at down to m, and the levels are closed bottom-up. Orbits are
    only extended, never rebuilt, and each (orbit point, generator) pair
    gives one Schreier generator, sifted once from the level below. The
    transversal elements that closing a level traces are kept only until
    ``add_generator``, or the constructor, returns (see ``_Closing``).

    Deterministic: a new base point is the first point moved by the residue
    that needs it, and an orbit point is reached by the first generator
    that reaches it, so two builds from the same generator list give
    identical bases, orbits and strong generators, and a chain built from
    a list equals one extended by ``add_generator`` in the same order.
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
        closing = _Closing(self)
        for g in generators:
            self._add(g, closing)

    @classmethod
    def from_strong_generators(cls, base: Iterable[int],
                               generators: Iterable[Permutation],
                               degree: int) -> "StabilizerChain":
        """The chain of the group generated by a strong generating set for
        a known base (Seress 2003, ch. 4): level i is generated by the
        generators that fix base[:i] pointwise, and its orbit and Schreier
        vector come from one breadth-first pass over them. No Schreier
        generator is sifted; every (orbit point, generator) pair counts as
        closed, which holds because the set is strong, so
        ``add_generator`` extends the chain as usual. Base points whose
        orbit is trivial get no level.

        Raises AssertionError if a generator does not sift to the
        identity, which a set that is not strong for the base can cause.
        """
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

    def add_generator(self, p: Permutation) -> bool:
        """Extend the group by p. Returns False, changing nothing, when p is
        already a member."""
        return self._add(p, _Closing(self))

    def _add(self, p: Permutation, closing: "_Closing") -> bool:
        if p.degree != self.degree:
            raise ValidationError("generators of mixed degree")
        h, m = self._sift(p.images, 0)
        if h == self._identity:
            return False
        first = 0
        while True:
            # h enters at level `first` and drops out at level m
            if m == len(self._levels):
                point = next(i for i, x in enumerate(h) if i != x)
                self._levels.append(_Level(point, self.degree))
            index = len(self._gens)
            self._gens.append(h)
            self._invs.append(_inverse(h))
            for level in self._levels[first:m + 1]:
                level.gens.append(index)
            # close the levels bottom-up from m; a residue of a Schreier
            # generator of level i enters at level i + 1
            i = m
            while (found := closing.next_residue(i)) is None:
                i -= 1
                if i < 0:
                    return True
            (h, m), first = found, i + 1

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


class _Closing:
    """What ``add_generator``, or the constructor for its whole generator
    list, keeps while it closes the levels, dropped when it returns: per
    level, the count of the level's generators applied to each orbit
    point, and the transversal elements traced so far and their inverses.
    Every level is closed when a generator has been added, so the counts
    need not outlive the call, and the traced elements spare each Schreier
    generator the walks to its points. Schreier vectors are only extended,
    so a traced element stays valid while the chain grows."""

    def __init__(self, chain: StabilizerChain):
        self.chain = chain
        # every orbit point of every level has had all the generators the
        # level has now: the levels are closed between calls. A level that
        # gets a generator is closed through next_residue, which keeps its
        # counts from then on
        self.closed = [len(level.gens) for level in chain._levels]
        self.applied: dict[int, list[int]] = {}
        self.traced: dict[int, dict[int, tuple[int, ...]]] = {}
        self.inverses: dict[int, dict[int, tuple[int, ...]]] = {}

    def _trace(self, memo: dict, i: int, x: int, step) -> tuple[int, ...]:
        """memo[i][x], made from the element of the point x came from:
        step(element, generator index) gives the element of its child."""
        known = memo.get(i)
        if known is None:
            known = memo[i] = {self.chain._levels[i].point: self.chain._identity}
        reached_by, invs = self.chain._levels[i].reached_by, self.chain._invs
        path = []
        while x not in known:
            path.append(x)
            x = invs[reached_by[x]][x]
        u = known[x]
        for y in reversed(path):
            u = known[y] = step(u, reached_by[y])
        return u

    def transversal(self, i: int, x: int) -> tuple[int, ...]:
        """The element of level i that maps its base point to x."""
        gens = self.chain._gens
        return self._trace(self.traced, i, x, lambda u, g: _then(u, gens[g]))

    def inverse_transversal(self, i: int, x: int) -> tuple[int, ...]:
        """The inverse of transversal(i, x)."""
        invs = self.chain._invs
        return self._trace(self.inverses, i, x, lambda u, g: _then(invs[g], u))

    def next_residue(self, i: int) -> Optional[tuple[tuple[int, ...], int]]:
        """Apply level i's generators to its orbit points, pair by pair,
        until a Schreier generator sifts to a non-identity residue; returns
        it with its drop-out level, or None once the level is closed."""
        chain = self.chain
        level = chain._levels[i]
        gens, orbit, reached_by = level.gens, level.orbit, level.reached_by
        applied = self.applied.get(i)
        if applied is None:
            closed = self.closed[i] if i < len(self.closed) else 0
            applied = self.applied[i] = [closed] * len(orbit)
        for j, x in enumerate(orbit):  # the orbit grows while it is scanned
            if applied[j] == len(gens):
                continue
            tx = self.transversal(i, x)
            while applied[j] < len(gens):
                index = gens[applied[j]]
                applied[j] += 1
                g = chain._gens[index]
                tg = _then(tx, g)
                y = g[x]
                if reached_by[y] is None:
                    reached_by[y] = index
                    self.traced[i][y] = tg
                    orbit.append(y)
                    applied.append(0)
                    continue
                # trans[x] * g * trans[y]^-1, sifted from level i + 1 on
                h, m = chain._sift(_then(tg, self.inverse_transversal(i, y)), i + 1)
                if h != chain._identity:
                    return h, m
        return None
