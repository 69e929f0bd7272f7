"""Exact permutation arithmetic, connection sets, and stabilizer chains.

Stabilizer chains are built by incremental Schreier-Sims that closes each
(orbit point, generator) pair of a level once (see ``StabilizerChain``).
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
from typing import Iterable, Optional

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

    @classmethod
    def from_one_based(cls, images: Iterable[int]) -> "Permutation":
        return cls(x - 1 for x in images)

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
        return Permutation._trusted(tuple(map(other.images.__getitem__, self.images)))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_inverse(self.images))

    def fixed_point_count(self) -> int:
        return sum(1 for i, x in enumerate(self.images) if i == x)

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        seen = [False] * self.degree
        par = 0
        for i in range(self.degree):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            par ^= (length - 1) & 1
        return par

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


# --------------------------------------------------------------------------
# Connection sets of Cayley graphs on the symmetric group


KIND_TRANSPOSITIONS = "transpositions"
KIND_DERANGEMENTS = "derangements"
KIND_FIXED = "fixed"


@dataclass(frozen=True)
class ConnectionSet:
    """An inverse-closed, identity-free subset of S_n.

    kind is one of "transpositions", "derangements", "fixed"; for "fixed",
    fixed_points gives the exact number of fixed points (0 <= f <= n-2).
    """

    degree: int
    kind: str
    fixed_points: Optional[int]
    elements: frozenset[Permutation]

    def __post_init__(self):
        if self.kind not in (KIND_TRANSPOSITIONS, KIND_DERANGEMENTS, KIND_FIXED):
            raise ValidationError(f"unknown connection set kind {self.kind!r}")
        if self.kind == KIND_FIXED:
            f = self.fixed_points
            if f is None or not 0 <= f <= self.degree - 2:
                raise ValidationError(
                    f"fixed-point count must satisfy 0 <= f <= n-2, got {f} for n={self.degree}")
        ident = Permutation.identity(self.degree)
        if ident in self.elements:
            raise ValidationError("connection set must not contain the identity")
        for p in self.elements:
            if p.degree != self.degree:
                raise ValidationError("connection set element of wrong degree")
            if p.inverse() not in self.elements:
                raise ValidationError("connection set is not closed under inversion")

    def __len__(self) -> int:
        return len(self.elements)

    def label(self) -> str:
        if self.kind == KIND_FIXED:
            return f"fixed:{self.fixed_points}"
        return self.kind


def check_symmetric_group_size(n: int, config: Config = DEFAULT_CONFIG) -> None:
    """ValidationError if S_n has more elements than the vertex guard; n!
    is not formed past the guard, so a huge n fails at once."""
    size = 1
    for i in range(2, n + 1):
        size *= i
        if size > config.vertex_guard:
            raise ValidationError(
                f"S_{n} has more than {config.vertex_guard} elements, over the vertex guard")


def connection_set(n: int, kind: str, fixed_points: Optional[int] = None,
                   config: Config = DEFAULT_CONFIG) -> ConnectionSet:
    """All permutations of S_n of the requested kind, once S_n passes the
    vertex guard. "transpositions" and "derangements" coincide with
    fixed-point counts n-2 and 0 respectively."""
    if n < 2:
        raise ValidationError(f"connection sets need n >= 2, got {n}")
    if kind == KIND_TRANSPOSITIONS:
        want = n - 2
    elif kind == KIND_DERANGEMENTS:
        want = 0
    elif kind == KIND_FIXED:
        if fixed_points is None:
            raise ValidationError("kind 'fixed' requires a fixed-point count")
        if not 0 <= fixed_points <= n - 2:
            raise ValidationError(
                f"fixed-point count must satisfy 0 <= f <= n-2, got {fixed_points} for n={n}")
        want = fixed_points
    else:
        raise ValidationError(f"unknown connection set kind {kind!r}")
    check_symmetric_group_size(n, config)
    elems = frozenset(
        Permutation(imgs)
        for imgs in itertools.permutations(range(n))
        if sum(1 for i, x in enumerate(imgs) if i == x) == want
    )
    return ConnectionSet(n, kind, fixed_points if kind == KIND_FIXED else None, elems)


# --------------------------------------------------------------------------
# Deterministic incremental Schreier-Sims


class _Level:
    """One chain level: its base point, the generators of the group at this
    level (each fixes the earlier base points), and the fundamental orbit in
    discovery order. trans[x] maps the base point to x and inv[x] is its
    inverse, image tuples made once when x joins the orbit; applied[j]
    counts the generators already applied to orbit[j]."""

    __slots__ = ("point", "gens", "orbit", "applied", "trans", "inv")

    def __init__(self, point: int, identity: tuple[int, ...]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.orbit = [point]
        self.applied = [0]
        self.trans = {point: identity}
        self.inv = {point: identity}


class StabilizerChain:
    """Base and strong generating set of a permutation group.

    Incremental Schreier-Sims (Seress, *Permutation Group Algorithms*,
    2003, section 4.2) over a flat list of levels. A non-member sifts to a
    residue h that fixes the base points before some level m and drops out
    there: it moves that level's base point out of the orbit, or m is one
    past the last level. h is appended to every level from the one it
    entered at down to m, and the levels are closed bottom-up. Orbits are
    only extended, never rebuilt, and each (orbit point, generator) pair
    gives one Schreier generator, sifted once from the level below.

    Deterministic: a new base point is the first point moved by the residue
    that needs it, so two builds from the same generator list give
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
        for g in generators:
            self.add_generator(g)

    @property
    def base(self) -> list[int]:
        return [level.point for level in self._levels]

    def strong_generators(self) -> list[Permutation]:
        """Each generator once, grouped by the level whose base point it
        moves."""
        return [Permutation._trusted(g) for level in self._levels
                for g in level.gens if g[level.point] != level.point]

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
                self._levels.append(_Level(point, self._identity))
            for level in self._levels[first:m + 1]:
                level.gens.append(h)
            # close the levels bottom-up from m; a residue of a Schreier
            # generator of level i enters at level i + 1
            i = m
            while (found := self._next_residue(i)) is None:
                i -= 1
                if i < 0:
                    return True
            (h, m), first = found, i + 1

    def _sift(self, images: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int]:
        """Strip images through the levels from i on. Returns the residue
        and the level it drops out at (len(levels) if it gets through)."""
        levels = self._levels
        while i < len(levels):
            level = levels[i]
            x = images[level.point]
            if x != level.point:
                inv = level.inv.get(x)
                if inv is None:
                    break
                images = tuple(map(inv.__getitem__, images))
            i += 1
        return images, i

    def _next_residue(self, i: int) -> Optional[tuple[tuple[int, ...], int]]:
        """Apply level i's generators to its orbit points, pair by pair,
        until a Schreier generator sifts to a non-identity residue; returns
        it with its drop-out level, or None once the level is closed."""
        level = self._levels[i]
        gens, orbit, applied, trans, inv = (
            level.gens, level.orbit, level.applied, level.trans, level.inv)
        for j, x in enumerate(orbit):  # the orbit grows while it is scanned
            while applied[j] < len(gens):
                g = gens[applied[j]]
                applied[j] += 1
                tg = tuple(map(g.__getitem__, trans[x]))
                y = g[x]
                if y not in trans:
                    trans[y] = tg
                    inv[y] = _inverse(tg)
                    orbit.append(y)
                    applied.append(0)
                    continue
                # images of trans[x] * g * trans[y]^-1
                h, m = self._sift(tuple(map(inv[y].__getitem__, tg)), i + 1)
                if h != self._identity:
                    return h, m
        return None


def build_stabilizer_chain(generators: Iterable[Permutation],
                           degree: Optional[int] = None) -> StabilizerChain:
    return StabilizerChain(generators, degree)
