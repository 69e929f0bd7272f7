"""Exact permutation arithmetic and stabilizer chains.

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
from dataclasses import dataclass
from typing import Iterable, Optional

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
        inv = [0] * self.degree
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._trusted(tuple(inv))

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


def connection_set(n: int, kind: str, fixed_points: Optional[int] = None) -> ConnectionSet:
    """All permutations of S_n of the requested kind.

    "transpositions" and "derangements" coincide with fixed-point counts
    n-2 and 0 respectively.
    """
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
    elems = frozenset(
        Permutation(imgs)
        for imgs in itertools.permutations(range(n))
        if sum(1 for i, x in enumerate(imgs) if i == x) == want
    )
    return ConnectionSet(n, kind, fixed_points if kind == KIND_FIXED else None, elems)


# --------------------------------------------------------------------------
# Deterministic Schreier-Sims


class _Node:
    """One level of a stabilizer chain: a base point, the strong generators
    introduced at this level, the fundamental orbit with transversal, and the
    stabilizer subgroup as the next node."""

    __slots__ = ("degree", "point", "gens", "transversal", "inverses",
                 "sifted", "stab")

    def __init__(self, degree: int):
        self.degree = degree
        self.point: Optional[int] = None
        self.gens: list[Permutation] = []
        # transversal[x] maps self.point to x; inverses caches t^-1 per x
        self.transversal: dict[int, Permutation] = {}
        self.inverses: dict[int, Permutation] = {}
        # images of the Schreier generators already sifted into stab; the
        # stabilizer only grows, so sifting one of them again is a no-op
        self.sifted: set[tuple[int, ...]] = set()
        self.stab: Optional["_Node"] = None

    def generators(self) -> list[Permutation]:
        """Generators of the group at this level (this level's plus all
        deeper ones; deeper generators fix this level's base point but may
        still extend the fundamental orbit indirectly -- they are part of
        the strong generating set)."""
        out = list(self.gens)
        if self.stab is not None:
            out.extend(self.stab.generators())
        return out

    def inverse(self, x: int) -> Permutation:
        """The inverse of transversal[x], computed once per orbit build."""
        inv = self.inverses.get(x)
        if inv is None:
            inv = self.inverses[x] = self.transversal[x].inverse()
        return inv

    def sift(self, p: Permutation) -> Permutation:
        node = self
        while node.point is not None:
            x = p.images[node.point]
            if x != node.point:
                if x not in node.transversal:
                    return p
                p = p.compose(node.inverse(x))
            node = node.stab
        return p

    def add_gen(self, p: Permutation) -> bool:
        """Add p to the group; False (and no change) if it is a member."""
        residue = self.sift(p)
        if residue.is_identity():
            return False
        self._add_nonmember(residue)
        return True

    def _add_nonmember(self, p: Permutation) -> None:
        if self.point is None:
            self.point = min(i for i in range(self.degree) if p(i) != i)
            self.stab = _Node(self.degree)
        if p(self.point) == self.point:
            self.stab._add_nonmember(p)
        else:
            self.gens.append(p)
        self._rebuild_orbit()
        self._close_schreier()

    def _rebuild_orbit(self) -> None:
        allgens = self.generators()
        self.transversal = {self.point: Permutation.identity(self.degree)}
        self.inverses = {}
        frontier = [self.point]
        while frontier:
            new = []
            for x in frontier:
                t = self.transversal[x]
                for g in allgens:
                    y = g(x)
                    if y not in self.transversal:
                        self.transversal[y] = t.compose(g)
                        new.append(y)
            frontier = sorted(new)

    def _close_schreier(self) -> None:
        allgens = self.generators()
        for x in sorted(self.transversal):
            t = self.transversal[x].images
            for g in allgens:
                # images of t * g * transversal[g(x)]^-1
                u_inv = self.inverse(g.images[x]).images
                schreier = tuple(map(u_inv.__getitem__, map(g.images.__getitem__, t)))
                if schreier not in self.sifted:
                    self.sifted.add(schreier)
                    self.stab.add_gen(Permutation._trusted(schreier))

    def order(self) -> int:
        if self.point is None:
            return 1
        return len(self.transversal) * self.stab.order()


class StabilizerChain:
    """Base and strong generating set of a permutation group.

    Deterministic (non-randomized) construction: base points are taken in
    increasing order of first moved point, so two builds from the same
    generator list give identical bases, orbits and transversals. The chain
    is incremental: ``add_generator`` extends it by one generator, and a
    chain built from a list equals one extended by its members in order.
    """

    def __init__(self, generators: Iterable[Permutation], degree: Optional[int] = None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValidationError("degree required for an empty generator list")
            degree = generators[0].degree
        self.degree = degree
        self._root = _Node(degree)
        for g in generators:
            self.add_generator(g)

    def _nodes(self) -> list[_Node]:
        out = []
        node = self._root
        while node is not None and node.point is not None:
            out.append(node)
            node = node.stab
        return out

    @property
    def base(self) -> list[int]:
        return [node.point for node in self._nodes()]

    def strong_generators(self) -> list[Permutation]:
        return self._root.generators()

    def fundamental_orbits(self) -> list[list[int]]:
        return [sorted(node.transversal) for node in self._nodes()]

    def order(self) -> int:
        return self._root.order()

    def sift(self, p: Permutation) -> Permutation:
        if p.degree != self.degree:
            raise ValidationError("degree mismatch in membership test")
        return self._root.sift(p)

    def contains(self, p: Permutation) -> bool:
        return self.sift(p).is_identity()

    def add_generator(self, p: Permutation) -> bool:
        """Extend the group by p. Returns False, changing nothing, when p is
        already a member."""
        if p.degree != self.degree:
            raise ValidationError("generators of mixed degree")
        return self._root.add_gen(p)


def build_stabilizer_chain(generators: Iterable[Permutation],
                           degree: Optional[int] = None) -> StabilizerChain:
    return StabilizerChain(generators, degree)
