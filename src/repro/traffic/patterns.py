"""Spatial traffic patterns.

Standard NoC evaluation patterns mapping each source tile to destination
tiles: uniform random, transpose, bit-complement, nearest neighbour and
hotspot.  Patterns return a destination per packet, letting generators
drive any mixture.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..network.topology import Coord, Mesh, NETWORK_DIRECTIONS

__all__ = [
    "Pattern",
    "UniformRandom",
    "LocalUniform",
    "Transpose",
    "BitComplement",
    "NearestNeighbor",
    "Hotspot",
]


class Pattern:
    """Maps a source tile to destination tiles."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        # One Coord per tile, shared by every per-source candidate list
        # (a 16x16 uniform pattern would otherwise hold ~65k copies).
        self._tiles = list(mesh.tiles())
        self._others_cache: dict = {}

    def destination(self, src: Coord) -> Coord:
        raise NotImplementedError

    def _candidates(self, src: Coord) -> List[Coord]:
        """Candidate destinations for ``src``; subclass hook."""
        return [tile for tile in self._tiles if tile != src]

    def _other_tiles(self, src: Coord) -> List[Coord]:
        # The mesh is static, so the per-source candidate list is built
        # once — patterns draw a destination per packet.
        others = self._others_cache.get(src)
        if others is None:
            others = self._candidates(src)
            self._others_cache[src] = others
        return others


class UniformRandom(Pattern):
    """Each packet goes to a uniformly random other tile."""

    def __init__(self, mesh: Mesh, seed: int = 0):
        super().__init__(mesh)
        self.rng = random.Random(seed)

    def destination(self, src: Coord) -> Coord:
        return self.rng.choice(self._other_tiles(src))


class LocalUniform(Pattern):
    """Uniform over the other tiles within Manhattan distance ``radius``.

    Historically the workaround for the 15-hop ceiling of a single
    32-bit route word; chained route headers lifted that limit, so plain
    uniform-random is legal on any mesh the header chain can span.
    LocalUniform remains useful as a *workload*: it models
    locality-biased traffic (short routes only) independent of any
    addressing constraint.
    """

    def __init__(self, mesh: Mesh, radius: int = 14, seed: int = 0):
        super().__init__(mesh)
        if radius < 1:
            raise ValueError("radius must be at least one hop")
        self.radius = radius
        self.rng = random.Random(seed)

    def _candidates(self, src: Coord) -> List[Coord]:
        radius = self.radius
        return [tile for tile in self._tiles
                if tile != src
                and abs(tile.x - src.x) + abs(tile.y - src.y) <= radius]

    def destination(self, src: Coord) -> Coord:
        return self.rng.choice(self._other_tiles(src))


class Transpose(Pattern):
    """(x, y) -> (y, x); tiles on the diagonal fall back to uniform."""

    def __init__(self, mesh: Mesh, seed: int = 0):
        super().__init__(mesh)
        self._fallback = UniformRandom(mesh, seed)

    def destination(self, src: Coord) -> Coord:
        dst = Coord(src.y, src.x)
        if dst == src or dst not in self.mesh:
            return self._fallback.destination(src)
        return dst


class BitComplement(Pattern):
    """(x, y) -> (cols-1-x, rows-1-y); the centre falls back to uniform."""

    def __init__(self, mesh: Mesh, seed: int = 0):
        super().__init__(mesh)
        self._fallback = UniformRandom(mesh, seed)

    def destination(self, src: Coord) -> Coord:
        dst = Coord(self.mesh.cols - 1 - src.x, self.mesh.rows - 1 - src.y)
        if dst == src:
            return self._fallback.destination(src)
        return dst


class NearestNeighbor(Pattern):
    """Each packet goes to a random in-mesh neighbour tile."""

    def __init__(self, mesh: Mesh, seed: int = 0):
        super().__init__(mesh)
        self.rng = random.Random(seed)

    def destination(self, src: Coord) -> Coord:
        neighbors = [src.step(direction) for direction in NETWORK_DIRECTIONS]
        neighbors = [tile for tile in neighbors if tile in self.mesh]
        return self.rng.choice(neighbors)


class Hotspot(Pattern):
    """A fraction of traffic goes to a hotspot tile, the rest uniform."""

    def __init__(self, mesh: Mesh, hotspot: Coord, fraction: float = 0.5,
                 seed: int = 0):
        super().__init__(mesh)
        if hotspot not in mesh:
            raise ValueError(f"hotspot {hotspot} outside the mesh")
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        self.hotspot = hotspot
        self.fraction = fraction
        self.rng = random.Random(seed)
        self._uniform = UniformRandom(mesh, seed + 1)

    def destination(self, src: Coord) -> Coord:
        if src != self.hotspot and self.rng.random() < self.fraction:
            return self.hotspot
        return self._uniform.destination(src)
