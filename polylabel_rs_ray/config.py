"""Engine configuration.

World extent is a power-of-two square so cell edges are dyadic and cell
arithmetic is fp-exact; covers both the synthetic planar fixtures
(coords ~[-130, 1110] after integer translation) and lon/lat degrees
(Norway/London fixtures)."""

from __future__ import annotations

WORLD_MIN = -2048.0
WORLD_SIZE = 4096.0  # world is [WORLD_MIN, WORLD_MIN + WORLD_SIZE)^2

DEFAULT_CELL_RES = 8  # 256x256 grid -> 16-unit cells (join/shuffle key)
DEFAULT_TILE_RES = 5  # 32x32 grid -> 128-unit tiles (render targets)
MAX_RES = 26

