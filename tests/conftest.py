import random

from halkron.numtheory import from_words, to_words
from halkron.sequences import PointSet2


def point_set(xs: list[int], ys: list[int], width: int = 128) -> PointSet2:
    """The point set of the numerator lists ``xs`` and ``ys``."""
    return PointSet2(to_words(xs, width), to_words(ys, width), width)


def coordinates(ps: PointSet2) -> tuple[list[int], list[int]]:
    """The exact numerators of a point set's x and y."""
    return from_words(ps.x, ps.width), from_words(ps.y, ps.width)


def random_point_set(rng: random.Random, n_points: int, width: int = 128,
                     coarse: bool = False, allow_dups: bool = True) -> PointSet2:
    """Random exact point set; ``coarse`` snaps to a 16-cell grid so that
    ties and duplicates actually occur."""
    xs, ys = [], []
    for _ in range(n_points):
        if coarse:
            xs.append(rng.randrange(16) << (width - 4))
            ys.append(rng.randrange(16) << (width - 4))
        else:
            xs.append(rng.getrandbits(width))
            ys.append(rng.getrandbits(width))
    if allow_dups and n_points >= 2 and rng.random() < 0.3:
        j = rng.randrange(n_points - 1)
        xs[j + 1], ys[j + 1] = xs[j], ys[j]
    return point_set(xs, ys, width)
