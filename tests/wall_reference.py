"""The whole-interval wall table: the reference the periodic tests check against.

`walls._periodic_wall_table` builds one period of the wall pattern and lists
the interval's walls as runs of its copies; `_wall_table` builds every wall of
the interval directly, from the same family scan (`_held_families`) and the
same grouping (`_walls_of`) over each family's whole d'-range.  The package
does not use it: `enumerate_walls`, `chamber_report` and the CLI all expand
the periodic table.  Without a `test_` prefix pytest does not collect this
file; the tests import it from their own directory.
"""

from __future__ import annotations

from fractions import Fraction

from upqstab.core import HitchinPairType, RationalLike
from upqstab.walls import Wall, WallWitness, _held_families, _walls_of


def _wall_table(
    t: HitchinPairType,
    interval: tuple[RationalLike, RationalLike],
    mw_twist_degree: int | None,
) -> tuple[Fraction, Fraction, int, list[int], list[tuple[tuple[int, int, int], ...]]]:
    """The walls of `enumerate_walls` as plain ints: (lo, hi, scale, keys, groups).

    lo and hi are the interval ends as Fractions.  The walls are scaled by
    scale = lcm(|coeff|) over the families with a wall in the interval (1 when
    none has one) to integer keys, so keys[i] = alpha_i * scale for the walls
    in increasing alpha, and groups[i] is the tuple of the (p', q', d')
    triples witnessing wall i, in (p', q', d') order and never empty.  No
    Fraction is built per wall, nor per witness the Milnor-Wood filter
    checks: it checks on the integer key.  More than MAX_WITNESSES rank
    families, or candidate witnesses, is refused before any is listed, or
    any key is built.
    """
    lo, hi, scale, held = _held_families(t, interval, mw_twist_degree)
    return (lo, hi, scale, *_walls_of(t, held, scale, mw_twist_degree))


def wall_records(table: tuple) -> list:
    """The `Wall` records of a `_wall_table` result, built by their constructors: what `enumerate_walls` returns."""
    _, _, scale, keys, groups = table
    return [Wall(Fraction(key, scale), tuple(WallWitness(*w) for w in group)) for key, group in zip(keys, groups)]
