"""`ordered_map`, kept only as a name that `walls` and `oracle` bind."""


def ordered_map(fn, items):
    """Apply fn to every item, in input order.

    Nothing in the program calls it: `perfbench/tracing.py` patches
    `walls.ordered_map` and `oracle.ordered_map` by name, so both names stay
    bound until ROADMAP items 1a/1b delete this module.
    """
    return [fn(item) for item in items]
