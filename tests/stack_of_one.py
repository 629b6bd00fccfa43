"""Read a model's stacked methods at one point or at one segment."""

from geocalc.core import _one


def at_one(stacked, *points):
    """``stacked`` on a stack of one, the point or the segment's two ends:
    the only row of its output, or of each output of a tuple."""
    out = stacked(*map(_one, points))
    return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]
