"""Checks that several test modules share."""

from forestcodec import RootedForest
from forestcodec.forests import _rebuilt


def revalidate(value) -> None:
    """Check a value built without its check (a bijection step's output, or
    a ``decode``, ``sample_uniform`` or ``encode`` result) anew on the
    validating construction path, ``forests._rebuilt``, a colored forest's
    base first, and that every other field is an int or a tuple of ints, as
    the parsers build them, or a trace's family name."""
    for x in value._values:
        if isinstance(x, RootedForest):
            revalidate(x)
        else:
            assert type(x) in (int, str) or (
                type(x) is tuple and all(type(i) is int for i in x)
            ), x
    _rebuilt(type(value), value._values)
