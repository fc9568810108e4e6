"""Set-up of the in-process workloads: import forestcodec, then warm it up.

``python3 perfbench/warmup.py codec|oracle`` does exactly that in a fresh
interpreter and exits; the benchmark times such runs to report ``setup_s``.
This module imports nothing but the standard library and forestcodec, so the
probe times the program and not the benchmark.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Largest sizes the oracle battery enumerates through the lru-cached shape
# tables, and the size of its large-n Riordan grid.
SHAPE_SIZE = 9
KARY_SHAPES = ((2, 5), (3, 4))
RIORDAN_N = 100


def load():
    """Import forestcodec from this checkout's src/ and nowhere else."""
    package = SRC / "forestcodec"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no forestcodec sources at {package}")
    sys.path.insert(0, str(SRC))
    import forestcodec

    if Path(forestcodec.__file__).resolve().parent != package:
        sys.exit(f"error: imported forestcodec from {forestcodec.__file__}")
    return forestcodec


def warm_codec(fc):
    """Run one small round trip per codec family."""
    for family, colors in (("plain", 0), ("plane", 0), ("colored", 3)):
        forest = fc.sample_uniform(family, 12, 1, colors=colors)
        fc.decode(fc.encode(forest))


def warm_oracle(fc):
    """Fill the lru caches the oracle battery reads: shapes and Riordan rows."""
    spec = fc.FamilySpec("plane", n=SHAPE_SIZE, roots=1, labeled=False)
    for _ in fc.enumerate_family(spec):
        pass
    for arity, internal in KARY_SHAPES:
        spec = fc.FamilySpec("kary", n=internal, arity=arity, labeled=False)
        for _ in fc.enumerate_family(spec):
            pass
    for k in range(1, RIORDAN_N):
        fc.riordan_forest_count(RIORDAN_N, k)


WARMUPS = {"codec": warm_codec, "oracle": warm_oracle}


if __name__ == "__main__":
    WARMUPS[sys.argv[1]](load())
