"""Byte-for-byte pin of sampler, codec and oracle output.

The sampler and codec digests were recorded before the bijection steps were
rewritten for linear work per step.  They fix, for every codec family, the
forest that each seed samples and the trace that encoding it records, so any
change in the choice indexing, the RNG draw order or the step results shows
up here.  The oracle digests were recorded while leafplane and k-ary were
still built shape by shape and sorted; they fix those streams' members and
canonical order.  The parse digests fix what each text parser returns or
raises, message and position included, on random and edited texts.
"""

import hashlib
import random

import pytest

from forestcodec import (
    ChoiceTrace,
    FamilySpec,
    RootedForest,
    decode,
    encode,
    parse_colored,
    parse_forest,
    parse_plane,
    render_colored,
    render_forest,
    render_plane,
    render_trace,
    sample_uniform,
    trace_bounds,
)
from forestcodec.enumeration import enumerate_family

FAMILIES = {
    "plain": (0, render_forest),
    "plane": (0, render_plane),
    "colored": (3, render_colored),
}
SIZES = (10, 50, 100)
SEEDS = range(20)

# sha256 of the joined lines, per (family, n, mode); "one-root" lines carry
# the forest and its trace, "roots3" lines (roots=3, conditioned=False) the
# forest only, since encode takes one-root forests.
DIGESTS = {
    ("colored", 10, "one-root"): "6b7bdf5848f90ef40ba8d0a3a16389f6d2b5d219948d2445f1773f5d7d3442ac",
    ("colored", 10, "roots3"): "79e7afded0695117332b58c4a9d1f02cd815fd7d22a7a39b61fb9476a46ae3fa",
    ("colored", 50, "one-root"): "44332dbc72170009b88312a457b4727c97bf7000e15e636768e7e19f972adab8",
    ("colored", 50, "roots3"): "f3133970d64ec8f89fc82a5a3ba228a1c7329bb580ce058b29016535987f0a65",
    ("colored", 100, "one-root"): "c3fea729f3cb75ad2b34f00d72f5893ab258be01747eda40f8534d9adf961863",
    ("colored", 100, "roots3"): "f19b29ad268bb2168dceb27e0ce73c8e161449edcc6845e028893298734d212a",
    ("plain", 10, "one-root"): "cbf23a780a4dd0012a204ba21dd798fb0433fb12d3f1ead15f79ef4143cb65ff",
    ("plain", 10, "roots3"): "d131f2e344954979cf566307a534b3007fe7a609ea0e31be38c19a12fae4e428",
    ("plain", 50, "one-root"): "debd296b193e77522414db0b2e6aa808f8bb84333b21426913acc5b25d449fb4",
    ("plain", 50, "roots3"): "8d0a493dc233a8804d5632ec4bb4319a84f8440374e2ae27fc452d8b1600defd",
    ("plain", 100, "one-root"): "abf96de6f8ef5971736fd84fb9db461dace2827781f29524840c2baf376443f7",
    ("plain", 100, "roots3"): "63af78f5de15432c075291b976eb71ea674026e9f15250c8dcc73d44c299dacf",
    ("plane", 10, "one-root"): "1754a5cadef7f0bb652ba4303e84ad2cf79664a2a5711204f2a6a75e74f1eafd",
    ("plane", 10, "roots3"): "276b78ced60470d3d2e388a10b5fdc5568d653d4e0f7d5094a6fafab32f47dce",
    ("plane", 50, "one-root"): "290ecb7c539369c6ec9b191407b854fc30b7650235f09eab4b1b41fc834ba133",
    ("plane", 50, "roots3"): "810ebb7120a14a9cb8379d89573ea22eae3fa012fb6202f13017122b71c178a3",
    ("plane", 100, "one-root"): "525bc13047674ade4e008b5aa6786d913a6cc54aca49b2808b2e95aabafdc80d",
    ("plane", 100, "roots3"): "f059e4090e66a00c50822b29631bedf042193a4e9834b1a9ea11384874935fb1",
}


def golden_lines(family: str, n: int, mode: str) -> list[str]:
    colors, render = FAMILIES[family]
    lines = []
    for seed in SEEDS:
        if mode == "one-root":
            forest = sample_uniform(family, n, seed, colors=colors)
            lines.append(render(forest))
            lines.append(render_trace(encode(forest)))
        else:
            forest = sample_uniform(
                family, n, seed, colors=colors, roots=3, conditioned=False
            )
            lines.append(render(forest))
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("mode", ("one-root", "roots3"))
def test_golden_output(family, n, mode):
    assert digest(golden_lines(family, n, mode)) == DIGESTS[(family, n, mode)]


# sha256 of the rendered stream, one forest a line, with its member count.
ORACLE_DIGESTS = {
    "leafplane n=8 p=3 r=2": (
        FamilySpec("leafplane", n=8, leaves=3, roots=2),
        240, "f71b8e547fa50ec302daec00e0179ce1c15ed18feb9111e484a446149c87da28",
    ),
    "leafplane n=8 p=3 r=2 conditioned": (
        FamilySpec("leafplane", n=8, leaves=3, roots=2, conditioned=True),
        120, "43c03288bad4f4567f62c44f66a0053607ea91d6785a9b3df848c6f44f98a9f9",
    ),
    "kary a=2 n=4 r=2": (
        FamilySpec("kary", n=4, arity=2, roots=2),
        28, "1afc002eacf6733a502773dd5af4c40be8b70b24cbf52378e9c1b9b23b8f9198",
    ),
    "kary a=3 n=4 shapes": (
        FamilySpec("kary", n=4, arity=3, labeled=False),
        55, "3f00338a004a8c09bcac52a2c41f8bc7397e0f141a4a29c6421c014b988672b2",
    ),
    # The plane filters (pivot, leaves, degrees) each on their own.
    "plane n=6 r=2 conditioned": (
        FamilySpec("plane", n=6, roots=2, conditioned=True),
        504, "2ad2ecf9dec33d37f5960b1527744e93951387a8a4681c18ee715ed85a2cce51",
    ),
    "plane n=5 leaves=2": (
        FamilySpec("plane", n=5, leaves=2),
        144, "aabad86deeec2313db9bca070cbf7c574f09036ced87c16f4569c47904b648b4",
    ),
    "plane n=7 leaves=3 shapes": (
        FamilySpec("plane", n=7, leaves=3, labeled=False),
        50, "626b9d3f48b35c533f7b8d4c179e5c172e7881ee632dc249d62da8f566a03787",
    ),
    "plane n=5 degrees": (
        FamilySpec("plane", n=5, degrees=(2, 0, 1, 1, 0)),
        12, "00e61bd79de9128215d043458a6ceef092ad0a807b0fd4e987bae87796cbee08",
    ),
}


@pytest.mark.parametrize("name", ORACLE_DIGESTS)
def test_oracle_stream(name):
    spec, count, want = ORACLE_DIGESTS[name]
    lines = [render_plane(pf) for pf in enumerate_family(spec)]
    assert (len(lines), digest(lines)) == (count, want)


# The same pin for the labeled families, rendered one forest (two lines when
# colored) per member.  Recorded while the oracles still kept their own
# copies of the properness, special-color and pivot checks.
LABELED_ORACLE_DIGESTS = {
    "plain n=5": (
        FamilySpec("plain", n=5),
        125, "d96e8071dc855836818f7964fc1d7e54b86e9556ee5e7289aae2481fe7f105f4",
    ),
    "plain n=6 r=2 conditioned": (
        FamilySpec("plain", n=6, roots=2, conditioned=True),
        216, "c0f85a75d25123fb230cf8f2e357a4882afdc6a9f69be87a6280367f5e93c16a",
    ),
    "plain n=5 root_set=2,4": (
        FamilySpec("plain", n=5, root_set=(2, 4)),
        50, "51c67f32aca2e389e17d77bcd4e40893704015da3e56aaaadc8ba722453da036",
    ),
    "plain n=6 r=2 degrees": (
        FamilySpec("plain", n=6, roots=2, degrees=(2, 0, 1, 0, 1, 0)),
        6, "e837e945fe957565a10361db047c0dfb2dec2a26452376ecd58c9015786714fb",
    ),
    "plain n=5 root_set=3 degrees": (
        FamilySpec("plain", n=5, root_set=(3,), degrees=(1, 0, 2, 0, 1)),
        6, "407ff5422ade759aede7826085c35d7a7e60bc8aa846df9b424471915fbdef21",
    ),
    "plain n=6 r=2 conditioned degrees": (
        FamilySpec("plain", n=6, roots=2, conditioned=True, degrees=(2, 1, 0, 1, 0, 0)),
        6, "600494d985cfc7e21cb9f5a8a59eda186347156a002e26c0af843e314497f3a4",
    ),
    "partite 2,3 r=1": (
        FamilySpec("partite", part_sizes=(2, 3)),
        12, "cf7273e8f92869432fded99083d42639a8cad7a46000a5aae43df772549a1034",
    ),
    "partite 3,3 r=2 conditioned": (
        FamilySpec("partite", part_sizes=(3, 3), roots=2, conditioned=True),
        27, "d84701216e6825ab9908406eb6066d9469eb2734ddb91e43b3617ba30c61861f",
    ),
    "partite 2,2,2 r=2": (
        FamilySpec("partite", part_sizes=(2, 2, 2), roots=2),
        192, "b9bfcf6c7be34095963348b6b8add528feeaec6b58b63f0c0ec975c9c77557f7",
    ),
    "partite 3,2,2 r=1 conditioned": (
        FamilySpec("partite", part_sizes=(3, 2, 2), conditioned=True),
        2800, "69d225db4125b7b02e0eadedf9c972666ccd21b64941a12fc375827b5e203476",
    ),
    "partite 3,2,2 r=1 degrees": (
        FamilySpec("partite", part_sizes=(3, 2, 2), degrees=(2, 0, 1, 1, 0, 0, 2)),
        12, "e4949abbac863e660f3f44b0452cd242438bba41fce48faecbcc4c6871163756",
    ),
    "colored n=4 kc=2 r=1": (
        FamilySpec("colored", n=4, colors=2),
        24, "ee6e5e387631a8c81aae75afe5c257852ac4998f8f908955aa7cb1a0a2eab9cd",
    ),
    "colored n=4 kc=3 r=2 conditioned": (
        FamilySpec("colored", n=4, colors=3, roots=2, conditioned=True),
        27, "1a690e39055fe9fd2242cd6f61838975e657ec73cbb7382a89a6ae1e66642220",
    ),
    "colored n=4 kc=3 root_set=1,3": (
        FamilySpec("colored", n=4, colors=3, root_set=(1, 3)),
        54, "a4ff2aaf5791743f3b2ddc91f72cfa7f2b06b1899329b78e586ff4eb4c699a03",
    ),
    "colored n=5 kc=2 degrees": (
        FamilySpec("colored", n=5, colors=2, degrees=(1, 1, 1, 1, 0)),
        12, "a2e077ff243cbf24a5e384a562885061d2ab52a38a5ed182f4ea671b1e7449af",
    ),
    "special-colored n=4 kc=2 r=2": (
        FamilySpec("special-colored", n=4, colors=2, roots=2),
        6, "367ca122327e830595277700db1e50cb9c8cc6d5d59ba9021b69bcfce5e9f2d1",
    ),
    "special-colored n=4 kc=3 r=1": (
        FamilySpec("special-colored", n=4, colors=3),
        84, "df259f33cbe0e768a23764936c3a8af988dc81c6724882a409a91f4e06b61801",
    ),
    "special-colored n=5 kc=3 r=2 conditioned": (
        FamilySpec("special-colored", n=5, colors=3, roots=2, conditioned=True),
        144, "b0fa926b8731253c0bd53f7204008ecab257b39d618c6460043bda1f058e3cd9",
    ),
    "special-colored n=5 kc=2 r=3 conditioned": (
        FamilySpec("special-colored", n=5, colors=2, roots=3, conditioned=True),
        4, "95cb9b634d8521b23e346f3256be6a0239cbe34b4b11a40f74d7967b8cbd994e",
    ),
}


@pytest.mark.parametrize("name", LABELED_ORACLE_DIGESTS)
def test_labeled_oracle_stream(name):
    spec, count, want = LABELED_ORACLE_DIGESTS[name]
    render = render_colored if spec.family.endswith("colored") else render_forest
    lines = [render(forest) for forest in enumerate_family(spec)]
    assert (len(lines), digest(lines)) == (count, want)


# The same pin for colored runs whose vertices offer kc-1-deg targets at
# other color counts: kc=2 (one target at a leaf, none at a degree-1
# vertex) and kc=5.  Lines as in "one-root" above, at n=100.
COLORED_DIGESTS = {
    2: "0ea2b6dd6956f488f676d749444ae128df0b2c92b267c744921bfcee1393dff9",
    5: "54a3a48652c712d8adaecbd8e8a79cd277544b92ae222a6d8047d787651c5f21",
}


@pytest.mark.parametrize("colors", sorted(COLORED_DIGESTS))
def test_golden_colored_counts(colors):
    lines = []
    for seed in SEEDS:
        forest = sample_uniform("colored", 100, seed, colors=colors)
        lines += [render_colored(forest), render_trace(encode(forest))]
    assert digest(lines) == COLORED_DIGESTS[colors]


def wide_forest(family: str, shape: str, n: int):
    """The star (every vertex below 1) or the broom (2 below 1, 3..n-1
    below 2, and n below 1) on n vertices."""
    if shape == "star":
        kids = [range(2, n + 1)]
    else:
        kids = [(2, n), range(3, n)]
    if family == "plain":
        parents = [0] * n
        for v, below in enumerate(kids, 1):
            for u in below:
                parents[u - 1] = v
        return RootedForest(tuple(parents))
    inner = ",".join(map(str, kids[-1]))
    if shape == "star":
        return parse_plane(f"1({inner})")
    return parse_plane(f"1(2({inner}),{n})")


# sha256 of the encode trace of each wide shape at n=2,000: every forward
# step cuts a leaf or a broom's handle from a vertex of high degree.
WIDE_DIGESTS = {
    ("plain", "star"): "288e7222eb8f6cee3dd5c71225178fee31c47193a60878ac316cd915ba5b8173",
    ("plain", "broom"): "08e53f340a0255e57036ca5cf7e0cfa193883439644bcae70815e50d12fa262a",
    ("plane", "star"): "08392cc5c2a84cfe2db2b4018dd53b46a53d5f7d58b980250232e4e885f1de56",
    ("plane", "broom"): "b7df7e2d73bcd51fc6ea3e15e4ac07ad0ee453289f606f72247d62a28b546859",
}


@pytest.mark.parametrize("family, shape", sorted(WIDE_DIGESTS))
def test_golden_wide_traces(family, shape):
    trace = encode(wide_forest(family, shape, 2000))
    assert digest([render_trace(trace)]) == WIDE_DIGESTS[(family, shape)]


# Traces at n=100 that take the swap branch at many steps: a choice above
# the targets outside tree k hangs tree 1 below tree k.  Random samples
# rarely do.  The all-maximum trace swaps at every step, and the
# alternating one (1 first, in trace order) at every other.
EXTREME_TRACES = {
    "ones": lambda bounds: (1,) * len(bounds),
    "max": lambda bounds: bounds,
    "alternating": lambda bounds: tuple(
        b if i % 2 else 1 for i, b in enumerate(bounds)
    ),
}

# sha256 of the decoded forest's line and its encode trace's line, per
# (family, colors, trace).
EXTREME_DIGESTS = {
    ("colored", 2, "alternating"): "27a90ff0f2419954b22f09172824fce58b38c58044c218ea8d3108b5c8a41226",
    ("colored", 2, "max"): "322bfcf84ef1e1babc2da4da3e07b5bcc267bd98d3acd38fffb83ea94f2a8d46",
    ("colored", 2, "ones"): "ef3a36ff6a438fd52a31709306de7ac6f2b57928ee9077f0ed03f30a40d984f2",
    ("colored", 3, "alternating"): "1daf923b46c91879030120899185523842b0c85ae446d28043338de564119595",
    ("colored", 3, "max"): "c6e83fa4385c1a036c0ae5219b872ab6a9983d0012dbffbbaa7f6ea3b0be64b8",
    ("colored", 3, "ones"): "995fc7289fccb039d7aec942c1f0a6c30c444eb2aaa3508d44865087e0292447",
    ("colored", 5, "alternating"): "c4a868009c58f00f49dbced104bef87ee1f209312dd4d990a455243b7fb1c744",
    ("colored", 5, "max"): "793492e1321042271e7352708b140b614058d841f4fbc9a3bcc97d050f9d36a5",
    ("colored", 5, "ones"): "894f5dba8bc927fe40f76d0485b7df6d32ae3efbb882c39abcbac0eb22ac66d1",
    ("plain", 0, "alternating"): "85ac2886a02249bd62d4d81e6d030a1206e12e53f5b317feb7ef43c3d3033e1d",
    ("plain", 0, "max"): "d819a53e18fb9823cfd218a7de498af587d8e3e3a972782d42777572b289c20b",
    ("plain", 0, "ones"): "8e250d6a818e4df8f2f684c4cc6b55ee60fce56f3ceddafc5727ffd2d257221f",
    ("plane", 0, "alternating"): "5239e76866291ae6c4e26f0ca5c9953d01ba3353bc558fa28b14b77023170981",
    ("plane", 0, "max"): "05747ccc8c2fda41836dc52f1c2b66d274ba1df95a23f30cd36493ae64cf7e6b",
    ("plane", 0, "ones"): "3470ec98f6bbdb4fe2c12c8ec9d9546e42af4a6f24330c52dae36819a850733c",
}


@pytest.mark.parametrize("family, colors, pattern", sorted(EXTREME_DIGESTS))
def test_golden_extreme_traces(family, colors, pattern):
    bounds = trace_bounds(family, 100, colors)
    trace = ChoiceTrace(family, 100, colors, EXTREME_TRACES[pattern](bounds))
    forest = decode(trace)
    back = encode(forest)
    assert back == trace
    lines = [FAMILIES[family][1](forest), render_trace(back)]
    assert digest(lines) == EXTREME_DIGESTS[(family, colors, pattern)]


# The characters of the random parse inputs: the text formats' own, the
# whitespace the parsers skip (tab and newline, and U+3000 and U+001C, which
# str.isspace also counts), a non-ASCII digit and a letter.
PARSE_CHARS = "0123456789*(),; \t\n\u3000\u001c\u0662x"

# Rendered oracle streams whose one-character edits are parse inputs too.
PARSE_STREAMS = (
    (FamilySpec("plane", n=4), render_plane),
    (FamilySpec("plane", n=4, roots=2), render_plane),
    (FamilySpec("leafplane", n=6, leaves=3, roots=2), render_plane),
    (FamilySpec("plane", n=6, labeled=False), render_plane),
    (FamilySpec("plain", n=4, roots=2), render_forest),
    (FamilySpec("colored", n=3, colors=3), render_colored),
)


def parse_inputs() -> list[str]:
    """20,000 random strings of length 0-16, then every text of the streams
    with each character deleted, replaced and preceded by a random one."""
    rng = random.Random(2024)
    texts = [
        "".join(rng.choices(PARSE_CHARS, k=rng.randint(0, 16))) for _ in range(20000)
    ]
    for spec, render in PARSE_STREAMS:
        for forest in enumerate_family(spec):
            text = render(forest)
            for i in range(len(text)):
                head, tail = text[:i], text[i + 1 :]
                texts += [head + tail, head + rng.choice(PARSE_CHARS) + tail]
                texts.append(head + rng.choice(PARSE_CHARS) + text[i:])
    return texts


def parse_outcome(parse, text: str) -> str:
    """The parsed value's fields, or the error's type, message and position."""
    try:
        return repr(parse(text))
    except Exception as exc:
        return f"{type(exc).__name__} {exc} {getattr(exc, 'position', None)}"


# sha256 of each parser's outcome on every parse input, one a line.
PARSE_DIGESTS = {
    "plane": (
        parse_plane,
        "9c4f01691fa36beeca0871a9a586f90951571776f9ae95c64c06821c2437ad5e",
    ),
    "rooted": (
        parse_forest,
        "21514669cd358983cda703cc95be5b5389839d97a84864633a1c87c6466aa275",
    ),
    "colored kc=3": (
        lambda text: parse_colored(text, 3),
        "32b18876e5f6ea7055b68fc5c705f66c00c783c8bd1f448f21c3c694e663866c",
    ),
}


@pytest.mark.parametrize("name", PARSE_DIGESTS)
def test_golden_parse_outcomes(name):
    parse, want = PARSE_DIGESTS[name]
    assert digest([parse_outcome(parse, text) for text in parse_inputs()]) == want
