"""Byte-for-byte pin of the command line surface.

Each case runs ``cli.run`` in process and hashes its argv, stdin, exit code,
stdout and stderr together.  The digests were recorded before the per-family
dispatch in the CLI, codec and oracles was replaced by lookups, so they fix
every count formula, every bijection family in both directions and from both
input sources, the dispatch error messages, the recurrence checks, the
``count`` help text and the unconditioned samplers.  The ``encode`` and
``decode`` cases were recorded from the step-by-step codec, before the run
engine replaced it.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from forestcodec import cli

COLORED = "4 1 0 1 2 1\n0 1 2 2"

COUNTS = [
    ("cayley", "--n", "5"),
    ("rooted-forest", "--n", "5", "--k", "2"),
    ("rooted-forest", "--n", "5", "--k", "2", "--conditioned"),
    ("forests-k-trees", "--n", "5", "--k", "2"),
    ("riordan", "--n", "6", "--k", "2"),
    ("multipartite", "--parts", "2,3"),
    ("tripartite-base", "--r", "2", "--s", "2", "--t", "1"),
    ("plane-labeled", "--v", "4"),
    ("catalan", "--n", "5"),
    ("narayana", "--n", "5", "--p", "2"),
    ("compositions", "--n", "5", "--m", "3"),
    ("kary-forest", "--arity", "2", "--internal", "3", "--roots", "2"),
    ("kary-unlabeled", "--arity", "3", "--internal", "3"),
    ("degseq-plane", "--degrees", "2,1,0,0"),
    ("degseq-rooted", "--degrees", "2,1,0,0"),
    ("erdelyi-etherington", "--multiplicities", "2,1"),
    ("special-colored", "--n", "5", "--kc", "3", "--r", "2"),
    ("special-colored", "--n", "5", "--kc", "3", "--r", "2", "--conditioned"),
    ("colored-tree", "--n", "4", "--kc", "3"),
    ("colored-root-degree", "--n", "5", "--kc", "3", "--r", "2"),
]

# (family, extra flags, forward input, inverse input), each with --k 2
# except plain, whose inputs are the documented k=3 examples.
STEPS = [
    ("plain", ("--k", "3"), "5 2 0 0 5 3 1", "5 3 0 0 0 3 1"),
    ("partite", ("--k", "2", "--parts", "2,2"), "4 1 0 3 1 2", "4 2 0 0 1 2"),
    ("plane", ("--k", "2"), "1(2,3)", "1(3);2"),
    ("leafplane", ("--k", "2"), "1(2(3(*,*)),*)", "1(3(*,*));2(*,*)"),
    ("colored", ("--k", "2", "--kc", "3"), COLORED, "4 2 0 0 2 1\n0 0 2 2"),
]


def bijection_cases():
    for family, flags, fwd, inv in STEPS:
        forward = ("bijection", "forward", "--family", family) + flags
        inverse = ("bijection", "inverse", "--family", family) + flags
        yield forward + ("--forest", fwd), None
        yield forward, fwd
        for choice in ("1", "3"):
            yield inverse + ("--choice", choice, "--forest", inv), None
        yield inverse + ("--choice", "2"), inv


ERRORS = [
    ("count", "zeta", "--n", "3"),
    ("count", "cayley"),
    ("count", "kary-forest", "--arity", "2", "--internal", "3"),
    ("bijection", "forward", "--forest", "5 2 0 0 5 3 1"),
    ("bijection", "inverse", "--k", "3", "--forest", "5 3 0 0 0 3 1"),
    ("bijection", "forward", "--family", "partite", "--k", "2",
     "--forest", "4 1 0 3 1 2"),
    ("bijection", "inverse", "--family", "colored", "--k", "2", "--choice",
     "1", "--forest", COLORED),
    ("bijection", "forward", "--family", "plain", "--k", "3", "--forest",
     "5 2 0 0 5 x 1"),
]

VERIFY = [
    ("verify", "recurrence", "--family", "plain", "--n", "5"),
    ("verify", "recurrence", "--family", "plane", "--n", "4"),
    ("verify", "recurrence", "--family", "colored", "--n", "4", "--kc", "3"),
    ("verify", "recurrence", "--family", "partite", "--parts", "2,3"),
    ("verify", "recurrence", "--family", "leafplane", "--n", "6",
     "--leaves", "2"),
    ("verify", "recurrence", "--family", "plane", "--n", "5", "--k-range", "3..4"),
    ("verify", "recurrence", "--family", "plain", "--n", "2"),
    ("verify", "recurrence", "--family", "partite", "--parts", "3"),
    ("verify", "recurrence", "--family", "leafplane", "--n", "6"),
    ("verify", "recurrence", "--family", "leafplane", "--n", "4",
     "--leaves", "2"),
    ("verify", "all", "--max-n", "4"),
]

SAMPLES = [
    ("sample", "--family", family, "--n", "8", "--roots", "3",
     "--unconditioned", "--seed", "11", "--count", "4") + extra
    for family, extra in (("plain", ()), ("plane", ()), ("colored", ("--kc", "3")))
]



def big_parents(n: int) -> list[int]:
    """A tree on 1..n rooted at 1: each vertex hangs below an earlier one."""
    return [0] + [(v * 7919) % (v - 1) + 1 for v in range(2, n + 1)]


def big_plain(n: int) -> str:
    return " ".join(map(str, [n, 1] + big_parents(n)))


def big_plane(n: int) -> str:
    """big_parents(n) as a plane tree, each vertex's children descending."""
    kids = {v: [] for v in range(1, n + 1)}
    for v, p in enumerate(big_parents(n)[1:], start=2):
        kids[p].insert(0, v)
    out, stack = [], [1]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        out.append(str(item))
        if kids[item]:
            out.append("(")
            stack.append(")")
            for j, child in enumerate(reversed(kids[item])):
                stack.extend((",", child) if j else (child,))
    return "".join(out)


def big_colored(n: int, kc: int = 3) -> str:
    """The heap tree (parent v // 2), special and properly colored: a child
    takes the colors its parent's own edge leaves free, in order."""
    parents = [0] + [v // 2 for v in range(2, n + 1)]
    colors = [0] * n
    for v in range(2, n + 1):
        p = parents[v - 1]
        free = [c for c in range(1, kc + 1) if c != colors[p - 1]]
        if p == 1:
            free = free[: kc - 1]
        colors[v - 1] = free[v % 2]
    return " ".join(map(str, [n, 1] + parents + colors))


def big_trace(family: str, n: int, kc: int = 0) -> str:
    """A fixed trace: position i takes (7919 i + 13) mod its bound, plus 1."""
    params = f"{n} {kc}" if family == "colored" else f"{n}"
    head = (kc - 1,) if family == "colored" else ()
    bounds = head + tuple(
        {"plain": n, "plane": 2 * n - k, "colored": (kc - 2) * n + k}[family]
        for k in range(n - 1, 1, -1)
    )
    choices = [(7919 * i + 13) % b + 1 for i, b in enumerate(bounds)]
    return f"{family} {params} : " + " ".join(map(str, choices))


# The codec subcommands at small n through argv, and at n = 100 through
# stdin.
CODEC = [
    (("encode", "--forest", "5 1 0 1 1 3 3"), None),
    (("encode", "--family", "plane", "--forest", "1(5,3(4),2)"), None),
    (("encode", "--family", "colored", "--kc", "3", "--forest", COLORED), None),
    (("encode", "--family", "plain"), big_plain(100)),
    (("encode", "--family", "plane"), big_plane(100)),
    (("encode", "--family", "colored", "--kc", "3"), big_colored(100)),
    (("decode", "plain 5 : 3 1 4"), None),
    (("decode", "plain 5 : 3 1 4", "--format", "json"), None),
    (("decode", "plane 5 : 2 7 1"), None),
    (("decode", "plane 5 : 2 7 1", "--format", "dot"), None),
    (("decode", "colored 4 3 : 2 5 1"), None),
    (("decode", "colored 4 3 : 2 5 1", "--format", "json"), None),
    (("decode",), big_trace("plain", 100)),
    (("decode", "--format", "json"), big_trace("plane", 100)),
    (("decode", "--format", "dot"), big_trace("colored", 100, 3)),
    # errors: bad traces and non-members
    (("decode", "plain 5 : 3 1 9"), None),
    (("decode", "plain 5 3 1 4"), None),
    (("decode", "plane 4 : x 1"), None),
    (("decode", "colored 4 : 2 5 1"), None),
    (("encode", "--forest", "3 2 0 0 1"), None),
    (("encode", "--forest", "2 2 0 0"), None),
    (("encode", "--family", "plane", "--forest", "1(2);3"), None),
    (("encode", "--family", "plane", "--forest", "1(*,2)"), None),
    (("encode", "--family", "colored", "--forest", COLORED), None),
    (("encode", "--family", "colored", "--kc", "3", "--forest",
      "3 1 0 1 1\n0 3 1"), None),
]

CASES = (
    [(("count",) + argv, None) for argv in COUNTS]
    + list(bijection_cases())
    + [(argv, None) for argv in ERRORS + VERIFY + SAMPLES]
    + [(("count", "--help"), None)]
    + CODEC
)

DIGESTS = {
    'count cayley --n 5': "3c51920b0b59c8d86697b41fb6c3353ddf6dbbef307a3669dd9bb7c9980f12ab",
    'count rooted-forest --n 5 --k 2': "e85b7ce3f610582e6d6ed71e432dd14b975a3f1e0bb94ef494e82f9f9a82938e",
    'count rooted-forest --n 5 --k 2 --conditioned': "a94f4e0c36b5dcadb1c50ba56cd7678ed464874fdb4a26b2c323ef75775710d6",
    'count forests-k-trees --n 5 --k 2': "c9feafac342bf63b8d07ebbc8fb2fec23cd3004b71948e3da355159f4b71a7e9",
    'count riordan --n 6 --k 2': "c64e559263858b8358af3d228750a74375c85bbb0429e12f1a2c82cf53413aa2",
    'count multipartite --parts 2,3': "e3288052c59aa263db22ea902f0c4cd87b07a93ca3e47fda340161036e7f9caf",
    'count tripartite-base --r 2 --s 2 --t 1': "458adcd039da95b28f3d89d39c39c29cac7ccd6a9c61f9ad734d538533657d47",
    'count plane-labeled --v 4': "bc51c2476aafdb971bb46353b7cc688e7ecad13d10c8322c7dc9fbb7c3e486e8",
    'count catalan --n 5': "64caf6cc384767c085d041ebe99bc990a9c55c241944c498efbe87234ec4e76a",
    'count narayana --n 5 --p 2': "dc4c770a6e7a013b237bd13db8ac67dda5f6a2cc0ea742e7dc0d78dd38bb4685",
    'count compositions --n 5 --m 3': "8fbe5f8fb2658ce841b642ee4180d4e3a8b3eb80bb885eaf17dca0c2f8a09d82",
    'count kary-forest --arity 2 --internal 3 --roots 2': "5d744b52fd4da9cabb4e101dd49a5d31690543d56a630e3847a394a45b50fd15",
    'count kary-unlabeled --arity 3 --internal 3': "4d6f30a441d79283f0af2e838ae2ffac48bc0094d835dbc829bfbcb57faf7bd8",
    'count degseq-plane --degrees 2,1,0,0': "0f1f3cbc68dba58b88d64c8ab24f930472433421365a4d995eaccfe529918efe",
    'count degseq-rooted --degrees 2,1,0,0': "89eea5e4b153ef96c4ba27da4b5c002e7ffe4cc308251168ce0bf0bffe8f900a",
    'count erdelyi-etherington --multiplicities 2,1': "38fbf8c6745ad56bdfd096434db34d6d0796fce9556082402ba1150257c6a0ad",
    'count special-colored --n 5 --kc 3 --r 2': "30ba86624507d517d67b1109679bd23f817dc8d9edee7c222375553721ef9bce",
    'count special-colored --n 5 --kc 3 --r 2 --conditioned': "8cccd80ffae4a5d92e3fe08d54d793623175ce98e860e2206e6ae86bac3b168e",
    'count colored-tree --n 4 --kc 3': "a079b4874e9598afae11867961a9288443d8f5c52325c8eb2af6d545bd6b5255",
    'count colored-root-degree --n 5 --kc 3 --r 2': "4d0c6b560425ae89b4506e83e4e24923efeb58bfbed381803adeed3e799acfdf",
    'bijection forward --family plain --k 3 --forest 5 2 0 0 5 3 1': "c1f65b5e86272c5c13d8892abcd2f7866d3276513a985fe062e352db7adb5333",
    'bijection forward --family plain --k 3 <stdin': "479384f3100e6e8f3335f19c76dccb3803c8de00fb61ab5e37ae04b0cddb3b11",
    'bijection inverse --family plain --k 3 --choice 1 --forest 5 3 0 0 0 3 1': "113f3982a96398f6a29d51e822ba1873790d0bd496d497081c156e2a4e90b420",
    'bijection inverse --family plain --k 3 --choice 3 --forest 5 3 0 0 0 3 1': "c93c1acf5f9e476532c90854deaa3cd963f459c689f953a0cae54f32c393c1d1",
    'bijection inverse --family plain --k 3 --choice 2 <stdin': "9e84be43682ed3483a1c369b513f9825d089078f56538babd894dc6c3bf91197",
    'bijection forward --family partite --k 2 --parts 2,2 --forest 4 1 0 3 1 2': "1ca6481713213af25f5d9df7bd194a92ea2f873e88c5947ebc549814fdb31f50",
    'bijection forward --family partite --k 2 --parts 2,2 <stdin': "53131e7c75e9b4d706c11cd0455e408465a9f8edb727a62af5a9a499c4ddb415",
    'bijection inverse --family partite --k 2 --parts 2,2 --choice 1 --forest 4 2 0 0 1 2': "0c55696d7caabcb75e33d6b23f7ca79d4856ddea7356f6ffedd2f7493734e590",
    'bijection inverse --family partite --k 2 --parts 2,2 --choice 3 --forest 4 2 0 0 1 2': "1f720e29cb51049bda177515f80b5a0ba72a4f2f5053887dda03019246e96788",
    'bijection inverse --family partite --k 2 --parts 2,2 --choice 2 <stdin': "5de04e3c590fda2d27bc5d97f62a9299b3510e4a32e422609e2ffa232eb6ab21",
    'bijection forward --family plane --k 2 --forest 1(2,3)': "75b1487aa604ff3c9dbbd7ca9bd794c6f7a12e1730ee9a8533730792c9cc1674",
    'bijection forward --family plane --k 2 <stdin': "c62c8fbac968df275d9e84ae9baa15316a0058f232f15ffdb6e7a83ea2d4c39c",
    'bijection inverse --family plane --k 2 --choice 1 --forest 1(3);2': "e2f89b5f1e281e60c0fa1687e1a501bbabea15b5db640123214f06ceb6f0a4df",
    'bijection inverse --family plane --k 2 --choice 3 --forest 1(3);2': "afe78e2d67876e4a6e4ebae966fa1177f40cf9bde3c66f744937322d14bd8514",
    'bijection inverse --family plane --k 2 --choice 2 <stdin': "f89d3ba9d971fc720be675833b093ea1153a28fb227fa409241d3d0430b3b42b",
    'bijection forward --family leafplane --k 2 --forest 1(2(3(*,*)),*)': "9fc207e75db489b39dfe8b4074455acffce1466a71ad6d4e61cdba30096f31f4",
    'bijection forward --family leafplane --k 2 <stdin': "2175fdff0b587efffe8368adcb581933b47a6531317c28db8bd0c5105283d6f9",
    'bijection inverse --family leafplane --k 2 --choice 1 --forest 1(3(*,*));2(*,*)': "83a0f9dcdf46c7df33c770381859c7fb2d5e36fc913fb91fdf05a5070c82d59b",
    'bijection inverse --family leafplane --k 2 --choice 3 --forest 1(3(*,*));2(*,*)': "7e8a6de97981ab3aa48f7b69e67d96fbc98ff8020d81de0c5b382b59acf60d2f",
    'bijection inverse --family leafplane --k 2 --choice 2 <stdin': "38cc7b1babea6fb6c85e96b6b73a3b889f4160926ff42f5536a7998fd7d31d71",
    'bijection forward --family colored --k 2 --kc 3 --forest 4 1 0 1 2 1/0 1 2 2': "be881b58fb046ac4aad0cb52b2dd8f1a7279413d44514c81e9ff88027b92abe1",
    'bijection forward --family colored --k 2 --kc 3 <stdin': "8bcdc4515287bec03afd5bc8563b6692c082403247a10623bc0bea8b8c610481",
    'bijection inverse --family colored --k 2 --kc 3 --choice 1 --forest 4 2 0 0 2 1/0 0 2 2': "35d404d32a7d2645bbd64961a04b6c622a33132d209534becaea0e444ec62e19",
    'bijection inverse --family colored --k 2 --kc 3 --choice 3 --forest 4 2 0 0 2 1/0 0 2 2': "537074369557e9a4673a2d687e111208053006ec6141dcfced0c1c1100aee371",
    'bijection inverse --family colored --k 2 --kc 3 --choice 2 <stdin': "e1baeeaab28d155229bc2a4f9e69db28d28b3f25ea9129feb86323e319047737",
    'count zeta --n 3': "22d45816360ac22f51564457ba7c5093dcd3515055c7d9f98253d95ed598da51",
    'count cayley': "eb073ce579f14cbcfaac2ab01972926e71cdeda0deed7cde7e42eda29c2daaad",
    'count kary-forest --arity 2 --internal 3': "23665ab6a10240cdb819d1e938e3cc7a95e57701e06f504baa6927fdfe10c0e4",
    'bijection forward --forest 5 2 0 0 5 3 1': "c795d73ebcef44a5475d976472ab61c7de0e742de678f2a6aa37ea10639a55df",
    'bijection inverse --k 3 --forest 5 3 0 0 0 3 1': "2bd0deb4ad935314af6b7aff16cee22e76d606b2a21ee33d025d55c3f2d0711f",
    'bijection forward --family partite --k 2 --forest 4 1 0 3 1 2': "dc10b72ece9667055941a432062124c3bc91001b45c2cbc6410f5ce455cbf439",
    'bijection inverse --family colored --k 2 --choice 1 --forest 4 1 0 1 2 1/0 1 2 2': "83d2d8a6b85e0cd33582aacf2b0bc7ce8852db7810b367bcffb2c10b32dd81a0",
    'bijection forward --family plain --k 3 --forest 5 2 0 0 5 x 1': "b176593bba0b88f9ce9daad5bad17a364241618fcb08aa7c9111401da608ec78",
    'verify recurrence --family plain --n 5': "683ef95f64780b58e46692e5526d3a8c6c99576913474cbff154e054190a8a9a",
    'verify recurrence --family plane --n 4': "c3aaeeb369e181972274fdc8d0bcece775e6062a58e003069ec4c5e51e534337",
    'verify recurrence --family colored --n 4 --kc 3': "533a8a409b364f4447be60a826eb1704cbc877632c7b9d59cd15588cf323f4ea",
    'verify recurrence --family partite --parts 2,3': "f8ea89d1a2c2154a1eac198d17adc4310a298173f4f54d43acc29da6791ec937",
    'verify recurrence --family leafplane --n 6 --leaves 2': "3c0e8f0acd0f45423c50c5925a8b3d562f2ceb1554432cecd00c3d7b76d25d67",
    'verify recurrence --family plane --n 5 --k-range 3..4': "a64fa5d10fb92771945404a03f50f861979de7667c5d2912828ca67561c70d15",
    'verify recurrence --family plain --n 2': "cd2d69c2c5768072bf4c86695a3e978ed87a717782c8bd4d5cf3c268f158c1d0",
    'verify recurrence --family partite --parts 3': "63174bc065b41da2c4acd5e97cb12dc283038bf9d2ab5fdff062da0863b59d19",
    'verify recurrence --family leafplane --n 6': "f0cd95b519d5bee267b4e1a7b28542f7a5e2b50e50b5aa20f9af13db28c65f28",
    'verify recurrence --family leafplane --n 4 --leaves 2': "ecb6ca8f458d31f846205e834b92fdce1c6005b83fd7f9ab765dfe7b8d5a4eae",
    'verify all --max-n 4': "7b154f9d1416da817809952d8e6b6838cd464bb71b24eade6b61de64691e29c9",
    'sample --family plain --n 8 --roots 3 --unconditioned --seed 11 --count 4': "d5f0f9c0822bf2b2a0d26771163cc6e263395c52b4a3ed0566e717e8d6823173",
    'sample --family plane --n 8 --roots 3 --unconditioned --seed 11 --count 4': "57e9d5faa80e7363006d59c0798255c5b31f4f585bedc2e9c12f2fba35d688af",
    'sample --family colored --n 8 --roots 3 --unconditioned --seed 11 --count 4 --kc 3': "8b4f4b83f50815d4410350b8ddfb36a13877e284fc5899b1462a521bb64db540",
    'count --help': "a4cdc89cbd79dad4220f0076abc1e024e92728e0b3c8bd31bd2630180915cbdd",
    'encode --forest 5 1 0 1 1 3 3': "b3df19c093b337365b54e7ac580c14adbeba3b54df3e9c9140dd36310becc338",
    'encode --family plane --forest 1(5,3(4),2)': "2b6aeb0dfcb4828000e962b695d3b3677ebaebc14963b3808a9a3de88149d260",
    'encode --family colored --kc 3 --forest 4 1 0 1 2 1/0 1 2 2': "467e13183520cc9bd39f4693e4042711085b83ed43b2853daf804aa319076329",
    'encode --family plain <stdin': "004f392b0137813347f6d6d9786a39cc537acba368772593f5f4dae28564e3ef",
    'encode --family plane <stdin': "5d218b69b2e770d6b468036009d6e1a561d8026713d0ff815f22c6256ce48e07",
    'encode --family colored --kc 3 <stdin': "caa720cfb3dadfa45acb42bb40b58944af19f1be33ea2179f17a33bbe5466dbf",
    'decode plain 5 : 3 1 4': "d4156dd5410d1941c1f8fd34c41f4f674ea000b4bded693b0f302e1e719b7a16",
    'decode plain 5 : 3 1 4 --format json': "c9ce1070fe91f4a9cdf0aba293524b54e68953616e1ff007b1b56c8dfe60a472",
    'decode plane 5 : 2 7 1': "07ab9679a5981b08c766ca4af459b70fbafd0462f29c2dea40623537a2fad5ab",
    'decode plane 5 : 2 7 1 --format dot': "aeb048102cf52346cdd94a7af340ada62de29a2507284752f84a3657df0b05b1",
    'decode colored 4 3 : 2 5 1': "4ecee454c627793b58f56cf4f8fb9dbee9135a40cb53fe57cb068d964284a131",
    'decode colored 4 3 : 2 5 1 --format json': "424e8c8b08120f8a587187b914f896bef105d60737d2fa87cbe130053593b67e",
    'decode <stdin': "803dacdc352151d12c9e3107d53c24251f7ae479bd15d608ee6751fb8a290e80",
    'decode --format json <stdin': "b58f4ca883c6eb73e73588eaa7b1c94ec9dd7dc8158306d881beb30d78f8c085",
    'decode --format dot <stdin': "82bbb549efc4d737aec462ff4ee73c8b4319d46769c8f1fd49bd674a4b1bd1a5",
    'decode plain 5 : 3 1 9': "12990448f9379b93ec4ee79a1ecac946ca1a8fee842fd50de5dae6952a335568",
    'decode plain 5 3 1 4': "a9364bebf2ee220ef43a6706a2333aa71519c36696f38004d80b02b3812f02d4",
    'decode plane 4 : x 1': "78fd9dd0a429e88ebdb4d97d90d9f7d1348edf396d4bbf01b84f444414eb574e",
    'decode colored 4 : 2 5 1': "a222ba8c8e89e3b833126e569b48edb7b533d0a6fcb12a2c1b4a9816972d1b87",
    'encode --forest 3 2 0 0 1': "95668b8902ec395c49d90c8a52147ae1e264197aa41ddfa64c679eb3a8ce5fc3",
    'encode --forest 2 2 0 0': "4b68d7cd5bfbf70907e26d85e4cb5a0f7bc09a6621dc9699d30679e36c6eabfe",
    'encode --family plane --forest 1(2);3': "508cd07d2886ed11d0392ee60330e53f3fd990b55e4ddcc8536f39182a4247a4",
    'encode --family plane --forest 1(*,2)': "85833b8f4f77752b881f4b241a3c4fa4e696d585aa161c699e7d6596653f70ec",
    'encode --family colored --forest 4 1 0 1 2 1/0 1 2 2': "fcee99f02bc781ed7ebe518f23a28156f70596c465de7e095a82fdfae43ecabb",
    'encode --family colored --kc 3 --forest 3 1 0 1 1/0 3 1': "9f25a782a218dda96518c65bd1d7d07c8713b12e2aa8dfdb5bdd8c711c0ab311",
}


def run_case(argv, stdin) -> str:
    """The sha256 of (argv, stdin, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    finally:
        sys.stdin = saved
    record = [list(argv), stdin, code, out.getvalue(), err.getvalue()]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def case_id(case) -> str:
    argv, stdin = case
    return " ".join(argv).replace("\n", "/") + (" <stdin" if stdin else "")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert run_case(*case) == DIGESTS[case_id(case)]
