"""Byte-for-byte pin of the plane, leafplane and partite step outputs.

For every member of the family with k-1 roots the forward step's output and
choice are recorded, and for every member with k roots the inverse step's
output at each choice, over the grids the oracle's round trips run: plane
for n <= 6 at every k, leafplane over (internal vertices, base leaves) and
partite over four part-size vectors.  Plane steps at n = 7..10 are pinned
the same way on sampled inputs.  A digest fixes each grid point's lines,
so a rewrite of the steps must keep every output and every choice index,
not only invert itself.
"""

import hashlib

import pytest

from forestcodec import (
    PartAssignment,
    leafplane_forward,
    leafplane_inverse,
    partite_forward,
    partite_inverse,
    plane_forward,
    plane_inverse,
    render_forest,
    render_plane,
    sample_uniform,
)
from forestcodec.enumeration import FamilySpec, enumerate_family


def plane_case(n):
    for k in range(2, n):
        yield (
            k,
            FamilySpec("plane", n=n, roots=k - 1, conditioned=True),
            FamilySpec("plane", n=n, roots=k, conditioned=True),
            2 * n - k,
        )


def leafplane_case(internal, p0):
    for r in range(2, internal):
        n, p = internal + p0 + r - 2, p0 + r - 2
        yield (
            r,
            FamilySpec("leafplane", n=n, leaves=p, roots=r - 1, conditioned=True),
            FamilySpec("leafplane", n=n + 1, leaves=p + 1, roots=r, conditioned=True),
            p + 1,
        )


def partite_case(*sizes):
    for k in range(2, sizes[0] + 1):
        yield (
            k,
            FamilySpec("partite", part_sizes=sizes, roots=k - 1, conditioned=True),
            FamilySpec("partite", part_sizes=sizes, roots=k, conditioned=True),
            sum(sizes) - sizes[0],
        )


FAMILIES = {
    "plane": (plane_forward, plane_inverse, render_plane, plane_case),
    "leafplane": (leafplane_forward, leafplane_inverse, render_plane, leafplane_case),
    "partite": (partite_forward, partite_inverse, render_forest, partite_case),
}

# sha256 of the joined lines, per (family, grid point): "k f -> g c" for
# each forward step, then "k g c -> h" for each inverse choice.
DIGESTS = {
    ("plane", (3,)): "9ba6322d37b64bf2db9373fca7255c610312738e5fe7b5fbf2ecdaaa41d8cb46",
    ("plane", (4,)): "585a5534935e0e726d0f6d453ab9c44cfe07aa5ea8868533c0fece7b00f6c3ca",
    ("plane", (5,)): "e69a34a2f75d966818d0c296ceae128b2f7c9420b8713e28f3b480580ac2e73f",
    ("plane", (6,)): "b0199911ee5945a33173b6b0948483aead5cf6bd10ac5cd80cb4c876aeb54c9e",
    ("leafplane", (3, 1)): "37d6514bcb4db3232213b9363d578ec24f80521052049a0711ad2745d8972644",
    ("leafplane", (3, 2)): "3ff0080cc1f445243961cb5c9a84b84a64535847c201a12b301412c3e1c70b97",
    ("leafplane", (4, 1)): "3a0d63bb55a9c0891a57d00fce1c8a34e1369a39c277eb1b2e18250d985d9d35",
    ("leafplane", (4, 2)): "e3a481668ed710611bba088c0d3e5f85228186435cd12b8da0a68efb02ca3d0b",
    ("leafplane", (5, 1)): "d9b7b020af719eb73c135a6216698769234edd1a6bdf75b98fa04f64fd105261",
    ("leafplane", (5, 2)): "eaaef0f2c4284d95c0a666d77730c91ed5717152aecef6bffbd60c6951da1cf6",
    ("leafplane", (6, 1)): "7af1765eb8febe73bc2e5a3924e5363208bf176d8189778da64304132f8743cb",
    ("partite", (2, 3)): "dfeec90f19f997d8b9f381936575cdc7cf6bfbd1776b15c40d09a637c75cb74e",
    ("partite", (3, 3)): "c667ba94a2fb3bb658fa2d75441b0e38dc53c8ac8e8603ca973878cf67117ca8",
    ("partite", (2, 2, 2)): "6018982242962a017d7835b7b007821da5435038bddd1d86273834c26f78ed80",
    ("partite", (3, 2, 2)): "8e57d7e4c1a023e17552ef6202b00877ec4406b07f5180810643d57c3c891ba3",
}


def step_lines(family: str, point: tuple) -> list[str]:
    forward, inverse, render, cases = FAMILIES[family]
    extra = (PartAssignment(point),) if family == "partite" else ()
    lines = []
    for k, src, tgt, mult in cases(*point):
        for f in enumerate_family(src):
            g, c = forward(f, k, *extra)
            lines.append(f"{k} {render(f)} -> {render(g)} {c}")
        for g in enumerate_family(tgt):
            for c in range(1, mult + 1):
                h = inverse(g, k, *extra, c)
                lines.append(f"{k} {render(g)} {c} -> {render(h)}")
    return lines


@pytest.mark.parametrize("family, point", sorted(DIGESTS), ids=str)
def test_step_outputs(family, point):
    text = "\n".join(step_lines(family, point))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[family, point]


# sha256 of the same lines for plane steps at n = 7..10, on sampled inputs:
# at each k, 30 uniform forests with k-1 roots (forward) and 30 with k roots
# (inverse, at every choice).
SAMPLED_PLANE_DIGESTS = {
    7: "67dabdc30089f0f30f42479420de772f34064ecd04aa80e1f2cbfd3eeb353afe",
    8: "25dbf2809135c309a832d6ba02d725cecb7f88580937a1e9474ffd7b518385e6",
    9: "ff2d3e14a92d43441447f6cdfb3fcf844a5f76f8304783b34b48d2df23c43a02",
    10: "7f4fd94a9d5ce14f884eeca4422df5c2d8e48cc2218a9143c643054d6bcdfff9",
}


def sampled_plane_lines(n: int) -> list[str]:
    lines = []
    for k in range(2, n):
        for i in range(30):
            f = sample_uniform("plane", n, 1000 * k + i, roots=k - 1)
            g, c = plane_forward(f, k)
            lines.append(f"{k} {render_plane(f)} -> {render_plane(g)} {c}")
        for i in range(30):
            g = sample_uniform("plane", n, 1000 * k + i, roots=k)
            for c in range(1, 2 * n - k + 1):
                h = plane_inverse(g, k, c)
                lines.append(f"{k} {render_plane(g)} {c} -> {render_plane(h)}")
    return lines


@pytest.mark.parametrize("n", sorted(SAMPLED_PLANE_DIGESTS))
def test_sampled_plane_steps(n):
    text = "\n".join(sampled_plane_lines(n))
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLED_PLANE_DIGESTS[n]
