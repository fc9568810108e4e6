"""Start-up: the package loads each submodule on first use, and each CLI
command imports only the modules it runs.  No command loads ``dataclasses``
or ``inspect``; ``count`` loads no ``fractions``; only ``verify all`` and
``identity`` load the verification battery.

The laziness checks run in fresh interpreters, because this one has
imported everything already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import forestcodec
from forestcodec import cli, codec, enumeration

SRC = str(Path(forestcodec.__file__).resolve().parents[1])
SUBMODULES = ("forests", "bijections", "enumeration", "counting", "codec")

# Run a command in-process, then print every module it loaded.
LOADED = (
    "import sys\n"
    "from forestcodec.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "print(*sorted(sys.modules))\n"
    "sys.exit(code)\n"
)


def loaded_by(*argv: str) -> set[str]:
    """The forestcodec submodules a command loads."""
    return {
        m.removeprefix("forestcodec.")
        for m in modules_loaded_by(*argv)
        if m.startswith("forestcodec.")
    }


def modules_loaded_by(*argv: str) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", LOADED, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("count", "cayley", "--n", "5"),
         {"codec", "enumeration", "bijections", "forests"}),
        (("convert", "--forest", "1(5,3(4));2", "--format", "json"),
         {"codec", "enumeration", "bijections", "counting"}),
        (("convert", "--forest", "5 3 0 0 0 3 1", "--format", "dot"),
         {"codec", "enumeration", "bijections", "counting"}),
        (("bijection", "forward", "--family", "plain", "--k", "3",
          "--forest", "5 2 0 0 5 3 1"),
         {"codec", "enumeration", "counting"}),
        (("sample", "--family", "plain", "--n", "9", "--seed", "1"),
         {"bijections", "enumeration", "counting"}),
        (("sample", "--family", "plane", "--n", "9", "--seed", "1", "--format", "json"),
         {"bijections", "enumeration", "counting"}),
        (("sample", "--family", "colored", "--n", "9", "--kc", "3", "--seed", "1"),
         {"bijections", "enumeration", "counting"}),
        (("encode", "--family", "plain", "--forest", "5 1 0 1 1 3 3"),
         {"bijections", "enumeration", "counting"}),
        (("encode", "--family", "plane", "--forest", "1(3,2(4))"),
         {"bijections", "enumeration", "counting"}),
        (("encode", "--family", "colored", "--kc", "3", "--forest", "3 1 0 1 1\n0 1 2"),
         {"bijections", "enumeration", "counting"}),
        (("decode", "plane 5 : 3 1 2"),
         {"bijections", "enumeration", "counting"}),
        (("decode", "colored 5 3 : 1 2 1 3"),
         {"bijections", "enumeration", "counting"}),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_commands_load_only_what_they_run(argv, unused):
    loaded = loaded_by(*argv)
    assert "cli" in loaded
    assert not loaded & unused, loaded


def test_bare_import_loads_no_submodule():
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, forestcodec\n"
            "print(*sorted(m for m in sys.modules if m.startswith('forestcodec')))\n"
            "print(forestcodec.codec.__name__)",
        ],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["forestcodec", "forestcodec.codec"]


# A command of each kind; the battery flag says whether it runs the battery.
COMMANDS = [
    (("count", "cayley", "--n", "5"), False),
    (("count", "kary-forest", "--arity", "2", "--internal", "6", "--roots", "2"), False),
    (("convert", "--forest", "1(5,3(4));2", "--format", "json"), False),
    (("bijection", "forward", "--family", "plain", "--k", "3",
      "--forest", "5 2 0 0 5 3 1"), False),
    (("sample", "--family", "colored", "--n", "9", "--kc", "3", "--seed", "1"), False),
    (("encode", "--family", "plane", "--forest", "1(3,2(4))"), False),
    (("decode", "plane 5 : 3 1 2"), False),
    (("enumerate", "--family", "plain", "--n", "4", "--format", "dot"), False),
    (("verify", "recurrence", "--family", "plane", "--n", "4"), False),
    (("identity", "bipartite", "--grid", "r=2..3,s=1..2"), True),
    (("verify", "all", "--max-n", "3"), True),
]


@pytest.mark.parametrize(
    "argv, battery",
    COMMANDS,
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_commands_load_no_dataclasses_or_inspect(argv, battery):
    loaded = modules_loaded_by(*argv)
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)
    assert ("forestcodec._battery" in loaded) == battery
    assert battery or "fractions" not in loaded


def test_count_loads_no_fractions():
    assert "fractions" not in modules_loaded_by("count", "cayley", "--n", "5")


def test_parser_choices_match_the_modules():
    assert cli._CODEC_FAMILIES == codec.CODEC_FAMILIES
    assert cli._FAMILIES == enumeration.FAMILIES


def test_identity_choices_match_the_battery():
    from forestcodec import _battery

    assert cli._IDENTITY_NAMES == tuple(_battery._IDENTITIES)


class TestNamespace:
    def test_exports_are_the_submodules_objects(self):
        for name, module in forestcodec._EXPORTS.items():
            assert getattr(forestcodec, name) is getattr(
                getattr(forestcodec, module), name
            ), name
            assert name in dir(forestcodec)

    def test_submodules_are_attributes(self):
        for module in SUBMODULES:
            assert getattr(forestcodec, module).__name__ == f"forestcodec.{module}"
            assert module in dir(forestcodec)

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from forestcodec import *", namespace)
        public = {*forestcodec._EXPORTS, *SUBMODULES}
        assert set(forestcodec.__all__) == public
        for name in public:
            assert namespace[name] is getattr(forestcodec, name), name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'zeta'"):
            forestcodec.zeta
        assert not hasattr(forestcodec, "_Run")
