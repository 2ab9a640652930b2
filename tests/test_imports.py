"""Every module under ``src/repro/`` and every file in ``benchmarks/`` and
``jobs/`` imports cleanly, so a stale import of a deleted module fails here
even though ``benchmarks/`` is not part of this suite."""
import importlib
import pathlib

import pytest

from tests.util import load_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = sorted(
    ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for p in (SRC / "repro").rglob("*.py")
)
SCRIPTS = sorted(
    p.relative_to(ROOT).as_posix()
    for d in ("benchmarks", "jobs")
    for p in (ROOT / d).glob("*.py")
)


@pytest.mark.parametrize("name", MODULES)
def test_import_module(name):
    importlib.import_module(name)


@pytest.mark.parametrize("path", SCRIPTS)
def test_import_script(path):
    load_file(ROOT / path)
