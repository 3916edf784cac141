"""Modules of the package import only public names from their siblings,
and the two-size split is written once.

A name with a leading underscore is private to its module; a sibling that
imports it depends on internals the owner may change.  Importing a private
module itself (``from . import _streams``) is allowed.  Records are
partitioned only by ``optimize.two_size_parts``, so ``partition_records`` has
callers in one module.  Every CLI command reads its thresholds and size range
through one preamble, so ``cli.py`` calls ``load_privacy_spec`` and
``SearchConfig.for_spec`` once each.
"""

import ast
from pathlib import Path

import fprivacy

PACKAGE = Path(fprivacy.__file__).parent


def private_sibling_imports(source: str) -> list[str]:
    """Each ``module.name`` a module imports that is private to a sibling."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 0 and node.module.split(".")[0] != "fprivacy":
            continue
        found += [f"{node.module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


def calls(source: str, name: str) -> int:
    """How many places in the source call ``name``, bare or as an
    attribute."""
    return sum(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None),
                            getattr(node.func, "attr", None))
               for node in ast.walk(ast.parse(source)))


def test_no_module_imports_a_private_sibling_name():
    offenders = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
                 if (names := private_sibling_imports(
                     path.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_check_tells_private_names_from_private_modules():
    assert private_sibling_imports("from .publish import _x, y") == \
        ["publish._x"]
    assert private_sibling_imports("from fprivacy.core import _y") == \
        ["fprivacy.core._y"]
    assert private_sibling_imports(
        "from . import _streams\nfrom ._streams import Streams\n"
        "from os import _exit\nfrom __future__ import annotations") == []


def test_records_are_partitioned_in_optimize_only():
    callers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if calls(path.read_text(encoding="utf-8"), "partition_records")]
    assert callers == ["optimize.py"]
    assert calls("validate.partition_records(t, b, s)", "partition_records")
    assert not calls("from .validate import partition_records",
                     "partition_records")


def test_cli_reads_thresholds_and_size_range_in_one_place():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert calls(source, "load_privacy_spec") == 1
    assert calls(source, "for_spec") == 1
    assert calls("SearchConfig.for_spec(a)\nfor_spec(b)", "for_spec") == 2
