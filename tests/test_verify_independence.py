"""Independence guard: `verify` reads nothing of the construction side.

Verification is the product, so its checks must not lean on what built the
code: the constructions, the census, the assemblies, the locators or
`grs._generator_matrix`.  From the package, `verify` may import only
`errors`, `field` and `grs`, and of `grs` it may read only the artifact
types, the block-size setting and `grs_rows`.  `grs_rows` is the one
documented exception: the power sums make their GRS rows from (a, v) with
it, and `verify` never reads G through it.  Reads are found with `ast`,
failing closed: a name bound to the `grs` module counts only as
`grs.<attribute>`, and any other use of it counts as reading everything.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mdssd"

ALLOWED_MODULES = {"errors", "field", "grs"}
ALLOWED_GRS = {"CodeArtifact", "EvalVector", "grs_rows", "_BLOCK_ENTRIES"}


def package_reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(the package modules the tree imports, the names it reads from
    `grs`), from `from .m import x`, `from . import m`, their absolute
    forms, and `import mdssd.m as m`.  A plain `import mdssd.m` binds the
    whole package and counts as importing "mdssd"; an unbound use of a name
    bound to `grs` counts as reading "*"."""
    modules: set[str] = set()
    names: set[str] = set()
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] != "mdssd":
                    continue
                module = alias.name.removeprefix("mdssd").lstrip(".")
                modules.add(module if alias.asname and module else "mdssd")
                if alias.asname and module == "grs":
                    aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            package = node.module or ""
            if node.level == 0:
                if package.partition(".")[0] != "mdssd":
                    continue
                package = package.removeprefix("mdssd").lstrip(".")
            if package:
                modules.add(package)
                if package == "grs":
                    names |= {alias.name for alias in node.names}
            else:
                for alias in node.names:
                    modules.add(alias.name)
                    if alias.name == "grs":
                        aliases.add(alias.asname or alias.name)
    attributes = {id(node.value): node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    names |= {attributes.get(id(node), "*") for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in aliases}
    return modules, names


def test_verify_reads_only_errors_field_and_the_artifact_side_of_grs():
    import mdssd.verify as verify

    modules, names = package_reads(ast.parse((SRC / "verify.py").read_text()))
    assert modules - ALLOWED_MODULES == set()
    assert names - ALLOWED_GRS == set()
    # the block size is read from grs at call time, never copied
    assert not hasattr(verify, "_BLOCK_ENTRIES")


@pytest.mark.parametrize("source", [
    "from .constructions import build\n",
    "from . import census\n",
    "from mdssd.constructions import _points_and_weights\n",
    "import mdssd.constructions as c\n",
    "import mdssd.grs\n",
    "from .grs import assemble_self_dual_grs\n",
    "from .grs import *\n",
    "from . import grs\nG = grs._generator_matrix\n",
    "from . import grs as g\nf = getattr(g, 'all_locators')\n",
    "import mdssd.grs as g\nL = g.locator_logs\n",
], ids=["constructions", "census", "absolute", "import-as", "package", "assembly", "star",
        "generator-matrix", "getattr", "locators"])
def test_the_guard_finds_a_construction_side_read(source):
    modules, names = package_reads(ast.parse(source))
    assert modules - ALLOWED_MODULES or names - ALLOWED_GRS


def test_the_guard_passes_the_allowed_reads():
    source = ("import numpy as np\nfrom .errors import TooLarge\nfrom .field import FieldCtx\n"
              "from . import grs\nfrom .grs import CodeArtifact, EvalVector\n"
              "rows = grs.grs_rows\nblock = grs._BLOCK_ENTRIES\n")
    assert package_reads(ast.parse(source)) == (
        {"errors", "field", "grs"}, {"CodeArtifact", "EvalVector", "grs_rows", "_BLOCK_ENTRIES"})
