"""bench/certify.py stays independent of the library it checks.

The tests load certify as their second opinion (see corpusdef), which
is worth something only while it shares no code with sparsepaving.  The
scan reads the source with ast and names every import outside the
standard library; the second test shows that it catches seeded ones.
"""

import ast
import sys
from pathlib import Path

import pytest

CERTIFY = Path(__file__).resolve().parent.parent / "bench" / "certify.py"


def non_stdlib_imports(source: str) -> list[str]:
    """Each import in source of a module outside sys.stdlib_module_names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_certify_imports_only_the_standard_library():
    assert non_stdlib_imports(CERTIFY.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "seed",
    [
        "from sparsepaving import is_basis\n",
        "import sparsepaving.core as core\n",
        "def rank(m, s):\n    from sparsepaving.core import rank_of\n    return rank_of(m, s)\n",
        "from . import corpusdef\n",
    ],
)
def test_the_import_scan_catches_a_seeded_import(seed):
    assert non_stdlib_imports(CERTIFY.read_text(encoding="utf-8") + seed)
