"""The Python 3.10 floor of pyproject.toml, held without a 3.10 interpreter.

Every module under src/ must parse with the 3.10 grammar and use no
standard-library name that a later version added.  The scan reads the
source only, so it runs under any newer interpreter; the second test
shows that it catches one seeded use of each listed feature.
"""

import ast
from pathlib import Path

import pytest

import sparsepaving

# (module, name) added after 3.10; a None name means the module itself is new
NEWER = {
    ("builtins", "BaseExceptionGroup"),
    ("builtins", "ExceptionGroup"),
    ("tomllib", None),
    ("wsgiref.types", None),
    ("asyncio", "TaskGroup"),
    ("asyncio", "timeout"),
    ("contextlib", "chdir"),
    ("datetime", "UTC"),
    ("enum", "EnumCheck"),
    ("enum", "ReprEnum"),
    ("enum", "StrEnum"),
    ("enum", "global_enum"),
    ("enum", "member"),
    ("enum", "nonmember"),
    ("enum", "verify"),
    ("hashlib", "file_digest"),
    ("itertools", "batched"),
    ("math", "cbrt"),
    ("math", "exp2"),
    ("math", "sumprod"),
    ("operator", "call"),
    ("sys", "exception"),
    ("typing", "LiteralString"),
    ("typing", "Never"),
    ("typing", "NotRequired"),
    ("typing", "Required"),
    ("typing", "Self"),
    ("typing", "TypeAliasType"),
    ("typing", "TypeVarTuple"),
    ("typing", "Unpack"),
    ("typing", "assert_never"),
    ("typing", "assert_type"),
    ("typing", "dataclass_transform"),
    ("typing", "override"),
    ("typing", "reveal_type"),
}


def newer_than_floor(source: str) -> list[str]:
    """Each use in source of syntax or a standard-library name newer than 3.10."""
    try:
        tree = ast.parse(source, feature_version=(3, 10))
    except SyntaxError as e:
        return [f"line {e.lineno}: {e.msg}"]
    nodes = list(ast.walk(tree))
    modules = {}  # local name -> module, from every import in the file
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                local = a.asname or a.name.partition(".")[0]
                modules[local] = a.name if a.asname else local
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            uses = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            uses = [(node.module, None)] + [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses = [(modules.get(node.value.id), node.attr)]
        elif isinstance(node, ast.Name):
            uses = [("builtins", node.id)]
        else:
            continue
        found += [f"line {node.lineno}: {m}.{a}" for m, a in uses if (m, a) in NEWER]
    return found


def test_src_stays_within_the_python_floor():
    for path in sorted(Path(sparsepaving.__file__).parent.glob("*.py")):
        assert newer_than_floor(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    pass\nexcept* ValueError:\n    pass\n",
        "import tomllib\n",
        "from typing import Self\n",
        "import typing\n\ndef f() -> typing.Self: ...\n",
        "raise ExceptionGroup('two', [ValueError(), KeyError()])\n",
        "import enum\n\nclass C(enum.StrEnum): ...\n",
        "from datetime import UTC\n",
        "import datetime as dt\n\nnow = dt.datetime.now(dt.UTC)\n",
        "from itertools import batched\n",
        "def f(xs):\n    import itertools\n    return itertools.batched(xs, 2)\n",
    ],
)
def test_the_floor_scan_catches_each_newer_feature(source):
    assert newer_than_floor(source)


def test_the_floor_scan_passes_what_3_10_has():
    source = (
        "import itertools\nimport typing\n\n"
        "def f(x: typing.Optional[int]) -> int:\n"
        "    match x:\n        case None:\n            return 0\n"
        "    return sum(a * b for a, b in itertools.pairwise(range(x)))\n"
    )
    assert newer_than_floor(source) == []
