"""Every module-level import in the package's modules is used.

``__init__.py`` is checked too: the modules are the package's API, so an
import kept there only to re-export a name fails this test."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quadndr"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from x import y, z\nnp.zeros(z)\n") == ["os", "y"]
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
