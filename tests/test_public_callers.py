"""Every public function in the package's modules has a caller in the package.

A public function is a top-level ``def`` whose name has no leading
underscore. It counts as called when another function's body, or a module's
``if __name__ == "__main__":`` block, refers to it by name or as an
attribute. Module-level statements and ``__init__.py`` re-exports do not
count: a function only tests use belongs in ``tests/`` as an oracle."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quadndr"


def _referenced(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _is_main_guard(node) -> bool:
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in test.comparators))


def uncalled_public_functions(sources: list[str]) -> list[str]:
    """Public top-level functions of ``sources`` that no other function body
    and no ``__main__`` block of ``sources`` refers to."""
    public, called = [], set()
    for source in sources:
        tree = ast.parse(source)
        public += [node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
        called |= _referenced(node for node in tree.body if _is_main_guard(node))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called |= _referenced(fn.body) - {fn.name}
    return [name for name in public if name not in called]


def test_every_public_function_has_a_caller_in_the_package():
    snippet = (
        "import sys\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def _private(): pass\n"
        "def main(): return helper() + mod.attr_called()\n"
        "def attr_called(): pass\n"
        "table = {'x': orphan}\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(main())\n")
    assert uncalled_public_functions([snippet]) == ["orphan", "recursive"]
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    assert uncalled_public_functions([p.read_text() for p in modules]) == []
