"""Every top-level function in the package's modules has a caller in the package.

That holds for private helpers too: a helper that a refactor leaves without
callers is dead code, whatever its name. A function counts as called when
another function's body, a class body (say, a dataclass field's parser) or a
module's ``if __name__ == "__main__":`` block refers to it by name or as an
attribute. Other module-level statements and
``__init__.py`` re-exports do not count: a function only tests use belongs
in ``tests/`` as an oracle.

Every parameter of every function in the package is read by its body, too:
a parameter that a refactor leaves unread is dead, however its callers
fill it.

Every ``NetConfig`` field is set by the CLI, too: a field that no production
caller sets is an option only tests vary, and belongs in a constant. And the
benchmark's copy of the CLI's network builder builds the same networks.

The CLI reads, checks and splits flights in one function, so train and eval
refuse the same flights and hold out the same ones."""
import ast
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from quadndr.cli import ARCHES, _net_config
from quadndr.config import load_config
from quadndr.network import NetConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "quadndr"


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


def uncalled_functions(sources: list[str]) -> list[str]:
    """Top-level functions of ``sources`` that no other function body, no
    class body and no ``__main__`` block of ``sources`` refers to."""
    defined, called = [], set()
    for source in sources:
        tree = ast.parse(source)
        defined += [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
        called |= _referenced(node for node in tree.body
                              if _is_main_guard(node) or isinstance(node, ast.ClassDef))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called |= _referenced(fn.body) - {fn.name}
    return [name for name in defined if name not in called]


def test_every_function_has_a_caller_in_the_package():
    snippet = (
        "import sys\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def _private(): pass\n"
        "def _helper(): pass\n"
        "def _parse(): pass\n"
        "class Config:\n"
        "    key: int = field(metadata={'parse': _parse})\n"
        "def main(): return helper() + _helper() + mod.attr_called()\n"
        "def attr_called(): pass\n"
        "table = {'x': orphan, 'y': _private}\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(main())\n")
    assert uncalled_functions([snippet]) == ["orphan", "recursive", "_private"]
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    assert uncalled_functions([p.read_text() for p in modules]) == []


def unread_parameters(sources: list[str]) -> list[str]:
    """``function.parameter`` for every parameter of a function of ``sources``
    that the function's body does not read, ``self`` and ``cls`` excepted."""
    unread = []
    for source in sources:
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a is not None)]
            read = {sub.id for node in fn.body for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{fn.name}.{a.arg}" for a in params
                       if a.arg not in read | {"self", "cls"}]
    return unread


def test_every_parameter_is_read():
    snippet = (
        "def used(a, *rest, key=1, **extra): return a, rest, key, extra\n"
        "def unused(a, b, *, key=None): return a\n"
        "def default_only(a, b=a): return b\n"
        "def outer(a):\n"
        "    def inner(b): return a\n"
        "    return inner\n"
        "class C:\n"
        "    def method(self, x): return 0\n"
        "    @classmethod\n"
        "    def make(cls): return 0\n")
    assert unread_parameters([snippet]) == [
        "unused.b", "unused.key", "default_only.a", "inner.b", "method.x"]
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    assert unread_parameters([p.read_text() for p in modules]) == []


def keywords_passed(source: str, function: str, callee: str) -> set[str]:
    """Keywords that top-level ``function`` of ``source`` passes to ``callee``."""
    tree = ast.parse(source)
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return {kw.arg for call in ast.walk(fn) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == callee
            for kw in call.keywords}


def test_cli_sets_every_net_config_field():
    snippet = ("def build(cfg):\n"
               "    return Net(arch=cfg.arch, **extra) if cfg else Other(window=1)\n")
    assert keywords_passed(snippet, "build", "Net") == {"arch", None}
    passed = keywords_passed((SRC / "cli.py").read_text(), "_net_config", "NetConfig")
    assert sorted({f.name for f in fields(NetConfig)} - passed) == []


def references_split(source: str, function: str) -> tuple[set[str], set[str]]:
    """Names that top-level ``function`` of ``source`` refers to, and names
    that the rest of ``source`` refers to; an import is not a reference."""
    tree = ast.parse(source)
    inside = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    return _referenced(inside), _referenced(node for node in tree.body if node not in inside)


FLIGHT_LOADING = {"read_gt_csv", "read_imu_csv", "check_synchronized", "split_tags"}


def test_cli_loads_flights_in_one_function():
    snippet = ("from .windows import split_tags\n"
               "def load(cfg):\n"
               "    return split_tags(read(cfg))\n"
               "def cmd(cfg):\n"
               "    return windows.split_tags(load(cfg)), check\n"
               "default = read\n")
    inside, outside = references_split(snippet, "load")
    assert inside == {"split_tags", "read", "cfg"}
    assert outside == {"windows", "split_tags", "load", "cfg", "check", "read", "default"}
    inside, outside = references_split((SRC / "cli.py").read_text(), "_load_trajectories")
    assert FLIGHT_LOADING <= inside
    assert sorted(FLIGHT_LOADING & outside) == []


def _perfbench_workloads():
    """``perfbench/workloads.py``, imported from its file as it is."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        # a dataclass looks its module up in sys.modules while it is built
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("config", ["default", "criterion_6", "tiny_network"])
def test_perfbench_builds_the_networks_the_cli_trains(config, arch):
    workloads = _perfbench_workloads()
    overrides = {
        "default": (),
        "criterion_6": workloads.CLAIM_OVERRIDES + ("runs=3", "seed=17"),
        "tiny_network": ("conv_channels=" + ("3,4,4" if arch == "multi" else "6,8,8"),
                         "dense_widths=16,8", "dropout=0.0"),
    }[config]
    cfg = load_config(overrides=list(overrides))
    assert workloads.net_config(cfg, arch) == _net_config(cfg, arch)
