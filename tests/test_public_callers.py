"""Every top-level function in the package's modules has a caller in the package.

That holds for private helpers too: a helper that a refactor leaves without
callers is dead code, whatever its name. A function counts as called when
another function's body or decorators, a class body (say, a dataclass
field's parser) or a module's ``if __name__ == "__main__":`` block refers to
it by name or as an attribute. Other module-level statements and
``__init__.py`` re-exports do not count: a function only tests use belongs
in ``tests/`` as an oracle.

Every parameter of every function in the package is read by its body, too:
a parameter that a refactor leaves unread is dead, however its callers
fill it.

Every parameter with a default is passed explicitly by some call in the
package, the benchmark or the tests, too: a default that no call overrides
is a constant in the parameter list.

Every ``NetConfig`` field is set by the CLI, too: a field that no production
caller sets is an option only tests vary, and belongs in a constant. And the
benchmark's copy of the CLI's network builder builds the same networks, and
its claim workload runs criterion 6's config, ``configs/criterion6.cfg``.

The CLI reads, checks and splits flights in one function, so train and eval
refuse the same flights and hold out the same ones. And train and eval check
every setting, and eval every model file, before that function reads a flight;
that function splits the flights before it reads one, and simulate builds every
flight's settings before it makes a directory.

One helper knows that a conv zero-pads its input: no other code in the
package computes ``KERNEL // 2`` or ``KERNEL - 1``. And one function lays
out the conv layers' buffer: no other code in the package passes the name
``"arena"`` to a call, so no caller sizes it and no pass regrows it.

One helper, ``network._both``, starts a thread: no other code in the package
makes a thread, a process or a pool, so every task that runs beside the
caller goes through it and gets its error back to the caller."""
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
CRITERION_6 = ROOT / "configs" / "criterion6.cfg"


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
    """Top-level functions of ``sources`` that no other function's body or
    decorators, no class body and no ``__main__`` block of ``sources``
    refers to."""
    defined, called = [], set()
    for source in sources:
        tree = ast.parse(source)
        defined += [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
        called |= _referenced(node for node in tree.body
                              if _is_main_guard(node) or isinstance(node, ast.ClassDef))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called |= _referenced(fn.body + fn.decorator_list) - {fn.name}
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
        "def _wrap(f): return f\n"
        "class Config:\n"
        "    key: int = field(metadata={'parse': _parse})\n"
        "def main(): return helper() + _helper() + mod.attr_called()\n"
        "@_wrap\n"
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


def _defaulted(fn) -> list[tuple[str, int | None]]:
    """Each parameter of ``fn`` with a default, and the position a call passes
    it at (None when keyword-only); a method's ``self`` or ``cls`` takes none."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _passes(call, name: str, at) -> bool:
    """Whether ``call`` passes parameter ``name`` by keyword, in a ``**``
    expansion or, unless ``at`` is None, at position ``at``."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or at is not None and len(call.args) > at)


def unpassed_defaults(definitions: list[str], callers: list[str]) -> list[str]:
    """``function.parameter`` for every parameter with a default, of a function
    of ``definitions``, that no call in ``callers`` to that function's name
    (or to an attribute of that name) passes."""
    calls = {}
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                calls.setdefault(name, []).append(call)
    unpassed = []
    for source in definitions:
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unpassed += [f"{fn.name}.{name}" for name, at in _defaulted(fn)
                             if not any(_passes(c, name, at) for c in calls.get(fn.name, ()))]
    return unpassed


def test_every_default_is_passed_by_some_caller():
    definitions = (
        "def positional(a, b=1, c=2): return a, b, c\n"
        "def keyword(a, *, key=None, other=0): return a, key, other\n"
        "def expanded(a, b=1): return a, b\n"
        "def never(a=0): return a\n"
        "class C:\n"
        "    def method(self, x, y=0): return x, y\n")
    callers = (
        "positional(0, 1)\n"
        "mod.keyword(0, key=1)\n"
        "expanded(0, **opts)\n"
        "obj.method(1, 2)\n"
        "table = [never]\n")
    assert unpassed_defaults([definitions], [callers]) == [
        "positional.c", "keyword.other", "never.a"]
    files = sorted(p for tree in ("src", "perfbench", "tests") for p in (ROOT / tree).rglob("*.py"))
    assert len(files) > 15
    assert unpassed_defaults([p.read_text() for p in sorted(SRC.glob("*.py"))],
                             [p.read_text() for p in files]) == []


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


def calls_around(source: str, function: str, pivot: str) -> tuple[list[str], list[str]]:
    """Names of the calls in top-level ``function`` of ``source``, in source
    order, before and after its first call to ``pivot``."""
    tree = ast.parse(source)
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    calls = sorted((call.lineno, call.col_offset, getattr(call.func, "id", None)
                    or getattr(call.func, "attr", None))
                   for call in ast.walk(fn) if isinstance(call, ast.Call))
    names = [name for _, _, name in calls]
    at = names.index(pivot)
    return names[:at], names[at + 1:]


SETTINGS_AND_MODELS = {"TrainConfig", "WindowSpec", "_net_config", "load_model"}


def test_cli_checks_settings_and_models_before_reading_flights():
    snippet = ("def cmd(cfg):\n"
               "    spec = WindowSpec(cfg.n, 1)\n"
               "    data = _load(cfg)\n"
               "    net = mod.NetConfig(spec)\n"
               "    return [WindowSpec(2, 2) for _ in data], helper(x=load(cfg))\n")
    assert calls_around(snippet, "cmd", "_load") == (
        ["WindowSpec"], ["NetConfig", "WindowSpec", "helper", "load"])
    source = (SRC / "cli.py").read_text()
    for function, built in (("cmd_train", {"TrainConfig", "WindowSpec", "_net_config"}),
                            ("cmd_eval", {"WindowSpec", "load_model"})):
        before, after = calls_around(source, function, "_load_trajectories")
        assert SETTINGS_AND_MODELS & set(before) == built, function
        assert sorted(SETTINGS_AND_MODELS & set(after)) == [], function


def test_cli_splits_before_reading_and_checks_before_writing():
    snippet = ("def load(cfg):\n"
               "    tags = split_tags(names(cfg))\n"
               "    out.mkdir()\n"
               "    return [read_gt_csv(t) for t in tags], split_tags(tags)\n")
    assert calls_around(snippet, "load", "split_tags") == (
        [], ["names", "mkdir", "read_gt_csv", "split_tags"])
    assert calls_around(snippet, "load", "mkdir") == (
        ["split_tags", "names"], ["read_gt_csv", "split_tags"])
    source = (SRC / "cli.py").read_text()
    for function, pivot, earlier, later in (
            ("_load_trajectories", "split_tags", set(), {"read_gt_csv", "read_imu_csv"}),
            ("cmd_simulate", "mkdir",
             {"_profile", "generate_periodic_trajectory", "inverse_mechanize", "_error_model",
              "corrupt_imu"}, {"write_gt_csv", "write_imu_csv"})):
        before, after = calls_around(source, function, pivot)
        assert earlier <= set(before) and not earlier & set(after), function
        assert later <= set(after) and not later & set(before), function


def _signed_terms(node, sign=1):
    """The terms of an additive chain with their signs: ``a + b - c`` gives
    (1, a), (1, b) and (-1, c), and ``-a`` gives (-1, a)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        yield from _signed_terms(node.left, sign)
        yield from _signed_terms(node.right, -sign if isinstance(node.op, ast.Sub) else sign)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield from _signed_terms(node.operand, -sign)
    else:
        yield sign, node


def _is_kernel_offset(node) -> bool:
    """Whether ``node`` is ``KERNEL // 2`` or an additive chain that holds
    ``KERNEL - 1`` or ``1 - KERNEL`` among its terms."""
    def kernel(n):
        return getattr(n, "id", None) == "KERNEL" or getattr(n, "attr", None) == "KERNEL"

    def constant(n, value):
        return isinstance(n, ast.Constant) and n.value == value

    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.FloorDiv):
        return kernel(node.left) and constant(node.right, 2)
    terms = list(_signed_terms(node))
    return any(kernel(k) and constant(c, 1) and sk == -sc for sk, k in terms for sc, c in terms)


def kernel_offsets(source: str) -> list[str]:
    """Top-level definitions of ``source`` (``line N`` for other statements)
    whose code computes ``KERNEL // 2`` or ``KERNEL - 1``."""
    return [getattr(node, "name", f"line {node.lineno}") for node in ast.parse(source).body
            if any(_is_kernel_offset(sub) for sub in ast.walk(node))]


def test_one_helper_knows_the_conv_padding():
    snippet = ("KERNEL = 3  # KERNEL // 2 in a comment is no code\n"
               "def _taps(n):\n"
               "    return KERNEL // 2, n - KERNEL + 1\n"
               "def pad(x):\n"
               "    return x[:, KERNEL // 2:]\n"
               "def size(cfg):\n"
               "    return 2 * (cfg.window + KERNEL - 1)\n"
               "def out_length(lp):\n"
               "    return lp - net.KERNEL + 1, lp + (-KERNEL + 1)\n"
               "def other(n):\n"
               "    return n + KERNEL + 1, KERNEL // 3, (KERNEL - 2) * n, n // 2 - 1, -KERNEL - 1\n"
               "class Net:\n"
               "    def half(self):\n"
               "        return (KERNEL - 1) * 2\n"
               "HALF = KERNEL // 2\n")
    assert kernel_offsets(snippet) == ["_taps", "pad", "size", "out_length", "Net", "line 15"]
    found = {p.name: kernel_offsets(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: defs for name, defs in found.items() if defs} == {"network.py": ["_taps"]}


def arena_takers(source: str) -> list[str]:
    """Top-level definitions of ``source`` (``line N`` for other statements)
    with a call that passes the constant ``"arena"``."""
    def passes_arena(call):
        return any(isinstance(arg, ast.Constant) and arg.value == "arena"
                   for arg in [*call.args, *(kw.value for kw in call.keywords)])

    return [getattr(node, "name", f"line {node.lineno}") for node in ast.parse(source).body
            if any(isinstance(sub, ast.Call) and passes_arena(sub) for sub in ast.walk(node))]


def test_one_function_takes_the_arena():
    snippet = ("def _arena(ws):\n"
               "    return ws.get('arena', (4,))\n"
               "def forward(ws):\n"
               "    return ws.get(name='arena')\n"
               "def named(ws):\n"
               "    return ws.get('arena ' + 'x'), ws.get('flat'), 'arena'\n"
               "class Workspace:\n"
               "    def grow(self):\n"
               "        return self.get('arena', ())\n"
               "BUF = take('arena')\n")
    assert arena_takers(snippet) == ["_arena", "forward", "Workspace", "line 10"]
    found = {p.name: arena_takers(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: defs for name, defs in found.items() if defs} == {"network.py": ["_arena"]}


# what computes a matrix product, by the name it is reached by
GEMM_MAKERS = {"matmul", "dot", "tensordot", "einsum", "inner"}


def gemm_users(source: str) -> list[str]:
    """Top-level definitions of ``source`` (``line N`` for other statements)
    that use the ``@`` operator or name one of GEMM_MAKERS."""
    def is_gemm(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        if isinstance(node, ast.alias):  # an import of one
            return node.name.rsplit(".", 1)[-1] in GEMM_MAKERS
        return getattr(node, "id", getattr(node, "attr", None)) in GEMM_MAKERS

    return [getattr(node, "name", f"line {node.lineno}") for node in ast.parse(source).body
            if any(is_gemm(sub) for sub in ast.walk(node))]


def test_one_helper_runs_every_gemm():
    snippet = ("import numpy as np\n"
               "from numpy import dot as product\n"
               "def _matmul(a, b, out):\n"
               "    return np.matmul(a, b, out=out)\n"
               "def forward(w, x):\n"
               "    return w @ x\n"
               "def grad(g, h):\n"
               "    g @= h\n"
               "def tail(h, w, z):\n"
               "    return partial(np.matmul, h, w, out=z), 'matmul', np.vdot(h, h)\n"
               "class Net:\n"
               "    def head(self, h):\n"
               "        return h.dot(self.w)\n"
               "PRODUCT = np.einsum('ij,jk', A, B)\n")
    assert gemm_users(snippet) == ["line 2", "_matmul", "forward", "grad", "tail", "Net",
                                   "line 14"]
    found = {p.name: gemm_users(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert found["network.py"] == ["_matmul"]


# what makes a thread or a process, by the name it is called by
THREAD_MAKERS = {"Thread", "Timer", "start_new_thread", "start_new", "ThreadPoolExecutor",
                 "ProcessPoolExecutor", "ThreadPool", "Pool", "Process", "fork"}


def thread_makers(source: str) -> list[str]:
    """Top-level definitions of ``source`` (``line N`` for other statements)
    with a call to one of THREAD_MAKERS."""
    def makes_thread(call):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        return name in THREAD_MAKERS

    return [getattr(node, "name", f"line {node.lineno}") for node in ast.parse(source).body
            if any(isinstance(sub, ast.Call) and makes_thread(sub) for sub in ast.walk(node))]


def test_one_helper_starts_a_thread():
    snippet = ("import threading\n"
               "def _both(a, b):\n"
               "    threading.Thread(target=a).start()\n"
               "def pool(f):\n"
               "    with ThreadPoolExecutor(2) as ex:\n"
               "        return ex.map(f, [])\n"
               "def timer():\n"
               "    return threading.Timer(1.0, print), 'Thread'\n"
               "class Runner:\n"
               "    def go(self):\n"
               "        return _thread.start_new_thread(print, ())\n"
               "def not_one(t):\n"
               "    return t.join(), threading.get_ident(), Threads()\n"
               "WORKER = multiprocessing.Process(target=print)\n")
    assert thread_makers(snippet) == ["_both", "pool", "timer", "Runner", "line 14"]
    found = {p.name: thread_makers(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: defs for name, defs in found.items() if defs} == {"network.py": ["_both"]}


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
    path, overrides = {
        "default": (None, []),
        "criterion_6": (CRITERION_6, []),
        "tiny_network": (None, ["conv_channels=" + ("3,4,4" if arch == "multi" else "6,8,8"),
                                "dense_widths=16,8", "dropout=0.0"]),
    }[config]
    cfg = load_config(path, overrides)
    assert _perfbench_workloads().net_config(cfg, arch) == _net_config(cfg, arch)


def test_perfbench_claim_workload_runs_the_criterion_6_config():
    # claim_pipeline runs one training run at a seed of its own
    overrides = [*_perfbench_workloads().CLAIM_OVERRIDES, "runs=3", "seed=17"]
    assert load_config(overrides=overrides) == load_config(CRITERION_6)
