"""`import tsnet` stays light: numpy plus scipy's sparse, csgraph,
special and linalg.lapack.

scipy.signal, scipy.stats, scipy.optimize and scipy.interpolate together
cost about a second per process, which every `tsnet` command would pay.
The library filters through `tsnet._filter` and takes its quantiles from
`scipy.special`.  The GARCH QMLE minimizes by damped scoring: the
derivatives of the conditional variance follow its own recursion
(Fiorentini, Calzolari & Panattoni 1996), so one banded filter pass
gives the gradient and the scoring matrix (Berndt, Hall, Hall & Hausman
1974), and the library never imports scipy.optimize at all.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import tsnet

_SRC = Path(tsnet.__file__).parent
_HEAVY = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate")
# never imported by the library, not even inside a function
_BANNED = ("scipy.signal", "scipy.optimize")


def _under(name, packages):
    return any(name == p or name.startswith(p + ".") for p in packages)


def _imported(node):
    """The modules and names an import statement loads, as dotted names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _heavy_imports(source: str) -> list[str]:
    """Lines of `source` that use lfilter, import scipy.signal or
    scipy.optimize, or import scipy.stats or interpolate outside a
    function body."""
    tree = ast.parse(source)
    in_function = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)}
    lines = set()
    for node in ast.walk(tree):
        names = _imported(node)
        if ((isinstance(node, ast.Name) and node.id == "lfilter")
                or (isinstance(node, ast.Attribute) and node.attr == "lfilter")
                or any(_under(n, _BANNED) or n.endswith(".lfilter") for n in names)
                or (id(node) not in in_function and any(_under(n, _HEAVY) for n in names))):
            lines.add(node.lineno)
    text = source.splitlines()
    return [text[i - 1].strip() for i in sorted(lines)]


def test_guard_flags_each_heavy_import():
    forms = [
        "from scipy.signal import lfilter",
        "import scipy.signal",
        "from scipy import signal",
        "y = signal.lfilter(b, a, x)",
        "y = lfilter(b, a, x)",
        "def f(x):\n    from scipy.signal import lfilter",
        "from scipy import stats",
        "from scipy.stats import kstest",
        "import scipy.optimize",
        "from scipy.optimize import minimize",
        "from scipy import optimize",
        "def fit(y):\n    from scipy.optimize import minimize",
        "def fit(y):\n    import scipy.optimize",
        "from scipy import interpolate",
        "if True:\n    from scipy import stats",
    ]
    for src in forms:
        assert len(_heavy_imports(src)) == 1, src
    # a lazy import of stats, and the light scipy modules, pass
    others = ("def summarize(z):\n    from scipy import stats\n"
              "from scipy.special import ndtri\nfrom scipy import sparse, special\n"
              "from scipy.linalg.lapack import dtbtrs\n")
    assert _heavy_imports(others) == []


def test_no_heavy_scipy_import_in_the_library():
    offenders = {path.name: _heavy_imports(path.read_text())
                 for path in sorted(_SRC.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy submodules loaded once `code` has run in a fresh process."""
    env = dict(os.environ)
    src = str(_SRC.resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "\nprint('\\n'.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))"
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.split()


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    loaded = _scipy_modules_after("import tsnet.cli")
    assert "scipy.sparse" in loaded
    assert [m for m in loaded if _under(m, _HEAVY)] == []


def test_garch_fit_leaves_scipy_optimize_unloaded():
    loaded = _scipy_modules_after(
        "import tsnet\n"
        "y, _ = tsnet.simulate_garch(tsnet.GarchSpec(0.1, 0.1, 0.8), 2000, tsnet.RngSpec(1, 0))\n"
        "assert tsnet.garch_qmle(y).converged")
    assert "scipy.linalg.lapack" in loaded
    assert [m for m in loaded if _under(m, _HEAVY)] == []


_MODULES = ("bootstrap", "breaks", "coint", "garch", "lrv", "mc", "netdep", "predreg",
            "randmat", "series", "tables", "unitroot")


def test_tsnet_exports_each_modules_all_once():
    declared = {}
    for name in _MODULES:
        module = importlib.import_module(f"tsnet.{name}")
        for key in module.__all__:
            assert key not in declared, (key, declared.get(key), name)
            declared[key] = name
            assert getattr(tsnet, key) is getattr(module, key), (name, key)
    # submodules aside (tsnet.cli among them, once imported)
    public = {key for key, value in vars(tsnet).items()
              if not key.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(declared)


# public functions that no library module, command or experiment reaches,
# each kept for what it serves outside the library
ORACLES = {
    "autocovariance": "the lag-by-lag oracle of hac_lrv in tests/test_kernels.py",
    "garch_filter": "tests/test_ols.py compares garch_qmle's filter with it bit for bit",
    "mp_cdf": "the README's Marchenko-Pastur distribution function",
    "wild_conditional_variance": "read by criterion 09 of tests/test_acceptance.py",
}


def _names_loaded(tree, skip=None) -> set:
    """Names `tree` loads or imports, outside the body of its top-level function `skip`."""
    skipped = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name == skip for node in ast.walk(fn)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_is_reached_or_an_oracle():
    from test_tracer_names import _library_table

    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}
    traced = {(modname, fn) for modname, fns in _library_table().items() for fn in fns}
    unreached = []
    for name in _MODULES:
        module = importlib.import_module(f"tsnet.{name}")
        for key in module.__all__:
            if not inspect.isfunction(getattr(module, key)):
                continue
            reached = ((name, key) in traced or key in ORACLES
                       or key in _names_loaded(trees[name], skip=key)
                       or any(key in _names_loaded(tree)
                              for other, tree in trees.items() if other != name))
            if not reached:
                unreached.append(f"{name}.{key}")
    assert unreached == []
    # every oracle is a public function
    assert all(inspect.isfunction(getattr(tsnet, key, None)) for key in ORACLES)
