"""`import tsnet` stays light: numpy plus scipy's sparse, special and
linalg.lapack.

scipy.signal, scipy.stats, scipy.optimize and scipy.interpolate together
cost about a second per process, which every `tsnet` command would pay.
The library filters through `tsnet._filter` and takes its quantiles from
`scipy.special`.  The GARCH QMLE minimizes by damped scoring: the
derivatives of the conditional variance follow its own recursion
(Fiorentini, Calzolari & Panattoni 1996), so one banded filter pass
gives the gradient and the scoring matrix (Berndt, Hall, Hall & Hausman
1974), and the library never imports scipy.optimize at all.
scipy.sparse.csgraph, which loads scipy.sparse.linalg with it, is
imported only inside `graph_distance`, the dense distance oracle that no
command or experiment calls: it would cost every process about 3 MB.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

import tsnet
from tsnet import mc

_SRC = Path(tsnet.__file__).parent
_HEAVY = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate",
          "scipy.sparse.csgraph", "scipy.sparse.linalg")
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
    scipy.optimize, or import another `_HEAVY` module outside a function
    body."""
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
        "from scipy.sparse.csgraph import shortest_path",
        "from scipy.sparse import csgraph",
        "import scipy.sparse.csgraph",
        "from scipy.sparse.linalg import eigsh",
    ]
    for src in forms:
        assert len(_heavy_imports(src)) == 1, src
    # lazy imports of stats and csgraph, and the light scipy modules, pass
    others = ("def summarize(z):\n    from scipy import stats\n"
              "def distance(g):\n    from scipy.sparse.csgraph import shortest_path\n"
              "from scipy.special import ndtri\nfrom scipy import sparse, special\n"
              "from scipy.linalg.lapack import dtbtrs\n")
    assert _heavy_imports(others) == []


def test_no_heavy_scipy_import_in_the_library():
    offenders = {path.name: _heavy_imports(path.read_text())
                 for path in sorted(_SRC.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def _stdout(code: str) -> str:
    """What `code` prints in a fresh process, after `import sys`."""
    env = dict(os.environ)
    src = str(_SRC.resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy submodules loaded once `code` has run in a fresh process."""
    return _stdout(code + "\nprint('\\n'.join(sorted(m for m in sys.modules "
                          "if m.startswith('scipy.'))))").split()


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    loaded = _scipy_modules_after("import tsnet.cli")
    assert "scipy.sparse" in loaded
    assert [m for m in loaded if _under(m, _HEAVY)] == []


def test_only_the_distance_oracle_loads_csgraph():
    # criterion 12's small size of every registered experiment
    from test_acceptance import _TINY

    assert set(_TINY) == set(mc.EXPERIMENTS)
    out = json.loads(_stdout(
        "import json\n"
        "import tsnet\n"
        "from tsnet.mc import ExperimentConfig, run_experiment\n"
        f"for name, (reps, params) in {_TINY!r}.items():\n"
        "    run_experiment(ExperimentConfig(experiment=name, reps=reps, params=params))\n"
        "def loaded():\n"
        "    return [m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg')\n"
        "            if m in sys.modules]\n"
        "before = loaded()\n"
        "cycle = tsnet.graph_distance(tsnet.cycle_graph(6))\n"
        "split = tsnet.graph_distance(tsnet.Graph(n=3, edges=((1, 2),)))\n"
        "print(json.dumps({'before': before, 'after': loaded(),\n"
        "                  'cycle': cycle.tolist(), 'split': split.tolist()}))"))
    assert out["before"] == []
    assert out["after"] == ["scipy.sparse.csgraph", "scipy.sparse.linalg"]
    i = np.arange(6)
    gap = np.abs(i[:, None] - i[None, :])
    np.testing.assert_array_equal(out["cycle"], np.minimum(gap, 6 - gap))
    np.testing.assert_array_equal(out["split"], [[0, 1, np.inf], [1, 0, np.inf],
                                                 [np.inf, np.inf, 0]])


def test_garch_fit_leaves_scipy_optimize_unloaded():
    loaded = _scipy_modules_after(
        "import tsnet\n"
        "y, _ = tsnet.simulate_garch(tsnet.GarchSpec(0.1, 0.1, 0.8), 2000, tsnet.RngSpec(1, 0))\n"
        "assert tsnet.garch_qmle(y).converged")
    assert "scipy.linalg.lapack" in loaded
    assert [m for m in loaded if _under(m, _HEAVY)] == []


_MODULES = ("bootstrap", "breaks", "coint", "garch", "lrv", "mc", "netdep", "predreg",
            "randmat", "series", "unitroot")


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


def _reached(trees: dict, roots=("cli", "mc")) -> set:
    """(module, name) of each top-level definition in `trees` (module -> tree)
    that the modules `roots` reach.

    The walk starts from the whole of each root module and follows every
    `Name` it loads to the top-level function, class or assignment that the
    name is bound to, in the loading module or, through a relative
    `from .module import name`, in another; a reached definition's body is
    walked in turn.  Code that nothing reached loads reaches nothing.
    """
    defs, links = {}, {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                links.update({(mod, a.asname or a.name): (node.module, a.name)
                              for a in node.names})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault((mod, node.name), []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs.setdefault((mod, t.id), []).append(node)

    def bound(mod, name):
        while (mod, name) in links:
            mod, name = links[(mod, name)]
        return mod, name

    reached = set()
    todo = [(mod, trees[mod]) for mod in roots]
    while todo:
        mod, node = todo.pop()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                key = bound(mod, n.id)
                if key in defs and key not in reached:
                    reached.add(key)
                    todo.extend((key[0], d) for d in defs[key])
    return reached


def _public_functions() -> dict:
    """module -> the public functions its `__all__` declares."""
    return {name: [key for key in module.__all__ if inspect.isfunction(getattr(module, key))]
            for name in _MODULES for module in [importlib.import_module(f"tsnet.{name}")]}


def test_every_public_function_is_reached():
    from test_tracer_names import _library_table

    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}
    reached = _reached(trees)
    unreached = [(mod, key) for mod, keys in _public_functions().items() for key in keys
                 if (mod, key) not in reached]
    # the benchmark's tracer wraps by name graph_distance, which no command
    # or experiment calls
    traced = {(modname, fn) for modname, fns in _library_table().items() for fn in fns}
    assert [f"{mod}.{key}" for mod, key in unreached if (mod, key) not in traced] == []


def test_reach_guard_flags_what_only_tests_or_unreached_code_call():
    lib = ast.parse("from ._checks import check\n"
                    "LIMIT = 3\n"
                    "def fit(y):\n    return check(y, LIMIT)\n"
                    "class Spec:\n    def resolve(self):\n        return helper(self)\n"
                    "def helper(spec):\n    return spec\n"
                    "def density(x):\n    return x\n"
                    "def cdf(x):\n    return density(x)\n"
                    "def oracle(y):\n    return y\n")
    trees = {"lib": lib, "_checks": ast.parse("def check(y, limit):\n    return y\n"),
             "cli": ast.parse("from .lib import Spec as S, fit\n"
                              "def run(args):\n    return fit(S().resolve())\n"),
             "test_lib": ast.parse("from tsnet.lib import cdf, oracle\n"
                                   "def test_oracle():\n    assert oracle(cdf(1))\n")}
    reached = _reached(trees, roots=("cli",))
    # through an alias, a class's methods and a relative import
    assert {("lib", "fit"), ("lib", "Spec"), ("lib", "helper"), ("lib", "LIMIT"),
            ("_checks", "check")} <= reached
    # a function only a test calls, and one only an unreached function loads
    assert {("lib", "oracle"), ("lib", "cdf"), ("lib", "density")}.isdisjoint(reached)


# defaulted parameters of public functions that no library call sets, each
# kept for what it serves outside the library
ORACLE_OPTIONS = {
    "split_wald": (("k",), "the per-break oracle of sup_wald's scan in tests/test_breaks.py"),
    "shin_vn": (("x",), "`tsnet test shin` sets it through _load_yx(..., x_optional=True)"),
}


def _params(fn: ast.FunctionDef) -> tuple[list, list]:
    """The positional parameters of `fn` in order, and those that have defaults."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):]
    return positional, defaulted + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]


def _callee(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _passed(call: ast.Call, positional: list) -> set:
    """The parameters `call` sets by keyword, or by a position before any starred argument."""
    n = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)),
             len(call.args))
    return set(positional[:n]) | {kw.arg for kw in call.keywords if kw.arg}


def _unset_options(trees: dict, public: dict) -> set:
    """(function, parameter) for each defaulted parameter of the functions named in
    `public` (module -> names) that no call in `trees` (module -> tree) sets.

    A call counts if it names the function, except inside the function's own
    body.
    """
    defs = {(mod, fn.name): fn for mod, tree in trees.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef)}
    calls = [((mod, getattr(top, "name", None)), node) for mod, tree in trees.items()
             for top in tree.body for node in ast.walk(top) if isinstance(node, ast.Call)]
    unset = set()
    for mod, names in public.items():
        for key in names:
            fn = defs[(mod, key)]
            passed = set()
            for owner, call in calls:
                if owner != (mod, key) and _callee(call) == key:
                    passed |= _passed(call, _params(fn)[0])
            unset |= {(key, p) for p in _params(fn)[1] if p not in passed}
    return unset


def test_every_public_option_is_set_or_an_oracle():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}
    oracles = {(key, p) for key, (params, _) in ORACLE_OPTIONS.items() for p in params}
    unset = _unset_options(trees, _public_functions())
    assert sorted(unset - oracles) == []
    # every listed option exists and is still unset
    assert sorted(oracles - unset) == []


def test_option_guard_flags_an_unset_option():
    fit = "def fit(y, x=None, kernel=None, *, trim=0.1):\n    return y\n"
    helper = "def helper(y, x=None):\n    return fit(y, x, trim=0.2)\n"
    cli = ast.parse("def run(args):\n    return fit(*load(args), kernel=args.kernel)\n")

    def unset(lib, *others):
        return _unset_options({"lib": ast.parse(lib), **dict(enumerate(others))},
                              {"lib": ["fit"]})

    # x by position in helper, kernel by keyword after the starred argument, trim by keyword
    assert unset(fit + helper, cli) == set()
    # the starred argument stands only for the required y
    assert unset(fit, cli) == {("fit", "x"), ("fit", "trim")}
    # a call inside the function's own body sets nothing
    assert unset("def fit(y, x=None):\n    return fit(y, x)\n") == {("fit", "x")}


# fields of public dataclasses that no library module, command or experiment
# reads, each kept because a test checks it against an oracle (or, for
# McResult.config, against hand-written values)
ORACLE_FIELDS = {
    "AROls": (("cov", "s2"), "tests/test_ols.py::test_ols_ar_equals_its_oracle, "
                             "against ref_ols_ar"),
    "UnitRootResult": (("s2_u",), "tests/test_ols.py::test_adf_test_equals_its_oracle, "
                                  "against ref_adf"),
    "IvxResult": (("cov",), "tests/test_batch.py::test_ivx_kernel_matches_scalar_oracle, "
                            "against ref_ivx"),
    "WaldBreakResult": (("beta1", "beta2"),
                        "tests/test_breaks.py::test_split_wald_recovers_regime_slopes, "
                        "against the slopes of the simulated regimes"),
    "SupWaldResult": (("path", "k_grid"),
                      "tests/test_breaks.py::test_sup_wald_path_matches_split_wald, "
                      "against split_wald at each break date"),
    "LmResult": (("sigma2",), "tests/test_ols.py::test_lm_nyblom_equals_its_oracle, "
                              "against ref_lm_nyblom"),
    "MeResult": (("beta_hist",), "tests/test_ols.py::test_me_monitor_equals_the_window_loop, "
                                 "against ref_me_monitor"),
    "NestedForecastResult": (("path", "errors_small", "errors_big", "start"),
                             "tests/test_kernels.py::test_nested_forecast_matches_loop, "
                             "against ref_nested_forecast"),
    "GarchFit": (("objective_path",), "tests/test_garch.py::test_qmle_objective_path_monotone "
                                      "checks that each step lowers the objective"),
    "FkResult": (("path", "k_grid"), "tests/test_coint.py::test_fk_scan_matches_per_break_solves, "
                                     "against ref_fk_path"),
    "McResult": (("config", "draws"),
                 "tests/test_mc.py::test_config_line_records_every_declared_parameter checks "
                 "the resolved parameters, defaults filled in; "
                 "tests/test_batch.py::test_batched_rows_equal_scalar_rep_bodies checks the "
                 "draws against SCALAR_REPS, the scalar rep bodies"),
}


def _reads(nodes) -> set:
    """Names the AST `nodes` read as attributes: `x.name`, or `name` given as a
    string to `getattr` or to the CLI's `_print_fields`."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and _callee(node) in ("getattr", "_print_fields"):
            names.update(arg.value for arg in node.args[1:]
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return names


def _unread_fields(trees: dict, public: dict) -> set:
    """(class, field) for each field of the classes named in `public` (module ->
    names) whose name nothing in `trees` (module -> tree) reads (`_reads`).

    Reads inside the class's own body count only inside a method or property
    read by name outside it, such as `GarchSpec.unconditional_variance`; constructor
    keywords are not reads.  The guard goes by name, so a field named like
    one read elsewhere (`T`, `sigma2`) passes it whether or not it is read.
    """
    classes = [(node, list(ast.walk(node))) for mod, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in public.get(mod, ())]
    every = [node for tree in trees.values() for node in ast.walk(tree)]
    unread = set()
    for cls, body in classes:
        inside = set(map(id, body))
        read = _reads(node for node in every if id(node) not in inside)
        read |= _reads(node for fn in cls.body
                       if isinstance(fn, ast.FunctionDef) and fn.name in read
                       for node in ast.walk(fn))
        unread |= {(cls.name, stmt.target.id) for stmt in cls.body
                   if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read}
    return unread


def test_every_result_field_is_read():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}
    public = {}
    for name in _MODULES:
        module = importlib.import_module(f"tsnet.{name}")
        public[name] = [key for key in module.__all__
                        if inspect.isclass(obj := getattr(module, key)) and is_dataclass(obj)]
    oracles = {(cls, f) for cls, (names, _) in ORACLE_FIELDS.items() for f in names}
    assert sorted(_unread_fields(trees, public) - oracles) == []
    # every listed field is a field of its class
    assert all(f in {x.name for x in fields(getattr(tsnet, cls))} for cls, f in oracles)


def test_field_guard_flags_an_unread_field():
    lib = ast.parse("@dataclass\nclass Fit:\n    stat: float\n    scale: float\n"
                    "    echo: int\n    checked: float\n"
                    "    def __post_init__(self):\n        assert self.echo > 0\n"
                    "    @property\n    def scaled(self):\n"
                    "        return self.stat / self.scale\n")
    cli = ast.parse("def run(args):\n    res = fit(args, echo=args.n)\n"
                    "    _print_fields(res, 'scaled')\n")

    def unread(*others):
        return _unread_fields({"lib": lib, **dict(enumerate(others))}, {"lib": ["Fit"]})

    # a property read outside the class reads the fields it uses; the
    # constructor keyword and the check in __post_init__ read nothing
    assert unread(cli) == {("Fit", "echo"), ("Fit", "checked")}
    # without a reader of the property, its fields go unread too
    assert unread() == {("Fit", "stat"), ("Fit", "scale"), ("Fit", "echo"), ("Fit", "checked")}
    # an attribute read anywhere else counts
    assert unread(cli, ast.parse("x = fit(y).echo\n")) == {("Fit", "checked")}
    # a field listed as an oracle passes, the unread one does not
    listed = {("Fit", "checked")}
    assert unread(cli) - listed == {("Fit", "echo")}
