import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import rdunkl


def _public_functions():
    for info in pkgutil.iter_modules(rdunkl.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"rdunkl.{info.name}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                yield f"{info.name}.{name}", obj


def test_public_functions_found():
    names = {name for name, _ in _public_functions()}
    assert {"operators.v_terms", "hilbert.ray_power", "series.evaluate"} <= names


def test_no_public_function_is_a_generator():
    # a profiler counts every resume of a generator as one call, so call
    # counts of a wrapped generator function would not match its profile;
    # public functions return lists instead
    gens = [name for name, fn in _public_functions()
            if inspect.isgeneratorfunction(fn) or inspect.isasyncgenfunction(fn)]
    assert not gens


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is a test-only dependency; in a fresh interpreter, since the
    # test modules themselves import it
    code = "import sys, rdunkl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_cold_verify_leaves_numpy_polynomial_unloaded():
    # Gauss-Legendre rules come from the recurrence; numpy's leggauss is a
    # test oracle, so a fresh verify run never loads numpy.polynomial
    code = ("import sys, contextlib, io\n"
            "from rdunkl.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', 'all', '--r', '2', '--seed', '0'])\n"
            "print(code, 'numpy.polynomial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "0 False\n"


#: function-level relative imports that stay: cli's per-command imports are
#: where a command loads the modules only it needs, and mehler and
#: transmutation import riemann_liouville, so the last two would be cycles
KEPT_LOCAL_IMPORTS = {
    ("cli", "cmd_convert", "dunkl_opdam"),
    ("cli", "cmd_transform", "hilbert"),
    ("cli", "cmd_transform", "transforms"),
    ("riemann_liouville", "product_factorization_check", "mehler"),
    ("riemann_liouville", "product_factorization_check", "transmutation"),
}


def test_no_function_level_relative_import_outside_the_kept_list():
    paths = sorted(Path(rdunkl.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = set()
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.stem, fn.name, node.module)
                          for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert sorted(found - KEPT_LOCAL_IMPORTS) == []
