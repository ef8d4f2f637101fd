"""Import budget and the lazy package namespace.

The closed-form paths must not pay for SciPy: ``import tmoments``, the
``one-d`` and ``multi`` subcommands and 1-D ``truncated`` requests load no
``scipy`` module, and 2-D and 3-D ``truncated`` requests load
``scipy.special`` alone, without QUADPACK, ``scipy.linalg`` or the oracle
module. The oracles need no SciPy either: ``oracle`` requests, by quadrature
or Monte Carlo, and 1-D ``verify`` requests load the oracle module and no
``scipy`` module. The scalar paths must not pay for numpy: a ``python -m
tmoments`` process serving ``one-d`` or a 1-D corrected ``truncated``
request given by scalars loads no ``numpy`` module, whatever its exit code.
The checks run in fresh interpreters and compare module sets, so they do
not depend on time. A static scan keeps the library from importing its own
oracle, and every module, the oracle included, from importing QUADPACK
(``scipy.integrate``) or ``scipy.linalg``.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tmoments

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "tmoments.oracle")))
"""

_RUN_CLI = """
import contextlib, io
from tmoments.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""


def fresh(code: str):
    """The JSON that ``code`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def heavy_modules_after(code: str) -> list[str]:
    """The scipy* modules and tmoments.oracle loaded after running ``code``."""
    return fresh(code + _REPORT)


class TestImportBudget:
    def test_import_tmoments_loads_no_scipy(self):
        assert heavy_modules_after("import tmoments") == []

    @pytest.mark.parametrize("argv", [
        ["one-d", "--kind", "central", "--k", "3", "--mu", "1.5", "--nu", "7"],
        ["multi", "--k", "2,1", "--mu", "0.2,-0.1",
         "--sigma-mat", "[[1.2,0.4],[0.4,0.9]]", "--nu", "9"],
        ["multi", "--k", "2,2", "--mode", "literal", "--nu", "9"],
    ])
    def test_closed_form_subcommands_load_no_scipy(self, argv):
        assert heavy_modules_after(_RUN_CLI.format(argv=argv)) == []

    @pytest.mark.parametrize("argv", [
        ["truncated", "--k", "1", "--lower", "0", "--nu", "5"],
        ["truncated", "--k", "2", "--lower=-1", "--upper", "2", "--mu", "0.2",
         "--sigma", "1.3", "--nu", "7"],
        ["truncated", "--k", "2", "--lower=-1", "--upper", "2", "--nu", "7",
         "--mode", "literal"],
    ])
    def test_one_dimensional_truncated_loads_no_scipy(self, argv):
        assert heavy_modules_after(_RUN_CLI.format(argv=argv)) == []

    def test_two_dimensional_truncated_loads_no_quadpack(self):
        # the mixing integral is the package's own Gauss-Kronrod rule; only
        # Owen's T and the normal CDF come from scipy.special
        argv = ["truncated", "--k", "1,0", "--lower", "0,0", "--nu", "5"]
        loaded = heavy_modules_after(_RUN_CLI.format(argv=argv))
        assert "scipy.special" in loaded
        assert "scipy.integrate" not in loaded and "tmoments.oracle" not in loaded

    def test_truncated_subcommand_loads_scipy(self):
        # a 3-D box conditions on one axis with the same Gauss-Kronrod rule:
        # scipy.special, and no QUADPACK, scipy.linalg or oracle module
        argv = ["truncated", "--k", "1,0,0", "--lower", "0,0,0", "--upper", "1,1,1",
                "--nu", "5"]
        loaded = heavy_modules_after(_RUN_CLI.format(argv=argv))
        assert "scipy.special" in loaded
        for name in ("scipy.integrate", "scipy.linalg", "tmoments.oracle"):
            assert name not in loaded, name

    @pytest.mark.parametrize("argv", [
        ["oracle", "--kind", "raw", "--k", "3", "--mu", "1.5", "--nu", "7", "--method", "quad"],
        ["oracle", "--kind", "abs", "--k", "3", "--mu=-0.8", "--sigma", "2", "--nu", "6",
         "--method", "quad"],
        ["oracle", "--kind", "raw", "--k", "2", "--lower=-1", "--upper", "2", "--mu", "0.2",
         "--nu", "7", "--method", "quad"],
        ["oracle", "--k", "2,1", "--mu", "0.2,-0.1", "--sigma-mat", "[[1.2,0.4],[0.4,0.9]]",
         "--nu", "9", "--method", "mc", "--samples", "2000"],
        ["verify", "--kind", "central", "--k", "4", "--mu", "0.5", "--nu", "9"],
    ])
    def test_oracle_requests_load_no_scipy(self, argv):
        assert heavy_modules_after(_RUN_CLI.format(argv=argv)) == ["tmoments.oracle"]

    def test_verify_loads_the_oracle(self):
        # The probe must see the oracle where it is needed, or the checks
        # above prove nothing; QUADPACK and scipy.linalg stay out.
        argv = ["verify", "--k", "2", "--mu", "0.5", "--nu", "7"]
        loaded = heavy_modules_after(_RUN_CLI.format(argv=argv))
        assert "tmoments.oracle" in loaded
        for name in ("scipy.integrate", "scipy.linalg"):
            assert name not in loaded, name


def cli_numpy_modules(*argv) -> tuple[int, list[str]]:
    """Exit code of ``python -m tmoments *argv`` in a fresh interpreter, and
    the numpy modules it imported, read from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "tmoments", *argv],
                          capture_output=True, text=True)
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    return proc.returncode, [name for name in names if name.split(".")[0] == "numpy"]


class TestScalarRequestsLoadNoNumpy:
    @pytest.mark.parametrize("argv, code", [
        (["one-d", "--kind", "raw", "--k", "3", "--mu", "1.5", "--sigma", "2", "--nu", "7"], 0),
        (["one-d", "--kind", "central", "--k", "4", "--mu", "1.5", "--nu", "7"], 0),
        (["one-d", "--kind", "abs", "--k", "3", "--mu=-0.4", "--scale", "2", "--nu", "7"], 0),
        (["one-d", "--kind", "central-abs", "--k", "3", "--nu", "7"], 0),
        (["one-d", "--k", "3", "--mu", "1.5", "--nu", "7", "--via-central"], 0),
        (["one-d", "--k", "3", "--mu", "1.5", "--nu", "7", "--format", "plain"], 0),
        (["one-d", "--k", "7", "--nu", "7"], 3),
        (["truncated", "--k", "2", "--lower=-1", "--upper", "2", "--mu", "0.2",
          "--sigma", "1.3", "--nu", "7"], 0),
        (["truncated", "--k", "1", "--lower", "0", "--nu", "5"], 0),
        (["truncated", "--k", "2", "--mu", "0.5", "--nu", "5"], 0),
        (["truncated", "--k", "3", "--upper", "1", "--nu", "3"], 3),
    ])
    def test_scalar_request_loads_no_numpy(self, argv, code):
        assert cli_numpy_modules(*argv) == (code, [])

    def test_multi_loads_numpy(self):
        # a control: the probe sees numpy where a request needs it
        code, loaded = cli_numpy_modules("multi", "--k", "2,1", "--nu", "9")
        assert code == 0 and "numpy" in loaded


#: Modules only the oracles and the CLI that runs them may import.
_ORACLE_ONLY = ("tmoments.oracle",)
#: Modules no tmoments module imports, the oracle included.
_NOT_IMPORTED = ("scipy.integrate", "scipy.linalg")


def _imported_modules(path: Path) -> set[str]:
    """The absolute names of the modules a tmoments source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("tmoments." + (node.module or "")).rstrip(".") if node.level else node.module
            names.add(base)
            # "from scipy import integrate" and "from . import oracle" name modules
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _within(name: str, modules) -> bool:
    return any(name == m or name.startswith(m + ".") for m in modules)


class TestLibraryLeavesTheOracleAlone:
    def test_no_library_module_imports_oracle_code(self):
        src = Path(tmoments.__file__).parent
        for path in sorted(src.glob("*.py")):
            if path.stem in ("cli", "oracle"):
                continue
            bad = {name for name in _imported_modules(path) if _within(name, _ORACLE_ONLY)}
            assert not bad, (path.name, sorted(bad))

    def test_no_module_imports_quadpack_or_linalg(self):
        src = Path(tmoments.__file__).parent
        for path in sorted(src.glob("*.py")):
            bad = {name for name in _imported_modules(path) if _within(name, _NOT_IMPORTED)}
            assert not bad, (path.name, sorted(bad))

    def test_the_scan_sees_the_cli_import(self):
        # a control: the scan finds the imports that cli is allowed to make
        names = _imported_modules(Path(tmoments.__file__).parent / "cli.py")
        assert "tmoments.oracle" in names

    def test_the_scan_sees_a_scipy_submodule(self):
        # a control: the scan names scipy submodules however they are imported
        names = _imported_modules(Path(tmoments.__file__).parent / "truncated.py")
        assert "scipy.special" in names


class TestLazyNamespace:
    def test_public_names_resolve_to_their_definitions(self):
        for name in tmoments.__all__:
            obj = getattr(tmoments, name)
            if name == "__version__":
                continue
            assert obj.__module__.startswith("tmoments."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_resolved_names_are_cached(self):
        fn = tmoments.trunc_t_moment
        assert vars(tmoments)["trunc_t_moment"] is fn

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from tmoments import *", namespace)
        for name in tmoments.__all__:
            assert namespace[name] is getattr(tmoments, name), name

    def test_dir_lists_unloaded_names(self):
        missing = fresh("import json, tmoments\n"
                        "print(json.dumps(sorted(set(tmoments.__all__) - set(dir(tmoments)))))")
        assert missing == []

    def test_submodules_resolve_as_attributes(self):
        name = fresh("import json, tmoments\n"
                     "print(json.dumps(tmoments.truncated.Rectangle.__qualname__))")
        assert name == "Rectangle"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tmoments.no_such_name
        assert not hasattr(tmoments, "cli_main")

    def test_oracle_reexports_constants(self):
        from tmoments import t1d
        from tmoments.oracle import DEFAULT_SEED, KINDS

        assert KINDS is t1d.KINDS
        assert DEFAULT_SEED == t1d.DEFAULT_SEED == 12345
