"""The package namespace: one table of exports, each module loaded on first use."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import tribary

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_leaves_the_harness_unloaded():
    # -S keeps the interpreter's site start-up, which may import random itself, out of it
    probe = ("import sys, tribary.cli; "
             "print(sorted({'tribary.verify', 'csv', 'random'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_star_import_binds_each_name_from_its_home_module():
    namespace: dict = {}
    exec("from tribary import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tribary.__all__)
    for module, names in tribary._EXPORTS.items():
        home = sys.modules[f"tribary.{module}"]
        for name in names:
            assert namespace[name] is getattr(home, name)
    assert namespace["__version__"] == tribary.__version__


def test_package_docstring_example_runs():
    failures, attempted = doctest.testmod(tribary)
    assert attempted > 0 and failures == 0
