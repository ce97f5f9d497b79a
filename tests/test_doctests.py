"""Every docstring example in the ``repro`` package runs and passes.

Walks the package's modules -- except ``__main__``, whose import runs
the CLI -- and runs the doctests of each one that has examples.
"""

import doctest
import importlib
import pkgutil

import repro


def test_docstring_examples_pass():
    finder = doctest.DocTestFinder()
    ran, failed = [], {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        if not any(test.examples for test in finder.find(module)):
            continue
        ran.append(info.name)
        result = doctest.testmod(module, verbose=False)
        if result.failed:
            failed[info.name] = result.failed
    assert "repro.store.store" in ran
    assert not failed, f"failing examples per module: {failed}"
