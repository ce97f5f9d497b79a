"""Packaging for the repro March-test generator.

The package tree lives under ``src/`` and has no runtime
dependencies: every simulation engine is pure Python.

    pip install -e .[dev]
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro-march",
    version=VERSION,
    description=(
        "Automatic generation of March tests for RAM testing"
        " (reproduction of Benso et al., DATE 2002)"
    ),
    long_description=(Path(__file__).parent / "README.md").read_text(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[],
    extras_require={
        "dev": ["pytest>=7", "pytest-benchmark", "hypothesis"],
    },
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Operating System :: OS Independent",
        "Intended Audience :: Science/Research",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
    ],
)
