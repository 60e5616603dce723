"""Setup script for the repro package.

Kept as a classic ``setup.py`` (rather than ``pyproject.toml``) so
``pip install -e .`` works in offline environments whose setuptools
lacks PEP 660 editable-wheel support (no ``wheel`` package available).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

#: The one version number: ``repro.__version__``, read without importing
#: the package (its dependencies need not be installed yet).
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-80211-fingerprinting",
    version=VERSION,
    description=(
        "Reproduction of Neumann, Heen & Onno, 'An Empirical Study of "
        "Passive 802.11 Device Fingerprinting' (ICDCS Workshops 2012)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["repro-80211=repro.cli:main"],
    },
)
