"""Packaging metadata for the MORE reproduction.

Metadata is declared here (rather than in ``pyproject.toml``'s ``[project]``
table) so the package also installs editable via the legacy path
(``pip install -e . --no-use-pep517``) in offline environments that lack the
``wheel`` package required by PEP 660 editable builds; ``pyproject.toml``
carries only the build-system requirements and tool configuration.
"""

from setuptools import find_packages, setup

setup(
    name="more-repro",
    version="1.0.0",
    description=(
        "Reproduction of MORE: Trading Structure for Randomness in Wireless "
        "Opportunistic Routing (SIGCOMM 2007)"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        # scipy is the solver behind the LP reference oracle
        # (repro.metrics.lp.solve_min_cost_flow): tests/metrics/test_lp.py
        # and examples/metric_analysis.py need it, no simulation does.
        "test": ["pytest>=7", "hypothesis", "scipy"],
        # Static-analysis extras.  The analyzer itself (repro_check/, beside
        # src/) is repository tooling: find_packages(where="src") does not
        # ship it, and `make analyze` runs its rules with the stdlib alone.
        # mypy adds the strict typed-core gate to it, ruff is CI's second
        # lint; CI installs both explicitly.
        "dev": ["mypy>=1.8", "ruff"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Networking",
    ],
)
