"""Legacy setup shim.

The execution environment is offline and lacks the ``wheel`` package, so
PEP 660 editable installs fail; this setup.py enables the legacy
``pip install -e . --no-build-isolation`` path.  Metadata lives in
pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Stale View Cleaning (SVC): fresh approximate answers from stale "
        "materialized views (VLDB 2015 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
