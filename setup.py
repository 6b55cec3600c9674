"""Setup shim for legacy editable installs (`pip install -e . --no-use-pep517`).

The execution environment has no `wheel` package, so PEP 660 editable
installs are unavailable; metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    # scipy solves the morphing LP that the test suite checks the
    # runtime's monotone coupling against; nothing in src/ imports it.
    extras_require={"test": ["scipy", "pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
