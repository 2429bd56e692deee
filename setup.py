"""Package metadata for the ``repro`` distribution and the ``llamcat`` CLI.

Install with ``pip install -e .`` (add ``--no-build-isolation`` in offline
environments without the ``wheel`` package); ``pip install -e .[test]`` adds
the test dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "LLaMCAT reproduction: LLC cache arbitration and throttling for LLM decode, "
        "with a hybrid dataflow/trace/cycle-level simulation framework"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["llamcat=repro.cli:main"]},
)
