"""Package metadata (there is no ``pyproject.toml``).

Where the ``wheel`` package is missing, PEP-517 editable installs fail
with "invalid command 'bdist_wheel'"; use
``pip install -e . --no-use-pep517 --no-build-isolation`` or
``python setup.py develop`` there.  Tests and examples also run
uninstalled with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
