"""Build script; the package metadata lives in pyproject.toml.

Kept so that ``python setup.py develop`` can install the package offline,
without a build-isolation environment.
"""

from setuptools import setup

setup()
