"""Build script: a pure-python package configured in ``setup.cfg``."""

from setuptools import setup

setup()
