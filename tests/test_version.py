"""The package version is written in two places, and they must agree.

`pyproject.toml` gives the version pip installs, and `rwasim.__version__`
the one every manifest records and `replay` compares; both are bumped by
hand whenever outputs change.
"""
import re
from pathlib import Path

import rwasim

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_version_is_package_version():
    # a regex rather than tomllib, which Python 3.10 lacks
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", PYPROJECT.read_text(),
                        re.MULTILINE | re.DOTALL).group(1)
    assert re.findall(r'^version\s*=\s*"([^"]*)"', project, re.MULTILINE) == [
        rwasim.__version__]
