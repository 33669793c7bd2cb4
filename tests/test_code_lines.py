"""The code-line counter of ``tools/code_lines.py``, by which the project
tallies its size, on a module whose count is known line by line."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# Eight code lines: the import, the class and def lines, the three lines of
# the call and the two of the string that is not a docstring.  The three
# docstrings, one over two lines, the comments and the blank lines do not
# count.
SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code


# a comment line
class Box:
    """A class docstring."""

    def size(self, x):
        """A function docstring."""
        return max(
            x,
            len(os.sep))


TEXT = """a string over
two lines"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_lines_that_hold_code():
    assert load_tool().code_lines(SOURCE) == 8
