"""Compiled patterns keep to the regex syntax of the oldest supported Python.

pyproject.toml promises Python 3.10, whose `re` has neither possessive
quantifiers (`a*+`) nor atomic groups (`(?>a)`).  Both compile on 3.11 and
later, so a run there alone would not notice one.
"""

import importlib
import pkgutil
import re
import sys

import pytest

import migmine

try:
    from re import _parser
except ImportError:  # Python 3.10
    import sre_parse as _parser

NEWER_NODES = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def newer_nodes(pattern):
    """Names of the parsed nodes of `pattern` that Python 3.10 lacks."""
    found = set()

    def walk(item):
        if isinstance(item, _parser.SubPattern):
            for op, av in item.data:
                if str(op) in NEWER_NODES:
                    found.add(str(op))
                walk(av)
        elif isinstance(item, (tuple, list)):
            for part in item:
                walk(part)

    walk(_parser.parse(pattern.pattern, pattern.flags))
    return found


def module_patterns():
    """(module.name, pattern) of every compiled pattern a migmine module
    holds at module level, alone or in a dict, list or tuple."""
    for info in pkgutil.walk_packages(migmine.__path__, "migmine."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, dict):
                value = list(value.values())
            for item in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(item, re.Pattern):
                    yield f"{info.name}.{name}", item


def test_module_patterns_use_no_syntax_newer_than_python_3_10():
    patterns = list(module_patterns())
    assert "migmine.javafacts.scanner._TOKEN" in {name for name, _ in patterns}
    assert [(name, nodes) for name, p in patterns if (nodes := newer_nodes(p))] == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the syntax does not compile before 3.11")
def test_newer_syntax_is_found():
    assert newer_nodes(re.compile("a*+")) == {"POSSESSIVE_REPEAT"}
    assert newer_nodes(re.compile("(b|(?>a))")) == {"ATOMIC_GROUP"}
    assert newer_nodes(re.compile(r"\*+(?:a|[+*])*")) == set()
