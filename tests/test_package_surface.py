"""The package ships only names that something outside the tests uses.

Every public top-level function and class in ``src/orbitforge`` must be named
somewhere other than its own definition, and every public method of a public
class must appear there as an attribute, ``.name``: in ``src/``, in
``perfbench/*.py`` or in ``README.md``.  A method's name as a bare word does
not count: a common name such as ``rational`` also appears in prose.  Code
that only tests call belongs in ``tests/`` (the reference implementations
are in ``tests/oracles.py``).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitforge"


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def _attributes(text: str) -> Counter:
    return Counter(re.findall(r"\.(\w+)", text))


def test_every_public_name_is_used_outside_the_tests():
    texts = [(ROOT / "README.md").read_text()]
    texts += [path.read_text() for path in (ROOT / "perfbench").glob("*.py")]
    definitions = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        texts.append(text)
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            members = [(node.name, node, _words)]
            if isinstance(node, ast.ClassDef):
                members += [("%s.%s" % (node.name, item.name), item, _attributes)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
            for qualname, item, count in members:
                own = "\n".join(lines[item.lineno - 1:item.end_lineno])
                definitions.append((path.stem, qualname, item.name, count, count(own)[item.name]))
    corpus = "\n".join(texts)
    uses = {count: count(corpus) for count in (_words, _attributes)}
    unused = ["%s.%s" % (module, qualname) for module, qualname, name, count, own in definitions
              if uses[count][name] <= own]
    assert not unused, "public names that only tests use: %s" % ", ".join(unused)
