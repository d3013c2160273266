"""The package exports only what its program, demos or benchmark use.

A name in ``deanonlab.__all__`` must be referred to by some line of the
package outside ``__init__.py``, of a demo, or of the benchmark script; its
own ``def``, ``class`` or assignment line does not count, and neither do the
test suites.
"""

import re
from pathlib import Path

import deanonlab

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [
    *(p for p in (ROOT / "src" / "deanonlab").glob("*.py") if p.name != "__init__.py"),
    *(ROOT / "demos").glob("*.py"),
    *(p for p in (ROOT / "benchmarks").glob("*.py") if not p.name.startswith("test_")),
]


def test_every_exported_name_has_a_caller():
    lines = [line for path in SOURCES for line in path.read_text().splitlines()]
    unused = []
    for name in deanonlab.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*((def|class)\s+{name}\b|{name}\s*[:=])")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"exported without a caller outside the tests: {unused}"
