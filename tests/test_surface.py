"""The package exports only what its program, demos or benchmark use.

A name in ``deanonlab.__all__`` must be referred to by some line of the
package outside ``__init__.py``, of a demo, or of the benchmark script; its
own ``def``, ``class`` or assignment line does not count, and neither do the
test suites. Each public method or property of an exported class is named
as an attribute by the same sources or by the acceptance gate, outside the
module that defines the class. Every call site the benchmark's tracer
patches still exists. And every configuration field has a command-line
flag, so no knob is hidden.
"""

import argparse
import dataclasses
import re
import sys
import types
from pathlib import Path

import deanonlab
from deanonlab import cli

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


def test_every_public_method_of_an_exported_class_has_a_caller():
    # Dataclass fields are exempt: the output records emit them through
    # generic code, not by name. A call from the module that defines the
    # class does not count: a member only its neighbours call is private.
    lines = {
        path.resolve(): path.read_text().splitlines()
        for path in [*SOURCES, ROOT / "tests" / "test_acceptance.py"]
    }
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    checked, unused = [], []
    for cls in (getattr(deanonlab, name) for name in deanonlab.__all__):
        if not isinstance(cls, type):
            continue
        home = Path(sys.modules[cls.__module__].__file__).resolve()
        outside = [line for path, text in lines.items() if path != home for line in text]
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        for attr, value in vars(cls).items():
            if attr.startswith("_") or attr in fields or not isinstance(value, kinds):
                continue
            checked.append(attr)
            if not any(re.search(rf"\.{attr}\b", line) for line in outside):
                unused.append(f"{cls.__name__}.{attr}")
    assert checked
    assert not unused, f"public members without a caller outside their module: {unused}"


def test_every_tracer_call_site_resolves():
    # The tracer looks each (owner, attribute) up in the owner's own
    # namespace; a name deleted or moved from there breaks the traced run.
    # The module is executed from its source text, so nothing is written
    # next to it.
    path = ROOT / "benchmarks" / "layers.py"
    layers = types.ModuleType("layers")
    exec(compile(path.read_text(), str(path), "exec"), vars(layers))
    missing = [
        (owner, attr)
        for owner, attr, _ in layers._CALL_SITES
        if attr not in vars(layers._resolve(deanonlab, owner))
    ]
    assert not missing, f"tracer call sites that no longer resolve: {missing}"


def test_every_config_field_is_a_simulate_flag():
    # cli._load_config reads the fields of ExperimentConfig, so a field
    # without a flag could be set only from a config file.
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {action.dest for action in commands.choices["simulate"]._actions} - {"help", "config"}
    assert flags == {field.name for field in dataclasses.fields(deanonlab.ExperimentConfig)}
