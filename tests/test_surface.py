"""The package exports only what its program, demos or benchmark use.

A name in ``deanonlab.__all__`` must be referred to by the code of the
package outside ``__init__.py``, of a demo, or of the benchmark script; its
own ``def``, ``class`` or assignment does not count, and neither do the
test suites. Each public method or property of an exported class is named
as an attribute by the code of the same sources or of the acceptance gate,
outside the module that defines the class. References are read from the
syntax tree, f-string expressions included, so a string or a comment that
spells a name refers to nothing. Every call site the benchmark's tracer
patches still exists. And every configuration field has a command-line
flag, so no knob is hidden.
"""

import argparse
import ast
import dataclasses
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


def references(path: Path) -> set[str]:
    """The names the code of ``path`` reads, and ``.attr`` for each attribute it names."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(f".{node.attr}")
    return refs


def load_tracer():
    """The benchmark's tracer module, executed from its source text.

    Nothing is written next to it.
    """
    path = ROOT / "benchmarks" / "layers.py"
    layers = types.ModuleType("layers")
    exec(compile(path.read_text(), str(path), "exec"), vars(layers))
    return layers


def test_every_exported_name_has_a_caller():
    refs = set().union(*map(references, SOURCES))
    unused = [name for name in deanonlab.__all__ if not {name, f".{name}"} & refs]
    assert not unused, f"exported without a caller outside the tests: {unused}"


def test_every_public_method_of_an_exported_class_has_a_caller():
    # Dataclass fields are exempt: the output records emit them through
    # generic code, not by name. A call from the module that defines the
    # class does not count: a member only its neighbours call is private.
    # A member the tracer patches is exempt too: the traced run holds it by
    # its name in a string (BigraphPair.bit is held by nothing else).
    refs = {
        path.resolve(): references(path)
        for path in [*SOURCES, ROOT / "tests" / "test_acceptance.py"]
    }
    layers = load_tracer()
    traced = {(layers._resolve(deanonlab, owner), attr) for owner, attr, _ in layers._CALL_SITES}
    kinds = (types.FunctionType, property, classmethod, staticmethod)
    checked, unused = [], []
    for cls in (getattr(deanonlab, name) for name in deanonlab.__all__):
        if not isinstance(cls, type):
            continue
        home = Path(sys.modules[cls.__module__].__file__).resolve()
        outside = set().union(*(names for path, names in refs.items() if path != home))
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        for attr, value in vars(cls).items():
            if attr.startswith("_") or attr in fields or not isinstance(value, kinds):
                continue
            checked.append(attr)
            if f".{attr}" not in outside and (cls, attr) not in traced:
                unused.append(f"{cls.__name__}.{attr}")
    assert checked
    assert not unused, f"public members without a caller outside their module: {unused}"


def test_every_tracer_call_site_resolves():
    # The tracer looks each (owner, attribute) up in the owner's own
    # namespace; a name deleted or moved from there breaks the traced run.
    layers = load_tracer()
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
