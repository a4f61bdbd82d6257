"""The package namespace: every public name resolves on first use to the object its home module defines."""
import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bvreduce
from bvreduce import JacBasis, jac_basis


def test_every_public_name_is_its_home_object():
    for name in bvreduce.__all__:
        value = getattr(bvreduce, name)
        home = importlib.import_module(f"bvreduce.{bvreduce._HOME[name]}")
        assert value is getattr(home, name), name


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from bvreduce import *", scope)
    assert {k for k in scope if k != "__builtins__"} == set(bvreduce.__all__)
    assert scope["SuperPoly"] is bvreduce.superpoly.SuperPoly


def test_dir_lists_the_public_names():
    listed = dir(bvreduce)
    assert "__all__" in listed
    assert set(bvreduce.__all__) <= set(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'LinearOp'"):
        bvreduce.LinearOp
    assert not hasattr(bvreduce, "perturb_retraction")


def test_jac_basis_is_a_value():
    basis = jac_basis(2, 3)
    same = JacBasis(2, 3, basis.monomials)
    assert basis == same and hash(basis) == hash(same)
    assert basis != JacBasis(2, 4, basis.monomials)
    assert len(same) == 4
    assert repr(same) == "JacBasis(n=2, d=3, monomials=((0, 0), (0, 1), (1, 0), (1, 1)))"


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    """The README's library quick start runs as written, and each print matches the comment beside it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 2
    for out, comment in zip(printed, comments):
        # a comment gives the printed line, optionally followed by a gloss after a space
        assert comment == out or comment.startswith(out + " "), (out, comment)


def test_every_src_function_has_a_caller_or_a_public_name():
    """A module-level function in src is referenced by other src code or is public."""
    src = Path(bvreduce.__file__).resolve().parent
    defined, referenced = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            # dunder functions (the package's __getattr__ and __dir__) are called by the interpreter
            if own and not own.startswith("__"):
                defined.append((path.name, own))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name and name != own:  # a function's own body (recursion) is no caller
                    referenced.add(name)
    keep = referenced | set(bvreduce.__all__)
    assert [f"{module}:{name}" for module, name in defined if name not in keep] == []


def test_every_src_cache_is_bounded():
    """Every functools cache in src has a fixed size: an unbounded one keeps each key for the life of the process."""
    src = Path(bvreduce.__file__).resolve().parent
    sizes = {}
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"bvreduce.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                sizes[f"{path.stem}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"hpl.slice_basis", "reduce.jac_basis"} <= set(sizes)
    assert {name: size for name, size in sizes.items() if size is None} == {}


def test_cli_oracle_and_verify_import_no_dataclasses():
    """A fresh `bvreduce oracle` or `verify` child does not import dataclasses, which pulls in inspect, ast and dis."""
    src = Path(bvreduce.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bvreduce.cli, bvreduce.oracle, bvreduce.verify; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
