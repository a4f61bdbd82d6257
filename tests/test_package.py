"""The package namespace: every public name resolves on first use to the object its home module defines."""
import importlib
import re
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
