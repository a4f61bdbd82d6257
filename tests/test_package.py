"""The package namespace: every public name resolves on first use to the object its home module defines."""
import importlib

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
