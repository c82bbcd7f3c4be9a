"""The package's public contracts: its exported names and the exit codes
that its error types carry."""

import dataclasses

import pytest

import digitopo
from digitopo import (
    DigitopoError,
    InvalidSurfaceError,
    NoSuchComponentError,
    ParseError,
    PreconditionFailure,
    RepairDidNotConverge,
    errors,
    grid,
    homology,
    oracle,
    pbm,
    shapes,
    streaming,
    topo2d,
    topo3d,
    vox3,
)
from digitopo.topo2d import CornerHistogram, HoleMethod, HoleReport, PreconditionReport
from digitopo.topo3d import SurfaceHistogram, SurfaceReport, TopoReport3D
from gridtext import volume

MODULES = (errors, grid, oracle, topo2d, topo3d, shapes, pbm, vox3, streaming)


def test_exports_are_unique_and_resolve():
    names = digitopo.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(digitopo, name), name
    star: dict = {}
    exec("from digitopo import *", star)
    assert set(names) <= set(star)


def test_exports_are_the_modules_all():
    union = set().union(*(m.__all__ for m in MODULES))
    assert set(digitopo.__all__) == {"__version__", "cli_dispatch"} | union
    # No name is exported by two modules.
    assert len(union) == sum(len(m.__all__) for m in MODULES)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(digitopo, name) is getattr(m, name), (m.__name__, name)
    assert {"Diag2D", "iter_frame_slabs"} <= set(digitopo.__all__)
    assert "main" not in digitopo.__all__


def test_error_types_carry_their_exit_codes():
    for error, code in (
        (DigitopoError, 1),
        (ParseError, 1),
        (NoSuchComponentError, 1),
        (InvalidSurfaceError, 1),
        (PreconditionFailure, 2),
        (RepairDidNotConverge, 3),
    ):
        assert error.exit_code == code, error


def test_formula_refusal_is_both_a_precondition_failure_and_an_invalid_surface():
    # Two voxels that share only a vertex: their boundary's histogram
    # (m3=14, m6=1) gives m5 + 2*m6 - m3 = -12, which 8 does not divide.
    vol = volume("10\n00", "00\n01")
    with pytest.raises(InvalidSurfaceError) as info:
        homology(vol, fallback_oracle=False)
    assert isinstance(info.value, PreconditionFailure)
    assert info.value.exit_code == 2


def test_answers_are_slotted_frozen_values():
    surface = SurfaceReport(8, SurfaceHistogram(8, 0, 0, 0), 0, 2, "formula")
    corners = CornerHistogram(cp1=0, cp2=0, cp3=0, cp4=1, thin=0)
    for cls, args in (
        (SurfaceHistogram, (8, 0, 0, 0)),
        (SurfaceReport, (8, SurfaceHistogram(8, 0, 0, 0), 0, 2, "formula")),
        (TopoReport3D, (1, 1, (surface,), (1, 0, 0, 0))),
        (CornerHistogram, (0, 0, 0, 1, 0)),
        (HoleReport, (1, 1, corners, 0, HoleMethod.FORMULA, True)),
        (PreconditionReport, (True, ())),
    ):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and hash(a) == hash(b), cls
        assert not hasattr(a, "__dict__"), cls
        first = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, first, 0)
        other = dataclasses.replace(a, **{first: 2})
        assert other != a, cls
