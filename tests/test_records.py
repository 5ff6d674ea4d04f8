"""The value records (records.record): the dataclass behaviour the package
relies on, and an import that loads neither dataclasses nor inspect."""

import ast
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import trinomial_orbits
from trinomial_orbits import PrimeField, TrinomialShape, validate_shape
from trinomial_orbits.families import FamilyTag, family_of
from trinomial_orbits.orbits import (
    DD,
    AutWord,
    BigO,
    DDBigO,
    DDOMeps,
    FlowStep,
    O1,
    O2,
    OMeps,
    OrbitCount,
    RegularFlex,
    SingTorus,
    TorusStep,
    TorusStratum,
    descriptor_from_json,
    descriptor_to_json,
    orbit_count,
)
from trinomial_orbits.oracle import CheckResult, VerifyReport, build_census
from trinomial_orbits.records import FrozenInstanceError, fields
from trinomial_orbits.shapes import (
    Factoriality,
    RigidityVerdict,
    SymmetryGroup,
    rigidity_classify,
    symmetry_group,
)

from conftest import SHAPE_A, SHAPE_D

SRC = os.path.dirname(os.path.dirname(trinomial_orbits.__file__))
M, P, Q = frozenset({1}), frozenset({1, 2}), frozenset()


class TestSemantics:
    def test_repr_is_the_dataclass_repr(self):
        # strings printed by the dataclass versions of these records
        assert repr(OMeps(M, 12)) == "OMeps(M=frozenset({1}), r=12)"
        assert repr(OMeps(P, F(-1, 2))) == "OMeps(M=frozenset({1, 2}), r=Fraction(-1, 2))"
        assert repr(O1(M, P, Q)) == "O1(M=frozenset({1}), P=frozenset({1, 2}), Q=frozenset())"
        assert repr(TorusStep((10, 2, 1, 1))) == "TorusStep(coords=(10, 2, 1, 1))"
        assert repr(CheckResult("partition", True)) == (
            "CheckResult(name='partition', passed=True, details={}, skipped=False)"
        )
        assert repr(CheckResult("transport", False, {"code": "x"}, skipped=True)) == (
            "CheckResult(name='transport', passed=False, details={'code': 'x'}, skipped=True)"
        )
        assert repr(AutWord((TorusStep((10, 2)), FlowStep("D:1", 6)))) == (
            "AutWord(steps=(TorusStep(coords=(10, 2)), FlowStep(designator='D:1', u=6)))"
        )
        assert repr(BigO()) == "BigO()"

    def test_position_keyword_and_defaults(self):
        assert OMeps(M, 3) == OMeps(r=3, M=M) == OMeps(M, r=3)
        assert O1(M, P, Q) == O1(M, P, Q=Q) and DD(M, M, P, Q) == DD(K=M, M=M, P=P, Q=Q)
        verdict = rigidity_classify(validate_shape(SHAPE_A))
        assert (verdict.h_type, verdict.witnesses) == (None, (("power_one", 0, 1),))
        assert RigidityVerdict("rigid") == RigidityVerdict("rigid", None, ()) == RigidityVerdict(
            tag="rigid"
        )
        assert Factoriality((1, 2, 3), True).applicable is True
        for build in (RigidityVerdict, lambda: CheckResult("a"), lambda: FamilyTag(h_type="H1")):
            with pytest.raises(TypeError, match="missing required argument"):
                build()
        with pytest.raises(TypeError):
            OMeps(M)
        with pytest.raises(TypeError):
            OMeps(M, 3, 4)
        with pytest.raises(TypeError):
            OMeps(M, 3, M=M)
        with pytest.raises(TypeError):
            OMeps(M, s=3)
        with pytest.raises(TypeError):
            BigO(1)

    def test_check_result_defaults_are_not_shared(self):
        first, second = CheckResult("a", True), CheckResult("b", True)
        first.details["points"] = 1
        assert second.details == {} and first.details is not second.details
        assert first.skipped is False and CheckResult("c", False, skipped=True).details == {}

    def test_fields_left_out_of_equality(self):
        plain = validate_shape(SHAPE_A)
        aliased = TrinomialShape.from_json(
            {"groups": SHAPE_A, "aliases": {"T0_1": "x", "T0_2": "y"}}
        )
        assert plain == aliased and plain.aliases != aliased.aliases
        group = symmetry_group(plain)
        bare = SymmetryGroup(group.generators, group.order)
        assert bare.elements is None and bare == group and hash(bare) == hash(group)

    def test_equality_only_within_one_class(self):
        assert BigO() == BigO() and BigO() != DDBigO()
        assert OMeps(M, 3) != DDOMeps(M, 3)
        assert O1(M, P, Q) != O2(M, P, Q)
        assert TorusStratum(M) != SingTorus(M)
        assert OMeps(M, 3) != (M, 3) and OMeps(M, 3) != OMeps(M, 4)

    def test_frozen_records_hash_their_compared_fields(self):
        assert hash(OMeps(M, 3)) == hash((M, 3)) == hash(OMeps(M, 3))
        assert hash(TorusStep((1, 2))) == hash(((1, 2),)) and hash(BigO()) == hash(())
        assert len({O1(M, P, Q), O1(M, P, Q), O2(M, P, Q)}) == 2
        shape = validate_shape(SHAPE_D)
        assert hash(shape) == shape.__dict__["_hash"] == hash((shape.groups,))

    def test_mutable_records_are_unhashable(self, f7):
        shape = validate_shape(SHAPE_D)
        records = [
            orbit_count(shape),
            AutWord(()),
            CheckResult("a", True),
            VerifyReport({}, "Fp:7", 0, []),
            build_census(shape, f7),
        ]
        for rec in records:
            with pytest.raises(TypeError, match="unhashable"):
                hash(rec)
        word = records[1]
        word.steps = (TorusStep((1,)),)
        assert word == AutWord((TorusStep((1,)),)) and isinstance(records[0], OrbitCount)

    def test_frozen_records_refuse_assignment(self):
        shape = validate_shape(SHAPE_A)
        for rec in (OMeps(M, 3), BigO(), shape, family_of(shape), TorusStep((1,))):
            with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
                rec.r = 1
            with pytest.raises(AttributeError, match="cannot delete field"):
                del rec.r
        # cached properties still fill in
        assert shape.n == 4 and shape.__dict__["n"] == 4

    def test_descriptor_json_round_trip_for_every_type(self):
        shape, fld = validate_shape(SHAPE_A), PrimeField(7)
        descriptors = [
            BigO(), OMeps(M, 3), O1(M, P, Q), O2(M, P, Q), DDBigO(), DDOMeps(M, 5),
            DD(M, P, Q, M), TorusStratum(frozenset({0, 3})), RegularFlex(),
            SingTorus(frozenset({1, 2})),
        ]
        for desc in descriptors:
            data = descriptor_to_json(desc, shape, fld)
            assert [k for k in data if k != "type"] == [
                "vars" if f.name == "S" else f.name for f in fields(desc)
            ]
            assert descriptor_from_json(data, shape, fld) == desc
        assert {descriptor_to_json(d, shape, fld)["type"] for d in descriptors} == {
            "O", "OMeps", "O1", "O2", "DDO", "DDOMeps", "DD", "TorusStratum",
            "RegularFlex", "SingTorus",
        }


class TestImportCost:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # a fresh interpreter without site: pytest itself imports both
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import trinomial_orbits; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", code, SRC], capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_no_exec_or_eval_in_the_library(self):
        package = os.path.join(SRC, "trinomial_orbits")
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            calls = [
                node.func.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            ]
            assert not {"exec", "eval", "compile"} & set(calls), name
