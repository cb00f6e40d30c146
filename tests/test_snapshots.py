"""Byte-level snapshot of every stage the pipeline prints.

Each config is a suite fixture, a lowering style and at most one tiling
hint.  For every config that compiles, the sha256 of the printed layouts,
distribute and match stages, of the disassembled vISA and of every
``VInstr`` field must equal the digests in ``snapshots.json``, and every
printed stage must parse back to an equal module, and the vISA program must
raise back to a function equal to the one it was lowered from, which
verifies (translation validation); the configs that do not compile must
keep raising the same diagnostic.  A change meant to alter the output
rewrites the file with ``PYTHONPATH=src python tests/test_snapshots.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import TARGETS
from tilec import visa
from tilec.ir import KernelModule, fn_equal, module_equal, verify, walk_fn_ops
from tilec.kernels import FIXTURE_NAMES, load_fixture
from tilec.passes import PassError, compile_kernel
from tilec.textio import parse_module, print_module
from tilec.visa import PVC, disassemble, raise_program

SNAPSHOTS = Path(__file__).with_name("snapshots.json")
TILINGS = ("square", "horizontal", "vertical")

# a vertical split leaves each warp 8 columns of the dot, below the 16-wide unit
KNOWN_FAILURES = {
    f"{name}/{style}/{hint}": "dot n=8 is not a multiple of the unit n=16"
    for name, hint in (("gemm_256", "dot0=vertical"), ("fa2_d64", "dot1=vertical"))
    for style in ("simt", "simd")
}


def _configs() -> list[str]:
    out = []
    for name in FIXTURE_NAMES:
        dots = sum(op.kind == "tt.dot" for op in walk_fn_ops(load_fixture(name)))
        hints = ["none"] + [f"dot{n}={t}" for n in range(dots) for t in TILINGS]
        out += [f"{name}/{style}/{hint}" for style in ("simt", "simd") for hint in hints]
    return out


def _compile(config: str):
    name, style, hint = config.split("/")
    hints = {}
    if hint != "none":
        dot, _, tiling = hint.partition("=")
        hints[int(dot[3:])] = tiling
    return compile_kernel(load_fixture(name), replace(PVC, style=style), hints=hints)


def _digests(config: str) -> dict[str, str]:
    res = _compile(config)
    texts = {stage: print_module(KernelModule([getattr(res, stage)]))
             for stage in ("layouts", "distribute", "match")}
    texts["vasm"] = disassemble(res.vprog)
    # the vasm text omits unit_bytes, lane_distributed and a loop's shape/elem
    texts["vinstr"] = "\n".join(repr((
        i.opcode.value, i.op, i.results, i.operands, sorted(i.attrs.items()), i.shape,
        i.elem and i.elem.value, i.vector_len, i.unit, i.unit_bytes, i.lane_distributed,
        i.mnemonic, i.body is not None,
    )) for i in res.vprog.walk())
    return {stage: hashlib.sha256(t.encode()).hexdigest() for stage, t in texts.items()}


CONFIGS = _configs()
COMPILING = [c for c in CONFIGS if c not in KNOWN_FAILURES]


def test_config_sweep_shape():
    assert len(CONFIGS) == 64
    assert len(COMPILING) == 60
    assert set(KNOWN_FAILURES) <= set(CONFIGS)


@pytest.mark.parametrize("config", COMPILING)
def test_stage_output_is_pinned(config):
    assert _digests(config) == json.loads(SNAPSHOTS.read_text())[config]


@pytest.mark.parametrize("config", COMPILING)
def test_printed_stages_parse_back_equal(config):
    res = _compile(config)
    for stage in ("layouts", "distribute", "match"):
        module = KernelModule([getattr(res, stage)])
        assert module_equal(parse_module(print_module(module)), module), stage


def _raises_back(res) -> bool:
    """Whether the vISA program raises to a function equal to the one it was
    lowered from, and that function verifies."""
    raised, _ = raise_program(res.vprog)
    return fn_equal(raised, res.match) and not verify(raised)


@pytest.mark.parametrize("config", COMPILING)
def test_lowering_raises_back_to_its_input(config):
    assert _raises_back(_compile(config))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("target", TARGETS)
def test_lowering_raises_back_to_its_input_on_other_targets(target, name):
    assert _raises_back(compile_kernel(load_fixture(name), TARGETS[target]))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_wrong_lowering_does_not_raise_back(name, monkeypatch):
    # the fault is in the lowering only: raising reads the table it leaves as is
    lower_op = visa._Lowerer.lower_op

    def wrong(self, op):
        instr = lower_op(self, op)
        if op.kind == "arith.subf":
            instr.op = "addf"
        return instr

    monkeypatch.setattr(visa._Lowerer, "lower_op", wrong)
    res = _compile(f"{name}/simt/none")
    assert _raises_back(res) != any(op.kind == "arith.subf" for op in walk_fn_ops(res.match))


@pytest.mark.parametrize("config", sorted(KNOWN_FAILURES))
def test_known_failure_is_pinned(config):
    with pytest.raises(PassError) as err:
        _compile(config)
    assert KNOWN_FAILURES[config] in str(err.value)


if __name__ == "__main__":
    SNAPSHOTS.write_text(json.dumps({c: _digests(c) for c in COMPILING}, indent=1) + "\n")
