"""Command-line driver: compile kernels, dump per-pass IR, run them on the
simulator, check against reference oracles, and report instruction stats.

Exit codes are a stable contract: 0 success, 1 compile diagnostics,
2 check failure, 3 usage error.
"""
from __future__ import annotations

import argparse
import copy
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import kernels
from .ir import KernelFn, KernelModule, PtrType, TilingHint, VerifyError, walk_fn_ops
from .layouts import LayoutError
from .oracle import rel_max_err
from .passes import CompileResult, PassError, compile_kernel
from .sim import DeviceMemory, LaunchConfig, SimError, dump_tensor, load_tensor, run
from .textio import ParseError, parse_module, print_module
from .visa import PVC, LoweringError, TargetConfig, count_stats, disassemble, parse_target

_LEVELS = ("workgroup", "warp", "intrinsic", "visa")
_PASS_ARTIFACTS = (("layouts", "workgroup"), ("distribute", "warp"), ("match", "intrinsic"), ("visa", "visa"))
_LEVEL_OF_PASS = dict(_PASS_ARTIFACTS)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("kernel", help=".ttir path or suite fixture name")
    common.add_argument("--target", metavar="FILE", help="target profile (key=value file); default: built-in pvc")
    common.add_argument("--level", choices=_LEVELS, default="visa", help="pipeline stage to stop at")
    common.add_argument("--grid", metavar="GX,GY[,GZ]", help="launch grid")
    common.add_argument("--num-warps", type=int, metavar="N", help="override the kernel's warp count")
    common.add_argument("--seed", type=int, metavar="S", help="RNG seed for generated inputs")
    common.add_argument("--hint", action="append", default=[], metavar="dotN=TILING",
                        help="tiling hint for the N-th dot op (square|horizontal|vertical)")
    common.add_argument("--style", choices=("simt", "simd"), help="override the target's lowering style")
    common.add_argument("--input", action="append", default=[], metavar="NAME=PATH",
                        help="bind a .tnsr file to a kernel buffer (path kernels)")

    p = _Parser(prog="tilec", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="verb", required=True)
    c = sub.add_parser("compile", parents=[common], help="lower a kernel and write IR dumps")
    c.add_argument("--dump-after", metavar="PASS|all",
                   help="passes to dump: layouts, distribute, match, visa, or all")
    sub.add_parser("run", parents=[common], help="execute on the simulator and write output tensors")
    sub.add_parser("check", parents=[common], help="run and compare against the registered oracle")
    sub.add_parser("stats", parents=[common], help="print instruction statistics of the lowered program")
    return p


# --------------------------------------------------------------------------
# argument plumbing


def _parse_grid(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) not in (2, 3) or not all(x.strip().isdecimal() and int(x) > 0 for x in parts):
        raise UsageError(f"--grid expects positive gx,gy[,gz], got {text!r}")
    dims = tuple(int(x) for x in parts)
    return dims + (1,) * (3 - len(dims))  # type: ignore[return-value]


def _parse_hints(items: list[str]) -> dict[int, str]:
    hints: dict[int, str] = {}
    for item in items:
        key, _, val = item.partition("=")
        if not key.startswith("dot") or not key[3:].isdecimal() or val not in tuple(TilingHint):
            raise UsageError(f"--hint expects dotN=TILING with TILING one of {'|'.join(TilingHint)}, got {item!r}")
        if int(key[3:]) in hints:
            raise UsageError(f"--hint given twice for {key}")
        hints[int(key[3:])] = val
    return hints


def _load_target(args) -> TargetConfig:
    target = PVC
    if args.target:
        path = Path(args.target)
        if not path.exists():
            raise UsageError(f"target file not found: {path}")
        target = parse_target(path.read_text(), name=path.stem)
    if args.style:
        target = replace(target, style=args.style)
    return target


def _resolve_kernel(spec: str) -> tuple[KernelFn, kernels.Fixture | None, str]:
    """A fixture name or a .ttir path; returns (fn, fixture-or-None, stem)."""
    if spec in kernels.FIXTURE_NAMES:
        return kernels.load_fixture(spec), kernels.suite()[spec], spec
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"{spec!r} is neither a suite fixture nor a file")
    module = parse_module(path.read_text())
    if len(module.functions) != 1:
        raise UsageError(f"{path} must hold exactly one function, has {len(module.functions)}")
    return module.functions[0], None, path.stem


def _dump_dir() -> Path:
    return Path(os.environ.get("TILEC_DUMP_DIR", "."))


def _compile(fn: KernelFn, args, target: TargetConfig, to_level: str) -> CompileResult:
    if args.num_warps is not None:
        fn = copy.copy(fn)  # shares the body, which passes never mutate
        fn.num_warps = args.num_warps
    hints = _parse_hints(args.hint)
    dots = sum(op.kind == "tt.dot" for op in walk_fn_ops(fn))
    if any(i >= dots for i in hints):
        raise UsageError(f"--hint dot{max(hints)} names no dot: the kernel's dot count is {dots}")
    return compile_kernel(fn, target=target, to_level=to_level, hints=hints)


def _memory_for(fn: KernelFn, fx: kernels.Fixture | None, args) -> DeviceMemory:
    if args.input:
        mem = DeviceMemory()
        for item in args.input:
            name, _, path = item.partition("=")
            if not name or not path:
                raise UsageError(f"--input expects NAME=PATH, got {item!r}")
            data, elem = load_tensor(path)
            mem.set_tensor(name, data, elem)
        missing = [a.name for a in fn.args if isinstance(a.type, PtrType) and a.name not in mem]
        if missing:
            raise UsageError(f"no --input for buffer(s): {', '.join(missing)}")
        return mem
    if fx is None:
        raise UsageError("path kernels need --input NAME=PATH for every buffer")
    return kernels.make_problem(fx, seed=args.seed).mem


def _launch(fx: kernels.Fixture | None, args, target: TargetConfig) -> LaunchConfig:
    grid = _parse_grid(args.grid) if args.grid else (fx.grid if fx else (1, 1, 1))
    return LaunchConfig(grid=grid, target=target)


# --------------------------------------------------------------------------
# verbs


def _artifact_text(res: CompileResult, pass_name: str) -> str | None:
    if pass_name == "visa":
        return None if res.vprog is None else disassemble(res.vprog)
    prog = getattr(res, pass_name)
    return None if prog is None else print_module(KernelModule([prog]))


def cmd_compile(args) -> int:
    wanted = args.dump_after
    if wanted is None:
        names = [p for p, lvl in _PASS_ARTIFACTS if lvl == args.level]
    elif wanted == "all":
        names = [p for p, _ in _PASS_ARTIFACTS]
    elif wanted not in _LEVEL_OF_PASS:
        raise UsageError(f"--dump-after expects a pass name or 'all', got {wanted!r}")
    elif _LEVELS.index(_LEVEL_OF_PASS[wanted]) > _LEVELS.index(args.level):
        raise UsageError(f"--dump-after {wanted} names a pass past --level {args.level}")
    else:
        names = [wanted]
    fn, _, stem = _resolve_kernel(args.kernel)
    res = _compile(fn, args, _load_target(args), args.level)
    out_dir = _dump_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        text = _artifact_text(res, name)
        if text is None:
            continue  # --dump-after all: the pipeline stopped before this pass
        ext = "vasm" if name == "visa" else f"{name}.ttir"
        path = out_dir / f"{stem}.{ext}"
        path.write_text(text)
        print(f"wrote {path}")
    return 0


def cmd_run(args) -> int:
    fn, fx, stem = _resolve_kernel(args.kernel)
    target = _load_target(args)
    prog = _compile(fn, args, target, args.level).at_level(args.level)
    out = run(prog, _launch(fx, args, target), _memory_for(fn, fx, args))
    out_dir = _dump_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(out.names()):
        path = out_dir / f"{stem}.{name}.tnsr"
        dump_tensor(path, out.tensor(name), out.elem_of(name))
        print(f"wrote {path} ({'x'.join(map(str, out.shapes[name]))} {out.elem_of(name).value})")
    return 0


def cmd_check(args) -> int:
    fn, fx, _ = _resolve_kernel(args.kernel)
    if fx is None:
        raise UsageError("check needs a suite fixture (path kernels have no registered oracle)")
    if args.input:
        raise UsageError("check runs the fixture on its generated inputs, which the oracle knows; --input is for run")
    target = _load_target(args)
    prog = _compile(fn, args, target, args.level).at_level(args.level)
    prob = kernels.make_problem(fx, seed=args.seed)
    out = run(prog, _launch(fx, args, target), prob.mem)
    failed = False
    for name, want in prob.expected.items():
        err = rel_max_err(out.tensor(name), want)
        ok = err <= prob.tolerance
        failed |= not ok
        print(f"{fx.name} {name}: max rel err {err:.3e} (tol {prob.tolerance:g}) {'PASS' if ok else 'FAIL'}")
    return 2 if failed else 0


def cmd_stats(args) -> int:
    fn, _, _ = _resolve_kernel(args.kernel)
    res = _compile(fn, args, _load_target(args), "visa")
    st = count_stats(res.vprog)
    for line in st.as_lines():
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.num_warps is not None and args.num_warps < 1:
            raise UsageError(f"--num-warps must be at least 1, got {args.num_warps}")
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be at least 0, got {args.seed}")
        verb = {"compile": cmd_compile, "run": cmd_run, "check": cmd_check, "stats": cmd_stats}[args.verb]
        return verb(args)
    except (UsageError, OSError) as e:  # OSError: a path that cannot be read, e.g. a directory
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except (ParseError, VerifyError, PassError, LayoutError, LoweringError, SimError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
