"""tilec: a tile-level kernel compiler and virtual-GPU simulator.

Kernels are written (or built) as workgroup-level tile IR, lowered in
three passes (layout assignment, warp distribution, target-size
matching) to a register-width virtual ISA, and executed at any stage on
a deterministic simulator so every lowering step can be checked against
dense-linear-algebra references.
"""
from .ir import (
    ElemType,
    FunctionBuilder,
    KernelFn,
    KernelModule,
    PtrType,
    TensorType,
    VerifyError,
    verify_or_raise,
)
from .layouts import (
    BlockedEncoding,
    DotOperandEncoding,
    LayoutError,
    SliceEncoding,
    TilingHint,
    equivalent_blocked,
    tile_root,
)
from .oracle import OracleError, philox, rand_f16, rel_max_err
from .passes import (
    CompileResult,
    PassError,
    apply_tiling_hints,
    assign_layouts,
    classify_workload,
    compile_kernel,
    distribute_to_warps,
    match_target_size,
)
from .sim import (
    DeviceMemory,
    Launch,
    LaunchConfig,
    RunTrace,
    SimError,
    dump_tensor,
    load_tensor,
    prepare,
    run,
)
from .textio import ParseError, parse_module, print_module
from .visa import (
    PVC,
    LoweringError,
    Stats,
    TargetConfig,
    VProgram,
    count_stats,
    disassemble,
    lower,
    parse_target,
)

__version__ = "0.1.0"

__all__ = [
    "BlockedEncoding",
    "CompileResult",
    "DeviceMemory",
    "DotOperandEncoding",
    "ElemType",
    "FunctionBuilder",
    "KernelFn",
    "KernelModule",
    "Launch",
    "LaunchConfig",
    "LayoutError",
    "LoweringError",
    "OracleError",
    "PVC",
    "ParseError",
    "PassError",
    "PtrType",
    "RunTrace",
    "SimError",
    "SliceEncoding",
    "Stats",
    "TargetConfig",
    "TensorType",
    "TilingHint",
    "VProgram",
    "VerifyError",
    "apply_tiling_hints",
    "assign_layouts",
    "classify_workload",
    "compile_kernel",
    "count_stats",
    "disassemble",
    "distribute_to_warps",
    "dump_tensor",
    "equivalent_blocked",
    "load_tensor",
    "lower",
    "match_target_size",
    "parse_module",
    "parse_target",
    "philox",
    "prepare",
    "print_module",
    "rand_f16",
    "rel_max_err",
    "run",
    "tile_root",
    "verify_or_raise",
]
