"""Monte-Carlo sampling and logical-error-rate estimation."""

from repro.sim.compiled import CompiledCircuit, compile_circuit
from repro.sim.engine import (
    BACKENDS,
    BlockExecutionError,
    SHOT_BLOCK,
    block_seeds,
    count_logical_errors,
    make_sampler,
    run_block,
    shot_blocks,
)
from repro.sim.frame import FrameSimulator, sample_detection_data
from repro.sim.experiment import (
    DecodingSetup,
    LogicalErrorResult,
    prepare_decoding,
    run_memory_experiment,
)
from repro.sim.stats import wilson_interval

__all__ = [
    "BACKENDS",
    "BlockExecutionError",
    "CompiledCircuit",
    "DecodingSetup",
    "FrameSimulator",
    "LogicalErrorResult",
    "SHOT_BLOCK",
    "block_seeds",
    "compile_circuit",
    "count_logical_errors",
    "make_sampler",
    "prepare_decoding",
    "run_block",
    "run_memory_experiment",
    "sample_detection_data",
    "shot_blocks",
    "wilson_interval",
]
