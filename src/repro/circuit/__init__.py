"""Gate-level netlist substrate: cells, containers, I/O and generators."""

from repro.circuit.cells import GateType, controlling_value, eval_gate_bool, is_source
from repro.circuit.netlist import Netlist
from repro.circuit.levelize import (
    CombinationalLoopError,
    logic_levels,
    topological_order,
)
from repro.circuit.validate import (
    NetlistValidationError,
    ValidationReport,
    validate_netlist,
)
from repro.circuit.bench import (
    BenchParseError,
    dump_bench,
    load_bench,
    parse_bench,
    write_bench,
)
from repro.circuit.generator import GeneratorConfig, generate_design, generate_random_dag
from repro.circuit.graph import adjacency_pair, edge_arrays
from repro.circuit.stats import NetlistStats, compute_stats
from repro.circuit.verilog import (
    VerilogParseError,
    dump_verilog,
    load_verilog,
    parse_verilog,
    write_verilog,
)

__all__ = [
    "NetlistStats",
    "compute_stats",
    "VerilogParseError",
    "dump_verilog",
    "load_verilog",
    "parse_verilog",
    "write_verilog",
    "GateType",
    "Netlist",
    "controlling_value",
    "eval_gate_bool",
    "is_source",
    "CombinationalLoopError",
    "logic_levels",
    "topological_order",
    "NetlistValidationError",
    "ValidationReport",
    "validate_netlist",
    "BenchParseError",
    "dump_bench",
    "load_bench",
    "parse_bench",
    "write_bench",
    "GeneratorConfig",
    "generate_design",
    "generate_random_dag",
    "adjacency_pair",
    "edge_arrays",
]
