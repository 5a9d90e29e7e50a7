"""Static analysis of guaranteed non-speculative information leakage over a
textual SSA mini-IR, with frontier-based speculation-barrier placement and an
execution oracle for verification."""

from .cfg import (Cfg, CfgError, DomInfo, ExpandedFunction, NaturalLoop, build_cfg,
                  dominators, expand_loops, natural_loops, simplify_loops)
from .frontier import BlockKnowledge, all_frontiers, block_knowledge
from .ir import (Block, Function, Instruction, IRError, Program, parse_program,
                 pretty_print, validate_ssa)
from .knowledge import (AnalysisError, FunctionSummary, KnowledgeMap, analyze_edges,
                        init_knowledge, project_to_original, propagate, summarize)
from .oracle import (OracleError, SpecExecution, Trace, check_frontier_property,
                     exact_knowledge, interpret, speculative_explore)
from .pipeline import RunConfig, run_pipeline
from .protect import ProtectionPlan, emit_protected, plan_protection
from .refine import (Limits, PathLog, RefinementResult, Region, apply_refinement,
                     candidate_regions, candidate_vars, check_inevitable)

__version__ = "0.1.0"
