"""Fixed-template CSPs as digraph homomorphism problems, both ways.

The package converts a finite relational template into a balanced
digraph whose CSP is equivalent, translates instances in both
directions, transfers endomorphisms and whole polymorphism identity
systems across the encoding, and ships a complete homomorphism solver
used as the correctness oracle for everything else.
"""

from .builder import (
    PathSpec,
    TemplateDigraph,
    build_digraph,
    build_path,
    index_set,
    path_spec,
)
from .errors import CspError, ParseError, PreconditionError
from .forward import forward_instance
from .identities import IdentitySet, OpTable, parse_identities, parse_op_table
from .merge import BlockInfo, merge_instance, merge_template, unmerge_instance
from .reverse import reverse_instance
from .solver import (
    core_of,
    endomorphisms,
    enumerate_homs,
    find_hom,
    find_operations,
    is_core,
    is_polymorphism,
    satisfies,
)
from .structures import (
    Digraph,
    RelStructure,
    export_dot,
    parse_digraph,
    parse_structure,
    serialize_digraph,
    serialize_structure,
)

__all__ = [
    "BlockInfo",
    "CspError",
    "Digraph",
    "IdentitySet",
    "OpTable",
    "ParseError",
    "PathSpec",
    "PreconditionError",
    "RelStructure",
    "TemplateDigraph",
    "build_digraph",
    "build_path",
    "core_of",
    "endomorphisms",
    "enumerate_homs",
    "export_dot",
    "find_hom",
    "find_operations",
    "forward_instance",
    "index_set",
    "is_core",
    "is_polymorphism",
    "merge_instance",
    "merge_template",
    "parse_digraph",
    "parse_identities",
    "parse_op_table",
    "parse_structure",
    "path_spec",
    "reverse_instance",
    "satisfies",
    "serialize_digraph",
    "serialize_structure",
    "unmerge_instance",
]

__version__ = "0.1.0"
