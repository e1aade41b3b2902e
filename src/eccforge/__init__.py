"""Maximal k-edge-connected subgraphs: incremental, static, and fully dynamic."""

from .graph import Multigraph, parse_graph, parse_stream, serialize_graph
from .blockforest import BlockForest
from .cactusforest import CactusForest
from .decomp import DecompTree
from .certificates import CertificateReport, forest_decomposition, k_certificate
from .solver import Partition, max_kec_subgraphs
from .dynamic import SparsTree
from .oracle import edge_connectivity, kecc_partition, maximal_kec_bruteforce

__all__ = [
    "BlockForest",
    "CactusForest",
    "CertificateReport",
    "DecompTree",
    "Multigraph",
    "Partition",
    "SparsTree",
    "edge_connectivity",
    "forest_decomposition",
    "k_certificate",
    "kecc_partition",
    "max_kec_subgraphs",
    "maximal_kec_bruteforce",
    "parse_graph",
    "parse_stream",
    "serialize_graph",
]
