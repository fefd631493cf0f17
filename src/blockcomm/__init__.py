"""Local community detection with locally approximated block-model scores.

The package recovers the community around a seed node by greedily growing a
node set under one of two scores: the exact marginal likelihood of a two-rate
stochastic block model (aSBM) or a variational bound for its degree-corrected
variant (aDCBM), both evaluated under a uniformity approximation so that only
the candidate community's own statistics are needed. Global Louvain-style
optimizers of the same objectives, planted-partition samplers, and an
evaluation harness round out the toolkit.
"""

__version__ = "0.1.0"

from .graph import Graph, CommunityStats, load_edge_list, load_communities
from .graph import community_stats, add_node_delta
from .distributions import GammaParams, BetaParams, log_gamma, digamma, log_beta, gamma_kl
from .sbm import SbmPriors, EdgeCounts, exact_edge_counts, sbm_log_marginal
from .sbm import log_partition_prior, asbm_log_score
from .dcbm import DcbmPriors, VariationalState, VbPartition, LocalDcbmState
from .dcbm import vb_update, vb_bound, adcbm_local_fit
from .dcbm import adcbm_log_score, formal_n_totals
from .local_search import SearchConfig, DetectionResult, greedy_expand, detect
from .global_search import Partition, louvain, objective_value
from .generators import PlantedSpec, sample_sbm, sample_dcbm
from .evaluation import EvalRow, f1_excluding_seed, conductance, run_protocol
