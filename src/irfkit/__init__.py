"""Iterative relevance feedback retrieval toolkit.

Index a text collection, retrieve with query-likelihood or BM25, split a
judgment budget over feedback iterations with one of four feedback models,
and evaluate the resulting freezing rank lists.
"""

from .corpus_io import (
    QrelSet,
    RawDocument,
    TermSequence,
    Topic,
    default_stoplist,
    normalize,
    parse_qrels,
    parse_topics,
    parse_trec_collection,
)
from .evaluation import (
    MetricResult,
    SigTestResult,
    average_precision,
    cross_validate,
    evaluate_run,
    fisher_randomization,
    ndcg_at_20,
)
from .feedback import (
    MODELS,
    Estimate,
    FeedbackPools,
    ModelParams,
    estimate_distillation,
    estimate_prob,
    estimate_rm3,
    estimate_rocchio,
)
from .index import CollectionIndex, build_index, doc_vector, load_index, save_index
from .ranking import (
    QueryModel,
    ScoredList,
    retrieve_dot,
    retrieve_kl,
)
from .session import (
    BudgetConfig,
    FreezingRunList,
    SessionAborted,
    initial_ranking,
    interactive_judge,
    make_qrels_judge,
    run_irf,
)

__version__ = "0.1.0"
