"""depkit: fine-grained dependency extraction and analysis for micro-article corpora.

The toolkit parses and checks a small proof-library language, extracts
per-item dependencies both by instrumented tracing and by brute-force
environment minimization, analyzes the resulting graphs for incremental
re-verification savings, and learns premise relevance from the extracted
dependencies.
"""

from .corpus import (
    CheckOutcome,
    Corpus,
    DepEdge,
    Environment,
    Item,
    ItemKind,
    Opacity,
    RejectReason,
    Visibility,
    parse_corpus,
    parse_source,
    render_corpus,
    render_file,
    render_item,
)
from .errors import (
    CorpusMismatchError,
    CycleDetectedError,
    DanglingThenError,
    DepkitError,
    DuplicateNameError,
    NotVerifiableError,
    ParseError,
    UnknownItemError,
)
from .extract import (
    EdgeRecords,
    ExtractionResult,
    Microarticle,
    MinimizationResult,
    compare_methods,
    decompose,
    event_lines,
    extract_corpus,
    minimize_env,
    read_edges_jsonl,
    trace_extract,
    write_edges_jsonl,
)
from .gen import generate_corpus, write_corpus
from .graph import (
    DepGraph,
    Granularity,
    GraphStats,
    build_graph,
    build_graph_from_edges,
    kind_table,
    load_set,
    reverse_cumulative,
    stats,
    transitive_closure,
)
from .learn import (
    BayesModel,
    FeatureVector,
    NonFiniteScoreError,
    RankedPremises,
    dependency_map,
    evaluate_chrono,
    export_problems,
    features_of,
    rank,
    train,
)
from .normalize import (
    RewriteReport,
    explicit_linking,
    normalize_corpus,
    normalize_items,
    split_definition_blocks,
    split_reservations,
)
from .rebuild import (
    ChangeKind,
    ChangeSet,
    ExecutionReport,
    RebuildPlan,
    execute,
    plan,
    speedup_report,
)

__version__ = "0.1.0"
