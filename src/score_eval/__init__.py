"""Interpretation-agnostic evaluation of document parsing outputs.

The package scores paired ground-truth/prediction pages along three
axes: content fidelity (edit similarity, adjusted for alternative
reading paths, plus token-level loss/hallucination diagnostics), table
structure (format-agnostic detection, shift-tolerant cell accuracy,
tree edit similarity), and hierarchy consistency (functional-category
confusion with an F1 consistency score).
"""

from .errors import (
    EmptyDataset,
    EmptyReference,
    InvalidThreshold,
    MalformedInput,
    MultipleTablesFound,
    NoTableFound,
    OverlappingCells,
    ScoreEvalError,
)
from .hierarchy import (
    CATEGORIES,
    NOMATCH,
    CategoryMap,
    ConfusionMatrix,
    build_confusion,
    consistency_score,
    match_elements,
)
from .ingest import (
    CoordCell,
    DocumentPage,
    Element,
    PagePair,
    normalize_coord_cells,
    pair_pages,
    parse_document,
    parse_table_html,
    parse_table_rowcol,
)
from .report import (
    AggregateReport,
    PageReport,
    RunConfig,
    TableScores,
    aggregate,
    evaluate_page,
    evaluate_pairs,
    render,
    write_reports,
)
from .tableeval import (
    Cell,
    CellAccuracy,
    DetectionResult,
    NormalizedTable,
    TableTree,
    build_table_tree,
    cell_alignment,
    content_index_accuracy,
    flatten,
    match_tables,
    table_similarity,
    teds,
    tree_edit_distance,
)
from .textmetrics import (
    FidelityScores,
    TokenizerConfig,
    adjusted_ned,
    bag_similarity,
    cer,
    content_text,
    content_tokens,
    levenshtein,
    ned,
    page_text,
    tokenize,
    tokens_added,
    tokens_found,
    wer,
)

__version__ = "0.1.0"
