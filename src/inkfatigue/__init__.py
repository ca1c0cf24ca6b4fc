"""Online-handwriting fatigue analysis.

Parse pen-tablet recordings, compute fatigue-sensitive kinematic and pressure
features, compare assessment sets with exact Wilcoxon signed-rank tests, and
summarize recovery. A deterministic synthetic-ink generator makes the whole
pipeline verifiable end to end.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DuplicateError,
    EmptyInputError,
    FormatError,
    InkError,
    InsufficientDataError,
    RangeError,
    ShapeError,
    TooShortError,
)
from .features import (
    DEFAULT_CATALOG,
    PENDOWN_CATALOG,
    FeatureVector,
    extract_features,
    feature_table,
)
from .model import (
    AuxRecord,
    Category,
    InkSignal,
    SetId,
    StudyCorpus,
    TaskRecord,
    load_corpus,
    parse_task_file,
    serialize_task,
    write_corpus,
)
from .protocol import (
    RecoverySummary,
    canonical_set_pairs,
    jump_height,
    power_output,
    summarize_recovery,
)
from .stats import (
    Cell,
    ComparisonMatrix,
    MatrixRow,
    TestResult,
    build_matrix,
    compare_sets,
    default_rows,
    rank_sum_test,
    wilcoxon_signed_rank,
)
from .synth import Perturbation, SynthProfile, generate_corpus, generate_task

__version__ = "0.1.0"

# Every public name imported above, so each is written once.
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
)
