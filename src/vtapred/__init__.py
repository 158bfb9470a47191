"""Early-warning prediction of ventricular tachyarrhythmia from RR tachograms.

The pipeline: ingest RR-interval tachograms and patient metadata, truncate
each record one decision horizon before the event, extract heart-rate
variability features, and train a small multi-task network evaluated with
stratified cross-validation.

The package exports the names of that pipeline and the exceptions they
raise; everything else is imported from its module, for example
``from vtapred.network import forward``.
"""

__version__ = "0.1.0"

from .dataset import DatasetError, load_dataset, prepare_records
from .features import FeatureError, build_cohort, detect_ectopic
from .network import NetworkError, predict
from .optim import TrainingError
from .evaluation import CVConfig, EvaluationError, format_report_table, metrics, run_ablation, run_cv

__all__ = [
    "__version__",
    # the pipeline, as README's Library-use block and the demos import it
    "load_dataset", "prepare_records", "build_cohort", "detect_ectopic",
    "CVConfig", "run_cv", "run_ablation", "metrics", "predict", "format_report_table",
    # the exceptions it raises
    "DatasetError", "FeatureError", "NetworkError", "TrainingError", "EvaluationError",
]
