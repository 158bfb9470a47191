"""Early-warning prediction of ventricular tachyarrhythmia from RR tachograms.

The pipeline: ingest RR-interval tachograms and patient metadata, truncate
each record one decision horizon before the event, extract heart-rate
variability features, and train a small multi-task network evaluated with
stratified cross-validation.
"""

__version__ = "0.1.0"

from .dataset import (
    DatasetError,
    LABEL_CONTROL,
    LABEL_VTA,
    PatientMeta,
    RRRecord,
    UnusableRecordError,
    apply_decision_boundary,
    load_dataset,
    prepare_records,
    round_to_decade,
)
from .features import (
    BASELINE11_NAMES,
    FEATURE_SET_BASELINE11,
    FEATURE_SET_RECENT,
    FEATURE_SETS,
    RECENT_NAMES,
    VLF_BAND,
    WINDOWED_NAMES,
    Cohort,
    FeatureConfig,
    FeatureError,
    Standardizer,
    band_power,
    baseline11,
    build_cohort,
    detect_ectopic,
    extract,
    feature_names,
    fit_standardizer,
    sample_entropy,
    standardize,
    time_stats,
    windowed_diff,
    write_feature_matrix,
)
from .network import (
    Batch,
    CheckpointError,
    NetworkConfig,
    NetworkError,
    NetworkParams,
    backward,
    draw_dropout_masks,
    forward,
    init_params,
    load_checkpoint,
    loss,
    predict,
    save_checkpoint,
)
from .optim import (
    AdaDeltaState,
    TrainConfig,
    TrainingError,
    adadelta_step,
    clip,
    train,
    write_loss_history,
)
from .evaluation import (
    ABLATION_ROWS,
    CVConfig,
    EvalReport,
    EvaluationError,
    Predictions,
    ablation_config,
    auc,
    format_report_table,
    make_folds,
    make_patient_folds,
    metrics,
    run_ablation,
    run_cv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
