"""Train one multi-task model end to end on the separable synthetic task.

Standardizes the cohort's feature matrix into one batch (features,
birth-decade index, event label, optional functional-class and body-mass
targets), trains with AdaDelta under dropout, and prints the loss trajectory
and final training accuracy.
"""

import numpy as np

from vtapred import (
    NetworkConfig,
    TrainConfig,
    fit_standardizer,
    init_params,
    predict,
    train,
)
from vtapred.evaluation import DROPOUT_STREAM, INIT_STREAM, build_examples
from vtapred.synthetic import gaussian_task


def main() -> None:
    seed = 0
    cohort = gaussian_task(200, seed=11)

    standardizer = fit_standardizer(cohort.X)
    bmi_standardizer = fit_standardizer(cohort.bmi[cohort.bmi_mask])
    batch = build_examples(cohort, np.arange(len(cohort)), standardizer, bmi_standardizer)

    config = NetworkConfig(num_features=cohort.X.shape[1], num_decades=cohort.num_decades, use_embedding=True)
    params = init_params(config, np.random.default_rng([seed, INIT_STREAM, 0]))
    params, history = train(
        batch,
        TrainConfig(epochs=300),
        params,
        np.random.default_rng([seed, DROPOUT_STREAM, 0]),
    )

    print("epoch    loss     event  functional  body-mass")
    for row in history[:3] + history[146:149] + history[-3:]:
        print(f"{int(row['epoch']):>5}  {row['loss']:7.4f}  {row['vta_loss']:7.4f}"
              f"  {row['nyhac_loss']:9.4f}  {row['bmi_loss']:9.4f}")

    accuracy = np.mean((predict(params, batch) >= 0.5).astype(int) == batch.y_vta)
    print(f"\ntraining accuracy after {len(history)} epochs: {accuracy:.3f}")


if __name__ == "__main__":
    main()
