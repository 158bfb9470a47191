"""Train one multi-task model end to end on the separable synthetic task.

``evaluation.fit_model`` standardizes the cohort's feature matrix into one
batch (features, birth-decade index, event label, optional functional-class
and body-mass targets) and trains with AdaDelta under dropout, as the
``train`` command does; the demo prints the loss trajectory and the final
training accuracy.
"""

import numpy as np

from vtapred import CVConfig, TrainConfig, predict
from vtapred.evaluation import build_examples, fit_model
from vtapred.synthetic import gaussian_task


def main() -> None:
    cohort = gaussian_task(200, seed=11)
    rows = np.arange(len(cohort))

    # standardizers fitted on every row, a fresh network, and its training history
    config = CVConfig(train=TrainConfig(epochs=300))
    params, history, standardizers = fit_model(cohort, rows, config, seed=0, fold=0)
    batch = build_examples(cohort, rows, *standardizers)

    print("epoch    loss     event  functional  body-mass")
    for row in history[:3] + history[146:149] + history[-3:]:
        print(f"{int(row['epoch']):>5}  {row['loss']:7.4f}  {row['vta_loss']:7.4f}"
              f"  {row['nyhac_loss']:9.4f}  {row['bmi_loss']:9.4f}")

    accuracy = np.mean((predict(params, batch) >= 0.5).astype(int) == batch.y_vta)
    print(f"\ntraining accuracy after {len(history)} epochs: {accuracy:.3f}")


if __name__ == "__main__":
    main()
