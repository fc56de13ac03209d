"""Cardiac cine-MR segmentation support toolkit.

Library of the non-neural parts of a cardiac MR analysis pipeline:
ROI localization from cine sequences, deterministic augmentation,
reference loss kernels with analytic gradients, label post-processing,
evaluation metrics, cardiac feature extraction, a two-stage disease
classifier ensemble, and a symbolic network-graph calculator.

Everything but augmentation runs on numpy alone; scipy is imported by
:mod:`cardiomr.augment` and by the rare KD-tree fallback of the Hausdorff
distance.
"""

__version__ = "0.1.0"
