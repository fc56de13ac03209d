"""Cardiac cine-MR segmentation support toolkit.

Library of the non-neural parts of a cardiac MR analysis pipeline:
ROI localization from cine sequences, deterministic augmentation,
reference loss kernels with analytic gradients, label post-processing,
evaluation metrics, cardiac feature extraction, a two-stage disease
classifier ensemble, and a symbolic network-graph calculator.

Everything runs on numpy alone, except the rare KD-tree fallback of the
Hausdorff distance, which imports scipy.
"""

__version__ = "0.1.0"
