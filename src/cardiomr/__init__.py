"""Cardiac cine-MR segmentation support toolkit.

Library of the non-neural parts of a cardiac MR analysis pipeline:
ROI localization from cine sequences, deterministic augmentation,
reference loss kernels with analytic gradients, label post-processing,
evaluation metrics, cardiac feature extraction, a two-stage disease
classifier ensemble, and a symbolic network-graph calculator.
"""

import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_temporaries_on_the_heap() -> None:
    """Pin glibc's heap thresholds at the ceiling of its own adaptive rule.

    glibc serves blocks above M_MMAP_THRESHOLD with mmap and hands free heap
    top beyond M_TRIM_THRESHOLD back to the OS. Both start at 128 KiB and
    only rise when the process happens to free a large mmap()ed block. The
    per-slice kernels allocate and free 64 KiB-1 MiB NumPy temporaries in
    tight loops; at the low start values each slice shrinks and regrows the
    heap, and every regrown page faults in zeroed (about 130k faults, ~30%
    of the time, to build and featurize 60 96x96 cases). 32 MiB is the
    highest mmap threshold the adaptive rule reaches, with trim at twice it.
    No-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_temporaries_on_the_heap()
