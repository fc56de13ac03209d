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
    only rise when the process happens to free a large mmap()ed block.
    ``phantoms.heart_slice`` allocates and frees 64 KiB-1 MiB NumPy
    temporaries on every call; at the low start values each call shrinks
    and regrows the heap, and every regrown page faults in zeroed. Building
    ``disease_cohort(100)`` takes ~4k minor faults and 0.81 s with the pin,
    ~234k and 1.12 s without it (2-core host). Feature extraction and the
    pipeline stages no longer depend on it: featurizing those 100 cases
    faults ~200 times either way. 32 MiB is the highest mmap threshold the
    adaptive rule reaches, with trim at twice it. No-op where the C library
    has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_temporaries_on_the_heap()
