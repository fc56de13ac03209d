"""From segmentations to the 20-feature cardiac record.

Volumes, mass and ejection fractions come from voxel counts and spacing;
the wall-thickness profile comes from per-slice shortest distances
between the endocardial and epicardial contours, each the rim of its
region, so wall thickness runs from rim to rim.
"""

from cardiomr.features import FEATURE_NAMES, PhaseLabels, extract_features, mwt_result
from cardiomr.phantoms import heart_label_volume

ed = heart_label_volume(shape=(96, 96), n_slices=6, lv_radius=14, wall_px=5,
                        rv_offset=(-31, 0), rv_radius=10, spacing=(1.5, 1.5, 8.0))
es = heart_label_volume(shape=(96, 96), n_slices=6, lv_radius=10, wall_px=7,
                        rv_offset=(-31, 0), rv_radius=8, spacing=(1.5, 1.5, 8.0))

mwt = mwt_result(es)
print(f"ES wall thickness: {len(mwt.slices)} valid slices, "
      f"first-slice mean {mwt.slices[0].mean:.2f} mm "
      f"(geometric wall: 7 px x 1.5 mm = 10.5 mm)")

record = extract_features(PhaseLabels(ed=ed, es=es))
print(f"{'feature':<32} value")
for name in FEATURE_NAMES:
    value = getattr(record, name)
    shown = "missing" if value is None else f"{value:.3f}"
    print(f"{name:<32} {shown}")
