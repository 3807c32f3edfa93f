"""
Layered arrangements instead of full sorts
==========================================

All streams in this package produce values in layers: the first layer holds
the single largest key, later layers grow geometrically at a rate alpha, and
every key in a layer is >= every key in the next layer. Inside a layer the
order is arbitrary. Building this arrangement needs only a rank selection at
each layer boundary, not a full sort: one np.argpartition call places every
boundary at once. The merge tree's selectors use the same routine to cut
their candidates into layers.
"""

import numpy as np

from isoselect import LayerSchedule, lohify, verify_loh

rng = np.random.default_rng(5)
values = rng.normal(size=30)

# With alpha = 2 the layer sizes double: 1, 2, 4, 8, 16, ...
lv = lohify(values, LayerSchedule(2.0))
print("layer contents (alpha = 2):")
for t, layer in enumerate(lv.layers(), start=1):
    body = ", ".join(f"{v:+.3f}" for v in layer)
    print(f"  layer {t} (size {layer.size}): {body}")
assert verify_loh(lv)

# Each layer's minimum dominates the next layer's maximum; that is the whole
# guarantee, and it is exactly what online top-k selection needs.
mins = [layer.min() for layer in lv.layers()]
maxs = [layer.max() for layer in lv.layers()]
assert all(mins[t] >= maxs[t + 1] for t in range(len(mins) - 1))
print("\ndescending layer property holds")

# alpha = 1 degenerates to one value per layer, i.e. a full descending sort.
sorted_lv = lohify(values, LayerSchedule(1.0))
assert np.array_equal(sorted_lv.values, np.sort(values)[::-1])
print("alpha = 1 reproduces a full sort")

# A gentler alpha makes more, smaller layers; the arrangement gets closer to
# sorted order, with more boundaries to place.
for alpha in (1.05, 1.3, 2.0, 7.5):
    lv = lohify(rng.normal(size=10_000), LayerSchedule(alpha))
    print(f"alpha = {alpha:4.2f}: {len(lv.boundaries):4d} layers for n = 10000")
