"""
Layer vocabulary and boundary extraction
========================================

The network is assembled from a handful of primitives: same-padded
(dilated) convolution, batch norm, bilinear re-sampling, average
pooling, global average pooling, and binary erosion for boundary
ground truth.
"""

import numpy as np

from cracenet import Tensor, conv2d, downsample_avg, erode, make_edge_gt, upsample
from cracenet.layers import Conv2dLayer

# %%
# Same padding keeps spatial dims; dilation widens the footprint for free.

x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 16, 16)))
for dilation in (1, 2, 4):
    layer = Conv2dLayer(3, 8, kernel=3, dilation=dilation)
    print(f"dilation {dilation}: {x.shape} -> {conv2d(x, layer).shape}")

# %%
# Bilinear upsampling keeps constants constant; average pooling maps
# windows of equal values back to that value exactly for power-of-two
# factors.

const = Tensor(np.full((1, 1, 4, 4), 0.375))
print("constant preserved:", bool((upsample(const, 4).data == 0.375).all()))

grid = np.arange(16.0).reshape(1, 1, 4, 4)
cells = Tensor(np.repeat(np.repeat(grid, 2, axis=2), 2, axis=3))
round_trip = downsample_avg(cells, 2)
print("equal-window round-trip exact:", bool((round_trip.data == grid).all()))

# %%
# Boundary ground truth is the mask minus its erosion: a one-pixel band
# hugging every object.

mask = np.zeros((9, 9))
mask[2:7, 3:8] = 1.0
band = make_edge_gt(mask, radius=1)
print("mask:", int(mask.sum()), "pixels; boundary band:", int(band.sum()), "pixels")
for row in band.astype(int):
    print("".join(".#"[v] for v in row))

# %%
# Erosion with a wider element peels more layers.

print("radius 2 leaves", int(erode(mask, radius=2).sum()), "pixels")
