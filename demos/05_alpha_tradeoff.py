"""
The alpha knob: batching versus exactness of order
==================================================

Selection below the root works layer by layer, and alpha controls how fast
the layers grow. With alpha = 1 every layer holds one peak, so the output
arrives in exactly sorted order, but every peak pays the full bookkeeping
cost at each merge node below the root. The root itself selects once on its
grid of layer products at any alpha, and at alpha = 1 it sorts what it
returns. With alpha > 1 the nodes below the root move peaks in
geometrically growing batches, which amortizes the heap traffic away; the
price is that the final top-k set must be trimmed from a slightly larger
candidate pool, and the output is only layer-ordered rather than sorted.

The result sets are identical either way; only the running time changes.
"""

import time

import numpy as np

from isoselect import isotopologues

BRCA2 = "C16802H26738N4640O5411S121"
K = 100_000

results = {}
for alpha in (1.0, 1.02, 1.05, 1.2, 2.0):
    start = time.perf_counter()
    sel = isotopologues(BRCA2, k=K, alpha=alpha)
    elapsed = time.perf_counter() - start
    results[alpha] = sel
    print(f"alpha = {alpha:4.2f}: top {K} peaks in {elapsed:6.3f} s")

# Same peaks regardless of alpha, down to the last bit.
reference = np.sort(results[1.0].logp)
for alpha, sel in results.items():
    assert np.array_equal(np.sort(sel.logp), reference)
print("\nall alphas return the identical peak set")

# If sorted output is wanted, sorting k peaks afterwards is far cheaper than
# paying the alpha = 1 penalty during selection.
start = time.perf_counter()
isotopologues(BRCA2, k=K, alpha=1.05).sorted()
elapsed = time.perf_counter() - start
print(f"alpha = 1.05 plus a final sort: {elapsed:6.3f} s")
