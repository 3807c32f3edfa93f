"""
Streaming the peaks of a single element block
=============================================

The building block beneath every formula is the distribution of one element
repeated n times. Its outcomes are the ways of splitting n atoms among the
element's isotopes, weighted by a multinomial. The generator below walks
those splits from most to least probable, never producing a duplicate. A
heap serves the first few hundred; after that it places every split above a
falling probability threshold at once, so besides the frontier the next
band starts from it holds one band of splits at a time.
"""

import math

from isoselect import (
    LayerSchedule,
    MultinomialConfig,
    SubisotopologueGenerator,
    load_default,
)

# One hundred sulfur atoms: four isotopes, so the outcomes are the weak
# compositions of 100 into four parts, C(103, 3) = 176851 of them.
table = load_default()
config = MultinomialConfig.from_isotopes(100, table.get("S"))
print(f"S100 has {config.tuple_count()} isotopologues")

gen = SubisotopologueGenerator(config, LayerSchedule(2.0))

# The first tuple out is the mode of the multinomial: the single most likely
# assignment of atoms to isotopes.
counts, logp = gen.next_tuple()
print(f"mode: {counts} with probability {math.exp(logp):.6f}")

# Probabilities never increase from one tuple to the next.
prev = logp
for i in range(9):
    counts, logp = gen.next_tuple()
    assert logp <= prev + 1e-12
    prev = logp
    print(f"  next: {counts}  p = {math.exp(logp):.6f}")

# The same generator can deal its output in geometrically growing layers;
# this is the form the pairwise selectors upstream actually consume.
gen = SubisotopologueGenerator(config, LayerSchedule(2.0))
for _ in range(6):
    mass, logp = gen.next_layer()
    print(
        f"layer of {mass.size:2d}: masses {mass.min():.4f}..{mass.max():.4f}, "
        f"best p = {math.exp(logp.max()):.2e}"
    )

# Past its first 256 splits the generator works in bands; ``generated``
# counts the splits it has placed in order, at least as many as it emitted.
while gen.emitted < 10_000:
    gen.next_layer()
print(f"after {gen.emitted} splits emitted, {gen.generated} placed in order")
