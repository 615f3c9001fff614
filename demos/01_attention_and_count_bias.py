"""
Chunk-causal attention and the count bias
=========================================

A merged cache entry stands in for several original tokens. Adding
ln(count) to its attention logit makes one stored key behave exactly
like `count` identical duplicates, so compression never changes the
softmax algebra, only the number of rows we keep.
"""

import numpy as np

from stacache import attend

rng = np.random.default_rng(0)
d_h = 8

# a tiny "cache": three distinct keys, one of which represents 5 merged tokens
queries = rng.normal(size=(2, d_h))
keys = rng.normal(size=(3, d_h))
values = rng.normal(size=(3, d_h))
counts = np.array([5.0, 1.0, 1.0])

merged = attend(queries, keys, values, counts, d_h)

# the same computation with the five duplicates written out explicitly
keys_dup = np.vstack([np.tile(keys[0], (5, 1)), keys[1:]])
values_dup = np.vstack([np.tile(values[0], (5, 1)), values[1:]])
explicit = attend(queries, keys_dup, values_dup, np.ones(7), d_h)

print("outputs with count bias:")
print(merged.outputs.round(6))
print("outputs with explicit duplicates:")
print(explicit.outputs.round(6))
print("max |difference|:", float(np.abs(merged.outputs - explicit.outputs).max()))

# the attention mass is what feeds token scores later: the merged row
# soaks up exactly the mass its five duplicates would have shared
print("\nmass per cache row (merged):   ", merged.mass.round(6))
print("mass of the five duplicates:    ", explicit.mass[:5].sum().round(6))

# chunk-causality needs no mask: queries of a chunk see the whole chunk
# (bidirectional) plus everything strictly older, so the key set is simply
# the cache rows followed by the chunk's own rows
chunk_keys, chunk_values = rng.normal(size=(2, d_h)), rng.normal(size=(2, d_h))
step = attend(queries, np.vstack([keys, chunk_keys]), np.vstack([values, chunk_values]),
              np.ones(5), d_h)
print("\nmass on cache rows, then chunk rows:", step.mass.round(6))
print("total mass == number of queries:", float(step.mass.sum()))
