"""repro — a full reproduction of "Spectral Bloom Filters" (SIGMOD 2003).

The Spectral Bloom Filter (SBF) of Saar Cohen and Yossi Matias extends the
Bloom filter from sets to *multisets*: it answers frequency queries
(``how many times did x occur?``) and threshold filters (``f_x >= T?``)
with one-sided error, in space close to the information-theoretic cost of
the counters, while supporting inserts, deletes, updates and streaming
construction.

Quick start::

    from repro import SpectralBloomFilter

    sbf = SpectralBloomFilter.for_items(n=10_000, error_rate=0.01,
                                        method="rm", seed=1)
    for word in stream:
        sbf.insert(word)
    sbf.query("needle")           # frequency estimate, >= true w.h.p.
    sbf.contains("needle", 100)   # ad-hoc iceberg threshold

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — the SBF and its three maintenance methods;
- :mod:`repro.filters` — Bloom / counting-Bloom / Count-Min / hash-table
  baselines;
- :mod:`repro.succinct` — bit vector, rank/select, Elias & steps codes, the
  String-Array Index (§4);
- :mod:`repro.storage` — counter backends (array / compact / stream);
- :mod:`repro.hashing` — hash-function families;
- :mod:`repro.data` — Zipfian and synthetic workload generators;
- :mod:`repro.analysis` — the paper's closed-form error analyses;
- :mod:`repro.apps` — iceberg queries, Spectral Bloomjoins, aggregate
  indexes, bifocal sampling, range trees, sliding windows (§5);
- :mod:`repro.db` — the tiny relational/distributed substrate the apps
  run on;
- :mod:`repro.handle` — the shard-handle protocol the serving layers share;
- :mod:`repro.bench` — metrics and harness utilities for the experiment
  reproduction.
"""

from repro.core.sbf import SpectralBloomFilter
from repro.core.params import (
    bloom_error,
    gamma,
    optimal_k,
    optimal_m,
    recommended_parameters,
)
from repro.core.unbiased import (
    HybridEstimator,
    MedianOfMeansEstimator,
    UnbiasedEstimator,
)
from repro.filters.bloom import BloomFilter
from repro.filters.counting import CountingBloomFilter
from repro.filters.count_min import CountMinSketch
from repro.filters.hashtable import ChainedHashTable
from repro.succinct.string_array import StringArrayIndex

__version__ = "1.0.0"

__all__ = [
    "SpectralBloomFilter",
    "BloomFilter",
    "CountingBloomFilter",
    "CountMinSketch",
    "ChainedHashTable",
    "StringArrayIndex",
    "UnbiasedEstimator",
    "MedianOfMeansEstimator",
    "HybridEstimator",
    "bloom_error",
    "gamma",
    "optimal_k",
    "optimal_m",
    "recommended_parameters",
    "__version__",
]
