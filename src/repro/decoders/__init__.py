"""Decoders for the surface code: matching graphs, MWPM and union-find.

All decoders derive from :class:`SyndromeDecoder`, which adds the tiered
batched ``decode_batch`` entry point used by the Monte-Carlo engine:
dedup, the trivial tier, then each decoder's one ladder hook —
union-find's lockstep kernel, MWPM's analytic weight-1/2 rules before
blossom, or a per-unique full decode.  Decoders keep no state between
``decode_batch`` calls.
"""

from repro.decoders.batch import TIER_NAMES, SyndromeDecoder
from repro.decoders.batched_uf import BatchedUnionFind
from repro.decoders.cache import BuildCache
from repro.decoders.graph import DecodingEdge, MatchingGraph
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.unionfind import LegacyUnionFindDecoder, UnionFindDecoder

__all__ = [
    "BatchedUnionFind",
    "BuildCache",
    "DecodingEdge",
    "LegacyUnionFindDecoder",
    "MatchingGraph",
    "MWPMDecoder",
    "SyndromeDecoder",
    "TIER_NAMES",
    "UnionFindDecoder",
]

DECODERS = {
    "mwpm": MWPMDecoder,
    "unionfind": UnionFindDecoder,
}


def make_decoder(name: str, graph: MatchingGraph) -> SyndromeDecoder:
    """Instantiate a decoder by name (``"mwpm"`` or ``"unionfind"``)."""
    try:
        cls = DECODERS[name]
    except KeyError:
        raise ValueError(f"unknown decoder {name!r}; options: {sorted(DECODERS)}")
    return cls(graph)
