"""Alignment applications: SW (scalar + SIMD), BLAST, FASTA."""

from repro.align.banded import banded_sw_score
from repro.align.batch import (
    ALGORITHMS,
    SearchParams,
    make_engine,
    merge_shards,
    scan_shard,
    search_one,
)
from repro.align.blast.engine import BlastEngine, BlastOptions, blast_search
from repro.align.fasta.engine import FastaEngine, FastaOptions, fasta_search
from repro.align.msa import MultipleAlignment, star_msa
from repro.align.needleman_wunsch import needleman_wunsch, nw_score
from repro.align.report import format_alignments, format_hit_list, format_tabular
from repro.align.statistics import (
    GumbelFit,
    empirical_lambda,
    empirical_score_survey,
    fit_gumbel,
)
from repro.align.simd.sw_vmx import (
    sw_score_columns,
    sw_score_vmx,
    sw_score_vmx128,
    sw_score_vmx256,
)
from repro.align.smith_waterman import smith_waterman, sw_score, sw_score_swat
from repro.align.ssearch import (
    SsearchEngine,
    SsearchOptions,
    format_report,
    search as ssearch,
)
from repro.align.types import (
    AlignmentResult,
    GapPenalties,
    PAPER_GAPS,
    SearchHit,
    SearchResult,
    ShardScan,
)

__all__ = [
    "ALGORITHMS",
    "SearchParams",
    "make_engine",
    "merge_shards",
    "scan_shard",
    "search_one",
    "banded_sw_score",
    "BlastEngine",
    "BlastOptions",
    "blast_search",
    "FastaEngine",
    "FastaOptions",
    "fasta_search",
    "MultipleAlignment",
    "star_msa",
    "needleman_wunsch",
    "format_alignments",
    "format_hit_list",
    "format_tabular",
    "GumbelFit",
    "empirical_lambda",
    "empirical_score_survey",
    "fit_gumbel",
    "nw_score",
    "sw_score_columns",
    "sw_score_vmx",
    "sw_score_vmx128",
    "sw_score_vmx256",
    "smith_waterman",
    "sw_score",
    "sw_score_swat",
    "SsearchEngine",
    "SsearchOptions",
    "format_report",
    "ssearch",
    "AlignmentResult",
    "GapPenalties",
    "PAPER_GAPS",
    "SearchHit",
    "SearchResult",
    "ShardScan",
]
