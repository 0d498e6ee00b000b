"""Analysis pipeline: from observed records to the paper's results.

Consumes only the :class:`~repro.core.records.ObservedDataset` the
monitoring infrastructure produced (plus external IP-reputation data),
mirroring the authors' vantage point.  Sub-modules map 1:1 onto the
paper's Section 4:

* ``accesses`` — cleaning and cookie-based unique-access extraction;
* ``taxonomy`` — the curious / gold-digger / spammer / hijacker labels;
* ``durations`` — access lengths and leak-to-access delays (Figs 1, 3, 4);
* ``geodist`` — distance-from-midpoint vectors and median circles (Fig 5);
* ``cvm`` — the two-sample Cramér-von Mises test (Section 4.5);
* ``tfidf`` / ``keywords`` — the searched-words inference (Table 2);
* ``report`` / ``figures`` — assembled tables and figure series.
"""

from repro.analysis.accesses import UniqueAccess, extract_unique_accesses
from repro.analysis.cvm import CvmResult, cramer_von_mises_2samp
from repro.analysis.dataset import AnalysisResults, analyze
from repro.analysis.defense import DefenseReport, defense_report
from repro.analysis.durations import access_durations, time_to_first_access
from repro.analysis.ecdf import Ecdf
from repro.analysis.geodist import MedianCircle, distance_vectors, median_circles
from repro.analysis.keywords import KeywordInference, infer_searched_words
from repro.analysis.taxonomy import (
    PERSONA_OTHER_BUCKET,
    PersonaGroundTruthReport,
    PersonaLabelMetrics,
    TaxonomyLabel,
    classify_accesses,
    persona_ground_truth_report,
    persona_signature_table,
)
from repro.analysis.tfidf import TfidfTable, compute_tfidf_table

__all__ = [
    "AnalysisResults",
    "CvmResult",
    "DefenseReport",
    "Ecdf",
    "KeywordInference",
    "MedianCircle",
    "PERSONA_OTHER_BUCKET",
    "PersonaGroundTruthReport",
    "PersonaLabelMetrics",
    "TaxonomyLabel",
    "TfidfTable",
    "UniqueAccess",
    "access_durations",
    "analyze",
    "classify_accesses",
    "compute_tfidf_table",
    "cramer_von_mises_2samp",
    "defense_report",
    "distance_vectors",
    "extract_unique_accesses",
    "infer_searched_words",
    "median_circles",
    "persona_ground_truth_report",
    "persona_signature_table",
    "time_to_first_access",
]
