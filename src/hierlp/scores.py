"""Pure similarity scores over neighbor sets.

All functions are side-effect-free and operate on plain sets of vertex
ids, so the exhaustive engine (path accumulation) and the brute-force
oracle (direct set evaluation) can be checked against the same
arithmetic. The logarithm base defaults to the natural log and is a
configuration knob: changing it rescales AA uniformly (rank-preserving)
but shifts the proportional/accumulative balance of the log-weighted
hierarchical scores, so it is explicit and reported.
"""

import math
import re
from dataclasses import dataclass
from enum import Enum

from .graph import _ascii_float


class ScoreConsistencyError(RuntimeError):
    """A neighbor-set input contradicts the simple-graph invariants."""


class ScoreKind(Enum):
    CN = "cn"
    AA = "aa"
    RA = "ra"
    JACCARD = "jaccard"
    DED = "ded"
    IND = "ind"
    INF = "inf"
    INF_LOG = "inf_log"
    INF_LOG_KD = "inf_log_kd"


#: Kinds evaluated on the undirected union view Gamma(x); the rest
#: consume directed out/in neighborhoods.
UNDIRECTED_KINDS = frozenset(
    {ScoreKind.CN, ScoreKind.AA, ScoreKind.RA, ScoreKind.JACCARD}
)

INF_FAMILY = frozenset({ScoreKind.INF, ScoreKind.INF_LOG, ScoreKind.INF_LOG_KD})


def log_in_base(value, base=math.e):
    """log of value in the configured base; scalar, bit-stable."""
    if base == math.e:
        return math.log(value)
    return math.log(value) / math.log(base)


@dataclass(frozen=True)
class ScoreSpec:
    """Which score to compute plus its parameters."""

    kind: ScoreKind
    k: float = 2.0
    log_base: float = math.e

    def __post_init__(self):
        if not isinstance(self.kind, ScoreKind):
            object.__setattr__(self, "kind", ScoreKind(self.kind))
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError(f"k must be positive and finite, got {self.k}")
        if not (self.log_base > 1 and math.isfinite(self.log_base)):
            raise ValueError(f"log_base must be finite and > 1, got {self.log_base}")

    def token(self):
        """Canonical serialized form, e.g. "cn" or "inf_log_kd(k=2)": k is
        written as its repr without a trailing ".0", so that ``parse``
        reads the token back to this spec for every finite k > 0."""
        if self.kind is ScoreKind.INF_LOG_KD:
            return f"inf_log_kd(k={repr(float(self.k)).removesuffix('.0')})"
        return self.kind.value

    @classmethod
    def parse(cls, text, log_base=math.e, k=2.0):
        """The one reader of a score token, in any case, e.g. "ra",
        "inf_log_kd" or "inf_log_kd(k=1.5)". A k in the token wins and is
        an ASCII numeral, as every number of an artifact is
        (``graph._ascii_float``); a bare "inf_log_kd" takes ``k``; every
        other kind keeps the default k. Raises ValueError for any other
        token and for a parameter that ``ScoreSpec`` refuses."""
        text = text.strip().lower()
        m = re.fullmatch(r"inf_log_kd(?:\(k=([^)]+)\))?", text)
        if m:
            return cls(ScoreKind.INF_LOG_KD, k=k if m[1] is None else _ascii_float(m[1]), log_base=log_base)
        try:
            kind = ScoreKind(text)
        except ValueError:
            raise ValueError(f"unknown score token {text!r}") from None
        return cls(kind, log_base=log_base)


def common_neighbors(gamma_x, gamma_y):
    """|Gamma(x) n Gamma(y)| as a plain integer."""
    return len(_as_set(gamma_x) & _as_set(gamma_y))


def adamic_adar(common, degree_of, log_base=math.e):
    """Sum of 1/log(degree) over the shared neighbors.

    Every shared neighbor of two distinct vertices has degree >= 2 on a
    simple graph; a smaller degree means the graph is corrupted.
    """
    total = 0.0
    for z in sorted(common):
        d = degree_of(z)
        if d < 2:
            raise ScoreConsistencyError(
                f"common neighbor {z} has degree {d} < 2; graph is inconsistent"
            )
        total += 1.0 / log_in_base(d, log_base)
    return total


def resource_allocation(common, degree_of):
    """Sum of 1/degree over the shared neighbors (even resource split)."""
    total = 0.0
    for z in sorted(common):
        d = degree_of(z)
        if d < 2:
            raise ScoreConsistencyError(
                f"common neighbor {z} has degree {d} < 2; graph is inconsistent"
            )
        total += 1.0 / d
    return total


def jaccard(gamma_x, gamma_y):
    """Intersection over union of the two neighborhoods; 0 if both empty."""
    gx, gy = _as_set(gamma_x), _as_set(gamma_y)
    inter = len(gx & gy)
    union = len(gx) + len(gy) - inter
    if union == 0:
        return 0.0
    return inter / union


def ded(a_x, d_y, weighting="proportional", log_base=math.e):
    """Top-down evidence: overlap of x's out-set with y's in-set.

    proportional: |A(x) n D(y)| / |A(x)|, 0 when A(x) is empty.
    log-weighted: the proportion times log|A(x)| (exactly 0 at |A(x)|=1).
    """
    a_x = _as_set(a_x)
    a = len(a_x)
    if a == 0:
        return 0.0
    prop = len(a_x & _as_set(d_y)) / a
    if weighting == "proportional":
        return prop
    if weighting == "log-weighted":
        return prop * log_in_base(a, log_base)
    raise ValueError(f"unknown weighting {weighting!r}")


def ind(d_x, d_y, weighting="proportional", log_base=math.e):
    """Bottom-up evidence: overlap of the two in-sets, normalized by |D(x)|."""
    return ded(d_x, d_y, weighting=weighting, log_base=log_base)


def inf_family(a_x, d_x, d_y, spec):
    """Combined directional score s(x->y) for the INF variants."""
    if spec.kind is ScoreKind.INF:
        return (
            ded(a_x, d_y, "proportional")
            + ind(d_x, d_y, "proportional")
        )
    if spec.kind is ScoreKind.INF_LOG:
        return (
            ded(a_x, d_y, "log-weighted", spec.log_base)
            + ind(d_x, d_y, "log-weighted", spec.log_base)
        )
    if spec.kind is ScoreKind.INF_LOG_KD:
        return (
            spec.k * ded(a_x, d_y, "log-weighted", spec.log_base)
            + ind(d_x, d_y, "log-weighted", spec.log_base)
        )
    raise ValueError(f"{spec.kind} is not an INF-family kind")


def _as_set(vertices):
    if isinstance(vertices, (set, frozenset)):
        return vertices
    return set(int(v) for v in vertices)
