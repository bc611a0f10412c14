"""Limit-cycle detection over recorded queue timelines.

The D2TCP-II analysis (PAPERS.md) shows that the TCP/AQM control loop
does not merely "perform worse" past its stability boundary — it
bifurcates into sustained queue oscillation. This module is the detector
side of the repo's stability observatory: it consumes the per-queue
depth series a run already records (queue monitors / the telemetry
:class:`~repro.telemetry.recorders.QueueTimelineRecorder`) as a **pure
observer** and classifies each queue, and the cell overall, into one of
three regimes:

``stable``
    The queue settles: fluctuation is small relative to (and in absolute
    packets around) its operating point. Covers both the empty-queue and
    the held-at-threshold (DCTCP at K) cases.
``limit-cycle``
    Sustained periodic oscillation: spectral power concentrated at one
    frequency *and* the series actually repeats at that period
    (autocorrelation at one period-lag stays high). The classic ECN/RED
    sawtooth.
``chaotic-irregular``
    Large-amplitude fluctuation with no coherent period — the
    desynchronized / aperiodic regime (e.g. several NewReno flows
    tail-dropping out of phase in a deep buffer).

Everything is a deterministic pure function of the recorded samples, so
an armed run is bit-identical to an unarmed one and repeated analyses of
the same run produce byte-identical ``manifest["stability"]`` blocks
(enforced by ``repro smoke stability``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.signal import (
    DominantPeriod,
    detrend,
    dominant_period,
    oscillation_amplitude,
    resample_uniform,
    synchronization_score,
)

__all__ = [
    "STABILITY_SCHEMA",
    "CLASS_STABLE",
    "CLASS_LIMIT_CYCLE",
    "CLASS_IRREGULAR",
    "SeriesEvidence",
    "StabilityReport",
    "StabilityAnalysis",
    "classify_series",
    "snapshots_by_queue",
]

STABILITY_SCHEMA = "repro.stability/v1"

CLASS_STABLE = "stable"
CLASS_LIMIT_CYCLE = "limit-cycle"
CLASS_IRREGULAR = "chaotic-irregular"

#: Severity order for aggregating per-queue verdicts into a cell verdict.
_SEVERITY = {CLASS_STABLE: 0, CLASS_IRREGULAR: 1, CLASS_LIMIT_CYCLE: 2}

#: Classification thresholds, calibrated on the steady-state probe cells
#: (see tests/test_stability.py): a NewReno+ECN marking-queue sawtooth
#: shows peak ratios of 10^3..10^5 with acf(T) > 0.5, DCTCP held at an
#: adequate K shows relative amplitude ~0.1, and desynchronized deep-
#: buffer DropTail shows a drifting spectral peak with acf(T) ~ 0.
MIN_SAMPLES = 32          #: below this, classify stable at low confidence
REL_AMP_STABLE = 0.15     #: amplitude/operating-point below => stable
ABS_AMP_STABLE = 0.75     #: amplitude below this many packets => stable
PEAK_RATIO_LC = 50.0      #: spectral peak/median power for a limit cycle
ACF_LC = 0.3              #: self-similarity at one period for a limit cycle

#: Fraction of each series discarded as start-up transient before
#: classification (slow-start ramp, empty-queue warm-up).
TRANSIENT_FRACTION = 0.2

#: Points kept in the evidence profile embedded in the report.
PROFILE_POINTS = 64


def _round(x: float, digits: int = 6) -> float:
    """JSON-friendly rounding; keeps blocks readable and deterministic."""
    return round(float(x), digits)


@dataclass(frozen=True)
class SeriesEvidence:
    """Classification of one queue's depth series, with its evidence."""

    name: str
    classification: str
    confidence: float
    n_samples: int
    mean: float
    amplitude: float          #: robust oscillation amplitude (packets)
    rel_amplitude: float      #: amplitude / operating point
    period_s: Optional[float]       #: dominant period (None: no spectrum)
    peak_ratio: Optional[float]     #: spectral peak / median power
    acf_at_period: Optional[float]  #: autocorrelation at one period-lag
    #: Down-sampled depth profile (time, packets) — the evidence series a
    #: human (or the regime-map renderer) can eyeball without re-running.
    profile: Tuple[Tuple[float, float], ...] = field(default=())

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "classification": self.classification,
            "confidence": self.confidence,
            "n_samples": self.n_samples,
            "mean": self.mean,
            "amplitude": self.amplitude,
            "rel_amplitude": self.rel_amplitude,
            "period_s": self.period_s,
            "peak_ratio": self.peak_ratio,
            "acf_at_period": self.acf_at_period,
            "profile": [[t, v] for t, v in self.profile],
        }


def classify_series(
    times: Sequence[float],
    values: Sequence[float],
    name: str = "",
    keep_profile: bool = False,
) -> SeriesEvidence:
    """Classify one (time, depth) series into a stability regime.

    The series is resampled onto a uniform grid (spectral estimates need
    even spacing), its leading ``TRANSIENT_FRACTION`` is discarded, and
    the decision cascades:

    1. too short / constant / small amplitude (relative *and* absolute)
       => ``stable``;
    2. spectral power concentrated at one frequency and autocorrelation
       at that period still high => ``limit-cycle``;
    3. otherwise => ``chaotic-irregular``.
    """
    t, v = resample_uniform(times, values)
    cut = int(len(v) * TRANSIENT_FRACTION)
    t, v = t[cut:], v[cut:]
    n = len(v)

    profile: Tuple[Tuple[float, float], ...] = ()
    if keep_profile and n >= 2:
        pt, pv = resample_uniform(t, v, n=min(n, PROFILE_POINTS))
        profile = tuple((_round(a), _round(b)) for a, b in zip(pt, pv))

    def evidence(cls: str, conf: float, mean: float, amp: float, rel: float,
                 period: Optional[DominantPeriod] = None) -> SeriesEvidence:
        return SeriesEvidence(
            name=name,
            classification=cls,
            confidence=_round(min(1.0, max(0.0, conf))),
            n_samples=n,
            mean=_round(mean),
            amplitude=_round(amp),
            rel_amplitude=_round(rel),
            period_s=None if period is None else _round(period.period_s, 9),
            peak_ratio=None if period is None else _round(period.peak_ratio, 2),
            acf_at_period=(None if period is None
                           else _round(period.acf_at_period)),
            profile=profile,
        )

    if n < MIN_SAMPLES:
        return evidence(CLASS_STABLE, 0.25, float(np.mean(v)) if n else 0.0,
                        0.0, 0.0)

    mean = float(np.mean(v))
    amp = oscillation_amplitude(v)
    # Operating point for the relative amplitude: the mean depth, floored
    # at one packet so a near-empty queue is judged on absolute packets.
    rel = amp / max(mean, 1.0)

    if amp < ABS_AMP_STABLE or rel < REL_AMP_STABLE:
        x = detrend(v, kind="mean")
        flat = amp < ABS_AMP_STABLE and not np.any(x)
        conf = 1.0 if flat else 1.0 - rel / (2.0 * max(REL_AMP_STABLE, 1e-9))
        return evidence(CLASS_STABLE, max(conf, 0.5), mean, amp, rel)

    dt = float(t[1] - t[0]) if len(t) >= 2 else 1.0
    period = dominant_period(v, dt=dt)
    if (period is not None
            and period.peak_ratio >= PEAK_RATIO_LC
            and period.acf_at_period >= ACF_LC):
        conf = 0.5 + period.acf_at_period / 2.0
        return evidence(CLASS_LIMIT_CYCLE, conf, mean, amp, rel, period)
    return evidence(CLASS_IRREGULAR, min(0.5 + rel / 2.0, 0.9),
                    mean, amp, rel, period)


def snapshots_by_queue(snapshots: Sequence) -> "Dict[str, Tuple[List[float], List[float]]]":
    """Split a merged snapshot list into per-queue ``(times, depths)``.

    Uses the snapshot's ``queue`` label when present; unlabeled snapshots
    (pre-existing caches, hand-built monitors) are segmented on time
    resets — :func:`~repro.experiments.runner.run_cell` concatenates the
    monitors' buffers back to back, so a backwards time step marks the
    next queue's series.
    """
    out: Dict[str, Tuple[List[float], List[float]]] = {}
    anon = 0
    last_t = float("inf")
    current: Optional[Tuple[List[float], List[float]]] = None
    for snap in snapshots:
        label = getattr(snap, "queue", "") or ""
        if label:
            series = out.get(label)
            if series is None:
                series = out[label] = ([], [])
        else:
            if snap.time < last_t or current is None:
                current = out[f"queue{anon}"] = ([], [])
                anon += 1
            series = current
            last_t = snap.time
        series[0].append(snap.time)
        series[1].append(float(snap.qlen_packets))
    return out


@dataclass
class StabilityReport:
    """Per-run stability verdict: classification + evidence per queue."""

    classification: str
    confidence: float
    dominant_queue: Optional[str]
    queues: List[SeriesEvidence]
    sync_score: Optional[float]
    counts: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        """The JSON block landed under ``manifest["stability"]``."""
        return {
            "schema": STABILITY_SCHEMA,
            "classification": self.classification,
            "confidence": self.confidence,
            "dominant_queue": self.dominant_queue,
            "counts": dict(self.counts),
            "sync_score": self.sync_score,
            "queues": [q.to_dict() for q in self.queues],
        }


class StabilityAnalysis:
    """The ``analyses=`` plug-in that lands ``manifest["stability"]``.

    Pass an instance to :func:`~repro.experiments.runner.run_cell`::

        run_cell(config, analyses=[StabilityAnalysis()])

    or apply it after the fact to any :class:`CellResult` that carries
    queue snapshots (including cache hits — snapshots round-trip through
    the result cache exactly, so a cached cell analyses to the same
    block a fresh one does)::

        cell.manifest["stability"] = StabilityAnalysis().analyze(cell)

    The analysis reads only the recorded samples; it subscribes to
    nothing and runs after the simulation finished, which is what keeps
    armed and unarmed runs bit-identical.
    """

    #: Manifest key the runner lands :meth:`analyze`'s block under.
    key = "stability"

    def __init__(self, keep_profiles: bool = True):
        self._keep_profiles = keep_profiles

    def analyze(self, cell, telemetry=None) -> Dict[str, object]:
        """Classify ``cell`` (a :class:`CellResult`); returns the block."""
        return self.report(cell).to_dict()

    def report(self, cell) -> StabilityReport:
        """Structured :class:`StabilityReport` for ``cell``."""
        per_queue = snapshots_by_queue(cell.snapshots)
        evidences: List[SeriesEvidence] = []
        for qname in sorted(per_queue):
            times, depths = per_queue[qname]
            evidences.append(classify_series(
                times, depths, name=qname,
                keep_profile=self._keep_profiles))
        return self._aggregate(evidences, per_queue)

    def _aggregate(
        self,
        evidences: List[SeriesEvidence],
        per_queue: Dict[str, Tuple[List[float], List[float]]],
    ) -> StabilityReport:
        counts = {CLASS_STABLE: 0, CLASS_LIMIT_CYCLE: 0, CLASS_IRREGULAR: 0}
        for ev in evidences:
            counts[ev.classification] += 1

        if not evidences:
            return StabilityReport(
                classification=CLASS_STABLE, confidence=0.25,
                dominant_queue=None, queues=[], sync_score=None,
                counts=counts)

        # The cell's verdict comes from the queue with the largest
        # absolute oscillation — ties broken by severity then name so the
        # aggregate is deterministic.
        dominant = max(
            evidences,
            key=lambda ev: (ev.amplitude, _SEVERITY[ev.classification],
                            ev.name),
        )

        # Synchronization across the queues that actually fluctuate,
        # resampled onto a common length so lags are comparable.
        active = [per_queue[ev.name] for ev in evidences
                  if ev.amplitude >= ABS_AMP_STABLE]
        sync = None
        if len(active) >= 2:
            n = min(min(len(t) for t, _v in active), 2048)
            resampled = [resample_uniform(t, v, n=n)[1] for t, v in active]
            sync = synchronization_score(resampled)
            if sync is not None:
                sync = _round(sync)

        return StabilityReport(
            classification=dominant.classification,
            confidence=dominant.confidence,
            dominant_queue=dominant.name,
            queues=evidences,
            sync_score=sync,
            counts=counts,
        )
