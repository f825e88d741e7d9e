package core

import "repro/internal/telemetry"

// Option configures a Detector at construction. Tuning goes through
// WithConfig; the other options install collaborators (telemetry, the
// check pipeline).
type Option func(*detOptions)

type detOptions struct {
	cfg    Config
	tel    *telemetry.Registry
	checks []Check
}

// WithConfig replaces the whole detector configuration.
func WithConfig(cfg Config) Option {
	return func(o *detOptions) { o.cfg = cfg }
}

// WithChecks replaces the detection pipeline. Checks run in the given order
// on every non-episode window and the first Finding wins, so callers
// reorder, drop, or extend DefaultChecks to reshape detection; dropping the
// CheckTiming stage gives a structural-only detector.
func WithChecks(checks ...Check) Option {
	return func(o *detOptions) { o.checks = checks }
}

// WithTelemetry instruments the detector against the registry: scan
// outcomes and latency, violations by cause, and identification episode
// shape. A nil registry leaves the detector uninstrumented (every
// instrument is nil-safe, so this is free on the hot path).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *detOptions) { o.tel = reg }
}

// New builds a detector over a trained context with functional options.
func New(ctx *Context, opts ...Option) (*Detector, error) {
	var o detOptions
	for _, opt := range opts {
		opt(&o)
	}
	return newDetector(ctx, o)
}

// Detector-stage metric names, shared by the gateway's /metrics endpoint
// and dice-eval's BENCH_eval.json dump. Scan metrics split the exact-hash
// short-circuit from bucketed scans; identification metrics capture the
// episode shape the paper's Fig 5.2/latency discussion is about.
const (
	metricWindows      = "dice_detector_windows_total"
	metricScanExact    = "dice_scan_exact_hit_total"
	metricScanBucket   = "dice_scan_bucket_scan_total"
	metricScanSeconds  = "dice_scan_seconds"
	metricScanDistance = "dice_scan_min_distance"
	metricViolations   = "dice_violations_total"
	metricEpisodes     = "dice_identify_episodes_total"
	metricEpisodeLen   = "dice_identify_episode_windows"
	metricSuspects     = "dice_identify_suspects_at_close"
	metricNamed        = "dice_identify_devices_named_total"

	metricTimingChecked = "dice_det_timing_checked_total"
	metricTimingFlagged = "dice_det_timing_flagged_total"
	metricTimingGap     = "dice_det_timing_gap_windows"

	metricEpisodesOpen  = "dice_det_episodes_open"
	metricAlertsTotal   = "dice_det_alerts_total"
	metricConcurrentEps = "dice_det_concurrent_episodes_total"
)

// timingEdges are the label values of the timing-flag vector, indexed in
// the same order as timingEdgeIndex resolves.
var timingEdges = []string{"g2g", "g2a", "a2g"}

func timingEdgeIndex(edge string) int {
	switch edge {
	case "g2g":
		return 0
	case "g2a":
		return 1
	case "a2g":
		return 2
	default:
		return -1
	}
}

// detMetrics holds the detector's instruments. The zero value (all nil)
// is a valid "telemetry disabled" state: every instrument method is
// nil-safe, and the violations vector is guarded at its one index site.
type detMetrics struct {
	windows      *telemetry.Counter
	scanExact    *telemetry.Counter
	scanBucket   *telemetry.Counter
	scanSeconds  *telemetry.Histogram
	scanDistance *telemetry.Histogram
	violations   []*telemetry.Counter // indexed by int(cause) - 1
	episodes     *telemetry.Counter
	episodeLen   *telemetry.Histogram
	suspects     *telemetry.Histogram
	named        *telemetry.Counter

	timingChecked *telemetry.Counter
	timingFlagged []*telemetry.Counter // indexed by timingEdgeIndex
	timingGap     *telemetry.Histogram

	episodesOpen  *telemetry.Gauge
	alerts        []*telemetry.Counter // indexed by int(cause) - 1
	concurrentEps *telemetry.Counter
}

func newDetMetrics(reg *telemetry.Registry) detMetrics {
	if reg == nil {
		return detMetrics{}
	}
	return detMetrics{
		windows:      reg.Counter(metricWindows, "Windows processed by the real-time detector."),
		scanExact:    reg.Counter(metricScanExact, "Correlation scans resolved by the exact-hash short-circuit."),
		scanBucket:   reg.Counter(metricScanBucket, "Correlation scans that walked the popcount buckets (no exact match)."),
		scanSeconds:  reg.Histogram(metricScanSeconds, "Correlation scan latency in seconds, observed on one window in 64 (window index a multiple of 64).", telemetry.ExpBuckets(1e-7, 4, 10)),
		scanDistance: reg.Histogram(metricScanDistance, "Hamming distance to the nearest group on non-exact scans.", telemetry.LinearBuckets(1, 1, 8)),
		violations:   reg.CounterVec(metricViolations, "Detected violations by cause.", "cause", CauseNames()),
		episodes:     reg.Counter(metricEpisodes, "Identification episodes concluded."),
		episodeLen:   reg.Histogram(metricEpisodeLen, "Identification episode length in windows.", telemetry.ExpBuckets(1, 2, 10)),
		suspects:     reg.Histogram(metricSuspects, "Probable-set size when an episode closed.", telemetry.LinearBuckets(1, 1, 8)),
		named:        reg.Counter(metricNamed, "Devices named by concluded alerts."),

		timingChecked: reg.Counter(metricTimingChecked, "Structurally clean windows the timing check evaluated."),
		timingFlagged: reg.CounterVec(metricTimingFlagged, "Out-of-band gaps flagged by the timing check, by edge family.", "edge", timingEdges),
		timingGap:     reg.Histogram(metricTimingGap, "Observed gap in windows on flagged timing violations.", telemetry.ExpBuckets(1, 2, 12)),

		episodesOpen:  reg.Gauge(metricEpisodesOpen, "Identification episodes currently in flight."),
		alerts:        reg.CounterVec(metricAlertsTotal, "Alerts emitted by concluded episodes, by cause.", "cause", CauseNames()),
		concurrentEps: reg.Counter(metricConcurrentEps, "Episodes opened while another episode was already in flight (multi-fault splits)."),
	}
}

// timingFlag counts one timing flag by edge family.
func (m *detMetrics) timingFlag(edge string) {
	if m.timingFlagged == nil {
		return
	}
	if i := timingEdgeIndex(edge); i >= 0 && i < len(m.timingFlagged) {
		m.timingFlagged[i].Inc()
	}
}

// violation counts one detected violation by cause.
func (m *detMetrics) violation(cause CheckKind) {
	if m.violations == nil || cause == CheckNone {
		return
	}
	if i := int(cause) - 1; i >= 0 && i < len(m.violations) {
		m.violations[i].Inc()
	}
}

// alert counts one emitted alert by cause.
func (m *detMetrics) alert(cause CheckKind) {
	if m.alerts == nil || cause == CheckNone {
		return
	}
	if i := int(cause) - 1; i >= 0 && i < len(m.alerts) {
		m.alerts[i].Inc()
	}
}
