// R6 fixture — metric-name literals passed to PromWriter sinks, and the name
// literals of metric declarations, must match [a-z_]+ (the frozen exposition
// contract CI greps).

pub fn emit(w: &mut PromWriter) {
    w.counter("jobs_executed_total", "Jobs executed.", 1); // clean
    w.counter("jobs2_total", "Illegal digit.", 1); // fires
    w.gauge("Queue-Depth", "Illegal caps and dash.", 0); // fires
    // lint:allow(R6, fixture demonstrating a suppressed illegal name)
    w.gauge_f64("uptime_s2", "Illegal digit, suppressed.", 0.0);
}

juliqaoa_telemetry::counter_set! {
    /// Counters of the fixture.
    pub struct FixtureCounters;
    #[derive(Clone, Copy, Debug, Default)]
    pub struct FixtureSnapshot;
    hits: "fixture_hits", "Clean name.";
    misses: "fixture_misses2", "Illegal digit in a declaration."; // fires
}

juliqaoa_telemetry::histogram_set! {
    /// Histograms of the fixture.
    pub struct FixtureLatency;
    stage_ms: "fixture_stage_ms", "Clean name.";
    // lint:allow(R6, fixture demonstrating a suppressed illegal declaration)
    other_ms: "fixture_stage2_ms", "Illegal digit, suppressed.";
}
