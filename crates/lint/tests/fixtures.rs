//! Per-rule fixture corpus.
//!
//! Each file under `tests/fixtures/` poses as a workspace source file (the
//! driver supplies the pretend path, which decides crate context) and must
//! fire its rule an exact number of times while demonstrating one suppressed
//! occurrence.  These are the regression tests for the analyzer itself: a
//! matcher that silently stops firing breaks here, not in production review.

use juliqaoa_lint::{analyze_source, FileReport};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn rules(report: &FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn r1_fires_on_wallclock_and_entropy_in_determinism_crates() {
    let r = analyze_source("crates/core/src/fixture.rs", &fixture("r1_wallclock.rs"));
    assert_eq!(rules(&r), vec!["R1", "R1", "R1"], "{:#?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn r1_is_scoped_to_determinism_crates() {
    // The same source posed inside the service crate is out of R1's scope.
    let r = analyze_source("crates/service/src/fixture.rs", &fixture("r1_wallclock.rs"));
    assert!(
        !rules(&r).contains(&"R1"),
        "R1 fired outside a determinism crate: {:#?}",
        r.findings
    );
}

#[test]
fn r2_fires_on_partial_cmp_unwrap_chains() {
    let r = analyze_source("crates/optim/src/fixture.rs", &fixture("r2_float_cmp.rs"));
    assert_eq!(rules(&r), vec!["R2", "R2"], "{:#?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn r3_fires_on_service_panics_but_exempts_poisoning() {
    let r = analyze_source(
        "crates/service/src/fixture.rs",
        &fixture("r3_panic_paths.rs"),
    );
    assert_eq!(rules(&r), vec!["R3", "R3"], "{:#?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn r3_is_scoped_to_the_service_crate() {
    let r = analyze_source("crates/optim/src/fixture.rs", &fixture("r3_panic_paths.rs"));
    assert!(
        !rules(&r).contains(&"R3"),
        "R3 fired outside crates/service: {:#?}",
        r.findings
    );
}

#[test]
fn r4_fires_on_bare_relaxed_and_honours_justifications() {
    let r = analyze_source("crates/telemetry/src/fixture.rs", &fixture("r4_relaxed.rs"));
    assert_eq!(rules(&r), vec!["R4"], "{:#?}", r.findings);
    assert_eq!(
        r.suppressed, 0,
        "R4 uses // relaxed: comments, not lint:allow"
    );
}

#[test]
fn r5_flags_both_edges_of_a_lock_order_cycle() {
    let r = analyze_source(
        "crates/service/src/fixture.rs",
        &fixture("r5_lock_order.rs"),
    );
    assert_eq!(rules(&r), vec!["R5", "R5"], "{:#?}", r.findings);
    // The .lock().unwrap() calls are the poisoning policy — no R3 noise.
    assert!(r.findings.iter().all(|f| f.rule == "R5"));
}

#[test]
fn r6_fires_on_illegal_metric_name_literals() {
    let r = analyze_source(
        "crates/telemetry/src/fixture.rs",
        &fixture("r6_metric_names.rs"),
    );
    assert_eq!(rules(&r), vec!["R6", "R6", "R6"], "{:#?}", r.findings);
    assert!(
        r.findings[2].message.contains("fixture_misses2"),
        "{:#?}",
        r.findings
    );
    assert_eq!(r.suppressed, 2);
}

#[test]
fn r7_fires_on_seed_arithmetic_outside_seeding() {
    let r = analyze_source("crates/core/src/fixture.rs", &fixture("r7_seed_arith.rs"));
    assert_eq!(rules(&r), vec!["R7", "R7"], "{:#?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn r7_exempts_the_frozen_seeding_module() {
    let r = analyze_source(
        "crates/combinatorics/src/seeding.rs",
        &fixture("r7_seed_arith.rs"),
    );
    assert!(
        !rules(&r).contains(&"R7"),
        "R7 fired inside seeding.rs itself: {:#?}",
        r.findings
    );
}

#[test]
fn r8_fires_on_handrolled_http_and_raw_socket_writes() {
    let r = analyze_source(
        "crates/service/src/fixture.rs",
        &fixture("r8_http_responses.rs"),
    );
    assert_eq!(rules(&r), vec!["R8", "R8", "R8"], "{:#?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn r8_exempts_the_http_module_itself() {
    let r = analyze_source(
        "crates/service/src/http.rs",
        &fixture("r8_http_responses.rs"),
    );
    assert!(
        !rules(&r).contains(&"R8"),
        "R8 fired inside its sanctioned home http.rs: {:#?}",
        r.findings
    );
}

#[test]
fn findings_carry_rustc_style_renderings() {
    let r = analyze_source("crates/optim/src/fixture.rs", &fixture("r2_float_cmp.rs"));
    let first = &r.findings[0];
    let rendered = first.render();
    assert!(
        rendered.starts_with(&format!(
            "crates/optim/src/fixture.rs:{}: rule[R2]: ",
            first.line
        )),
        "unexpected rendering {rendered:?}"
    );
}
