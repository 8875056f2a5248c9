//! The job wire format, pinned byte for byte.
//!
//! Each line of `contract/wire_specs.txt` is `trace_hex<TAB>canonical spec JSON`.
//! The canonical JSON is what the router forwards to backends and what every
//! tier folds into a job's trace id, so a spec must re-serialise to exactly
//! these bytes and derive exactly this trace id.  The corpus covers every
//! problem, mixer, optimizer and estimator variant, and specs with and without
//! the optional `sampling` and `timeout_ms` fields.

use juliqaoa_service::JobSpec;
use serde::Value;
use std::collections::BTreeSet;

const WIRE_SPECS: &str = include_str!("contract/wire_specs.txt");

/// The `(trace_hex, canonical_json)` pairs of the corpus.
fn corpus() -> Vec<(&'static str, &'static str)> {
    WIRE_SPECS
        .lines()
        .map(|line| line.split_once('\t').expect("trace_hex<TAB>json"))
        .collect()
}

/// The canonical JSON of the corpus spec with job id `id`.
fn canonical(id: &str) -> &'static str {
    let needle = format!("{{\"id\":{id:?},");
    corpus()
        .into_iter()
        .map(|(_, json)| json)
        .find(|json| json.starts_with(&needle))
        .unwrap_or_else(|| panic!("no corpus spec with id {id:?}"))
}

fn parse(json: &str) -> JobSpec {
    serde_json::from_str(json).unwrap_or_else(|e| panic!("{json}: {e}"))
}

/// The `"kind"` tag at `path` in a parsed JSON tree.
fn tag<'v>(tree: &'v Value, path: &[&str]) -> Option<&'v str> {
    path.iter()
        .try_fold(tree, |node, key| node.get_field(key))?
        .get_field("kind")?
        .as_str()
}

#[test]
fn every_spec_reserialises_to_its_recorded_bytes_and_trace_id() {
    for (hex, json) in corpus() {
        let spec = parse(json);
        assert_eq!(serde_json::to_string(&spec).unwrap(), json);
        assert_eq!(spec.trace_id().unwrap().to_hex(), hex, "{json}");
        let tree: Value = serde_json::from_str(json).unwrap();
        assert_eq!(
            Some(spec.problem.kind()),
            tag(&tree, &["problem"]),
            "{json}"
        );
        assert_eq!(Some(spec.mixer.kind()), tag(&tree, &["mixer"]), "{json}");
        assert_eq!(
            spec.sampling.map(|s| s.estimator.kind()),
            tag(&tree, &["sampling", "estimator"]),
            "{json}"
        );
    }
}

#[test]
fn the_corpus_covers_every_variant_and_optional_field() {
    let trees: Vec<Value> = corpus()
        .into_iter()
        .map(|(_, json)| serde_json::from_str(json).unwrap())
        .collect();
    let kinds = |path: &[&str]| -> BTreeSet<&str> {
        trees.iter().filter_map(|tree| tag(tree, path)).collect()
    };
    assert_eq!(
        kinds(&["problem"]),
        BTreeSet::from([
            "densest_k_subgraph_gnp",
            "ksat",
            "ksat_random",
            "max_k_vertex_cover_gnp",
            "maxcut",
            "maxcut_gnp",
        ])
    );
    assert_eq!(
        kinds(&["mixer"]),
        BTreeSet::from(["clique", "grover", "ring", "transverse_field"])
    );
    assert_eq!(
        kinds(&["optimizer"]),
        BTreeSet::from(["basinhopping", "gridsearch", "random_restart"])
    );
    assert_eq!(
        kinds(&["sampling", "estimator"]),
        BTreeSet::from(["cvar", "gibbs", "mean"])
    );
    for field in ["sampling", "timeout_ms"] {
        let present = trees
            .iter()
            .filter(|t| t.get_field(field).is_some())
            .count();
        assert!(present > 0 && present < trees.len(), "{field}: {present}");
    }
}

#[test]
fn alternate_inputs_parse_to_their_canonical_spec() {
    let with_fields = |id: &str, extra: &str| {
        let json = canonical(id);
        format!("{}{extra}}}", &json[..json.len() - 1])
    };
    let cases = [
        // A mixer as a bare string, as the README and CI send it.
        (
            "mc",
            canonical("mc").replace(r#"{"kind":"transverse_field"}"#, r#""transverse_field""#),
        ),
        // The mean estimator as a bare string.
        (
            "graph-mean",
            canonical("graph-mean").replace(r#"{"kind":"mean"}"#, r#""mean""#),
        ),
        ("mc", with_fields("mc", r#","sampling":null"#)),
        ("dks", with_fields("dks", r#","timeout_ms":null"#)),
        (
            "mkvc-ring",
            canonical("mkvc-ring")
                .replace(r#""timeout_ms":250"#, r#""timeout_ms":250,"sampling":null"#),
        ),
        (
            "sat",
            canonical("sat").replace(r#""density":6,"#, r#""density":6.0,"#),
        ),
        (
            "sat",
            canonical("sat").replace(r#""density":6,"#, r#""density":6e0,"#),
        ),
        // A hand-written spec: whitespace, keys out of order, optional fields absent.
        (
            "dks",
            r#"{
                "seed": 9,
                "optimizer": {"restarts": 5, "kind": "random_restart"},
                "problem": {"instance": 2, "k": 4, "n": 8, "kind": "densest_k_subgraph_gnp"},
                "p": 1,
                "mixer": "clique",
                "id": "dks"
            }"#
            .to_string(),
        ),
    ];
    for (id, alternate) in cases {
        let json = canonical(id);
        assert_ne!(
            alternate, json,
            "the alternate must differ from the canonical form"
        );
        let spec = parse(&alternate);
        assert_eq!(spec, parse(json), "{alternate}");
        assert_eq!(serde_json::to_string(&spec).unwrap(), json);
    }
}

#[test]
fn malformed_inputs_are_rejected_naming_the_bad_value() {
    let (mc, sat) = (canonical("mc"), canonical("sat"));
    let cases = [
        (
            mc.replace(r#""kind":"maxcut_gnp""#, r#""kind":"tsp""#),
            "tsp",
        ),
        (
            mc.replace(r#""kind":"basinhopping""#, r#""kind":"adam""#),
            "adam",
        ),
        (mc.replace(r#","instance":0"#, ""), "instance"),
        (sat.replace(r#","resolution":12"#, ""), "resolution"),
        (sat.replace(r#","alpha":0.2"#, ""), "alpha"),
        // A bare string may only name a variant that carries no data.
        (
            sat.replace(r#"{"kind":"cvar","alpha":0.2}"#, r#""cvar""#),
            "cvar",
        ),
    ];
    for (json, named) in cases {
        assert!(json != mc && json != sat, "the case must edit the spec");
        let err = serde_json::from_str::<JobSpec>(&json)
            .expect_err(&json)
            .to_string();
        assert!(err.contains(named), "{json}: {err}");
    }
}
