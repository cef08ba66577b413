//! The benchmark's own tests: a smoke-size run of every workload emits
//! every named metric with a unit and passes every check, and a tampered
//! report or serve body is counted as a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build simulates slowly).

use std::collections::BTreeMap;
use std::path::PathBuf;

use pom_tlb::{Scheme, SimReport};
use pomtlb_perfbench::checks::{
    body_digest, check_reports, parse_reply, reports_digest, BodyLedger, Checks, Reply,
};
use pomtlb_perfbench::{run, Options, Workload, END_TO_END, PER_LAYER};
use pomtlb_serve::{ServeConfig, Service};
use serde_json::Value;

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn smoke(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        smoke: true,
        cores: 2,
        work_dir: work_dir(&format!("{}-{trace}", workload.name())),
    }
}

/// Parses the result line into `name -> (value, unit)`, checking its keys.
fn parse_result(line: &str) -> (bool, u64, u64, BTreeMap<String, (f64, String)>) {
    let v: Value = serde_json::from_str(line).expect("the result line is JSON");
    let Value::Object(fields) = &v else {
        panic!("the result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Value::Object(entries) = &v["metrics"] else {
        panic!("metrics is not an object")
    };
    let metrics = entries
        .iter()
        .map(|(k, m)| {
            let value = m["value"].as_f64().expect("a numeric value");
            let unit = m["unit"].as_str().expect("a unit").to_string();
            (k.clone(), (value, unit))
        })
        .collect();
    (
        v["correct"].as_bool().expect("correct is a bool"),
        v["attempted"].as_u64().expect("attempted is a count"),
        v["failed"].as_u64().expect("failed is a count"),
        metrics,
    )
}

fn assert_complete(workload: Workload, trace: bool) {
    let opts = smoke(workload, trace);
    let mut outcome = run(&opts);
    let catalog: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for name in outcome.metrics.names() {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "{name} is measured but not in the catalog"
        );
    }
    let line = outcome.result_line(trace);
    let (correct, attempted, failed, metrics) = parse_result(&line);
    assert!(
        correct && failed == 0,
        "{}: {:?}",
        workload.name(),
        outcome.checks.failures
    );
    assert!(attempted > 0);
    assert_eq!(metrics.len(), catalog.len());
    for (name, unit) in catalog {
        let (value, got_unit) = &metrics[*name];
        assert_eq!(got_unit, unit, "{name}");
        assert!(value.is_finite(), "{name}");
        if !trace {
            assert!(
                *value > 0.0,
                "{}: end-to-end metric {name} is 0",
                workload.name()
            );
        }
    }
    assert!(outcome
        .notes
        .iter()
        .any(|n| n.starts_with("report_digest ")));
    let _ = std::fs::remove_dir_all(&opts.work_dir);
}

#[test]
fn sweep_smoke() {
    assert_complete(Workload::Sweep, false);
}

#[test]
fn sweep_smoke_traced() {
    assert_complete(Workload::Sweep, true);
}

#[test]
fn serve_mix_smoke_both() {
    assert_complete(Workload::ServeMix, false);
    assert_complete(Workload::ServeMix, true);
}

#[test]
fn traced_runs_confirm_the_design() {
    let mut outcome = run(&smoke(Workload::Sweep, true));
    let get = |name: &str| outcome.metrics.get(name).expect(name);
    assert_eq!(get("part.setup.shootdown_events"), 0.0);
    assert_eq!(get("part.steady.shootdown_events"), 0.0);
    assert!(get("part.churn.shootdown_events") > 0.0);
    assert_eq!(get("shootdown.events"), get("part.churn.shootdown_events"));
    assert!(get("shootdown.os_event_us") > 0.0);
    assert!(get("page_table.pages_mapped") > 0.0);
    assert!(get("tenancy.dispersion") > 0.0);
    assert!(get("tracing.overhead") > 0.0);
    outcome.result_line(true);
    assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.failures);
    let serve = run(&smoke(Workload::ServeMix, true));
    for tier in [
        "serve.hot",
        "serve.memoized",
        "serve.computed",
        "serve.coalesced",
    ] {
        assert!(
            serve.metrics.get(tier).unwrap() > 0.0,
            "{tier} never answered"
        );
    }
}

/// A consistent report: every L2 TLB miss resolved at exactly one place.
fn report() -> SimReport {
    let mut r = SimReport::placeholder(Scheme::pom_tlb(), "w", 2);
    r.refs = 1_000;
    r.l2_tlb_misses = 60;
    r.page_walks = 10;
    r.resolved_l2d = 20;
    r.resolved_l3d = 25;
    r.resolved_pom_dram = 5;
    r
}

#[test]
fn a_tampered_report_is_counted_as_a_failure() {
    let mut checks = Checks::default();
    check_reports(&mut checks, &[report()]);
    assert_eq!((checks.attempted, checks.failed), (1, 0));

    let mut tampered = report();
    tampered.resolved_l3d += 1;
    check_reports(&mut checks, &[tampered.clone()]);
    assert_eq!((checks.attempted, checks.failed), (2, 1));

    // A change that keeps the identity still moves the digest.
    tampered.resolved_l3d -= 1;
    tampered.walker.walks += 1;
    assert_ne!(reports_digest(&[report()]), reports_digest(&[tampered]));
}

#[test]
fn a_tampered_serve_body_is_counted_as_a_failure() {
    let dir = work_dir("tamper-serve");
    let _ = std::fs::remove_dir_all(&dir);
    let mut service = Service::new(ServeConfig {
        report_dir: Some(dir.clone()),
        jobs: 1,
        ..ServeConfig::default()
    })
    .expect("service opens");
    let line = r#"{"id":"t","kind":"sim","workload":"astar","cores":2,"refs":300,"warmup":100}"#;
    let first = service.handle_line(line).expect("a reply");
    let again = service.handle_line(line).expect("a reply");
    let (
        Reply::Ok {
            provenance: p1,
            body: b1,
        },
        Reply::Ok {
            provenance: p2,
            body: b2,
        },
    ) = (parse_reply(&first), parse_reply(&again))
    else {
        panic!("requests were refused: {first} / {again}");
    };
    assert_eq!((p1, p2), ("computed", "hot"));
    let digest = body_digest(b1).expect("the body names its digest");

    let mut checks = Checks::default();
    let mut ledger = BodyLedger::default();
    checks.record(ledger.admit(digest, b1), || "first".into());
    checks.record(ledger.admit(digest, b2), || "hot".into());
    assert_eq!(checks.failed, 0);

    let tampered = b2.replacen("\"refs\":", "\"refs\":1", 1);
    assert_ne!(tampered, b2);
    checks.record(ledger.admit(digest, &tampered), || "tampered".into());
    assert_eq!((checks.attempted, checks.failed), (3, 1));
    let _ = std::fs::remove_dir_all(&dir);
}
