//! Output checks. A failed check is counted, never fatal: the run goes on
//! and the failure shows in the result's `failed` count.

use std::collections::BTreeMap;

use pom_tlb::SimReport;
use pomtlb_trace::digest::{digest256, digest_hex};

/// Counts attempted and failed operations and checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one attempt; a failure is described by `what`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Every L2 TLB miss is resolved at exactly one place: a page walk, the
/// POM-TLB (through the L2D$, the L3D$ or its DRAM), the shared L2 TLB
/// or the TSB.
pub fn resolution_identity_holds(r: &SimReport) -> bool {
    r.l2_tlb_misses == resolved(r)
}

fn resolved(r: &SimReport) -> u64 {
    r.page_walks
        + r.resolved_l2d
        + r.resolved_l3d
        + r.resolved_pom_dram
        + r.resolved_shared_l2
        + r.resolved_tsb
}

/// Checks each report of a batch for the resolution identity.
pub fn check_reports(checks: &mut Checks, reports: &[SimReport]) {
    for r in reports {
        checks.record(resolution_identity_holds(r), || {
            format!(
                "{}/{}: l2_tlb_misses {} != resolved {}",
                r.workload,
                r.scheme.label(),
                r.l2_tlb_misses,
                resolved(r)
            )
        });
    }
}

/// A digest of a batch's simulated statistics: every report, in batch
/// order, in its serialized form. Host timings are not in a report, so a
/// change that only speeds up the simulator leaves this unchanged.
pub fn reports_digest(reports: &[SimReport]) -> String {
    let mut bytes = Vec::new();
    for r in reports {
        let json = serde_json::to_string(r).expect("a report serializes");
        bytes.extend_from_slice(json.as_bytes());
        bytes.push(b'\n');
    }
    digest_hex(&digest256(&bytes))
}

/// The response bodies seen per request digest. Every tier must answer a
/// digest with the same bytes.
#[derive(Debug, Default)]
pub struct BodyLedger {
    bodies: BTreeMap<String, String>,
}

impl BodyLedger {
    /// Records `body` as the answer for `digest`; false when an earlier
    /// answer for the same digest differs.
    pub fn admit(&mut self, digest: &str, body: &str) -> bool {
        match self.bodies.get(digest) {
            Some(seen) => seen == body,
            None => {
                self.bodies.insert(digest.to_string(), body.to_string());
                true
            }
        }
    }

    /// Distinct digests seen.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether no body was recorded.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// A digest over every (request digest, body) pair, in digest order.
    pub fn digest(&self) -> String {
        let mut bytes = Vec::new();
        for (d, body) in &self.bodies {
            bytes.extend_from_slice(d.as_bytes());
            bytes.extend_from_slice(body.as_bytes());
            bytes.push(b'\n');
        }
        digest_hex(&digest256(&bytes))
    }
}

/// One parsed response line.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply<'a> {
    /// Answered, by the named tier, with this body.
    Ok {
        /// `computed`, `memoized`, `hot` or `coalesced`.
        provenance: &'a str,
        /// The body, byte for byte as the line carries it.
        body: &'a str,
    },
    /// An error, busy or deadline line.
    Refused(&'a str),
}

/// Splits a response line into its tier and body.
pub fn parse_reply(line: &str) -> Reply<'_> {
    const OK: &str = "\"ok\":true,\"provenance\":\"";
    const BODY: &str = ",\"body\":";
    let Some(at) = line.find(OK) else {
        return Reply::Refused(line);
    };
    let rest = &line[at + OK.len()..];
    let Some(end) = rest.find('"') else {
        return Reply::Refused(line);
    };
    let provenance = &rest[..end];
    match (line.find(BODY), line.strip_suffix('}')) {
        (Some(b), Some(trimmed)) if b + BODY.len() <= trimmed.len() => Reply::Ok {
            provenance,
            body: &trimmed[b + BODY.len()..],
        },
        _ => Reply::Refused(line),
    }
}

/// The request digest a body says it answers.
pub fn body_digest(body: &str) -> Option<&str> {
    const KEY: &str = "\"digest\":\"";
    let at = body.find(KEY)? + KEY.len();
    let len = body[at..].find('"')?;
    Some(&body[at..at + len])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parsing() {
        let line = r#"{"id":"a","ok":true,"provenance":"hot","wall_ms":0,"body":{"kind":"sim","digest":"ab12","rows":[]}}"#;
        assert_eq!(
            parse_reply(line),
            Reply::Ok {
                provenance: "hot",
                body: r#"{"kind":"sim","digest":"ab12","rows":[]}"#
            }
        );
        assert_eq!(
            body_digest(r#"{"kind":"sim","digest":"ab12","rows":[]}"#),
            Some("ab12")
        );
        let busy = r#"{"id":"b","ok":false,"busy":true,"in_flight":2,"queued":8,"error":"x"}"#;
        assert_eq!(parse_reply(busy), Reply::Refused(busy));
    }

    #[test]
    fn ledger_flags_a_differing_body() {
        let mut l = BodyLedger::default();
        assert!(l.admit("d1", "{\"x\":1}"));
        assert!(l.admit("d1", "{\"x\":1}"));
        assert!(!l.admit("d1", "{\"x\":2}"));
        assert_eq!(l.len(), 1);
    }
}
