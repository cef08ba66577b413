//! A shared, replayable recording of one simulation's merged input stream.
//!
//! A compare or sweep batch runs the *same* (workload, seed, core-count)
//! trace through several schemes; without sharing, every scheme re-runs the
//! generator stack — per-core [`crate::TraceGenerator`]s, OS-event streams
//! and the heap-merge [`Interleaver`] — producing bit-identical input each
//! time. [`SharedTrace`] records that merged stream once into a compact
//! in-memory buffer and replays it to every consumer.
//!
//! Storage reuses the POMTRC1 record encoding from [`crate::file`]
//! (22 bytes per memory reference), plus one `u16` core id per item and a
//! sparse side-list of OS events, so a shared 4.2 M-reference compare input
//! is ~100 MB instead of four generator re-runs.
//!
//! # Determinism contract
//!
//! Replay yields exactly the `CoreItem<TraceItem>` sequence the live
//! generator construction in `pom_tlb::Simulation::run` produces — same
//! per-core seeds (`base_seed + core`), same address spaces (pid 0 for
//! shared-memory workloads, pid = core otherwise), same event-first tie
//! break, same heap merge order — and stops at the same point: the item
//! that completes the run's reference budget. Anything downstream of the
//! stream (reports included) is therefore byte-identical between live and
//! replayed runs; `generation_matches_replay`-style tests in the core crate
//! enforce this.

use std::sync::Arc;

use pomtlb_types::{AddressSpace, CoreId, ProcessId, VmId};

use crate::digest::digest256;
use crate::event::{OsEvent, TraceItem, WorkloadStream};
use crate::file::{decode_record, encode_record, RECORD_BYTES};
use crate::interleave::{CoreItem, Interleaver};
use crate::spec::{LocalityModel, WorkloadSpec};

/// Bytes per core-id entry in the cores buffer.
const CORE_BYTES: usize = 2;

/// The parameters a recorded stream is valid for. Two simulations can share
/// a trace exactly when these compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceKey {
    /// The generating workload spec.
    pub spec: WorkloadSpec,
    /// Base seed; core `c` streams with `seed + c`.
    pub seed: u64,
    /// Number of cores (= per-core streams merged).
    pub n_cores: usize,
    /// Whether all cores share one address space.
    pub shared_memory: bool,
    /// Memory references recorded (warmup + measured, summed over cores).
    pub total_refs: u64,
}

impl TraceKey {
    /// A stable 256-bit content digest of this key.
    ///
    /// Computed over a versioned, field-by-field canonical byte encoding —
    /// not `#[derive(Hash)]` — so it depends only on the key's *values*:
    /// the same key digests to the same 32 bytes on every run, build and
    /// platform, which is what lets the serve layer's request digest (and
    /// so every stored report's name) depend on it. Changing the encoding
    /// bumps its version, which is baked into the digest input, so stale
    /// digests can never alias new ones.
    pub fn digest(&self) -> [u8; 32] {
        key_digest(self)
    }
}

/// Version of the canonical [`key_bytes`] encoding, baked into the digest
/// input so stale digests can never alias new ones.
pub(crate) const KEY_DIGEST_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Canonical TraceKey serialization. Field-by-field, explicitly versioned,
// with tagged enums and length-prefixed strings — the digest depends only on
// the key's *values*, never on struct layout, field order in memory, or a
// derived Hash implementation.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_locality(out: &mut Vec<u8>, m: &LocalityModel) {
    match m {
        LocalityModel::Streaming { streams } => {
            put_u8(out, 0);
            put_u32(out, *streams);
        }
        LocalityModel::UniformRandom => put_u8(out, 1),
        LocalityModel::Zipf { alpha } => {
            put_u8(out, 2);
            put_f64(out, *alpha);
        }
        LocalityModel::PointerChase { hot_frac, hot_prob } => {
            put_u8(out, 3);
            put_f64(out, *hot_frac);
            put_f64(out, *hot_prob);
        }
        LocalityModel::WorkingSetWindow { window_pages, dwell } => {
            put_u8(out, 4);
            put_u64(out, *window_pages);
            put_u64(out, *dwell);
        }
        LocalityModel::TlbConflictSet { pages, stride_pages } => {
            put_u8(out, 5);
            put_u32(out, *pages);
            put_u64(out, *stride_pages);
        }
        LocalityModel::Mixed(parts) => {
            put_u8(out, 6);
            put_u64(out, parts.len() as u64);
            for (weight, sub) in parts {
                put_f64(out, *weight);
                put_locality(out, sub);
            }
        }
    }
}

/// The canonical byte encoding of a [`TraceKey`], version
/// [`KEY_DIGEST_VERSION`]. Every field that influences the recorded stream
/// is included — spec (name, footprint, page mix, rates, locality, burst
/// knobs, all five OS-event rates), seed, core count, sharing mode and
/// reference budget.
pub(crate) fn key_bytes(key: &TraceKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(160);
    put_u32(&mut out, KEY_DIGEST_VERSION);
    let spec = &key.spec;
    put_str(&mut out, &spec.name);
    put_u64(&mut out, spec.footprint_bytes);
    put_f64(&mut out, spec.large_page_frac);
    put_f64(&mut out, spec.refs_per_kilo_instr);
    put_f64(&mut out, spec.write_frac);
    put_locality(&mut out, &spec.locality);
    put_f64(&mut out, spec.same_page_burst);
    put_f64(&mut out, spec.line_repeat);
    put_f64(&mut out, spec.os_events.unmaps);
    put_f64(&mut out, spec.os_events.remaps);
    put_f64(&mut out, spec.os_events.promotes);
    put_f64(&mut out, spec.os_events.migrations);
    put_f64(&mut out, spec.os_events.vm_destroys);
    put_u64(&mut out, u64::from(spec.tenancy.vms));
    put_f64(&mut out, spec.tenancy.skew);
    put_f64(&mut out, spec.tenancy.ws_decay);
    put_f64(&mut out, spec.tenancy.churn_destroys_per_10k);
    put_f64(&mut out, spec.tenancy.fork_storms_per_10k);
    put_u64(&mut out, u64::from(spec.tenancy.fork_pages));
    put_u64(&mut out, key.seed);
    put_u64(&mut out, key.n_cores as u64);
    put_u8(&mut out, u8::from(key.shared_memory));
    put_u64(&mut out, key.total_refs);
    out
}

/// [`digest256`] of [`key_bytes`] — the key's content address.
pub(crate) fn key_digest(key: &TraceKey) -> [u8; 32] {
    digest256(&key_bytes(key))
}

/// One workload's merged reference + OS-event stream, recorded once and
/// replayable by any number of scheme runs.
#[derive(Debug, Clone)]
pub struct SharedTrace {
    key: TraceKey,
    /// Issuing core of every item (reference or event) as little-endian
    /// `u16`s, in merge order.
    cores: Vec<u8>,
    /// POMTRC1-encoded records of the reference items, in merge order.
    refs: Vec<u8>,
    /// OS events as (item position, event), sparse and position-sorted.
    events: Vec<(u64, OsEvent)>,
}

impl SharedTrace {
    /// Records the merged stream for `spec` until `total_refs` memory
    /// references have been issued (OS events ride along but do not count),
    /// using exactly the stream construction `Simulation::run` uses.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate or `n_cores` is zero.
    pub fn generate(
        spec: &WorkloadSpec,
        seed: u64,
        n_cores: usize,
        shared_memory: bool,
        total_refs: u64,
    ) -> SharedTrace {
        assert!(n_cores > 0, "a trace needs at least one core");
        let streams: Vec<WorkloadStream> = (0..n_cores)
            .map(|c| {
                let pid = if shared_memory { 0 } else { c as u16 };
                let space = AddressSpace::new(VmId(0), ProcessId(pid));
                WorkloadStream::new(spec, seed + c as u64, space, n_cores as u16)
            })
            .collect();
        let mut merged = Interleaver::new(streams);

        let mut cores = Vec::new();
        let mut refs = Vec::with_capacity((total_refs as usize).saturating_mul(RECORD_BYTES));
        let mut events = Vec::new();
        let mut buf = [0u8; RECORD_BYTES];
        let mut refs_done = 0u64;
        while refs_done < total_refs {
            let ci = merged.next().expect("streams are infinite");
            let pos = (cores.len() / CORE_BYTES) as u64;
            cores.extend_from_slice(&ci.core.0.to_le_bytes());
            match ci.item {
                TraceItem::Ref(r) => {
                    encode_record(&r, &mut buf);
                    refs.extend_from_slice(&buf);
                    refs_done += 1;
                }
                TraceItem::Event(e) => events.push((pos, e)),
            }
        }
        SharedTrace {
            key: TraceKey {
                spec: spec.clone(),
                seed,
                n_cores,
                shared_memory,
                total_refs,
            },
            cores,
            refs,
            events,
        }
    }

    /// The parameters this recording is valid for.
    pub fn key(&self) -> &TraceKey {
        &self.key
    }

    /// Whether a simulation with these parameters can replay this trace.
    pub fn matches(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        n_cores: usize,
        shared_memory: bool,
        total_refs: u64,
    ) -> bool {
        self.key
            == TraceKey { spec: spec.clone(), seed, n_cores, shared_memory, total_refs }
    }

    /// Total items recorded (references + events).
    pub fn items(&self) -> u64 {
        (self.cores.len() / CORE_BYTES) as u64
    }

    /// Memory references recorded.
    pub fn refs(&self) -> u64 {
        (self.refs.len() / RECORD_BYTES) as u64
    }

    /// OS events recorded.
    pub fn events(&self) -> u64 {
        self.events.len() as u64
    }

    /// Approximate heap footprint of the recording, in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.refs.len()
            + self.cores.len()
            + self.events.len() * std::mem::size_of::<(u64, OsEvent)>()
    }

    /// Issuing core of item `i`, if recorded.
    fn core_at(&self, i: usize) -> Option<u16> {
        let off = i.checked_mul(CORE_BYTES)?;
        let pair = self.cores.get(off..off + CORE_BYTES)?;
        Some(u16::from_le_bytes([pair[0], pair[1]]))
    }

    /// An owning replay iterator (the `Arc` keeps the buffer alive, so the
    /// iterator can outlive the caller's borrow — the runner hands clones
    /// of one recording to several scheme runs).
    pub fn replay(self: &Arc<Self>) -> SharedTraceIter {
        SharedTraceIter { trace: Arc::clone(self), item: 0, ref_off: 0, event_idx: 0 }
    }
}

/// Replays a [`SharedTrace`] as the `CoreItem<TraceItem>` stream the live
/// interleaver would produce.
#[derive(Debug)]
pub struct SharedTraceIter {
    trace: Arc<SharedTrace>,
    item: usize,
    ref_off: usize,
    event_idx: usize,
}

impl Iterator for SharedTraceIter {
    type Item = CoreItem<TraceItem>;

    fn next(&mut self) -> Option<CoreItem<TraceItem>> {
        let core = CoreId(self.trace.core_at(self.item)?);
        let item = match self.trace.events.get(self.event_idx) {
            Some((pos, e)) if *pos == self.item as u64 => {
                self.event_idx += 1;
                TraceItem::Event(*e)
            }
            _ => {
                let buf: &[u8; RECORD_BYTES] = self.trace.refs
                    [self.ref_off..self.ref_off + RECORD_BYTES]
                    .try_into()
                    .expect("record slice has RECORD_BYTES bytes");
                self.ref_off += RECORD_BYTES;
                TraceItem::Ref(decode_record(buf).expect("recorded records are well-formed"))
            }
        };
        self.item += 1;
        Some(CoreItem { core, item })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_hex;
    use crate::event::OsEventRates;

    fn spec(rates: OsEventRates) -> WorkloadSpec {
        WorkloadSpec::builder("shared-test")
            .footprint_bytes(16 << 20)
            .large_page_frac(0.25)
            .locality(LocalityModel::Zipf { alpha: 0.9 })
            .os_events(rates)
            .build()
    }

    /// The live stream as `Simulation::run` builds it, truncated the same
    /// way generation truncates: after the final counted reference.
    fn live(spec: &WorkloadSpec, seed: u64, n_cores: usize, total_refs: u64) -> Vec<CoreItem<TraceItem>> {
        let streams: Vec<WorkloadStream> = (0..n_cores)
            .map(|c| {
                let space = AddressSpace::new(VmId(0), ProcessId(c as u16));
                WorkloadStream::new(spec, seed + c as u64, space, n_cores as u16)
            })
            .collect();
        let mut merged = Interleaver::new(streams);
        let mut out = Vec::new();
        let mut refs = 0;
        while refs < total_refs {
            let ci = merged.next().unwrap();
            if matches!(ci.item, TraceItem::Ref(_)) {
                refs += 1;
            }
            out.push(ci);
        }
        out
    }

    #[test]
    fn replay_equals_live_generation() {
        let s = spec(OsEventRates::default());
        let trace = Arc::new(SharedTrace::generate(&s, 42, 4, false, 2000));
        let replayed: Vec<_> = trace.replay().collect();
        assert_eq!(replayed, live(&s, 42, 4, 2000));
        assert_eq!(trace.refs(), 2000);
        assert_eq!(trace.events(), 0);
    }

    #[test]
    fn replay_preserves_interleaved_events() {
        let s = spec(OsEventRates {
            unmaps: 8.0,
            remaps: 2.0,
            promotes: 1.0,
            migrations: 1.0,
            vm_destroys: 0.2,
        });
        let trace = Arc::new(SharedTrace::generate(&s, 7, 2, false, 3000));
        let replayed: Vec<_> = trace.replay().collect();
        let reference = live(&s, 7, 2, 3000);
        assert_eq!(replayed.len(), reference.len());
        assert_eq!(replayed, reference);
        assert!(trace.events() > 0, "event-heavy spec must record events");
        assert_eq!(trace.items(), trace.refs() + trace.events());
    }

    #[test]
    fn replay_is_repeatable() {
        let s = spec(OsEventRates::unmap_heavy(5.0));
        let trace = Arc::new(SharedTrace::generate(&s, 3, 2, true, 1000));
        let a: Vec<_> = trace.replay().collect();
        let b: Vec<_> = trace.replay().collect();
        assert_eq!(a, b, "two replays of one recording are identical");
    }

    #[test]
    fn shared_memory_uses_pid_zero_everywhere() {
        let s = spec(OsEventRates::default());
        let trace = Arc::new(SharedTrace::generate(&s, 1, 2, true, 500));
        for ci in trace.replay() {
            if let TraceItem::Ref(r) = ci.item {
                assert_eq!(r.space.process.0, 0);
            }
        }
    }

    #[test]
    fn key_matching_is_exact() {
        let s = spec(OsEventRates::default());
        let trace = SharedTrace::generate(&s, 1, 2, false, 100);
        assert!(trace.matches(&s, 1, 2, false, 100));
        assert!(!trace.matches(&s, 2, 2, false, 100), "seed differs");
        assert!(!trace.matches(&s, 1, 4, false, 100), "core count differs");
        assert!(!trace.matches(&s, 1, 2, true, 100), "sharing mode differs");
        assert!(!trace.matches(&s, 1, 2, false, 99), "budget differs");
        let other = spec(OsEventRates::unmap_heavy(1.0));
        assert!(!trace.matches(&other, 1, 2, false, 100), "spec differs");
    }

    fn key(seed: u64) -> TraceKey {
        let spec = WorkloadSpec::builder("digest-test")
            .footprint_bytes(32 << 20)
            .large_page_frac(0.3)
            .locality(LocalityModel::Zipf { alpha: 0.9 })
            .build();
        TraceKey { spec, seed, n_cores: 4, shared_memory: false, total_refs: 10_000 }
    }

    #[test]
    fn digest_is_stable_across_computations() {
        let k = key(7);
        let (a, b) = (key_digest(&k), key_digest(&k));
        assert_eq!(a, b);
        assert_eq!(digest_hex(&a).len(), 64);
    }

    #[test]
    fn digest_distinguishes_every_key_field() {
        let base = key(7);
        let mut variants: Vec<TraceKey> = vec![
            TraceKey { seed: 8, ..base.clone() },
            TraceKey { n_cores: 8, ..base.clone() },
            TraceKey { shared_memory: true, ..base.clone() },
            TraceKey { total_refs: 10_001, ..base.clone() },
        ];
        let mut s = base.clone();
        s.spec.name = "digest-test2".into();
        variants.push(s);
        let mut s = base.clone();
        s.spec.footprint_bytes += 4 << 10;
        variants.push(s);
        let mut s = base.clone();
        s.spec.locality = LocalityModel::Zipf { alpha: 0.91 };
        variants.push(s);
        let mut s = base.clone();
        s.spec.locality = LocalityModel::UniformRandom;
        variants.push(s);
        let mut s = base.clone();
        s.spec.os_events = OsEventRates::unmap_heavy(5.0);
        variants.push(s);
        let mut s = base.clone();
        s.spec.os_events = OsEventRates { remaps: 5.0, ..Default::default() };
        variants.push(s);
        let mut s = base.clone();
        s.spec.write_frac += 0.01;
        variants.push(s);
        let mut s = base.clone();
        s.spec.tenancy = crate::tenancy::TenantMix { vms: 1000, ..Default::default() };
        variants.push(s);
        let mut s = base.clone();
        s.spec.tenancy = crate::tenancy::TenantMix { vms: 1000, skew: 0.9, ..Default::default() };
        variants.push(s);
        let mut s = base.clone();
        s.spec.tenancy = crate::tenancy::TenantMix {
            vms: 1000,
            churn_destroys_per_10k: 0.5,
            ..Default::default()
        };
        variants.push(s);
        let mut s = base.clone();
        s.spec.tenancy = crate::tenancy::TenantMix {
            vms: 1000,
            fork_storms_per_10k: 1.0,
            fork_pages: 16,
            ..Default::default()
        };
        variants.push(s);

        let mut digests = vec![key_digest(&base)];
        for v in &variants {
            let d = key_digest(v);
            assert!(!digests.contains(&d), "collision for variant {v:?}");
            digests.push(d);
        }
    }

    #[test]
    fn mixed_locality_digest_is_parameter_sensitive() {
        let mk = |parts: Vec<(f64, LocalityModel)>| {
            let mut k = key(1);
            k.spec.locality = LocalityModel::Mixed(parts);
            key_digest(&k)
        };
        let a = mk(vec![(0.7, LocalityModel::UniformRandom), (0.3, LocalityModel::Zipf { alpha: 0.9 })]);
        let b = mk(vec![(0.3, LocalityModel::UniformRandom), (0.7, LocalityModel::Zipf { alpha: 0.9 })]);
        let c = mk(vec![(0.7, LocalityModel::UniformRandom), (0.3, LocalityModel::Zipf { alpha: 0.8 })]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn buffer_is_compact() {
        let s = spec(OsEventRates::default());
        let trace = SharedTrace::generate(&s, 1, 1, false, 1000);
        // 22 bytes per record + 2 per core id, nothing else for a quiet spec.
        assert_eq!(trace.buffer_bytes(), 1000 * (RECORD_BYTES + 2));
    }
}
