//! Merging per-core streams at the proper issue cadence.
//!
//! The paper's simulator "executes memory references from multiple traces
//! while we schedule them at the proper issue cadence by using their
//! instruction order in a manner similar to Ramulator" (§3.2). The
//! [`Interleaver`] does exactly that: it merges N per-core streams into one
//! global stream ordered by each item's cumulative instruction count,
//! which approximates cores retiring instructions at equal rates.
//!
//! The merge is generic over anything [`Timestamped`] — bare memory
//! references or the combined reference + OS-event streams of
//! [`crate::WorkloadStream`] — so the consistency machinery sees unmaps and
//! migrations at exactly the instruction counts the OS issued them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use pomtlb_types::CoreId;

use crate::event::{OsEvent, TraceItem};
use crate::record::MemoryRef;

/// Process-wide count of [`Interleaver`] constructions.
static CONSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// How many [`Interleaver`]s this process has constructed so far.
///
/// Every live generator pass builds exactly one interleaver, and trace
/// replay builds none — so a delta of zero across a batch *proves* the
/// batch ran entirely from recordings or memoized answers (the serve
/// integration tests assert exactly that). Monotonic and process-global;
/// meaningful as a before/after delta, not an absolute.
pub fn interleaver_constructions() -> u64 {
    CONSTRUCTIONS.load(Ordering::Relaxed)
}

/// Anything carrying a cumulative instruction count the merge can order by.
pub trait Timestamped {
    /// The owning core's instruction count at this item.
    fn icount(&self) -> u64;
}

impl Timestamped for MemoryRef {
    fn icount(&self) -> u64 {
        self.icount
    }
}

impl Timestamped for OsEvent {
    fn icount(&self) -> u64 {
        self.icount
    }
}

impl Timestamped for TraceItem {
    fn icount(&self) -> u64 {
        TraceItem::icount(self)
    }
}

/// A stream item annotated with the core that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreItem<T> {
    /// The issuing core.
    pub core: CoreId,
    /// The item.
    pub item: T,
}

/// A memory reference annotated with its issuing core.
pub type CoreRef = CoreItem<MemoryRef>;

/// Merges per-core streams by instruction count.
///
/// Ties are broken by core id so the merge is deterministic.
pub struct Interleaver<I: Iterator> {
    streams: Vec<I>,
    heap: BinaryHeap<Reverse<(u64, u16)>>,
    pending: Vec<Option<I::Item>>,
}

impl<T: Timestamped, I: Iterator<Item = T>> Interleaver<I> {
    /// Creates an interleaver over one stream per core.
    pub fn new(mut streams: Vec<I>) -> Self {
        CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        let mut heap = BinaryHeap::with_capacity(streams.len());
        let mut pending = Vec::with_capacity(streams.len());
        for (i, s) in streams.iter_mut().enumerate() {
            let head = s.next();
            if let Some(r) = &head {
                heap.push(Reverse((r.icount(), i as u16)));
            }
            pending.push(head);
        }
        Interleaver { streams, heap, pending }
    }

    /// Number of underlying streams (cores).
    pub fn cores(&self) -> usize {
        self.streams.len()
    }
}

impl<T: Timestamped, I: Iterator<Item = T>> Iterator for Interleaver<I> {
    type Item = CoreItem<T>;

    fn next(&mut self) -> Option<CoreItem<T>> {
        let Reverse((_, core_idx)) = self.heap.pop()?;
        let idx = core_idx as usize;
        let item = self.pending[idx].take().expect("heap entry implies pending item");
        let refill = self.streams[idx].next();
        if let Some(r) = &refill {
            self.heap.push(Reverse((r.icount(), core_idx)));
        }
        self.pending[idx] = refill;
        Some(CoreItem { core: CoreId(core_idx), item })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OsEventRates, WorkloadStream};
    use crate::spec::{LocalityModel, WorkloadSpec};
    use crate::TraceGenerator;
    use pomtlb_types::{AccessKind, AddressSpace, Gva};

    fn mref(icount: u64, addr: u64) -> MemoryRef {
        MemoryRef::new(icount, Gva::new(addr), AccessKind::Read, AddressSpace::default())
    }

    #[test]
    fn merges_in_icount_order() {
        let a = vec![mref(1, 0x10), mref(5, 0x20), mref(9, 0x30)];
        let b = vec![mref(2, 0x40), mref(3, 0x50), mref(20, 0x60)];
        let merged: Vec<CoreRef> = Interleaver::new(vec![a.into_iter(), b.into_iter()]).collect();
        let icounts: Vec<u64> = merged.iter().map(|c| c.item.icount).collect();
        assert_eq!(icounts, vec![1, 2, 3, 5, 9, 20]);
        assert_eq!(merged[0].core, CoreId(0));
        assert_eq!(merged[1].core, CoreId(1));
    }

    #[test]
    fn tie_breaks_by_core_id() {
        let a = vec![mref(5, 1)];
        let b = vec![mref(5, 2)];
        let merged: Vec<CoreRef> = Interleaver::new(vec![a.into_iter(), b.into_iter()]).collect();
        assert_eq!(merged[0].core, CoreId(0));
        assert_eq!(merged[1].core, CoreId(1));
    }

    #[test]
    fn exhausts_all_streams() {
        let a = vec![mref(1, 0), mref(2, 0)];
        let b = vec![mref(3, 0)];
        let c: Vec<MemoryRef> = vec![];
        let merged: Vec<CoreRef> =
            Interleaver::new(vec![a.into_iter(), b.into_iter(), c.into_iter()]).collect();
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn empty_interleaver_is_empty() {
        let streams: Vec<std::vec::IntoIter<MemoryRef>> = vec![];
        let mut il = Interleaver::new(streams);
        assert!(il.next().is_none());
        assert_eq!(il.cores(), 0);
    }

    #[test]
    fn generator_streams_interleave_fairly() {
        let spec = WorkloadSpec::builder("w")
            .locality(LocalityModel::UniformRandom)
            .refs_per_kilo_instr(200.0)
            .build();
        let gens: Vec<_> = (0..4).map(|i| TraceGenerator::new(&spec, i).take(1000)).collect();
        let merged: Vec<CoreRef> = Interleaver::new(gens).collect();
        assert_eq!(merged.len(), 4000);
        // Each core appears with roughly equal frequency in any window.
        let first_thousand = &merged[..1000];
        for core in 0..4u16 {
            let n = first_thousand.iter().filter(|c| c.core == CoreId(core)).count();
            assert!((150..350).contains(&n), "core {core} got {n} of first 1000");
        }
        // Global icount order is maintained.
        let mut prev = 0;
        for c in &merged {
            assert!(c.item.icount >= prev);
            prev = c.item.icount;
        }
    }

    #[test]
    fn interleaves_combined_ref_and_event_streams() {
        let spec = WorkloadSpec::builder("w")
            .locality(LocalityModel::UniformRandom)
            .os_events(OsEventRates { unmaps: 5.0, migrations: 2.0, ..Default::default() })
            .build();
        let streams: Vec<WorkloadStream> = (0..2)
            .map(|i| WorkloadStream::new(&spec, i as u64, AddressSpace::default(), 2))
            .collect();
        let merged: Vec<CoreItem<TraceItem>> = Interleaver::new(streams).take(4000).collect();
        let mut prev = 0;
        let mut events = 0;
        for c in &merged {
            assert!(c.item.icount() >= prev, "global icount order");
            prev = c.item.icount();
            if matches!(c.item, TraceItem::Event(_)) {
                events += 1;
            }
        }
        assert!(events > 0, "event stream must surface through the merge");
    }
}
