//! Multi-tenant consolidation: tenant attribution and VM lifecycle churn.
//!
//! The paper's Eq. (1) XORs VM_ID into the POM-TLB set index but evaluates
//! it at a handful of VMs. Consolidated hosts run hundreds to tens of
//! thousands of guests, with Zipf-skewed traffic (a few hot tenants, a long
//! cold tail), per-tenant working sets that shrink down the popularity
//! ranking, and constant lifecycle churn — VM teardown and fork-time
//! copy-on-write storms — that hammers `flush_vm` and the shootdown path.
//!
//! [`TenantMix`] describes such a population declaratively on a
//! [`WorkloadSpec`]; when active, every [`crate::WorkloadStream`]:
//!
//! * re-attributes each generated reference to a tenant VM drawn from a
//!   Zipf (or uniform) traffic distribution, folding the page index into
//!   that tenant's scaled working set ([`TenantAttrib`]);
//! * weaves a churn substream of [`OsEventKind::DestroyVm`] teardowns and
//!   fork-storm [`OsEventKind::RemapPage`] bursts between the references
//!   ([`ChurnGenerator`]), drawn from an RNG separate from both the
//!   reference and OS-event RNGs so enabling churn never perturbs either.
//!
//! Everything is deterministic in the stream seed, which is what lets
//! consolidation runs keep the byte-identical serial/pooled/replayed
//! contract every other workload family has.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pomtlb_types::{AddressSpace, Gva, PageSize, VmId};

use crate::event::{OsEvent, OsEventKind};
use crate::generator::AddressLayout;
use crate::record::MemoryRef;
use crate::zipf::Zipf;

/// Decorrelates the tenant-attribution RNG from the reference RNG.
pub const TENANT_SEED_SALT: u64 = 0x7ea0_7ea0_7ea0_7ea0;

/// Decorrelates the churn RNG from everything else.
pub const CHURN_SEED_SALT: u64 = 0xc600_c600_c600_c600;

/// A consolidated tenant population sharing one workload's footprint.
///
/// All-zero (the default) disables tenancy entirely: the spec behaves
/// exactly as before, bit for bit. Rates follow the [`crate::OsEventRates`]
/// convention of events per 10 000 references per core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantMix {
    /// Number of tenant VMs (VM_IDs `0..vms`). Zero disables tenancy.
    pub vms: u32,
    /// Zipf exponent of the traffic-share distribution across tenants
    /// (VM 0 hottest). Zero means uniform shares; must not be exactly 1.
    pub skew: f64,
    /// Working-set decay: tenant rank `k` keeps a `(k+1)^-ws_decay`
    /// fraction of each footprint region (at least one page). Zero gives
    /// every tenant the full footprint.
    pub ws_decay: f64,
    /// [`OsEventKind::DestroyVm`] teardowns per 10 000 references.
    pub churn_destroys_per_10k: f64,
    /// Fork-time COW storms per 10 000 references; each storm emits
    /// [`TenantMix::fork_pages`] page remaps against one tenant.
    pub fork_storms_per_10k: f64,
    /// 4 KB pages broken per fork storm (must be >= 1 when storms fire).
    pub fork_pages: u32,
}

impl TenantMix {
    /// Whether this mix describes any tenants at all.
    pub fn active(&self) -> bool {
        self.vms > 0
    }

    /// Whether the churn substream will ever fire.
    pub fn has_churn(&self) -> bool {
        self.active() && self.churn_destroys_per_10k + self.fork_storms_per_10k > 0.0
    }

    /// Sum of the churn rates.
    pub fn churn_total(&self) -> f64 {
        self.churn_destroys_per_10k + self.fork_storms_per_10k
    }

    /// Pages of an `region_pages`-page footprint region tenant `vm` keeps
    /// as its working set (the single source of truth for working-set
    /// scaling; the core crate's `TenantSet` delegates here).
    pub fn ws_pages(&self, region_pages: u64, vm: u32) -> u64 {
        if region_pages == 0 {
            return 0;
        }
        if self.ws_decay <= 0.0 {
            return region_pages;
        }
        let frac = f64::from(vm + 1).powf(-self.ws_decay);
        (((region_pages as f64) * frac).round() as u64).clamp(1, region_pages)
    }

    /// Validates the mix, returning a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.vms == 0 {
            // Disabled; the other knobs are ignored.
            return Ok(());
        }
        if self.vms > u64::from(u16::MAX) as u32 + 1 {
            return Err(format!("tenancy.vms must fit a 16-bit VM_ID, got {}", self.vms));
        }
        if !(self.skew.is_finite() && self.skew >= 0.0) || self.skew == 1.0 {
            return Err(format!(
                "tenancy.skew must be finite, >= 0 and != 1, got {}",
                self.skew
            ));
        }
        if !(self.ws_decay.is_finite() && self.ws_decay >= 0.0) {
            return Err(format!("tenancy.ws_decay must be finite and >= 0, got {}", self.ws_decay));
        }
        for (name, r) in [
            ("churn_destroys_per_10k", self.churn_destroys_per_10k),
            ("fork_storms_per_10k", self.fork_storms_per_10k),
        ] {
            if !(r.is_finite() && r >= 0.0) {
                return Err(format!("tenancy.{name} must be finite and >= 0, got {r}"));
            }
        }
        if self.fork_storms_per_10k > 0.0 && self.fork_pages == 0 {
            return Err("tenancy.fork_pages must be >= 1 when fork storms fire".into());
        }
        Ok(())
    }
}

/// Draws tenant VM_IDs from the mix's traffic-share distribution.
#[derive(Debug, Clone)]
struct TenantSampler {
    zipf: Option<Zipf>,
    vms: u64,
}

impl TenantSampler {
    fn new(mix: &TenantMix) -> TenantSampler {
        let zipf = (mix.skew > 0.0).then(|| Zipf::new(u64::from(mix.vms), mix.skew));
        TenantSampler { zipf, vms: u64::from(mix.vms) }
    }

    fn sample(&mut self, rng: &mut SmallRng) -> u32 {
        match &mut self.zipf {
            Some(z) => z.sample(rng) as u32,
            None => rng.gen_range(0..self.vms) as u32,
        }
    }
}

/// Re-attributes one core's reference stream to a tenant population.
///
/// Each reference is assigned a VM by traffic share, and its page index is
/// folded into that tenant's scaled working set — page alignment, in-page
/// offset and region membership are all preserved, so the rewritten stream
/// stays inside the layout the page tables were built for.
#[derive(Debug, Clone)]
pub struct TenantAttrib {
    rng: SmallRng,
    sampler: TenantSampler,
    layout: AddressLayout,
    /// Per-tenant 4 KB working-set sizes in pages, indexed by VM_ID.
    ws_small: Vec<u64>,
    /// Per-tenant 2 MB working-set sizes in pages, indexed by VM_ID.
    ws_large: Vec<u64>,
}

impl TenantAttrib {
    /// Builds the attributor for one core stream, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not validate or is inactive.
    pub fn new(mix: &TenantMix, layout: AddressLayout, seed: u64) -> TenantAttrib {
        if let Err(e) = mix.validate() {
            panic!("invalid tenant mix: {e}");
        }
        assert!(mix.active(), "TenantAttrib needs at least one tenant");
        let ws_small = (0..mix.vms).map(|k| mix.ws_pages(layout.small_pages, k)).collect();
        let ws_large = (0..mix.vms).map(|k| mix.ws_pages(layout.large_pages, k)).collect();
        TenantAttrib {
            rng: SmallRng::seed_from_u64(seed ^ TENANT_SEED_SALT),
            sampler: TenantSampler::new(mix),
            layout,
            ws_small,
            ws_large,
        }
    }

    /// Rewrites one reference to a sampled tenant's working set.
    pub fn attribute(&mut self, r: MemoryRef) -> MemoryRef {
        let vm = self.sampler.sample(&mut self.rng);
        let raw = r.addr.raw();
        let small_base = self.layout.small_base.raw();
        let large_base = self.layout.large_base.raw();
        let addr = if raw >= large_base && self.layout.large_pages > 0 {
            let shift = PageSize::Large2M.shift();
            let idx = (raw - large_base) >> shift;
            let ws = self.ws_large[vm as usize].max(1);
            let off = raw & (PageSize::Large2M.bytes() - 1);
            Gva::new(large_base + ((idx % ws) << shift) + off)
        } else {
            let shift = PageSize::Small4K.shift();
            let idx = (raw - small_base) >> shift;
            let ws = self.ws_small[vm as usize].max(1);
            let off = raw & (PageSize::Small4K.bytes() - 1);
            Gva::new(small_base + ((idx % ws) << shift) + off)
        };
        let space = AddressSpace::new(VmId(vm as u16), r.space.process);
        MemoryRef::new(r.icount, addr, r.kind, space)
    }
}

/// Infinite, deterministic generator of one core's VM lifecycle churn.
///
/// Yields [`OsEventKind::DestroyVm`] teardowns against Zipf-sampled victims
/// and fork-time COW storms — bursts of [`OsEventKind::RemapPage`] over a
/// contiguous run of the victim's hot 4 KB pages, all at one instant, the
/// way a `fork()` write burst breaks COW sharing.
#[derive(Debug, Clone)]
pub struct ChurnGenerator {
    rng: SmallRng,
    sampler: TenantSampler,
    icount: u64,
    mean_gap: f64,
    destroys: f64,
    total: f64,
    fork_pages: u32,
    small_base: Gva,
    /// Per-tenant 4 KB working-set sizes, for picking storm targets the
    /// victim actually touches.
    ws_small: Vec<u64>,
    process: pomtlb_types::ProcessId,
    pending: VecDeque<OsEvent>,
}

impl ChurnGenerator {
    /// Creates the churn stream for one core, deterministic in `seed`.
    /// `refs_per_kilo_instr` converts per-10k-reference rates into
    /// instruction gaps exactly like [`crate::OsEventGenerator`].
    ///
    /// # Panics
    ///
    /// Panics if the mix does not validate or is inactive.
    pub fn new(
        mix: &TenantMix,
        layout: AddressLayout,
        seed: u64,
        refs_per_kilo_instr: f64,
        base: AddressSpace,
    ) -> ChurnGenerator {
        if let Err(e) = mix.validate() {
            panic!("invalid tenant mix: {e}");
        }
        assert!(mix.active(), "ChurnGenerator needs at least one tenant");
        let total = mix.churn_total();
        let ref_gap = 1000.0 / refs_per_kilo_instr;
        let mean_gap = if total > 0.0 { 10_000.0 * ref_gap / total } else { 0.0 };
        let ws_small = (0..mix.vms).map(|k| mix.ws_pages(layout.small_pages, k)).collect();
        ChurnGenerator {
            rng: SmallRng::seed_from_u64(seed ^ CHURN_SEED_SALT),
            sampler: TenantSampler::new(mix),
            icount: 0,
            mean_gap,
            destroys: mix.churn_destroys_per_10k,
            total,
            fork_pages: mix.fork_pages,
            small_base: layout.small_base,
            ws_small,
            process: base.process,
            pending: VecDeque::new(),
        }
    }
}

impl Iterator for ChurnGenerator {
    type Item = OsEvent;

    fn next(&mut self) -> Option<OsEvent> {
        if let Some(e) = self.pending.pop_front() {
            return Some(e);
        }
        if self.total <= 0.0 {
            return None;
        }
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        let gap = (-self.mean_gap * u.ln()).round().max(1.0) as u64;
        self.icount += gap;
        let victim = self.sampler.sample(&mut self.rng);
        let space = AddressSpace::new(VmId(victim as u16), self.process);
        let draw = self.rng.gen::<f64>() * self.total;
        if draw < self.destroys {
            return Some(OsEvent { icount: self.icount, space, kind: OsEventKind::DestroyVm });
        }
        // Fork storm: COW breaks over a contiguous run of the victim's hot
        // pages, all at the same instant.
        let ws = self.ws_small[victim as usize].max(1);
        let start = self.rng.gen_range(0..ws);
        for i in 0..u64::from(self.fork_pages) {
            let idx = (start + i) % ws;
            let va = self.small_base.wrapping_add(idx << PageSize::Small4K.shift());
            self.pending.push_back(OsEvent {
                icount: self.icount,
                space,
                kind: OsEventKind::RemapPage { va, size: PageSize::Small4K },
            });
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::spec::{LocalityModel, WorkloadSpec};
    use pomtlb_types::ProcessId;

    fn mix(vms: u32) -> TenantMix {
        TenantMix {
            vms,
            skew: 0.9,
            ws_decay: 0.5,
            churn_destroys_per_10k: 2.0,
            fork_storms_per_10k: 1.0,
            fork_pages: 8,
        }
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec::builder("tenants")
            .footprint_bytes(32 << 20)
            .large_page_frac(0.25)
            .locality(LocalityModel::UniformRandom)
            .build()
    }

    #[test]
    fn default_mix_is_inactive_and_valid() {
        let m = TenantMix::default();
        assert!(!m.active());
        assert!(!m.has_churn());
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(TenantMix { vms: 100, skew: 1.0, ..Default::default() }.validate().is_err());
        assert!(TenantMix { vms: 100, skew: -0.5, ..Default::default() }.validate().is_err());
        assert!(TenantMix { vms: 100, ws_decay: f64::NAN, ..Default::default() }
            .validate()
            .is_err());
        assert!(TenantMix { vms: 100, churn_destroys_per_10k: -1.0, ..Default::default() }
            .validate()
            .is_err());
        assert!(TenantMix { vms: 100, fork_storms_per_10k: 1.0, fork_pages: 0, ..Default::default() }
            .validate()
            .is_err());
        assert!(TenantMix { vms: 1 << 20, ..Default::default() }.validate().is_err());
        assert!(mix(10_000).validate().is_ok());
    }

    #[test]
    fn ws_pages_decays_by_rank_with_floor() {
        let m = TenantMix { vms: 100, ws_decay: 1.0, ..Default::default() };
        assert_eq!(m.ws_pages(1000, 0), 1000);
        assert_eq!(m.ws_pages(1000, 1), 500);
        assert_eq!(m.ws_pages(1000, 9), 100);
        assert!(m.ws_pages(4, 99) >= 1, "floor of one page");
        let flat = TenantMix { vms: 100, ws_decay: 0.0, ..Default::default() };
        assert_eq!(flat.ws_pages(1000, 99), 1000);
    }

    #[test]
    fn attribution_is_deterministic_and_stays_in_layout() {
        let s = spec();
        let m = mix(1000);
        let layout = AddressLayout::of_spec(&s);
        let attr = |seed| {
            let mut a = TenantAttrib::new(&m, layout, seed);
            TraceGenerator::new(&s, seed).take(2000).map(move |r| a.attribute(r)).collect::<Vec<_>>()
        };
        assert_eq!(attr(7), attr(7));
        for r in attr(7) {
            assert!(layout.page_size_of(r.addr).is_some(), "{} escaped the layout", r.addr);
            assert!(u32::from(r.space.vm.0) < 1000);
        }
    }

    #[test]
    fn attribution_skews_traffic_toward_low_vm_ids() {
        let s = spec();
        let m = mix(1000);
        let layout = AddressLayout::of_spec(&s);
        let mut a = TenantAttrib::new(&m, layout, 3);
        let vms: Vec<u16> =
            TraceGenerator::new(&s, 3).take(5000).map(|r| a.attribute(r).space.vm.0).collect();
        let hot = vms.iter().filter(|v| **v < 10).count();
        let cold = vms.iter().filter(|v| **v >= 990).count();
        assert!(hot > 10 * cold.max(1), "Zipf skew missing: hot={hot} cold={cold}");
    }

    #[test]
    fn attribution_folds_cold_tenants_into_small_working_sets() {
        let s = spec();
        let m = TenantMix { vms: 100, skew: 0.0, ws_decay: 2.0, ..Default::default() };
        let layout = AddressLayout::of_spec(&s);
        let mut a = TenantAttrib::new(&m, layout, 5);
        let ws99 = m.ws_pages(layout.small_pages, 99);
        for r in TraceGenerator::new(&s, 5).take(5000) {
            let t = a.attribute(r);
            if t.space.vm.0 == 99 && t.addr.raw() < layout.large_base.raw() {
                let idx = (t.addr.raw() - layout.small_base.raw()) >> 12;
                assert!(idx < ws99, "page {idx} outside rank-99 working set {ws99}");
            }
        }
    }

    #[test]
    fn churn_is_deterministic_ordered_and_typed() {
        let m = mix(500);
        let layout = AddressLayout::of_spec(&spec());
        let base = AddressSpace::new(VmId(0), ProcessId(2));
        let run = |seed| {
            ChurnGenerator::new(&m, layout, seed, 300.0, base).take(500).collect::<Vec<_>>()
        };
        let a = run(11);
        assert_eq!(a, run(11));
        assert_ne!(a, run(12));
        let mut prev = 0;
        let (mut destroys, mut remaps) = (0, 0);
        for e in &a {
            assert!(e.icount >= prev, "non-decreasing churn icounts");
            prev = e.icount;
            assert_eq!(e.space.process, ProcessId(2));
            match e.kind {
                OsEventKind::DestroyVm => destroys += 1,
                OsEventKind::RemapPage { va, size } => {
                    assert_eq!(size, PageSize::Small4K);
                    assert_eq!(layout.page_size_of(va), Some(PageSize::Small4K));
                    remaps += 1;
                }
                other => panic!("unexpected churn event {other:?}"),
            }
        }
        assert!(destroys > 0 && remaps > 0, "destroys={destroys} remaps={remaps}");
        // Destroys are ~2x storms, each storm is 8 remaps.
        assert!(remaps > destroys, "storms emit fork_pages remaps apiece");
    }

    #[test]
    fn fork_storm_targets_stay_inside_victim_working_set() {
        let m = TenantMix {
            vms: 50,
            skew: 0.0,
            ws_decay: 1.5,
            churn_destroys_per_10k: 0.0,
            fork_storms_per_10k: 5.0,
            fork_pages: 4,
        };
        let layout = AddressLayout::of_spec(&spec());
        let base = AddressSpace::default();
        for e in ChurnGenerator::new(&m, layout, 9, 300.0, base).take(400) {
            if let OsEventKind::RemapPage { va, .. } = e.kind {
                let idx = (va.raw() - layout.small_base.raw()) >> 12;
                let ws = m.ws_pages(layout.small_pages, u32::from(e.space.vm.0));
                assert!(idx < ws, "storm page {idx} outside victim ws {ws}");
            }
        }
    }

    #[test]
    fn serde_round_trip_and_default_field() {
        let m = mix(10_000);
        let json = serde_json::to_string(&m).unwrap();
        let back: TenantMix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
        // Old serialized specs (no tenancy field) deserialize to disabled.
        let legacy: TenantMix = serde_json::from_str("{}").unwrap_or_default();
        assert!(!legacy.active());
    }
}
