//! Per-layer numbers.
//!
//! [`components`] replays one recorded input stream into each modelled
//! component on its own and times the component's public functions: the
//! page tables, the SRAM TLB front end, the nested walker, the POM-TLB,
//! the size/bypass predictor, the data caches, the DRAM channel, the TSB
//! and the shootdown path. These are host times.
//!
//! [`simulated`] reads the model's own statistics off the batch reports:
//! hit rates, predictor accuracy, walk cycles, shootdown counts and
//! per-tenant latency. They describe the modelled hardware, so a change
//! that only speeds up the simulator leaves them identical.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pom_tlb::{CoreMmu, PomTlb, Scheme, SimJob, SimReport, SizeBypassPredictor, System};
use pomtlb_cache::Hierarchy;
use pomtlb_dram::Channel;
use pomtlb_tlb::{NestedWalker, Tsb, VirtTables, MAX_REGIONS};
use pomtlb_trace::{AddressLayout, OsEvent, SharedTrace, TraceItem};
use pomtlb_types::{AddressSpace, CoreId, Cycles, Gva, Hpa, PageSize, ProcessId, VmId};

use crate::stats::{median, ns_per, ratio};
use crate::Metrics;

/// Page tables per address space, created on first sight, with physical
/// regions assigned round-robin as the simulator assigns them.
struct Spaces {
    list: Vec<VirtTables>,
    index: HashMap<AddressSpace, usize>,
    walk_mode: pomtlb_tlb::WalkMode,
}

impl Spaces {
    fn slot(&mut self, space: AddressSpace) -> usize {
        if let Some(&i) = self.index.get(&space) {
            return i;
        }
        let i = self.list.len();
        self.list.push(VirtTables::with_region(
            self.walk_mode,
            i as u32 % MAX_REGIONS,
        ));
        self.index.insert(space, i);
        i
    }
}

/// One replayed reference with its translation resolved up front.
struct Input {
    core: CoreId,
    space: AddressSpace,
    va: Gva,
    size: PageSize,
    page_base: Hpa,
    write: bool,
    table: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Replays up to a fixed number of references of `trace` (recorded for
/// `job`) into each component and records ns per operation.
pub fn components(m: &mut Metrics, trace: &Arc<SharedTrace>, job: &SimJob, smoke: bool) {
    let max_refs = if smoke { 4_000 } else { 200_000 };
    let sys = &job.sys;
    let n = sys.n_cores;
    let layout = AddressLayout::of_spec(&job.spec);

    let mut refs = Vec::new();
    let mut events: Vec<(CoreId, OsEvent)> = Vec::new();
    let mut stream = trace.replay();
    while refs.len() < max_refs {
        let Some(ci) = stream.next() else { break };
        match ci.item {
            TraceItem::Ref(r) => refs.push((ci.core, r)),
            TraceItem::Event(e) => events.push((ci.core, e)),
        }
    }

    // Construction of the whole machine, per scheme.
    let construct: Vec<f64> = crate::sweep::SCHEMES
        .iter()
        .map(|&s| {
            timed(|| black_box(System::new(sys.clone(), s)))
                .1
                .as_secs_f64()
                * 1e3
        })
        .collect();
    m.set("system.construct_ms", median(&construct));

    // Mapping the footprint, once per distinct base address space, as
    // `Simulation::begin` does.
    let mut spaces = Spaces {
        list: Vec::new(),
        index: HashMap::new(),
        walk_mode: sys.walk_mode,
    };
    let mut bases: Vec<AddressSpace> = Vec::new();
    for c in 0..n {
        let pid = if job.shared_memory { 0 } else { c as u16 };
        let space = AddressSpace::new(VmId(0), ProcessId(pid));
        if !bases.contains(&space) {
            bases.push(space);
            spaces.slot(space);
        }
    }
    let (mapped, map_time) = timed(|| {
        let mut mapped = Vec::new();
        for &space in &bases {
            let ti = spaces.slot(space);
            for (page, size) in layout.pages() {
                mapped.push((space, page, size, spaces.list[ti].ensure_mapped(page, size)));
            }
        }
        mapped
    });
    m.set(
        "page_table.map_ns_per_page",
        ns_per(map_time, mapped.len() as u64),
    );
    m.set("page_table.pages_mapped", mapped.len() as f64);

    let mut system = System::new(sys.clone(), Scheme::pom_tlb());
    let (_, prepopulate) = timed(|| {
        for &(space, page, size, hpa) in &mapped {
            system.prepopulate_translation(space, page, size, hpa);
        }
    });
    m.set(
        "pom_tlb.prepopulate_ns_per_page",
        ns_per(prepopulate, mapped.len() as u64),
    );

    let inputs: Vec<Input> = refs
        .iter()
        .map(|(core, r)| {
            let size = layout
                .page_size_of(r.addr)
                .expect("stream addresses stay inside the layout");
            let table = spaces.slot(r.space);
            let page_base = spaces.list[table].ensure_mapped(r.addr, size);
            Input {
                core: *core,
                space: r.space,
                va: r.addr,
                size,
                page_base,
                write: r.kind.is_write(),
                table,
            }
        })
        .collect();
    let n_refs = inputs.len() as u64;

    // SRAM TLB front end: lookup, and fill on a miss.
    let mut mmus: Vec<CoreMmu> = (0..n).map(|_| CoreMmu::new(&sys.mmu)).collect();
    let (misses, t) = timed(|| {
        let mut misses = Vec::new();
        for (i, x) in inputs.iter().enumerate() {
            let mmu = &mut mmus[x.core.index()];
            if mmu.lookup(x.space, x.va).0.is_miss() {
                mmu.fill(x.space, x.va, x.size, x.page_base);
                misses.push(i);
            }
        }
        misses
    });
    m.set("mmu.lookup_ns", ns_per(t, n_refs));
    let n_miss = misses.len() as u64;

    // Nested walks for the references that missed the front end.
    let mut walkers: Vec<NestedWalker> = (0..n).map(|_| NestedWalker::new(sys.psc)).collect();
    let mut hier = Hierarchy::new(sys.caches, n);
    let mut ddr = Channel::new(sys.ddr.clone(), sys.dram_banks);
    let (_, t) = timed(|| {
        let mut now = Cycles::ZERO;
        for &i in &misses {
            let x = &inputs[i];
            let walk = walkers[x.core.index()]
                .walk(
                    x.core,
                    x.space,
                    x.va,
                    &spaces.list[x.table],
                    &mut hier,
                    &mut ddr,
                    now,
                )
                .expect("every replayed page is mapped");
            now += walk.latency;
        }
    });
    m.set("walker.walk_ns", ns_per(t, n_miss));

    // The POM-TLB array: insert the footprint, then probe the misses.
    let mut pom = PomTlb::new(sys.pom);
    let (_, t) = timed(|| {
        for &(space, page, size, hpa) in &mapped {
            black_box(pom.insert(space, page, size, hpa));
        }
    });
    m.set("pom_tlb.insert_ns", ns_per(t, mapped.len() as u64));
    let (_, t) = timed(|| {
        for &i in &misses {
            let x = &inputs[i];
            black_box(pom.lookup(x.space, x.va, x.size));
        }
    });
    m.set("pom_tlb.lookup_ns", ns_per(t, n_miss));
    let used: u64 = PageSize::POM_SIZES.iter().map(|&s| pom.occupancy(s)).sum();
    m.set(
        "pom_tlb.occupancy",
        ratio(used as f64, pom.capacity_entries() as f64),
    );

    // Predictor: predict both dimensions and train on the truth.
    let set_addrs: Vec<Hpa> = misses
        .iter()
        .map(|&i| pom.set_addr(inputs[i].space, inputs[i].va, inputs[i].size))
        .collect();
    let cached: Vec<bool> = misses
        .iter()
        .zip(&set_addrs)
        .map(|(&i, &a)| hier.contains_line(inputs[i].core, a))
        .collect();
    let mut predictor = SizeBypassPredictor::new();
    let (_, t) = timed(|| {
        for (k, &i) in misses.iter().enumerate() {
            let x = &inputs[i];
            let size = predictor.predict_size(x.va);
            let bypass = predictor.predict_bypass(x.va);
            predictor.train_size(x.va, size, x.size);
            predictor.train_bypass(x.va, bypass, !cached[k]);
        }
    });
    m.set("predictor.ns", ns_per(t, n_miss));

    // Data caches: every reference's data line, and the POM-TLB line of
    // every miss.
    let mut caches = Hierarchy::new(sys.caches, n);
    let (_, t) = timed(|| {
        for x in &inputs {
            let hpa = Hpa::new(x.page_base.raw() + x.va.page_offset(x.size));
            black_box(caches.access_data(x.core, hpa, x.write));
        }
    });
    m.set("cache.data_ns", ns_per(t, n_refs));
    let (_, t) = timed(|| {
        for (k, &i) in misses.iter().enumerate() {
            black_box(caches.access_tlb_line(inputs[i].core, set_addrs[k], false));
        }
    });
    m.set("cache.tlb_line_ns", ns_per(t, n_miss));

    // DRAM: every reference's data line on the off-chip channel.
    let mut dram = Channel::new(sys.ddr.clone(), sys.dram_banks);
    let (_, t) = timed(|| {
        let mut now = Cycles::ZERO;
        for x in &inputs {
            let hpa = Hpa::new(x.page_base.raw() + x.va.page_offset(x.size));
            now = dram.access(hpa, now).completes_at;
        }
    });
    m.set("dram.access_ns", ns_per(t, n_refs));

    // TSB: filled with the footprint as prepopulation fills it, then
    // translating every miss.
    let mut tsb = Tsb::new(sys.tsb);
    for &(space, page, size, hpa) in &mapped {
        tsb.fill(space, page, size, page.page_base(size).raw(), hpa);
    }
    let mut tsb_caches = Hierarchy::new(sys.caches, n);
    let mut stacked = Channel::new(sys.die_stacked.clone(), sys.die_stacked_banks);
    let (_, t) = timed(|| {
        let mut now = Cycles::ZERO;
        for &i in &misses {
            let x = &inputs[i];
            now += tsb
                .translate(
                    x.core,
                    x.space,
                    x.va,
                    x.size,
                    &mut tsb_caches,
                    &mut stacked,
                    now,
                )
                .latency;
        }
    });
    m.set("tsb.translate_ns", ns_per(t, n_miss));

    // Shootdowns: the stream's OS events, then whole-VM flushes.
    let (_, t) = timed(|| {
        for (core, event) in &events {
            let ti = spaces.slot(event.space);
            black_box(system.handle_os_event(*core, event, &mut spaces.list[ti]));
        }
    });
    m.set(
        "shootdown.os_event_us",
        ns_per(t, events.len() as u64) / 1e3,
    );
    let mut vms: Vec<VmId> = inputs.iter().map(|x| x.space.vm).collect();
    vms.sort_unstable_by_key(|v| v.0);
    vms.dedup();
    let flushes: Vec<f64> = vms
        .iter()
        .take(8)
        .map(|&vm| timed(|| black_box(system.flush_vm(vm))).1.as_secs_f64() * 1e6)
        .collect();
    m.set("shootdown.flush_vm_us", median(&flushes));
}

/// The model's statistics, summed over the batch's reports.
pub fn simulated(m: &mut Metrics, reports: &[SimReport]) {
    let sum = |rs: &[&SimReport], f: &dyn Fn(&SimReport) -> u64| -> f64 {
        rs.iter().map(|r| f(r) as f64).sum()
    };
    let all: Vec<&SimReport> = reports.iter().collect();
    let pom: Vec<&SimReport> = reports
        .iter()
        .filter(|r| matches!(r.scheme, Scheme::PomTlb { .. }))
        .collect();
    let tsb: Vec<&SimReport> = reports.iter().filter(|r| r.scheme == Scheme::Tsb).collect();

    m.set(
        "mmu.l2_misses_per_kref",
        ratio(
            sum(&all, &|r| r.l2_tlb_misses) * 1e3,
            sum(&all, &|r| r.refs),
        ),
    );
    m.set("walker.walks", sum(&all, &|r| r.walker.walks));
    m.set(
        "walker.psc_hit_rate",
        ratio(
            sum(&all, &|r| r.walker.psc_hits),
            sum(&all, &|r| r.walker.psc_hits + r.walker.psc_misses),
        ),
    );
    m.set(
        "walker.cycles_per_walk",
        ratio(
            sum(&all, &|r| r.walker.total_latency.raw()),
            sum(&all, &|r| r.walker.walks),
        ),
    );
    m.set(
        "tsb.hit_rate",
        ratio(
            sum(&tsb, &|r| r.resolved_tsb),
            sum(&tsb, &|r| r.l2_tlb_misses),
        ),
    );
    let pom_misses = sum(&pom, &|r| r.l2_tlb_misses);
    m.set(
        "pom_tlb.hit_rate",
        ratio(
            sum(&pom, &|r| {
                r.resolved_l2d + r.resolved_l3d + r.resolved_pom_dram
            }),
            pom_misses,
        ),
    );
    m.set(
        "predictor.size_acc",
        ratio(
            sum(&pom, &|r| r.size_pred.correct),
            sum(&pom, &|r| r.size_pred.correct + r.size_pred.wrong),
        ),
    );
    m.set(
        "predictor.bypass_acc",
        ratio(
            sum(&pom, &|r| r.bypass_pred.correct),
            sum(&pom, &|r| r.bypass_pred.correct + r.bypass_pred.wrong),
        ),
    );
    m.set(
        "cache.pom_l2d_hit_rate",
        ratio(sum(&pom, &|r| r.resolved_l2d), pom_misses),
    );
    m.set(
        "cache.pom_l3d_hit_rate",
        ratio(
            sum(&pom, &|r| r.resolved_l3d),
            pom_misses - sum(&pom, &|r| r.resolved_l2d),
        ),
    );
    m.set(
        "dram.accesses",
        sum(&all, &|r| r.pom_dram.accesses + r.main_dram.accesses),
    );
    m.set(
        "dram.pom_rbh",
        ratio(
            sum(&pom, &|r| r.pom_dram.row_hits),
            sum(&pom, &|r| r.pom_dram.accesses),
        ),
    );
    m.set("shootdown.events", sum(&all, &|r| r.shootdowns.events));
    m.set(
        "shootdown.invalidations",
        sum(&all, &|r| r.shootdowns.total_invalidations()),
    );
    m.set(
        "shootdown.cycles",
        sum(&all, &|r| r.shootdowns.penalty.raw()),
    );
    // Only a consolidation job accounts per tenant.
    if let Some(r) = pom.iter().find(|r| r.tenancy.vms > 0) {
        m.set("tenancy.median_p99_cycles", r.tenancy.median_p99 as f64);
        m.set("tenancy.worst_p99_cycles", r.tenancy.worst_p99 as f64);
        m.set("tenancy.dispersion", r.tenancy.dispersion);
    }
}
