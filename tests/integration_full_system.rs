//! End-to-end integration: paper workloads driven through the full stack
//! (trace generation → interleaving → MMU → caches → POM-TLB → DRAM →
//! performance model).

use pom_tlb::perf_model::BaselineMeasurement;
use pom_tlb::{PomTlbConfig, Scheme, SimConfig, Simulation, SystemConfig};
use pomtlb_tlb::{TsbConfig, WalkMode};
use pomtlb_trace::digest::{digest256, digest_hex};
use pomtlb_trace::{LocalityModel, OsEventRates, WorkloadSpec};
use pomtlb_workloads::{all, by_name};

fn quick() -> SimConfig {
    SimConfig { refs_per_core: 4_000, warmup_per_core: 1_500, seed: 0xfeed }
}

fn small_sys() -> SystemConfig {
    SystemConfig { n_cores: 2, ..Default::default() }
}

#[test]
fn every_paper_workload_simulates() {
    for w in all() {
        let r = Simulation::new(&w.spec, Scheme::pom_tlb(), quick())
            .shared_memory(w.suite.shares_memory())
            .with_system_config(small_sys())
            .run();
        assert_eq!(r.workload, w.name, "report carries the workload name");
        assert!(r.refs > 0);
        assert!(r.instructions > r.refs, "{}: gaps imply instructions > refs", w.name);
        assert!(r.l2_tlb_misses > 0, "{}: footprints exceed SRAM TLB reach", w.name);
        assert_eq!(
            r.resolved_l2d + r.resolved_l3d + r.resolved_pom_dram + r.page_walks,
            r.l2_tlb_misses,
            "{}: each miss resolves exactly once",
            w.name
        );
    }
}

#[test]
fn prepopulated_pom_absorbs_every_workload() {
    // The paper's §7 claim: a 16 MB POM-TLB eliminates ~99 % of page walks.
    for w in all() {
        let r = Simulation::new(&w.spec, Scheme::pom_tlb(), quick())
            .shared_memory(w.suite.shares_memory())
            .with_system_config(small_sys())
            .run();
        assert!(
            r.walks_eliminated() > 0.95,
            "{}: only {:.3} of walks eliminated",
            w.name,
            r.walks_eliminated()
        );
    }
}

#[test]
fn miss_rates_track_footprint_pressure() {
    // gups (GB-scale uniform) must miss far more than streamcluster
    // (256 MB, mostly large pages, streaming).
    let gups = by_name("gups").unwrap();
    let sc = by_name("streamcluster").unwrap();
    let r_gups = Simulation::new(&gups.spec, Scheme::Baseline, quick())
        .shared_memory(true)
        .with_system_config(small_sys())
        .run();
    let r_sc = Simulation::new(&sc.spec, Scheme::Baseline, quick())
        .shared_memory(true)
        .with_system_config(small_sys())
        .run();
    assert!(r_gups.mpki() > 3.0 * r_sc.mpki(), "{} vs {}", r_gups.mpki(), r_sc.mpki());
}

#[test]
fn determinism_across_identical_runs() {
    let w = by_name("canneal").unwrap();
    let run = || {
        Simulation::new(&w.spec, Scheme::pom_tlb(), quick())
            .shared_memory(w.suite.shares_memory())
            .with_system_config(small_sys())
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses);
    assert_eq!(a.total_penalty, b.total_penalty);
    assert_eq!(a.resolved_l2d, b.resolved_l2d);
    assert_eq!(a.pom_dram.accesses, b.pom_dram.accesses);
}

#[test]
fn seeds_change_traces_but_not_shape() {
    let w = by_name("graph500").unwrap();
    let run = |seed| {
        Simulation::new(&w.spec, Scheme::pom_tlb(), SimConfig { seed, ..quick() })
            .shared_memory(true)
            .with_system_config(small_sys())
            .run()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a.total_penalty, b.total_penalty, "different seeds, different traces");
    // The qualitative outcome is seed-stable.
    assert!(a.walks_eliminated() > 0.9 && b.walks_eliminated() > 0.9);
}

#[test]
fn perf_model_connects_simulation_to_improvement() {
    let w = by_name("mcf").unwrap();
    let base = Simulation::new(&w.spec, Scheme::Baseline, quick())
        .with_system_config(small_sys())
        .run();
    let pom = Simulation::new(&w.spec, Scheme::pom_tlb(), quick())
        .with_system_config(small_sys())
        .run();
    // Build the Eq. 2-5 pipeline end to end with the anchored baseline.
    let m = BaselineMeasurement::from_table2_virtual(&w.table2, 1_000_000_000, 1.0);
    let anchored_p = m.p_avg().max(base.p_avg());
    let anchored = BaselineMeasurement {
        penalty_cycles: (anchored_p * m.l2_misses as f64) as u64,
        cycles: m.c_ideal() + (anchored_p * m.l2_misses as f64) as u64,
        ..m
    };
    let projection = anchored.project(pom.p_avg());
    assert!(projection.ipc > 0.0);
    assert!(projection.cycles > 0.0);
    assert!(
        projection.improvement_pct > -50.0 && projection.improvement_pct < 50.0,
        "implausible improvement {}",
        projection.improvement_pct
    );
}

#[test]
fn instructions_scale_with_rpki() {
    // refs_per_kilo_instr controls the instruction gaps the traces carry.
    let w = by_name("gcc").unwrap();
    let r = Simulation::new(&w.spec, Scheme::Baseline, quick())
        .with_system_config(small_sys())
        .run();
    let implied_rpki = r.refs as f64 * 1000.0 / r.instructions as f64;
    let spec_rpki = w.spec.refs_per_kilo_instr;
    assert!(
        (implied_rpki / spec_rpki - 1.0).abs() < 0.15,
        "implied {implied_rpki:.0} vs spec {spec_rpki:.0}"
    );
}

#[test]
fn more_cores_more_traffic_same_structure() {
    let w = by_name("pagerank").unwrap();
    let run = |n| {
        Simulation::new(&w.spec, Scheme::pom_tlb(), quick())
            .shared_memory(true)
            .with_system_config(SystemConfig { n_cores: n, ..Default::default() })
            .run()
    };
    let two = run(2);
    let four = run(4);
    assert!(four.refs > two.refs);
    assert!(four.walks_eliminated() > 0.95);
    assert_eq!(four.n_cores, 4);
}

/// Digest of the serialized reports of a small prepopulated batch, pinned
/// so that any change to what prepopulation leaves in the in-DRAM
/// structures — or to the order it leaves it in — changes a byte.
const PINNED_PREPOPULATED_DIGEST: &str =
    "356f7a51488a518c2d80b7c3496b074c2b24915b081c883577b4fafd75e352c9";

#[test]
fn prepopulated_reports_are_pinned() {
    // POM-TLB and TSB far smaller than the footprint, so prepopulation
    // evicts: which entries survive, their LRU ages and the TSB conflict
    // count all depend on the order translations were installed in.
    let tiny = |walk_mode| SystemConfig {
        n_cores: 2,
        pom: PomTlbConfig { capacity_bytes: 32 << 10, ..Default::default() },
        tsb: TsbConfig { capacity_bytes: 16 << 10, ..Default::default() },
        walk_mode,
        ..Default::default()
    };
    let spec = |name: &str, rates: OsEventRates| {
        WorkloadSpec::builder(name)
            .footprint_bytes(48 << 20)
            .large_page_frac(0.25)
            .locality(LocalityModel::UniformRandom)
            .os_events(rates)
            .build()
    };
    // (spec, shared address space, walk mode): one shared space, two
    // SPECrate spaces walked natively, and OS events whose shootdowns read
    // the prepopulated POM-TLB and TSB.
    let events = OsEventRates { unmaps: 5.0, remaps: 2.0, promotes: 1.0, ..Default::default() };
    let runs = [
        (spec("pin-shared", OsEventRates::default()), true, WalkMode::Virtualized),
        (spec("pin-rate", OsEventRates::default()), false, WalkMode::Native),
        (spec("pin-events", events), false, WalkMode::Virtualized),
    ];
    let cfg = SimConfig { refs_per_core: 3_000, warmup_per_core: 1_000, seed: 14 };
    let mut bytes = Vec::new();
    for (spec, shared, walk_mode) in &runs {
        for scheme in [Scheme::Baseline, Scheme::SharedL2, Scheme::Tsb, Scheme::pom_tlb()] {
            let r = Simulation::new(spec, scheme, cfg)
                .shared_memory(*shared)
                .with_system_config(tiny(*walk_mode))
                .run();
            bytes.extend(serde_json::to_string(&r).expect("report serializes").into_bytes());
            bytes.push(b'\n');
        }
    }
    assert_eq!(digest_hex(&digest256(&bytes)), PINNED_PREPOPULATED_DIGEST);
}
