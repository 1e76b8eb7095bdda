//! Campaign throughput: scalar vs bit-parallel (packed) fault
//! simulation on the ripple-carry adder — the headline number for the
//! packed engine (ISSUE 3 acceptance: packed+jobs ≥ 8× scalar).
//!
//! Besides the criterion groups, the bench prints a one-line speedup
//! summary comparing one full scalar campaign against the packed engine
//! at 1 thread and at all available threads, so the ratio is recorded
//! directly in the bench output.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use zeus::{
    enumerate_faults, examples, run_campaign, run_campaign_packed, CampaignConfig, Engine,
    FaultListOptions, Zeus,
};

const VECTORS: u32 = 64;
const SEED: u64 = 1;

fn setup() -> (zeus::Design, zeus::FaultList, CampaignConfig) {
    let z = Zeus::parse(examples::ADDERS).unwrap();
    let d = z.elaborate("rippleCarry4", &[]).unwrap();
    // Stuck-ats plus bridges plus transients: the fullest fault
    // universe the CLI can enumerate, uncollapsed faults included in
    // the simulated set's workload profile.
    let opts = FaultListOptions {
        bridges: true,
        transients: Some(3),
    };
    let list = enumerate_faults(&d, &opts);
    let cfg = CampaignConfig::new(Engine::Graph, VECTORS, SEED);
    (d, list, cfg)
}

fn bench(c: &mut Criterion) {
    let (d, list, cfg) = setup();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut g = c.benchmark_group("fault_campaign");
    g.sample_size(10);
    g.bench_function("scalar_rippleCarry4", |b| {
        b.iter(|| run_campaign(black_box(&d), &list, &cfg).unwrap())
    });
    g.bench_function("packed_j1_rippleCarry4", |b| {
        b.iter(|| run_campaign_packed(black_box(&d), &list, &cfg, 1).unwrap())
    });
    g.bench_function(format!("packed_j{jobs}_rippleCarry4"), |b| {
        b.iter(|| run_campaign_packed(black_box(&d), &list, &cfg, jobs).unwrap())
    });
    g.finish();

    // The acceptance ratio, measured directly and printed with the
    // bench output: one full campaign per engine (plus a warmup each).
    let time = |f: &dyn Fn() -> zeus::CoverageReport| {
        f();
        let t = Instant::now();
        let r = f();
        (t.elapsed(), r)
    };
    let (t_scalar, r_scalar) = time(&|| run_campaign(&d, &list, &cfg).unwrap());
    let (t_packed1, r_packed1) = time(&|| run_campaign_packed(&d, &list, &cfg, 1).unwrap());
    let (t_packedn, r_packedn) = time(&|| run_campaign_packed(&d, &list, &cfg, jobs).unwrap());
    assert_eq!(
        r_scalar.to_json(),
        r_packed1.to_json(),
        "engines must agree"
    );
    assert_eq!(
        r_scalar.to_json(),
        r_packedn.to_json(),
        "engines must agree"
    );
    println!(
        "campaign-throughput rippleCarry4: {} faults x {VECTORS} vectors | \
         scalar {:?} | packed --jobs 1 {:?} ({:.1}x) | packed --jobs {jobs} {:?} ({:.1}x)",
        list.faults.len(),
        t_scalar,
        t_packed1,
        t_scalar.as_secs_f64() / t_packed1.as_secs_f64().max(1e-9),
        t_packedn,
        t_scalar.as_secs_f64() / t_packedn.as_secs_f64().max(1e-9),
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
