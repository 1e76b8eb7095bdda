//! Packed-vs-scalar equivalence over the §10 example designs.
//!
//! The bit-parallel engine claims lane-for-lane equality with the scalar
//! simulator: any one lane of a packed run — same seed, same input
//! stream — holds exactly the values a scalar [`Simulator`] computes.
//! This suite drives every bundled design with random vectors through
//! both engines and compares every port every cycle, then checks the
//! sharded campaign runner end to end against the scalar reference
//! `run_campaign` on every design: `--jobs 1` and `--jobs 8` (and the
//! scalar path) must produce byte-identical reports, on the graph and
//! the switch engine alike.

use proptest::prelude::*;
use zeus::{
    enumerate_faults, examples, run_campaign, run_campaign_packed, run_campaign_packed_with,
    CampaignConfig, Engine, FaultListOptions, PackedSim, Simulator, Value, VectorStream, Zeus,
    LANES,
};

/// (example name, top, args) — representative parameters for every
/// bundled design (same table as the fault-injection tests).
const TOPS: &[(&str, &str, &[i64])] = &[
    ("adders", "rippleCarry4", &[]),
    ("adders", "rippleCarry", &[4]),
    ("mux", "muxtop", &[]),
    ("blackjack", "blackjack", &[]),
    ("trees", "tree", &[8]),
    ("trees", "rtree", &[8]),
    ("trees", "htree", &[16]),
    ("patternmatch", "patternmatch", &[3]),
    ("routing", "routingnetwork", &[8]),
    ("ram", "ram", &[8, 4, 3]),
    ("chessboard", "chessboard", &[4]),
    ("am2901", "am2901", &[]),
    ("stack", "systolicstack", &[4, 4]),
    ("queue", "systolicqueue", &[4, 4]),
    ("counter", "counter", &[6]),
    ("dictionary", "dictionary", &[4, 4]),
    ("sorter", "sorter", &[4, 4]),
    ("recognizer", "recab", &[]),
    ("semantics", "semc", &[]),
];

fn source(name: &str) -> &'static str {
    examples::ALL
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, s, _)| *s)
        .unwrap_or_else(|| panic!("no example {name}"))
}

/// Drives the scalar and packed engines with the same seeded vector
/// stream for `cycles` cycles and asserts every port (boolean view)
/// matches in every cycle. Returns the number of cycles compared.
fn assert_equivalent(name: &str, top: &str, targs: &[i64], seed: u64, cycles: u32) {
    let z = Zeus::parse(source(name)).unwrap();
    let d = z.elaborate(top, targs).unwrap();
    let mut scalar = Simulator::new(d.clone()).unwrap();
    let mut packed = PackedSim::new(d.clone()).unwrap();
    scalar.reseed(seed);
    packed.reseed(seed);
    let mut stream = VectorStream::new(&d, seed);

    // Reset pulse when the design uses RSET, like the campaigns.
    if d.rset.is_some() {
        scalar.set_rset(true);
        packed.set_rset(true);
        for (port, bits) in stream.zero_vector() {
            scalar.set_port(&port, &bits).unwrap();
            packed.set_port(&port, &bits).unwrap();
        }
        scalar.step();
        packed.step();
        scalar.set_rset(false);
        packed.set_rset(false);
    }

    for cycle in 0..cycles {
        for (port, bits) in &stream.next_vector() {
            scalar.set_port(port, bits).unwrap();
            packed.set_port(port, bits).unwrap();
        }
        let rs = scalar.step();
        let rp = packed.step();
        for port in &d.ports {
            let got: Vec<Value> = packed.port_lane(&port.name, 37);
            let want: Vec<Value> = scalar.port(&port.name);
            assert_eq!(
                got, want,
                "{name}/{top} port {} differs at cycle {cycle}",
                port.name
            );
        }
        // The runtime single-assignment check must fire on the same nets.
        let scalar_conflicts: Vec<u32> = rs.conflicts.iter().map(|c| c.net.0).collect();
        let packed_conflicts: Vec<u32> = rp
            .conflicts
            .iter()
            .filter(|c| (c.lanes >> 37) & 1 == 1)
            .map(|c| c.net.0)
            .collect();
        assert_eq!(
            scalar_conflicts, packed_conflicts,
            "{name}/{top} conflicts differ at cycle {cycle}"
        );
    }
}

/// Every bundled design, fixed seed: packed lanes are bit-for-bit the
/// scalar simulation.
#[test]
fn packed_matches_scalar_on_every_bundled_design() {
    for &(name, top, targs) in TOPS {
        assert_equivalent(name, top, targs, 0xD1FF_5EED, 12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds and cycle counts over a rotating subset of designs:
    /// the equivalence is not an artifact of one seed.
    #[test]
    fn packed_matches_scalar_on_random_vectors(
        seed in any::<u64>(),
        cycles in 4u32..24,
        pick in 0usize..19,
    ) {
        let (name, top, targs) = TOPS[pick];
        assert_equivalent(name, top, targs, seed, cycles);
    }
}

/// The sharded packed campaign is deterministic in the job count and
/// agrees byte-for-byte with the scalar campaign, faults and all.
#[test]
fn sharded_campaign_reports_are_job_count_invariant() {
    let z = Zeus::parse(source("adders")).unwrap();
    let d = z.elaborate("rippleCarry4", &[]).unwrap();
    let opts = FaultListOptions {
        bridges: true,
        transients: Some(2),
        ..FaultListOptions::default()
    };
    let list = enumerate_faults(&d, &opts);
    let cfg = CampaignConfig::new(Engine::Graph, 32, 1);
    let scalar = run_campaign(&d, &list, &cfg).unwrap();
    let jobs1 = run_campaign_packed(&d, &list, &cfg, 1).unwrap();
    let jobs8 = run_campaign_packed(&d, &list, &cfg, 8).unwrap();
    assert_eq!(scalar.to_json(), jobs1.to_json(), "scalar vs --jobs 1");
    assert_eq!(jobs1.to_json(), jobs8.to_json(), "--jobs 1 vs --jobs 8");
    assert_eq!(scalar.to_text(), jobs8.to_text(), "text report parity");
}

/// Designs whose debug-build scalar campaign with bridges and transients
/// takes seconds; they keep stuck-at parity only.
const SLOW_WITH_BRIDGES: &[&str] = &["blackjack", "routingnetwork", "am2901"];

/// Every bundled design keeps campaign-level parity with the scalar
/// reference: stuck-at faults over 16 vectors, plus bridges and
/// transients where the scalar run stays short.
#[test]
fn sharded_campaign_parity_on_every_bundled_design() {
    for &(name, top, targs) in TOPS {
        let z = Zeus::parse(source(name)).unwrap();
        let d = z.elaborate(top, targs).unwrap();
        let cfg = CampaignConfig::new(Engine::Graph, 16, 11);
        let mut lists = vec![enumerate_faults(&d, &FaultListOptions::default())];
        if !SLOW_WITH_BRIDGES.contains(&top) {
            let opts = FaultListOptions {
                bridges: true,
                transients: Some(2),
                ..FaultListOptions::default()
            };
            lists.push(enumerate_faults(&d, &opts));
        }
        for list in &lists {
            let scalar = run_campaign(&d, list, &cfg).unwrap();
            let packed = run_campaign_packed(&d, list, &cfg, 4).unwrap();
            assert_eq!(
                scalar.to_json(),
                packed.to_json(),
                "{name}/{top} ({} faults): packed campaign must match scalar",
                list.faults.len()
            );
        }
    }
}

/// The switch engine runs through the same word runner, one fault at a
/// time inside each word: sharding its two words over three jobs changes
/// nothing, and both runs match the scalar reference.
#[test]
fn switch_campaign_reports_are_job_count_invariant() {
    let z = Zeus::parse(source("adders")).unwrap();
    let d = z.elaborate("rippleCarry4", &[]).unwrap();
    let list = enumerate_faults(&d, &FaultListOptions::default());
    assert!(list.faults.len() > LANES, "needs two words to shard");
    let cfg = CampaignConfig::new(Engine::Switch, 4, 3);
    let jobs1 = run_campaign_packed_with(&d, &list, &cfg, 1, None).unwrap();
    let jobs3 = run_campaign_packed_with(&d, &list, &cfg, 3, None).unwrap();
    assert_eq!(jobs1.to_json(), jobs3.to_json(), "--jobs 1 vs --jobs 3");
    assert_eq!(jobs1.to_text(), jobs3.to_text(), "text report parity");
    let scalar = run_campaign(&d, &list, &cfg).unwrap();
    assert_eq!(scalar.to_json(), jobs1.to_json(), "scalar vs packed runner");
}
