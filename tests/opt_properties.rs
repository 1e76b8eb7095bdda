//! Optimizer determinism and idempotence over *generated* programs.
//!
//! The smoke suite covers the 19 bundled designs; these properties run
//! the same contracts over the zeus-fuzz program generator, whose
//! output space (nested instances, registers, replication, RANDOM,
//! conflicting drivers) is much wilder than the curated examples:
//!
//! * **determinism** — two independent `optimize` runs on the same
//!   design produce byte-identical serialized netlists and reports;
//! * **idempotence** — a second pass over an optimized design is a
//!   fixed point (zero rewrites, byte-identical serialization);
//! * **the gate holds** — `optimize` never returns `Err` on a valid
//!   design (an `Err` here means the verifier caught the pipeline
//!   miscompiling, which is exactly what this property hunts for).

use proptest::prelude::*;
use zeus::{netlist_from_text, netlist_to_text, optimize, OptConfig, Zeus};
use zeus_fuzz::gen::generate;
use zeus_syntax::print_program;

/// Generates, parses and elaborates one fuzz case; `None` when the
/// generated program trips a resource limit (not what we are testing).
fn gen_design(seed: u64, case: u64, size: u32) -> Option<zeus::Design> {
    let g = generate(seed, case, size);
    let text = print_program(&g.program);
    let z = Zeus::parse(&text).ok()?;
    z.elaborate(&g.top, &[]).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two independent runs agree byte for byte, and a second pass over
    /// the result is a fixed point.
    #[test]
    fn optimizer_is_deterministic_and_idempotent(
        seed in any::<u64>(),
        case in 0u64..64,
        size in 0u32..=2,
    ) {
        let Some(d) = gen_design(seed, case, size) else {
            return Ok(());
        };
        let cfg = OptConfig::default();
        let a = optimize(&d, &cfg)
            .unwrap_or_else(|e| panic!("gate failed on seed={seed} case={case}: {e}"));
        let b = optimize(&d, &cfg)
            .unwrap_or_else(|e| panic!("gate failed on seed={seed} case={case}: {e}"));
        // Determinism: same input, same pipeline, same bytes.
        prop_assert_eq!(netlist_to_text(&a.design), netlist_to_text(&b.design));
        prop_assert_eq!(a.report.total_rewrites(), b.report.total_rewrites());
        prop_assert_eq!(a.report.iterations, b.report.iterations);
        prop_assert_eq!(&a.report.after, &b.report.after);

        // Idempotence: the pipeline has a fixed point and reaches it.
        let twice = optimize(&a.design, &cfg)
            .unwrap_or_else(|e| panic!("re-run gate failed on seed={seed} case={case}: {e}"));
        prop_assert_eq!(twice.report.total_rewrites(), 0);
        prop_assert_eq!(netlist_to_text(&a.design), netlist_to_text(&twice.design));
    }

    /// The optimized design never gets worse on either recorded metric,
    /// and its serialized form round-trips with a stable digest.
    #[test]
    fn optimizer_never_regresses_generated_designs(
        seed in any::<u64>(),
        case in 0u64..64,
    ) {
        let Some(d) = gen_design(seed, case, 2) else {
            return Ok(());
        };
        let out = optimize(&d, &OptConfig::default())
            .unwrap_or_else(|e| panic!("gate failed on seed={seed} case={case}: {e}"));
        let r = &out.report;
        prop_assert!(r.after.gates <= r.before.gates, "gates grew: {:?}", r);
        prop_assert!(r.after.depth <= r.before.depth, "depth grew: {:?}", r);
        let text = netlist_to_text(&out.design);
        let back = netlist_from_text(&text).unwrap();
        prop_assert_eq!(zeus::design_digest(&back), zeus::design_digest(&out.design));
    }
}
