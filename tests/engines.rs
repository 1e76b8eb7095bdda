//! E12: the three evaluation engines — the Zeus semantics-graph
//! simulator, the event-driven variant, and the switch-level baseline
//! (Bryant-style) — agree on the paper's designs (claim C1 is about the
//! *cost* difference; this test pins down that the semantics match).

use rand::{Rng, SeedableRng};
use zeus::{examples, Zeus};

#[test]
fn e12_adder_agrees_across_engines() {
    let z = Zeus::parse(examples::ADDERS).unwrap();
    let design = z.elaborate("rippleCarry", &[8]).unwrap();
    let mut lv = zeus::Simulator::new(design.clone()).unwrap();
    let mut ev = zeus::EventSimulator::new(design.clone()).unwrap();
    let mut sw = zeus::SwitchSim::new(&design);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for _ in 0..40 {
        let a = rng.gen_range(0..256u64);
        let b = rng.gen_range(0..256u64);
        let cin = rng.gen_range(0..2u64);
        lv.set_port_num("a", a).unwrap();
        lv.set_port_num("b", b).unwrap();
        lv.set_port_num("cin", cin).unwrap();
        ev.set_port_num("a", a).unwrap();
        ev.set_port_num("b", b).unwrap();
        ev.set_port_num("cin", cin).unwrap();
        sw.set_port_num("a", a).unwrap();
        sw.set_port_num("b", b).unwrap();
        sw.set_port_num("cin", cin).unwrap();
        lv.step();
        ev.step();
        sw.step();
        let expect = Some(((a + b + cin) & 0xff) as i64);
        assert_eq!(lv.port_num("s"), expect);
        assert_eq!(ev.port_num("s"), expect);
        assert_eq!(sw.port_num("s"), expect, "switch level: a={a} b={b}");
    }
}

#[test]
fn e12_mux_agrees_across_engines() {
    let z = Zeus::parse(examples::MUX).unwrap();
    let design = z.elaborate("muxtop", &[]).unwrap();
    let mut lv = zeus::Simulator::new(design.clone()).unwrap();
    let mut sw = zeus::SwitchSim::new(&design);
    for d in [0b1010u64, 0b0110, 0b1111, 0b0001] {
        for a in 0..4u64 {
            for g in 0..2u64 {
                lv.set_port_num("d", d).unwrap();
                lv.set_port_num("a", a).unwrap();
                lv.set_port_num("g", g).unwrap();
                sw.set_port_num("d", d).unwrap();
                sw.set_port_num("a", a).unwrap();
                sw.set_port_num("g", g).unwrap();
                lv.step();
                sw.step();
                assert_eq!(lv.port("y"), sw.port("y"), "d={d:04b} a={a} g={g}");
            }
        }
    }
}

#[test]
fn e12_sequential_design_agrees() {
    // A 4-bit counter built from the blackjack substrate pieces.
    let src = "TYPE bo4 = ARRAY[1..4] OF boolean; \
         counter = COMPONENT (IN enable: boolean; OUT q: bo4) IS \
         SIGNAL r: ARRAY[1..4] OF REG; \
         SIGNAL c: ARRAY[1..5] OF boolean; \
         BEGIN \
           c[1] := enable; \
           FOR i := 1 TO 4 DO \
             c[i+1] := AND(c[i], r[i].out); \
             <* AND with NOT RSET clears the state: AND dominance turns \
                the undefined power-on value into 0 during reset *> \
             r[i].in := AND(XOR(r[i].out, c[i]), NOT RSET); \
             q[i] := r[i].out \
           END \
         END;";
    let z = Zeus::parse(src).unwrap();
    let design = z.elaborate("counter", &[]).unwrap();
    let mut lv = zeus::Simulator::new(design.clone()).unwrap();
    let mut ev = zeus::EventSimulator::new(design.clone()).unwrap();
    let mut sw = zeus::SwitchSim::new(&design);
    // Clear the undefined power-on state, then count and compare.
    for s in 0..2 {
        let _ = s;
        lv.set_rset(true);
        ev.set_rset(true);
        sw.set_rset(true);
        lv.set_port_num("enable", 0).unwrap();
        ev.set_port_num("enable", 0).unwrap();
        sw.set_port_num("enable", 0).unwrap();
        lv.step();
        ev.step();
        sw.step();
    }
    lv.set_rset(false);
    ev.set_rset(false);
    sw.set_rset(false);
    let mut count = 0i64;
    for cycle in 0..24 {
        let en = u64::from(cycle % 3 != 0);
        lv.set_port_num("enable", en).unwrap();
        ev.set_port_num("enable", en).unwrap();
        sw.set_port_num("enable", en).unwrap();
        lv.step();
        ev.step();
        sw.step();
        // The q port shows the register value *during* the cycle, i.e.
        // the count before this cycle's increment.
        assert_eq!(lv.port_num("q"), Some(count), "cycle {cycle}");
        assert_eq!(ev.port_num("q"), Some(count), "cycle {cycle}");
        assert_eq!(sw.port_num("q"), Some(count), "cycle {cycle}");
        if en == 1 {
            count = (count + 1) % 16;
        }
    }
}

#[test]
fn e12_transistor_counts_reported() {
    // The baseline's cost scales with transistor count; sanity-check the
    // synthesis sizes for the sweep used in the benches.
    let z = Zeus::parse(examples::ADDERS).unwrap();
    let mut last = 0usize;
    for n in [3i64, 8, 16] {
        let d = z.elaborate("rippleCarry", &[n]).unwrap();
        let sw = zeus::SwitchSim::new(&d);
        assert!(sw.transistor_count() > last);
        last = sw.transistor_count();
    }
    assert!(
        last > 500,
        "16-bit adder should be >500 transistors: {last}"
    );
}

/// All four engines drive ports through one lookup and one number
/// encoder: an over-wide value and an unknown port are the same errors
/// everywhere, and a fitting value drives the same bits.
#[test]
fn every_engine_rejects_over_wide_values_and_unknown_ports_alike() {
    let design = Zeus::parse(examples::ADDERS)
        .unwrap()
        .elaborate("rippleCarry", &[8])
        .unwrap();
    let mut lv = zeus::Simulator::new(design.clone()).unwrap();
    let mut ev = zeus::EventSimulator::new(design.clone()).unwrap();
    let mut pk = zeus::PackedSim::new(design.clone()).unwrap();
    let mut sw = zeus::SwitchSim::new(&design);
    type Drive<'a> = Box<dyn FnMut(&str, u64) -> Result<(), zeus::Diagnostic> + 'a>;
    let engines: [(&str, Drive); 4] = [
        ("scalar", Box::new(|p, v| lv.set_port_num(p, v))),
        ("event", Box::new(|p, v| ev.set_port_num(p, v))),
        ("packed", Box::new(|p, v| pk.set_port_num(p, v))),
        ("switch", Box::new(|p, v| sw.set_port_num(p, v))),
    ];
    for (name, mut drive) in engines {
        let wide = drive("a", 300).expect_err(name);
        assert_eq!(
            wide.message, "value 300 does not fit in the 8-bit port 'a'",
            "{name}"
        );
        let unknown = drive("zz", 1).expect_err(name);
        assert_eq!(unknown.message, "no port named 'zz'", "{name}");
        assert!(drive("a", 255).is_ok(), "{name}");
    }
    let bits = vec![zeus::Value::One; 3];
    for err in [
        lv.set_port("a", &bits),
        ev.set_port("a", &bits),
        pk.set_port("a", &bits),
        sw.set_port("a", &bits),
    ] {
        assert_eq!(
            err.unwrap_err().message,
            "port 'a' has 8 bits but 3 values were given"
        );
    }
}

/// A number drives a port wider than 64 bits with zeros from bit 64 up,
/// never a copy of a low bit.
#[test]
fn numbers_zero_extend_into_ports_wider_than_64_bits() {
    let design = Zeus::parse(examples::ADDERS)
        .unwrap()
        .elaborate("rippleCarry", &[70])
        .unwrap();
    let mut one = vec![zeus::Value::Zero; 70];
    one[0] = zeus::Value::One;
    let mut lv = zeus::Simulator::new(design.clone()).unwrap();
    let mut sw = zeus::SwitchSim::new(&design);
    for (port, v) in [("a", 1), ("b", 0), ("cin", 0)] {
        lv.set_port_num(port, v).unwrap();
        sw.set_port_num(port, v).unwrap();
    }
    lv.try_step().unwrap();
    sw.try_step().unwrap();
    assert_eq!(lv.port("s"), one);
    assert_eq!(sw.port("s"), one);
}
