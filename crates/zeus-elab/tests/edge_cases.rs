//! Elaboration edge cases: INOUT connections, conditional connections,
//! NUM boundary behavior, empty arrays, and diagnostics quality.

use zeus_elab::{elaborate, NodeOp};
use zeus_syntax::parse_program;

fn elab(src: &str, top: &str, args: &[i64]) -> zeus_elab::Design {
    let p = parse_program(src).expect("parse");
    match elaborate(&p, top, args) {
        Ok(d) => d,
        Err(e) => panic!("elaboration failed:\n{e}"),
    }
}

fn elab_err(src: &str, top: &str, args: &[i64]) -> String {
    let p = parse_program(src).expect("parse");
    elaborate(&p, top, args)
        .map(|_| ())
        .expect_err("expected error")
        .to_string()
}

#[test]
fn inout_connection_aliases() {
    // A connection statement's INOUT actual is aliased, not copied
    // (§4.3: "An actual parameter is connected to a formal INOUT
    // parameter by aliasing").
    let src = "TYPE inner = COMPONENT (IN a: boolean; z: multiplex) IS \
         BEGIN IF a THEN z := 1 END END; \
         t = COMPONENT (IN x: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; w: multiplex; \
         BEGIN g(x, w); s := w END;";
    let d = elab(src, "t", &[]);
    let pin = d.names["t.g.z"];
    let wire = d.names["t.w"];
    assert_eq!(d.netlist.find_ref(pin), d.netlist.find_ref(wire));
}

#[test]
fn inout_connection_under_if_rejected() {
    let src = "TYPE inner = COMPONENT (IN a: boolean; z: multiplex) IS \
         BEGIN IF a THEN z := 1 END END; \
         t = COMPONENT (IN x: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; w: multiplex; \
         BEGIN IF x THEN g(x, w) END; s := w END;";
    let e = elab_err(src, "t", &[]);
    assert!(e.contains("INOUT") || e.contains("if statement"), "{e}");
}

#[test]
fn conditional_connection_guards_in_assignments() {
    // "it only allows to formulate conditional assignments but not
    // conditional connections" is the SWITCH function's flaw the IF
    // statement fixes (§4.4) — IN/OUT connections inside IF are guarded.
    let src = "TYPE inner = COMPONENT (IN a: boolean; OUT b: boolean) IS \
         BEGIN b := a END; \
         t = COMPONENT (IN x, en: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; w: multiplex; \
         BEGIN IF en THEN g(x, w) END; s := w END;";
    let d = elab(src, "t", &[]);
    // Both generated assignments (g.a := x, w := g.b) are If nodes.
    let ifs = d
        .netlist
        .nodes
        .iter()
        .filter(|n| n.op == NodeOp::If)
        .count();
    assert_eq!(ifs, 2);
}

#[test]
fn num_index_out_of_representable_range() {
    // A 2-bit address over an array [0..2]: index 3 is representable but
    // out of bounds — it simply selects nothing (reads NOINFL).
    let src = "TYPE t = COMPONENT (IN a: ARRAY[1..2] OF boolean; OUT s: boolean) IS \
         SIGNAL mem: ARRAY[0..2] OF multiplex; \
         BEGIN \
           mem[0] := 1; mem[1] := 0; mem[2] := 1; \
           s := mem[NUM(a)] \
         END;";
    let d = elab(src, "t", &[]);
    // Three comparators (one per word in range).
    let eqs = d
        .netlist
        .nodes
        .iter()
        .filter(|n| matches!(n.op, NodeOp::Equal { .. }))
        .count();
    assert_eq!(eqs, 3);
}

#[test]
fn num_address_wider_than_array() {
    // A 4-bit address over 3 words: indexes 3..15 unreachable; only the
    // representable in-range words get comparators.
    let src = "TYPE t = COMPONENT (IN a: ARRAY[1..4] OF boolean; OUT s: boolean) IS \
         SIGNAL mem: ARRAY[0..2] OF multiplex; \
         BEGIN \
           mem[0] := 1; mem[1] := 0; mem[2] := 1; \
           s := mem[NUM(a)] \
         END;";
    let d = elab(src, "t", &[]);
    let eqs = d
        .netlist
        .nodes
        .iter()
        .filter(|n| matches!(n.op, NodeOp::Equal { .. }))
        .count();
    assert_eq!(eqs, 3);
}

#[test]
fn num_array_with_negative_lower_bound() {
    // Words at negative indexes can never be addressed by NUM (addresses
    // are unsigned): no comparators are generated for them.
    let src = "TYPE t = COMPONENT (IN a: ARRAY[1..2] OF boolean; OUT s: boolean) IS \
         SIGNAL mem: ARRAY[-2..1] OF multiplex; \
         BEGIN \
           mem[-2] := 0; mem[-1] := 0; mem[0] := 1; mem[1] := 0; \
           s := mem[NUM(a)] \
         END;";
    let d = elab(src, "t", &[]);
    let eqs = d
        .netlist
        .nodes
        .iter()
        .filter(|n| matches!(n.op, NodeOp::Equal { .. }))
        .count();
    assert_eq!(eqs, 2, "only indexes 0 and 1 are addressable");
}

#[test]
fn empty_array_elaborates_to_nothing() {
    let src = "TYPE t(n) = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL h: ARRAY[1..n] OF boolean; \
         BEGIN s := a END;";
    let d = elab(src, "t", &[0]);
    assert!(d.netlist.net_count() < 10);
}

#[test]
fn index_out_of_bounds_reported_with_name() {
    let src = "TYPE t = COMPONENT (IN a: ARRAY[1..4] OF boolean; OUT s: boolean) IS \
         BEGIN s := a[5] END;";
    let e = elab_err(src, "t", &[]);
    assert!(e.contains("index 5 outside array bounds [1..4]"), "{e}");
}

#[test]
fn wrong_arity_type_instantiation() {
    let src = "TYPE bo(n) = ARRAY[1..n] OF boolean; \
         t = COMPONENT (IN a: bo; OUT s: boolean) IS BEGIN s := a[1] END;";
    let e = elab_err(src, "t", &[]);
    assert!(e.contains("takes 1 parameter"), "{e}");
}

#[test]
fn gate_width_mismatch_reported() {
    let src = "TYPE t = COMPONENT (IN a: ARRAY[1..3] OF boolean; IN b: ARRAY[1..2] OF boolean; \
                        OUT s: ARRAY[1..3] OF boolean) IS \
         BEGIN s := AND(a, b) END;";
    let e = elab_err(src, "t", &[]);
    assert!(e.contains("same number of basic signals"), "{e}");
}

#[test]
fn equal_width_mismatch_reported() {
    let src = "TYPE t = COMPONENT (IN a: ARRAY[1..3] OF boolean; IN b: ARRAY[1..2] OF boolean; \
                        OUT s: boolean) IS \
         BEGIN s := EQUAL(a, b) END;";
    let e = elab_err(src, "t", &[]);
    assert!(e.contains("EQUAL operands"), "{e}");
}

#[test]
fn condition_must_be_one_bit() {
    let src = "TYPE t = COMPONENT (IN a: ARRAY[1..3] OF boolean; OUT s: boolean) IS \
         SIGNAL h: multiplex; \
         BEGIN IF a THEN h := 1 END; s := h END;";
    let e = elab_err(src, "t", &[]);
    assert!(e.contains("condition must be one basic signal"), "{e}");
}

#[test]
fn function_recursion_with_when_terminates() {
    // A recursive reduction function: OR over n bits by halving.
    let src = "TYPE orall(n) = COMPONENT (IN x: ARRAY[1..n] OF boolean): boolean IS \
         BEGIN \
           WHEN n = 1 THEN RESULT x[1] \
           OTHERWISE RESULT OR(orall[n DIV 2](x[1..n DIV 2]), \
                               orall[n - n DIV 2](x[n DIV 2 + 1..n])) \
           END \
         END; \
         t = COMPONENT (IN a: ARRAY[1..8] OF boolean; OUT s: boolean) IS \
         BEGIN s := orall[8](a) END;";
    let d = elab(src, "t", &[]);
    assert!(d.netlist.node_count() > 7);
}

#[test]
fn function_without_when_guard_reports_depth() {
    let src = "TYPE bad(n) = COMPONENT (IN x: boolean): boolean IS \
         BEGIN RESULT bad[n+1](x) END; \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         BEGIN s := bad[0](a) END;";
    let e = elab_err(src, "t", &[]);
    assert!(e.contains("recursion too deep"), "{e}");
}

#[test]
fn warnings_are_collected_not_fatal() {
    // multiplex := multiplex unconditional is the §4.7 "abuse": legal
    // with a warning.
    let src = "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL x, y: multiplex; \
         BEGIN x := a; y := x; s := y END;";
    let d = elab(src, "t", &[]);
    assert!(!d.warnings.is_empty());
    assert!(d.warnings.iter().any(|w| w.message.contains("multiplex")));
}

#[test]
fn instance_node_paths_are_hierarchical() {
    let src = "TYPE leaf = COMPONENT (IN a: boolean; OUT b: boolean) IS BEGIN b := a END; \
         mid = COMPONENT (IN a: boolean; OUT b: boolean) IS \
         SIGNAL l: leaf; BEGIN l(a, b) END; \
         top = COMPONENT (IN a: boolean; OUT b: boolean) IS \
         SIGNAL m: mid; BEGIN m(a, b) END;";
    let d = elab(src, "top", &[]);
    let mid = d.instances.child("m").expect("mid instance");
    assert_eq!(mid.path, "top.m");
    let leaf = mid.child("l").expect("leaf instance");
    assert_eq!(leaf.path, "top.m.l");
    assert_eq!(leaf.type_name, "leaf");
}

#[test]
fn sequentially_replication_incompatible_when_reversed() {
    // FOR ... DO SEQUENTIALLY claims iteration i completes before i+1;
    // wiring the chain backwards contradicts the dataflow order.
    let e = elab_err(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL h: ARRAY[1..4] OF boolean; \
         BEGIN \
           h[4] := a; \
           FOR i := 1 TO 3 DO SEQUENTIALLY h[i] := NOT h[i+1] END; \
           s := h[1] \
         END;",
        "t",
        &[],
    );
    assert!(e.contains("SEQUENTIAL"), "{e}");
    // The forward version is compatible.
    elab(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL h: ARRAY[1..4] OF boolean; \
         BEGIN \
           h[1] := a; \
           FOR i := 2 TO 4 DO SEQUENTIALLY h[i] := NOT h[i-1] END; \
           s := h[4] \
         END;",
        "t",
        &[],
    );
}

#[test]
fn duplicate_connection_through_with_views_rejected() {
    let e = elab_err(
        "TYPE inner = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN y := x END; \
         holder = COMPONENT (g: inner); \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL h: holder; w: multiplex; \
         BEGIN \
           WITH h DO g(a, w) END; \
           h.g(a, w); \
           s := w \
         END;",
        "t",
        &[],
    );
    assert!(e.contains("at most one connection statement"), "{e}");
}

#[test]
fn design_and_simulator_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<zeus_elab::Design>();
    // And usable across threads: elaborate here, simulate there.
    let d = elab(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS BEGIN s := NOT a END;",
        "t",
        &[],
    );
    let handle = std::thread::spawn(move || {
        let mut sim = zeus_sim::Simulator::new(d).unwrap();
        sim.set_port_num("a", 1).unwrap();
        sim.step();
        sim.port_num("s")
    });
    assert_eq!(handle.join().unwrap(), Some(0));
}

#[test]
fn driver_diagnostics_come_out_in_ascending_net_order() {
    // Five doubly assigned outputs, declared t..p, and one signal that
    // is assigned both ways: the diagnostics follow the nets, whatever
    // order a hash map would visit them in.
    let src = "TYPE top = COMPONENT (IN a,b,c: boolean; OUT t,s,r,q,p,m: boolean) IS \
         BEGIN p := a; r := b; t := a; q := b; s := a; \
               q := a; t := b; p := b; s := b; r := a; \
               m := c; IF a THEN m := b END END;";
    let program = parse_program(src).expect("parse");
    let first = elaborate(&program, "top", &[])
        .map(|_| ())
        .expect_err("double assignments")
        .to_string();
    let named: Vec<&str> = ["top.t", "top.s", "top.r", "top.q", "top.p", "top.m"]
        .into_iter()
        .filter(|n| first.contains(&format!("'{n}'")))
        .collect();
    assert_eq!(named.len(), 6, "{first}");
    let at = |n: &str| first.find(&format!("'{n}'")).unwrap();
    assert!(
        named.windows(2).all(|w| at(w[0]) < at(w[1])),
        "not in net order:\n{first}"
    );
    for _ in 0..20 {
        let again = elaborate(&program, "top", &[])
            .map(|_| ())
            .expect_err("double assignments")
            .to_string();
        assert_eq!(again, first);
    }
}
