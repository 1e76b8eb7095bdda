//! Elaboration tests against paper constructs (§3, §4, §6.4).

use zeus_elab::{elaborate, elaborate_signal, elaborate_with, Design, Limits, NodeOp};
use zeus_syntax::parse_program;

fn elab(src: &str, top: &str, args: &[i64]) -> Design {
    let p = parse_program(src).expect("parse");
    zeus_sema::check_program(&p).expect("check");
    match elaborate(&p, top, args) {
        Ok(d) => d,
        Err(e) => panic!("elaboration failed for top '{top}':\n{e}"),
    }
}

fn elab_err(src: &str, top: &str, args: &[i64]) -> String {
    let p = parse_program(src).expect("parse");
    elaborate(&p, top, args)
        .map(|_| ())
        .expect_err("expected elaboration error")
        .to_string()
}

const HALFADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
     BEGIN s := XOR(a,b); cout := AND(a,b) END;";

#[test]
fn halfadder_ports_and_gates() {
    let d = elab(HALFADDER, "halfadder", &[]);
    assert_eq!(d.ports.len(), 4);
    assert_eq!(d.inputs().count(), 2);
    assert_eq!(d.outputs().count(), 2);
    let xor = d
        .netlist
        .nodes
        .iter()
        .filter(|n| n.op == NodeOp::Xor)
        .count();
    let and = d
        .netlist
        .nodes
        .iter()
        .filter(|n| n.op == NodeOp::And)
        .count();
    assert_eq!(xor, 1);
    assert_eq!(and, 1);
}

const FULLADDER: &str = "TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS \
     BEGIN s := XOR(a,b); cout := AND(a,b) END; \
     fulladder = COMPONENT (IN a,b,cin: boolean; OUT cout,s: boolean) IS \
     SIGNAL h1,h2:halfadder; \
     BEGIN h1(a,b,*,h2.a); h2(h1.s,cin,*,s); cout := OR(h1.cout,h2.cout) END;";

#[test]
fn fulladder_instantiates_two_halfadders() {
    let d = elab(FULLADDER, "fulladder", &[]);
    // The instance tree holds fulladder -> {h1, h2}.
    assert_eq!(d.instances.children.len(), 2);
    assert!(d.instances.child("h1").is_some());
    assert!(d.instances.child("h2").is_some());
    // Two XOR and two AND gates from the two half adders, one OR.
    assert_eq!(
        d.netlist
            .nodes
            .iter()
            .filter(|n| n.op == NodeOp::Xor)
            .count(),
        2
    );
    assert_eq!(
        d.netlist
            .nodes
            .iter()
            .filter(|n| n.op == NodeOp::Or)
            .count(),
        1
    );
}

#[test]
fn identical_repeated_connection_assignments_are_deduped() {
    // h1's connection writes h2.a := h1.s and h2's own connection repeats
    // it; §4.3 allows identical repeats.
    let d = elab(FULLADDER, "fulladder", &[]);
    let h2a = d.names["fulladder.h2.a"];
    let bufs = d
        .netlist
        .nodes
        .iter()
        .filter(|n| n.op == NodeOp::Buf && n.output == h2a)
        .count();
    assert_eq!(bufs, 1, "duplicate identical connection must be deduped");
}

#[test]
fn conditional_assign_to_plain_boolean_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
         SIGNAL h: boolean; \
         BEGIN IF a THEN h := b END; s := h END;",
        "t",
        &[],
    );
    assert!(
        e.contains("type rules (1)") || e.contains("conditional assignment"),
        "{e}"
    );
}

#[test]
fn conditional_assign_to_multiplex_ok() {
    elab(
        "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
         SIGNAL h: multiplex; \
         BEGIN IF a THEN h := b END; s := h END;",
        "t",
        &[],
    );
}

#[test]
fn conditional_assign_to_formal_out_ok_exception1() {
    elab(
        "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
         BEGIN IF a THEN s := b END END;",
        "t",
        &[],
    );
}

#[test]
fn double_unconditional_assignment_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL h: boolean; \
         BEGIN h := a; h := NOT a; s := h END;",
        "t",
        &[],
    );
    assert!(e.contains("unconditional assignments"), "{e}");
}

#[test]
fn mixed_conditional_unconditional_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a,b: boolean; OUT s: boolean) IS \
         SIGNAL h: multiplex; \
         BEGIN h := a; IF a THEN h := b END; s := h END;",
        "t",
        &[],
    );
    assert!(e.contains("conditionally and unconditionally"), "{e}");
}

#[test]
fn alias_boolean_boolean_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL x,y: boolean; \
         BEGIN x := a; x == y; s := y END;",
        "t",
        &[],
    );
    assert!(
        e.contains("type rules (2)") || e.contains("aliasing"),
        "{e}"
    );
}

#[test]
fn alias_multiplex_multiplex_ok() {
    let d = elab(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL x,y: multiplex; \
         BEGIN x := a; x == y; s := y END;",
        "t",
        &[],
    );
    // x and y canonicalize to one net.
    assert_eq!(
        d.netlist.find_ref(d.names["t.x"]),
        d.netlist.find_ref(d.names["t.y"])
    );
}

#[test]
fn alias_under_if_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL x,y: multiplex; \
         BEGIN IF a THEN x == y END; x := a; s := y END;",
        "t",
        &[],
    );
    assert!(e.contains("conditional"), "{e}");
}

#[test]
fn assignment_to_formal_in_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         BEGIN a := s; s := a END;",
        "t",
        &[],
    );
    assert!(e.contains("formal IN parameter"), "{e}");
}

#[test]
fn assignment_to_instance_out_rejected() {
    let e = elab_err(
        "TYPE inner = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN y := x END; \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; \
         BEGIN g.x := a; g.y := a; s := g.y END;",
        "t",
        &[],
    );
    assert!(e.contains("OUT parameter"), "{e}");
}

#[test]
fn combinational_loop_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL x,y: boolean; \
         BEGIN x := AND(a, y); y := NOT x; s := y END;",
        "t",
        &[],
    );
    assert!(e.contains("combinational feedback loop"), "{e}");
}

#[test]
fn loop_through_register_ok() {
    let d = elab(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL r: REG; \
         BEGIN r(NOT r.out, s) END;",
        "t",
        &[],
    );
    assert_eq!(d.netlist.registers().count(), 1);
}

#[test]
fn unclosed_port_rejected() {
    let e = elab_err(
        "TYPE inner = COMPONENT (IN x: boolean; OUT y,z: boolean) IS \
         BEGIN y := x; z := x END; \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; \
         BEGIN g.x := a; s := g.y END;",
        "t",
        &[],
    );
    assert!(e.contains("neither used nor assigned"), "{e}");
}

#[test]
fn star_closes_port() {
    elab(
        "TYPE inner = COMPONENT (IN x: boolean; OUT y,z: boolean) IS \
         BEGIN y := x; z := x END; \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; \
         BEGIN g(a, s, *) END;",
        "t",
        &[],
    );
}

#[test]
fn unused_component_not_generated() {
    // left/right of the recursive tree stay unelaborated at the base case.
    let d = elab(
        "TYPE inner = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN y := x END; \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL used, unused: inner; \
         BEGIN used(a, s) END;",
        "t",
        &[],
    );
    assert!(d.instances.child("used").is_some());
    assert!(d.instances.child("unused").is_none());
}

const TREE: &str = "TYPE q = COMPONENT (IN in: boolean; OUT out1,out2: boolean) IS \
     BEGIN out1 := in; out2 := in END; \
     tree(n) = COMPONENT(IN in:boolean; OUT leaf:ARRAY[1..n] OF boolean) IS \
     SIGNAL left, right: tree(n DIV 2); \
     preleaf: ARRAY[1.. n DIV 2] OF q; \
     root: q; \
     BEGIN \
       WHEN n>2 THEN \
         root.in := in; \
         left.in := root.out1; right.in := root.out2; \
         FOR i := 1 TO n DIV 4 DO \
           preleaf[i].in := left.leaf[2*i-1]; \
           preleaf[i+n DIV 4].in := right.leaf[2*i-1]; \
           * := left.leaf[2*i]; * := right.leaf[2*i] \
         END; \
         FOR i := 1 TO n DIV 2 DO \
           leaf[2*i-1] := preleaf[i].out1; \
           leaf[2*i] := preleaf[i].out2 \
         END \
       OTHERWISE \
         root.in := in; leaf[1] := root.out1; leaf[2] := root.out2 \
       END \
     END;";

#[test]
fn recursive_tree_elaborates() {
    let d = elab(TREE, "tree", &[8]);
    // tree(8) = root + 4 preleaf + left/right tree(4); each tree(4) =
    // root + 2 preleaf + 2 tree(2); tree(2) = root only.
    let total = d.instances.size();
    assert!(total > 10, "expected a deep tree, got {total} instances");
    // The base case must not instantiate its (declared but unused)
    // children.
    fn find<'a>(
        n: &'a zeus_elab::InstanceNode,
        ty: &str,
        out: &mut Vec<&'a zeus_elab::InstanceNode>,
    ) {
        if n.type_name == ty {
            out.push(n);
        }
        for c in &n.children {
            find(c, ty, out);
        }
    }
    let mut trees = Vec::new();
    find(&d.instances, "tree", &mut trees);
    // left/right at n=2 unused: tree nodes are tree(8)=top + 2× tree(4)
    // + 4× tree(2) (the root itself is of type "tree" and is counted).
    assert_eq!(
        trees.len(),
        7,
        "tree(8) expands to 7 tree instances in total"
    );
}

#[test]
fn unbounded_recursion_reports_error() {
    let p = parse_program(
        "TYPE bad(n) = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL sub: bad(n+1); \
         BEGIN sub.a := a; s := sub.s END;",
    )
    .expect("parse");
    let opts = Limits {
        max_instances: 500,
        ..Limits::default()
    };
    let e = elaborate_with(&p, "bad", &[0], &opts)
        .map(|_| ())
        .expect_err("must not terminate silently");
    assert!(e.to_string().contains("does not terminate"), "{e}");
}

#[test]
fn routing_network_structure() {
    let src = "TYPE bit10 = ARRAY[1..10] OF boolean; \
         channel(n) = ARRAY[0..n] OF bit10; \
         router = COMPONENT(IN inport0,inport1:bit10; OUT outport0,outport1:bit10) IS \
         BEGIN outport0 := inport0; outport1 := inport1 END; \
         routingnetwork(n) = COMPONENT(IN input: channel(n-1); OUT output: channel(n-1)) IS \
         SIGNAL top,bottom: routingnetwork(n DIV 2); \
         c: ARRAY[0..n DIV 2-1] OF router; \
         BEGIN \
           WHEN n=2 THEN c[0](input[0],input[1],output[0],output[1]) \
           OTHERWISE \
             FOR i := 0 TO n DIV 2 -1 DO \
               c[i](input[2*i],input[2*i+1],top.input[i],bottom.input[i]); \
               output[i] := top.output[i]; \
               output[i+ n DIV 2] := bottom.output[i] \
             END \
           END \
         END;";
    let d = elab(src, "routingnetwork", &[8]);
    fn count(n: &zeus_elab::InstanceNode, ty: &str) -> usize {
        (n.type_name == ty) as usize + n.children.iter().map(|c| count(c, ty)).sum::<usize>()
    }
    // (n/2)·log2(n) routers for n=8: 4·3 = 12.
    assert_eq!(count(&d.instances, "router"), 12);
}

#[test]
fn ram_with_num_indexing() {
    let src = "CONST words = 4; width = 2; abits = 2; \
         TYPE ram = COMPONENT (IN a: ARRAY[1..abits] OF boolean; \
                               IN din: ARRAY[1..width] OF boolean; \
                               IN we: boolean; \
                               OUT dout: ARRAY[1..width] OF boolean) IS \
         SIGNAL mem: ARRAY[0..words-1] OF ARRAY[1..width] OF REG; \
         BEGIN \
           IF we THEN mem[NUM(a)].in := din END; \
           dout := mem[NUM(a)].out \
         END;";
    let d = elab(src, "ram", &[]);
    assert_eq!(d.netlist.registers().count(), 8);
    // Address comparators: 4 for the write demux + 4 for the read mux.
    let eqs = d
        .netlist
        .nodes
        .iter()
        .filter(|n| matches!(n.op, NodeOp::Equal { .. }))
        .count();
    assert_eq!(eqs, 8);
}

#[test]
fn chessboard_virtual_replacement() {
    let src = "TYPE black = COMPONENT(IN top, left: boolean; OUT bottom,right:boolean) IS \
         BEGIN bottom := top; right := left END; \
         white = COMPONENT(IN top, left: boolean; OUT bottom,right:boolean) IS \
         BEGIN bottom := left; right := top END; \
         chessboard(n) = COMPONENT(IN a: boolean; OUT z: boolean) IS \
         SIGNAL m: ARRAY[1..n,1..n] OF virtual; \
         { ORDER toptobottom \
             FOR i := 1 TO n DO \
               ORDER lefttoright \
                 FOR j := 1 TO n DO \
                   WHEN odd(i+j) THEN m[i,j] = black OTHERWISE m[i,j] = white END \
                 END \
               END \
             END \
           END } \
         BEGIN \
           FOR i := 1 TO n DO m[i,1].left := a; * := m[i,n].right END; \
           FOR j := 1 TO n DO m[1,j].top := a; * := m[n,j].bottom END; \
           FOR i := 2 TO n DO FOR j := 1 TO n DO \
             m[i,j].top := m[i-1,j].bottom \
           END END; \
           FOR i := 1 TO n DO FOR j := 2 TO n DO \
             m[i,j].left := m[i,j-1].right \
           END END; \
           z := m[n,n].bottom \
         END;";
    let d = elab(src, "chessboard", &[4]);
    fn count(n: &zeus_elab::InstanceNode, ty: &str) -> usize {
        (n.type_name == ty) as usize + n.children.iter().map(|c| count(c, ty)).sum::<usize>()
    }
    assert_eq!(
        count(&d.instances, "black") + count(&d.instances, "white"),
        16
    );
    assert_eq!(count(&d.instances, "black"), 8);
    // Layout carries the 4 rows × 4 columns order structure.
    assert!(!d.instances.layout.is_empty());
}

#[test]
fn htree_aliasing_and_layout() {
    let src = "TYPE htree(n) = \
         COMPONENT(IN in:boolean; out: multiplex) { BOTTOM in; out } IS \
         TYPE leaftype = COMPONENT(IN in:boolean; out: multiplex) IS BEGIN END; \
         SIGNAL s: ARRAY[1..4] OF htree(n DIV 4); \
         leaf: leaftype; \
         { ORDER lefttoright \
             ORDER toptobottom s[1]; flip90 s[3] END; \
             ORDER toptobottom s[2]; flip90 s[4] END \
           END } \
         BEGIN \
           WHEN n>1 THEN \
             FOR i := 1 TO 4 DO s[i].in := in; out == s[i].out END \
           OTHERWISE \
             leaf.in := in; out == leaf.out \
           END \
         END;";
    let d = elab(src, "htree", &[16]);
    fn count(n: &zeus_elab::InstanceNode, ty: &str) -> usize {
        (n.type_name == ty) as usize + n.children.iter().map(|c| count(c, ty)).sum::<usize>()
    }
    // htree(16) → 4 htree(4) → 16 htree(1), each with one leaf.
    assert_eq!(count(&d.instances, "htree"), 21);
    assert_eq!(count(&d.instances, "leaftype"), 16);
    // All outs alias to the top `out` port.
    let top_out = d.port("out").expect("out port").nets[0];
    let leaf_out = d.names["htree.s[1].s[2].leaf.out"];
    assert_eq!(d.netlist.find_ref(leaf_out), d.netlist.find_ref(top_out));
}

#[test]
fn function_component_call_inlines() {
    let src = "TYPE bo(n) = ARRAY[1..n] OF boolean; \
         mux4 = COMPONENT (IN d:bo(4); IN a:bo(2); IN g: boolean):boolean IS \
         CONST bit2 = ((0,0),(0,1),(1,0),(1,1)); \
         SIGNAL h: multiplex; \
         BEGIN \
           FOR i:=1 TO 4 DO IF EQUAL(a,bit2[i]) THEN h := d[i] END END; \
           RESULT AND(NOT g,h) \
         END; \
         top = COMPONENT (IN d:bo(4); IN a:bo(2); IN g: boolean; OUT y: boolean) IS \
         BEGIN y := mux4(d,a,g) END;";
    let d = elab(src, "top", &[]);
    // Four EQUAL comparators from the unrolled FOR.
    let eqs = d
        .netlist
        .nodes
        .iter()
        .filter(|n| matches!(n.op, NodeOp::Equal { .. }))
        .count();
    assert_eq!(eqs, 4);
}

#[test]
fn function_with_type_args() {
    let src =
        "TYPE ident(n) = COMPONENT (IN x: ARRAY[1..n] OF boolean): ARRAY[1..n] OF boolean IS \
         BEGIN RESULT x END; \
         top = COMPONENT (IN a: ARRAY[1..3] OF boolean; OUT y: ARRAY[1..3] OF boolean) IS \
         BEGIN y := ident[3](a) END;";
    let d = elab(src, "top", &[]);
    assert_eq!(d.port("y").unwrap().width(), 3);
}

#[test]
fn sequential_incompatible_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL x,y: boolean; \
         BEGIN SEQUENTIAL y := NOT x; x := NOT a END; s := y END;",
        "t",
        &[],
    );
    assert!(e.contains("SEQUENTIAL"), "{e}");
}

#[test]
fn sequential_compatible_ok() {
    elab(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL x,y: boolean; \
         BEGIN SEQUENTIAL x := NOT a; y := NOT x END; s := y END;",
        "t",
        &[],
    );
}

#[test]
fn elaborate_signal_entry_point() {
    let src = format!("{HALFADDER} SIGNAL ha: halfadder;");
    let p = parse_program(&src).expect("parse");
    let d = elaborate_signal(&p, "ha").expect("elaborate via signal");
    assert_eq!(d.top_type, "halfadder");
}

#[test]
fn with_statement_opens_fields() {
    let src = "TYPE inner = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN y := x END; \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; \
         BEGIN WITH g DO x := a; s := y END END;";
    let d = elab(src, "t", &[]);
    assert!(d.instances.child("g").is_some());
}

#[test]
fn clk_rset_available() {
    let d = elab(
        "TYPE t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         BEGIN IF RSET THEN s := CLK ELSE s := a END END;",
        "t",
        &[],
    );
    assert!(d.clk.is_some());
    assert!(d.rset.is_some());
}

#[test]
fn array_connection_distributes() {
    let src = "TYPE r = COMPONENT(IN a:boolean; OUT b:boolean) IS BEGIN b := a END; \
         t = COMPONENT (IN s: ARRAY[1..10] OF boolean; OUT u: ARRAY[1..10] OF boolean) IS \
         SIGNAL x: ARRAY[1..10] OF r; \
         BEGIN x(s,u) END;";
    let d = elab(src, "t", &[]);
    assert_eq!(d.instances.children.len(), 10);
}

#[test]
fn second_connection_statement_rejected() {
    let e = elab_err(
        "TYPE inner = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN y := x END; \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; \
         BEGIN g(a, s); g(a, s) END;",
        "t",
        &[],
    );
    assert!(e.contains("at most one connection statement"), "{e}");
}

#[test]
fn width_mismatch_rejected() {
    let e = elab_err(
        "TYPE t = COMPONENT (IN a: ARRAY[1..3] OF boolean; OUT s: ARRAY[1..2] OF boolean) IS \
         BEGIN s := a END;",
        "t",
        &[],
    );
    assert!(e.contains("width mismatch"), "{e}");
}

#[test]
fn broadcast_field_selection() {
    // r.in denotes r[1..n].in (§4.1).
    let d = elab(
        "TYPE rec = COMPONENT (IN in: boolean; OUT out: boolean); \
         t = COMPONENT (IN a: ARRAY[1..4] OF boolean; OUT s: ARRAY[1..4] OF boolean) IS \
         SIGNAL r: ARRAY[1..4] OF rec; \
         BEGIN r.in := a; s := r.out; r.out := a END;",
        "t",
        &[],
    );
    // 4 + 4 + 4 buffers.
    let bufs = d
        .netlist
        .nodes
        .iter()
        .filter(|n| n.op == NodeOp::Buf)
        .count();
    assert_eq!(bufs, 12);
}

#[test]
fn out_port_reading_is_allowed_and_star_discards() {
    elab(
        "TYPE inner = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN y := x END; \
         t = COMPONENT (IN a: boolean; OUT s: boolean) IS \
         SIGNAL g: inner; \
         BEGIN g.x := a; * := g.y; s := a END;",
        "t",
        &[],
    );
}
