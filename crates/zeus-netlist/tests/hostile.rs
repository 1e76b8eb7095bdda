//! Hostile-input robustness for the interchange readers: whatever the
//! bytes, the answer is `Ok` or a Z-coded diagnostic — never a panic,
//! never a code-less error.
//!
//! The exhaustive part (every byte-length truncation of a real payload)
//! is a plain test; the randomized splice/noise barrage rides on
//! proptest.

use proptest::prelude::*;
use zeus_elab::elaborate;
use zeus_netlist::{netlist_from_text, netlist_to_text, yosys_to_json, TEXT_MAGIC};
use zeus_syntax::parse_program;

/// A payload with some structural variety: shared subterms, a register
/// and a full-adder cone, so the serialized form exercises nodes,
/// groups and multi-line sections. The text is everything below the
/// `zeus netlist v1` line; [`decode_is_total`] puts that line back.
fn payload() -> (zeus_elab::Design, String) {
    let program = "TYPE fa = COMPONENT (IN a,b,cin,en: boolean; OUT cout,s,q: boolean) IS
         SIGNAL t1,t2,t3: boolean; SIGNAL r: REG;
         BEGIN t1 := XOR(a,b); s := XOR(t1,cin); t2 := AND(t1,cin);
               t3 := AND(a,b); cout := OR(t2,t3);
               r.in := XOR(r.out, en); q := r.out END;";
    let ast = parse_program(program).expect("payload parses");
    let design = elaborate(&ast, "fa", &[]).expect("payload elaborates");
    let text = netlist_to_text(&design);
    let payload = text.strip_prefix(TEXT_MAGIC).expect("header line");
    (design, payload[1..].to_string())
}

/// Every read failure must be a Z-coded diagnostic; getting one is
/// fine, panicking or succeeding with a different digest is not. The
/// mutated payload is read behind an intact header, so every mutation
/// reaches the codec.
fn decode_is_total(text: &str, original_digest: &str) {
    match netlist_from_text(&format!("{TEXT_MAGIC}\n{text}")) {
        Ok(d) => {
            // Accepting mutated bytes is only sound when the digest
            // (recomputed from the reconstruction) still matches.
            assert_eq!(
                format!("{:016x}", zeus_elab::design_digest(&d)),
                original_digest,
                "decoder accepted bytes that hash differently"
            );
        }
        Err(e) => {
            // A coded error; rendering it must not panic either.
            assert!(e.code.is_some(), "read failure lost its Z-code: {e}");
            let _ = e.to_string();
        }
    }
}

#[test]
fn every_truncation_of_a_design_payload_is_handled() {
    let (design, text) = payload();
    let digest = format!("{:016x}", zeus_elab::design_digest(&design));
    for cut in 0..text.len() {
        decode_is_total(&text[..cut], &digest);
    }
    // And through the public netlist wrapper, header included.
    let wrapped = netlist_to_text(&design);
    for cut in 0..wrapped.len() {
        if let Err(d) = netlist_from_text(&wrapped[..cut]) {
            assert!(d.code.is_some(), "truncation at {cut} lost its Z-code: {d}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CRLF and whitespace splices at random line boundaries.
    #[test]
    fn whitespace_splices_never_panic(
        pos in 0usize..2000,
        which in 0usize..4,
    ) {
        let (design, text) = payload();
        let digest = format!("{:016x}", zeus_elab::design_digest(&design));
        let splice = ["\r\n", " ", "\t", "\r"][which];
        let at = pos % (text.len() + 1);
        let mut mutated = String::with_capacity(text.len() + splice.len());
        mutated.push_str(&text[..at]);
        mutated.push_str(splice);
        mutated.push_str(&text[at..]);
        decode_is_total(&mutated, &digest);
    }

    /// Printable ASCII noise overwriting a random span.
    #[test]
    fn ascii_noise_never_panics(
        start in 0usize..2000,
        len in 1usize..40,
        fill in 0x20u8..0x7f,
    ) {
        let (design, text) = payload();
        let digest = format!("{:016x}", zeus_elab::design_digest(&design));
        let start = start % text.len();
        let end = (start + len).min(text.len());
        let mut bytes = text.into_bytes();
        for b in &mut bytes[start..end] {
            *b = fill;
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        decode_is_total(&mutated, &digest);
    }

    /// Random line deletion/duplication (structural, not byte-level).
    #[test]
    fn line_shuffles_never_panic(
        line in 0usize..400,
        dup in any::<bool>(),
    ) {
        let (design, text) = payload();
        let digest = format!("{:016x}", zeus_elab::design_digest(&design));
        let mut lines: Vec<&str> = text.lines().collect();
        let i = line % lines.len();
        if dup {
            let l = lines[i];
            lines.insert(i, l);
        } else {
            lines.remove(i);
        }
        let mut mutated = lines.join("\n");
        mutated.push('\n');
        decode_is_total(&mutated, &digest);
    }

    /// The same barrage through the Yosys-JSON importer: truncated and
    /// noise-spliced JSON is Ok-or-Z-coded too.
    #[test]
    fn yosys_json_mutations_are_z_coded(
        cut in 0usize..4000,
        noise in 0x20u8..0x7f,
        at in 0usize..4000,
    ) {
        let (design, _) = payload();
        let json = yosys_to_json(&design).expect("payload exports");
        let cut = cut % (json.len() + 1);
        let mut mutated = json[..cut].to_string();
        mutated.insert(at % (mutated.len() + 1), noise as char);
        if let Err(d) = zeus_netlist::yosys_from_json(&mutated) {
            prop_assert!(d.code.is_some(), "mutated JSON lost its Z-code: {d}");
        }
    }
}
