//! The dependency examples of Sec 5.2, as the paper writes them — parsed
//! from the exact assembly excerpts and checked against the extracted
//! dependency relations (Figs 22–24).

use herd_core::event::Dir;
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::parse::parse;

/// Wraps a one-thread excerpt in a minimal litmus harness.
fn one_thread(body_rows: &[&str], init: &[&str]) -> herd_litmus::LitmusTest {
    let mut src = String::from("PPC excerpt\n{\n");
    for i in init {
        src.push_str(&format!("{i};\n"));
    }
    src.push_str("}\n P0 ;\n");
    for row in body_rows {
        src.push_str(&format!(" {row} ;\n"));
    }
    src.push_str("exists (x=0)\n");
    parse(&src).expect("excerpt parses")
}

/// Sec 5.2.1: the address-dependency excerpt
/// `lwz r2,0(r1); xor r9,r2,r2; lwzx r4,r9,r3` — the xor is a false
/// dependency, yet the loads stay ordered by `addr`.
#[test]
fn sec_5_2_1_address_dependency() {
    let t = one_thread(&["lwz r2,0(r1)", "xor r9,r2,r2", "lwzx r4,r9,r3"], &["0:r1=x", "0:r3=y"]);
    let cands = enumerate(&t, &EnumOptions::default()).unwrap();
    assert!(!cands.is_empty());
    for c in &cands {
        assert_eq!(c.exec.deps().addr.len(), 1, "one addr edge");
        let (a, b) = c.exec.deps().addr.iter_pairs().next().unwrap();
        assert_eq!(c.exec.event(a).dir, Dir::R);
        assert_eq!(c.exec.event(b).dir, Dir::R);
        assert!(c.exec.po().contains(a, b));
        assert!(c.exec.deps().data.is_empty());
    }
}

/// Sec 5.2.2: the data-dependency excerpt
/// `lwz r2,0(r1); xor r9,r2,r2; stw r9,0(r4)`.
#[test]
fn sec_5_2_2_data_dependency() {
    let t = one_thread(&["lwz r2,0(r1)", "xor r9,r2,r2", "stw r9,0(r4)"], &["0:r1=x", "0:r4=y"]);
    let cands = enumerate(&t, &EnumOptions::default()).unwrap();
    for c in &cands {
        assert_eq!(c.exec.deps().data.len(), 1, "one data edge");
        let (a, b) = c.exec.deps().data.iter_pairs().next().unwrap();
        assert_eq!(c.exec.event(a).dir, Dir::R);
        assert_eq!(c.exec.event(b).dir, Dir::W);
        // The store writes 0 (the folded xor), yet the dependency holds.
        assert_eq!(c.exec.event(b).val.0, 0);
        assert!(c.exec.deps().addr.is_empty());
    }
}

/// Sec 5.2.3: the control-dependency excerpt
/// `lwz r2,0(r1); cmpwi r2,0; bne L0; stw r3,0(r4); L0:` — the store is
/// ctrl-dependent on the load even though the label follows it.
#[test]
fn sec_5_2_3_control_dependency() {
    let t = one_thread(
        &["lwz r2,0(r1)", "cmpwi r2,0", "bne L0", "stw r3,0(r4)", "L0:"],
        &["0:r1=x", "0:r3=1", "0:r4=y"],
    );
    let cands = enumerate(&t, &EnumOptions::default()).unwrap();
    // x is only ever 0 here, so the branch can never be taken: constraint
    // solving prunes the infeasible path, and every candidate contains
    // the ctrl-dependent store.
    assert!(!cands.is_empty());
    for c in &cands {
        assert!(
            c.exec.events().iter().any(|e| e.is_write() && !e.is_init()),
            "only the fall-through path is feasible"
        );
        assert_eq!(c.exec.deps().ctrl.len(), 1, "ctrl from the load to the store");
        assert!(c.exec.deps().ctrl_cfence.is_empty(), "no isync here");
    }
}

/// Both branch outcomes become feasible once another thread can write a
/// nonzero value — the fork machinery then yields candidates on each
/// path, with the ctrl edge only on the fall-through one.
#[test]
fn branching_explores_both_feasible_paths() {
    let src = r#"PPC both-paths
{
0:r1=x; 0:r3=1; 0:r4=y;
1:r2=x;
}
 P0           | P1           ;
 lwz r2,0(r1) | li r1,1      ;
 cmpwi r2,0   | stw r1,0(r2) ;
 bne L0       |              ;
 stw r3,0(r4) |              ;
 L0:          |              ;
exists (x=1)
"#;
    let t = parse(src).unwrap();
    let cands = enumerate(&t, &EnumOptions::default()).unwrap();
    let with_store = cands
        .iter()
        .filter(|c| c.exec.events().iter().filter(|e| e.is_write() && !e.is_init()).count() == 2)
        .count();
    let without_store = cands.len() - with_store;
    assert!(with_store > 0, "fall-through (read 0) is feasible");
    assert!(without_store > 0, "taken (read 1 from T1) is feasible");
}

/// Sec 5.2.4: the control+cfence excerpt
/// `lwz r2,0(r1); cmpwi r2,0; bne L0; isync; lwz r4,0(r3); L0:`.
#[test]
fn sec_5_2_4_control_cfence_dependency() {
    let t = one_thread(
        &["lwz r2,0(r1)", "cmpwi r2,0", "bne L0", "isync", "lwz r4,0(r3)", "L0:"],
        &["0:r1=x", "0:r3=y"],
    );
    let cands = enumerate(&t, &EnumOptions::default()).unwrap();
    let two_loads: Vec<_> = cands
        .iter()
        .filter(|c| c.exec.events().iter().filter(|e| e.is_read()).count() == 2)
        .collect();
    assert!(!two_loads.is_empty());
    for c in &two_loads {
        assert_eq!(c.exec.deps().ctrl_cfence.len(), 1, "isync seals the branch");
        assert_eq!(c.exec.deps().ctrl.len(), 1, "ctrl+cfence ⊆ ctrl");
        let (a, b) = c.exec.deps().ctrl_cfence.iter_pairs().next().unwrap();
        assert_eq!(c.exec.event(a).dir, Dir::R);
        assert_eq!(c.exec.event(b).dir, Dir::R);
    }
}

/// Footnote 2: a fence relation holds regardless of whether the fence
/// orders the pair — lwsync between a write and a read is *in* the
/// `lwsync` relation, but Power's `lwfence = lwsync \ WR` drops it.
#[test]
fn footnote_2_fence_relations_are_raw() {
    use herd_core::event::Fence;
    let t =
        one_thread(&["li r1,1", "stw r1,0(r2)", "lwsync", "lwz r3,0(r4)"], &["0:r2=x", "0:r4=y"]);
    let cands = enumerate(&t, &EnumOptions::default()).unwrap();
    for c in &cands {
        let lws = c.exec.fence(Fence::Lwsync);
        assert_eq!(lws.len(), 1, "the raw relation holds the WR pair");
        let power = herd_core::arch::Power::new();
        assert!(
            power.lwfence(c.exec.core()).is_empty(),
            "Power's lwfence drops write-read pairs (Fig 17)"
        );
    }
}
