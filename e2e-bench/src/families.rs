//! The scaled litmus families, built as real litmus programs so that they
//! can be rendered to `.litmus` text (herd only ever sees that text).
//!
//! They mirror the skeleton families of `herd-bench` (`iriw_scaled`,
//! `two_plus_two_w_scaled`, `wrc_scaled`, `lb_ballast_scaled`), with final
//! conditions naming each family's weak outcome.

use herd_litmus::corpus::{Dev, Op, TestBuilder};
use herd_litmus::isa::{Addr, Instr, Isa};
use herd_litmus::program::{CondVal, InitVal, LitmusTest, Prop, Quantifier};

const RING: [&str; 3] = ["x0", "x1", "x2"];
const BALLAST: [&str; 24] = [
    "b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9", "b10", "b11", "b12", "b13", "b14",
    "b15", "b16", "b17", "b18", "b19", "b20", "b21", "b22", "b23",
];

fn reg(tid: u16, reg: herd_litmus::isa::Reg, v: i64) -> Prop {
    Prop::RegEq { tid, reg, val: CondVal::Int(v) }
}

fn mem(loc: &str, val: i64) -> Prop {
    Prop::MemEq { loc: loc.to_owned(), val }
}

fn conj(props: Vec<Prop>) -> Prop {
    props.into_iter().reduce(Prop::and).unwrap_or(Prop::True)
}

fn named(mut t: LitmusTest, name: String) -> LitmusTest {
    t.name = name;
    t
}

/// `iriw+kw`: two writers each write their location `k` times; two readers
/// read both locations in opposite orders and see the newest write of one
/// and the initial value of the other.
pub fn iriw(isa: Isa, k: usize) -> LitmusTest {
    let k = k as i64;
    let t = TestBuilder::new(isa, "iriw")
        .thread((1..=k).map(|v| Op::W("x", v)).collect(), vec![Dev::Po; k as usize - 1])
        .thread((1..=k).map(|v| Op::W("y", v)).collect(), vec![Dev::Po; k as usize - 1])
        .thread(vec![Op::R("x"), Op::R("y")], vec![Dev::Po])
        .thread(vec![Op::R("y"), Op::R("x")], vec![Dev::Po])
        .condition(Quantifier::Exists, |r| {
            conj(vec![
                reg(2, r[2][0], k),
                reg(2, r[2][1], 0),
                reg(3, r[3][0], k),
                reg(3, r[3][1], 0),
            ])
        });
    named(t, format!("iriw+{k}w"))
}

/// `2+2w+kw`: two threads write both locations `k` times in opposite
/// orders; the condition is the 2+2W cycle between the last writes.
pub fn two_plus_two_w(isa: Isa, k: usize) -> LitmusTest {
    let k = k as i64;
    let mut t0 = Vec::new();
    let mut t1 = Vec::new();
    for i in 0..k {
        t0.extend([Op::W("x", 2 * i + 1), Op::W("y", 2 * i + 2)]);
        t1.extend([Op::W("y", 100 + 2 * i + 1), Op::W("x", 100 + 2 * i + 2)]);
    }
    let devs = vec![Dev::Po; 2 * k as usize - 1];
    let t = TestBuilder::new(isa, "2+2w")
        .thread(t0, devs.clone())
        .thread(t1, devs)
        .condition(Quantifier::Exists, |_| {
            conj(vec![mem("x", 2 * k - 1), mem("y", 100 + 2 * k - 1)])
        });
    named(t, format!("2+2w+{k}w"))
}

/// `wrc+kw`: T0 writes `z`; T1 reads it and writes `x` (data-dependently
/// where the ISA has dependencies); `k` more threads each write `x` once,
/// so `x` carries `(k+1)!` coherence orders that no `po-loc` edge pins.
pub fn wrc(isa: Isa, k: usize) -> LitmusTest {
    let dep = if isa == Isa::X86 { Dev::Po } else { Dev::Data };
    let mut b = TestBuilder::new(isa, "wrc")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![dep]);
    for i in 0..k {
        b = b.thread(vec![Op::W("x", 2 + i as i64)], vec![]);
    }
    let t = b.condition(Quantifier::Exists, |r| conj(vec![reg(1, r[1][0], 1), mem("x", 1)]));
    let suffix = if dep == Dev::Data { "+data" } else { "" };
    named(t, format!("wrc+{k}w{suffix}"))
}

/// The `lb+datas` ring of three threads (each reads its location, then
/// data-dependently writes the next one twice) padded with `ballast`
/// threads that write a private location three times. The universe has
/// `12 + 4 * ballast` events; the ballast is `po`-pinned, so the verdict
/// set equals the unballasted ring's.
pub fn lb_ring(isa: Isa, ballast: usize) -> LitmusTest {
    assert!(ballast <= BALLAST.len(), "at most {} ballast threads", BALLAST.len());
    let mut b = TestBuilder::new(isa, "lb");
    for t in 0..3 {
        b = b.thread(
            vec![Op::R(RING[t]), Op::W(RING[(t + 1) % 3], 1), Op::W(RING[(t + 1) % 3], 2)],
            vec![Dev::Data, Dev::Data],
        );
    }
    for loc in &BALLAST[..ballast] {
        b = b.thread(vec![Op::W(loc, 1), Op::W(loc, 2), Op::W(loc, 3)], vec![Dev::Po, Dev::Po]);
    }
    let t = b.condition(Quantifier::Exists, |r| {
        conj((0..3u16).map(|t| reg(t, r[t as usize][0], 2)).collect())
    });
    named(t, format!("lb+datas+{ballast}b"))
}

/// Renames every location of `t` through `f` (a semantics-preserving
/// change of the input text).
pub fn rename_locations(t: &mut LitmusTest, f: &dyn Fn(&str) -> String) {
    fn prop(p: &mut Prop, f: &dyn Fn(&str) -> String) {
        match p {
            Prop::MemEq { loc, .. } | Prop::RegEq { val: CondVal::Loc(loc), .. } => *loc = f(loc),
            Prop::Not(a) => prop(a, f),
            Prop::And(a, b) | Prop::Or(a, b) => {
                prop(a, f);
                prop(b, f);
            }
            Prop::RegEq { .. } | Prop::True => {}
        }
    }
    for v in t.reg_init.values_mut() {
        if let InitVal::Loc(l) = v {
            *l = f(l);
        }
    }
    t.mem_init = std::mem::take(&mut t.mem_init).into_iter().map(|(l, v)| (f(&l), v)).collect();
    for i in t.threads.iter_mut().flatten() {
        if let Instr::Load { addr: Addr::Direct(l), .. }
        | Instr::Store { addr: Addr::Direct(l), .. }
        | Instr::StoreImm { addr: Addr::Direct(l), .. } = i
        {
            *l = f(l);
        }
    }
    prop(&mut t.condition.prop, f);
}
