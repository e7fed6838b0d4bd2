//! Pieces shared by the generator and the workloads: model names, the
//! verdict-set answer format, state rendering and file helpers.

use herd_core::model::Architecture;
use herd_litmus::candidates::RegFinal;
use herd_litmus::isa::{Isa, Reg};
use herd_litmus::program::{LitmusTest, Prop, Quantifier};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

/// The stock models a request may name, by their `herd_core::arch::by_name`
/// key.
pub const MODEL_KEYS: [&str; 5] = ["power", "arm", "tso", "sc", "cpp-ra"];

/// Builds the native model behind a key.
pub fn native_model(key: &str) -> Box<dyn Architecture + Send + Sync> {
    use herd_core::arch::{Arm, ArmVariant, CppRa, CppRaStrength, Power, Sc, Tso};
    match key {
        "power" => Box::new(Power::new()),
        "arm" => Box::new(Arm::new(ArmVariant::Proposed)),
        "tso" => Box::new(Tso),
        "sc" => Box::new(Sc),
        "cpp-ra" => Box::new(CppRa::new(CppRaStrength::PaperStrong)),
        other => panic!("unknown model key {other}"),
    }
}

/// The stock `.cat` file matching a native model (`power.cat` for Power and
/// so on), as `(file name, source)`.
pub fn cat_source(key: &str) -> (&'static str, &'static str) {
    use herd_cat::stock;
    match key {
        "power" => ("power.cat", stock::POWER),
        "arm" => ("arm.cat", stock::ARM),
        "tso" => ("tso.cat", stock::TSO),
        other => panic!("no stock cat file for model key {other}"),
    }
}

/// The ISA's reference model key.
pub fn isa_model(isa: Isa) -> &'static str {
    match isa {
        Isa::Power => "power",
        Isa::Arm => "arm",
        Isa::X86 => "tso",
    }
}

/// The answer to "simulate this test under this model": what herd prints
/// (`Ok`/`No`, the positive/negative counts and the observed states).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerdictSet {
    pub validated: bool,
    pub allowed: usize,
    pub positive: usize,
    pub negative: usize,
    pub states: BTreeSet<String>,
}

impl VerdictSet {
    /// Folds one allowed candidate in.
    pub fn tally(
        &mut self,
        test: &LitmusTest,
        regs: &BTreeMap<(u16, Reg), RegFinal>,
        mem: &BTreeMap<String, i64>,
    ) {
        self.allowed += 1;
        if herd_litmus::simulate::eval_prop_parts(&test.condition.prop, regs, mem) {
            self.positive += 1;
        } else {
            self.negative += 1;
        }
        self.states.insert(render_state(test, regs, mem));
    }

    /// Sets `validated` from the quantifier once every candidate is in.
    pub fn finish(mut self, test: &LitmusTest) -> Self {
        self.validated = match test.condition.quantifier {
            Quantifier::Exists => self.positive > 0,
            Quantifier::NotExists => self.positive == 0,
            Quantifier::Forall => self.negative == 0,
        };
        self
    }

    /// The verdict set of a completed `SimOutcome`.
    pub fn of_outcome(out: &herd_litmus::SimOutcome) -> Self {
        VerdictSet {
            validated: out.validated,
            allowed: out.allowed,
            positive: out.positive,
            negative: out.negative,
            states: out.states.clone(),
        }
    }

    /// One tab-separated line: `validated allowed positive negative states`
    /// with states joined by `|`.
    pub fn encode(&self) -> String {
        let states: Vec<&str> = self.states.iter().map(String::as_str).collect();
        format!(
            "{}\t{}\t{}\t{}\t{}",
            u8::from(self.validated),
            self.allowed,
            self.positive,
            self.negative,
            states.join("|")
        )
    }

    /// Inverse of [`VerdictSet::encode`] over the fields after the key.
    pub fn decode(fields: &[&str]) -> Result<Self, String> {
        let [v, a, p, n, s] = fields else {
            return Err(format!("expected 5 verdict fields, got {}", fields.len()));
        };
        let num = |x: &str| x.parse::<usize>().map_err(|e| format!("{x}: {e}"));
        Ok(VerdictSet {
            validated: *v == "1",
            allowed: num(a)?,
            positive: num(p)?,
            negative: num(n)?,
            states: s.split('|').filter(|x| !x.is_empty()).map(str::to_owned).collect(),
        })
    }
}

/// Renders the observables a test's condition mentions, in the style of
/// litmus logs (`1:r1=1; x=2;`) — the state format of `SimOutcome::states`.
pub fn render_state(
    test: &LitmusTest,
    regs: &BTreeMap<(u16, Reg), RegFinal>,
    mem: &BTreeMap<String, i64>,
) -> String {
    fn atoms<'a>(p: &'a Prop, out: &mut Vec<&'a Prop>) {
        match p {
            Prop::Not(a) => atoms(a, out),
            Prop::And(a, b) | Prop::Or(a, b) => {
                atoms(a, out);
                atoms(b, out);
            }
            atom => out.push(atom),
        }
    }
    let mut list = Vec::new();
    atoms(&test.condition.prop, &mut list);
    let mut seen = BTreeSet::new();
    let mut pieces: Vec<String> = Vec::new();
    for p in list {
        match p {
            Prop::RegEq { tid, reg, .. } if seen.insert(format!("{tid}:{reg}")) => {
                let v = match regs.get(&(*tid, *reg)) {
                    Some(RegFinal::Int(v)) => v.to_string(),
                    Some(RegFinal::Addr(l)) => l.clone(),
                    None => "?".into(),
                };
                pieces.push(format!("{tid}:{reg}={v};"));
            }
            Prop::MemEq { loc, .. } if seen.insert(loc.clone()) => {
                let v = mem.get(loc).copied().unwrap_or(0);
                pieces.push(format!("{loc}={v};"));
            }
            _ => {}
        }
    }
    pieces.join(" ")
}

/// 64-bit FNV-1a, for input and counter fingerprints.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Reads a file to a string, naming the file on error.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes a file, naming it on error.
pub fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a tab-separated file, skipping blank lines.
pub fn read_tsv(path: &Path) -> Result<Vec<Vec<String>>, String> {
    Ok(read(path)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split('\t').map(str::to_owned).collect())
        .collect())
}

/// Appends one tab-separated line.
pub fn push_line(out: &mut String, fields: &[&str]) {
    let _ = writeln!(out, "{}", fields.join("\t"));
}
