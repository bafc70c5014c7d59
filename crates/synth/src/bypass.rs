//! Code generation: from stack theorems to executable bypass code.
//!
//! The final step of §4.1.3: "their results are converted into OCaml code
//! that can be compiled and linked to the rest of the communication
//! system". Here the composed residuals are compiled into a compact
//! stack-machine program over a *flattened* state (every layer's scalar
//! and vector fields in two dense arrays), plus the compressed-header
//! templates. The resulting [`StackBypass`] is the MACH configuration of
//! §4.2: each call first evaluates the compiled CCP; on failure the caller
//! must route the event through the real stack instead.
//!
//! Non-critical work the theorems marked `Defer` is counted, not kept:
//! each hit adds its case's number of `Defer` items, and
//! [`StackBypass::drain_deferred`] takes the count back to zero at the
//! quiescent points the runtime picks (§4 optimization 3: "delaying
//! non-critical message processing"). Nothing is replayed. In particular
//! the bypass keeps no copy of a sent payload, so `mnak` has nothing to
//! retransmit for a cast the fast path sent; the engine's own buffer
//! holds only what the engine sent.

use crate::compose::{StackSynthesis, StackTheorem};
use crate::compress::HeaderTemplate;
use ensemble_event::Payload;
use ensemble_ir::models::Case;
use ensemble_ir::term::{Prim, Term};
use ensemble_ir::Val;
use ensemble_transport::{CompressedHdr, MAX_FIELDS};
use ensemble_util::Intern;
use std::collections::HashMap;
use std::fmt;

/// One stack-machine instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Push a constant.
    Const(i64),
    /// Push call input `k` (origin/dst, len, f0…).
    Input(u8),
    /// Push scalar state field.
    Field(u16),
    /// Pop an index; push `vec[idx]`.
    VecAt(u16),
    /// Push the minimum element of a vector field, excluding `skip`
    /// (mflow's "slowest receiver" with the sender's own slot ignored).
    MinVecSkip(u16, u16),
    /// Arithmetic / logic (pop two, push one — `Not` pops one).
    Add,
    /// Subtraction.
    Sub,
    /// Equality.
    Eq,
    /// Less-than.
    Lt,
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Negation.
    Not,
    /// Pop a value into a scalar field.
    StoreField(u16),
    /// Pop an index, then a value, into a vector field.
    StoreVecAt(u16),
}

/// A straight-line program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Number of instructions (the Table 2(b) size metric for bypasses).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Executes over the given state, returning the top of stack (0 for
    /// store-only programs).
    fn run(&self, scalars: &mut [i64], vecs: &mut [Vec<i64>], inputs: &[i64]) -> i64 {
        let mut stack: [i64; 16] = [0; 16];
        let mut sp = 0usize;
        macro_rules! push {
            ($v:expr) => {{
                stack[sp] = $v;
                sp += 1;
            }};
        }
        macro_rules! pop {
            () => {{
                sp -= 1;
                stack[sp]
            }};
        }
        for op in &self.ops {
            match *op {
                Op::Const(c) => push!(c),
                Op::Input(k) => push!(inputs[k as usize]),
                Op::Field(f) => push!(scalars[f as usize]),
                Op::VecAt(f) => {
                    let i = pop!() as usize;
                    push!(vecs[f as usize][i]);
                }
                Op::MinVecSkip(f, skip) => {
                    let v = &vecs[f as usize];
                    let m = v
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip as usize)
                        .map(|(_, &x)| x)
                        .min()
                        .unwrap_or(i64::MAX);
                    push!(m);
                }
                Op::Add => {
                    let b = pop!();
                    let a = pop!();
                    push!(a + b);
                }
                Op::Sub => {
                    let b = pop!();
                    let a = pop!();
                    push!(a - b);
                }
                Op::Eq => {
                    let b = pop!();
                    let a = pop!();
                    push!(i64::from(a == b));
                }
                Op::Lt => {
                    let b = pop!();
                    let a = pop!();
                    push!(i64::from(a < b));
                }
                Op::And => {
                    let b = pop!();
                    let a = pop!();
                    push!(a & b);
                }
                Op::Or => {
                    let b = pop!();
                    let a = pop!();
                    push!(a | b);
                }
                Op::Not => {
                    let a = pop!();
                    push!(i64::from(a == 0));
                }
                Op::StoreField(f) => {
                    scalars[f as usize] = pop!();
                }
                Op::StoreVecAt(f) => {
                    let i = pop!() as usize;
                    let v = pop!();
                    vecs[f as usize][i] = v;
                }
            }
        }
        if sp > 0 {
            stack[sp - 1]
        } else {
            0
        }
    }
}

/// Code-generation failures.
#[derive(Clone, Debug)]
pub enum CodegenError {
    /// A term form the compiler does not support survived simplification.
    Unsupported(String),
    /// A state variable referenced an unknown layer/field.
    UnknownField(String),
    /// A delivery event still carried headers.
    ResidualHeaders(String),
    /// A header template has more varying fields than a compressed
    /// header carries ([`MAX_FIELDS`]).
    TooManyFields(usize),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Unsupported(t) => write!(f, "unsupported term: {t}"),
            CodegenError::UnknownField(t) => write!(f, "unknown state field: {t}"),
            CodegenError::ResidualHeaders(t) => write!(f, "delivery kept headers: {t}"),
            CodegenError::TooManyFields(n) => {
                write!(f, "{n} varying header fields (at most {MAX_FIELDS})")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// A compiled fundamental case.
#[derive(Clone, Debug, Default)]
struct CompiledCase {
    /// The CCP (returns a boolean).
    ccp: Program,
    /// Wire field programs, in template order.
    wire_fields: Vec<Program>,
    /// The wire destination (sends only; returns the rank).
    wire_dst: Option<Program>,
    /// State updates (store-only program).
    update: Program,
    /// Origin program for an application delivery, if the case delivers.
    deliver_origin: Option<Program>,
}

/// Dense case index.
fn case_index(case: Case) -> usize {
    match case {
        Case::DnCast => 0,
        Case::UpCast => 1,
        Case::DnSend => 2,
        Case::UpSend => 3,
    }
}

/// What a case that ran decided, before any bytes are written: the wire
/// header with its destination rank (`None` for a cast), if it
/// transmits, and the delivery origin, if it delivers.
type Hit = (Option<(Option<u16>, CompressedHdr)>, Option<u16>);

/// The program inputs of one call: origin or destination, length, then
/// the varying header fields.
type Inputs = [i64; 2 + MAX_FIELDS];

fn inputs(who: u16, len: i64, fields: &[u64]) -> Inputs {
    let mut inputs: Inputs = [0; 2 + MAX_FIELDS];
    inputs[0] = i64::from(who);
    inputs[1] = len;
    for (k, &f) in fields.iter().enumerate().take(MAX_FIELDS) {
        inputs[2 + k] = f as i64;
    }
    inputs
}

/// The output of one bypass invocation.
#[derive(Clone, Debug)]
pub enum BypassOutput {
    /// The CCP failed: the event must take the real stack.
    Fallback,
    /// The fast path ran.
    Done {
        /// Wire bytes to transmit: `(dst rank or None for cast, bytes)`.
        wire: Option<(Option<u16>, Vec<u8>)>,
        /// A local delivery `(origin, bytes)`: the body, copied once.
        deliver: Option<(u16, Vec<u8>)>,
    },
}

/// The executable machine-synthesized bypass (MACH).
pub struct StackBypass {
    /// The base stack identifier.
    pub stack_id: u32,
    /// Wire identifier for cast traffic (base id ⊕ template constants).
    cast_id: u32,
    /// Wire identifier for send traffic.
    send_id: u32,
    scalars: Vec<i64>,
    vecs: Vec<Vec<i64>>,
    cases: [CompiledCase; 4],
    cast_template: HeaderTemplate,
    send_template: HeaderTemplate,
    /// `Defer` items counted since the last drain.
    deferred: usize,
    /// `Defer` items one hit of each case adds.
    defers: [usize; 4],
    /// CCP failures observed (fallbacks taken).
    pub fallbacks: u64,
}

/// Maps `(layer, field)` names to flat slots.
struct Layout {
    scalars: HashMap<(usize, Intern), u16>,
    vecs: HashMap<(usize, Intern), u16>,
    init_scalars: Vec<i64>,
    init_vecs: Vec<Vec<i64>>,
}

fn build_layout(synth: &StackSynthesis) -> Layout {
    let mut l = Layout {
        scalars: HashMap::new(),
        vecs: HashMap::new(),
        init_scalars: Vec::new(),
        init_vecs: Vec::new(),
    };
    for (i, m) in synth.models.iter().enumerate() {
        if let Val::Record(fields) = &m.init {
            for (name, v) in fields {
                match v {
                    Val::Int(x) => {
                        l.scalars.insert((i, *name), l.init_scalars.len() as u16);
                        l.init_scalars.push(*x);
                    }
                    Val::Bool(b) => {
                        l.scalars.insert((i, *name), l.init_scalars.len() as u16);
                        l.init_scalars.push(i64::from(*b));
                    }
                    Val::Vector(xs) => {
                        l.vecs.insert((i, *name), l.init_vecs.len() as u16);
                        l.init_vecs
                            .push(xs.iter().map(|x| x.as_int().unwrap_or(0)).collect());
                    }
                    _ => {}
                }
            }
        }
    }
    l
}

/// Parses a composition state variable `s_<idx>_<name>` into its index.
fn state_index(v: Intern) -> Option<usize> {
    let s = v.as_str();
    let rest = s.strip_prefix("s_")?;
    let idx_part = rest.split('_').next()?;
    idx_part.parse().ok()
}

struct Compiler<'a> {
    layout: &'a Layout,
    inputs: HashMap<Intern, u8>,
}

impl<'a> Compiler<'a> {
    fn expr(&self, t: &Term, ops: &mut Vec<Op>) -> Result<(), CodegenError> {
        match t {
            Term::Int(i) => ops.push(Op::Const(*i)),
            Term::Bool(b) => ops.push(Op::Const(i64::from(*b))),
            Term::Var(v) => {
                let k = self
                    .inputs
                    .get(v)
                    .ok_or_else(|| CodegenError::Unsupported(format!("free var {v}")))?;
                ops.push(Op::Input(*k));
            }
            Term::GetF(e, f) => match &**e {
                Term::Var(v) => {
                    let idx = state_index(*v)
                        .ok_or_else(|| CodegenError::UnknownField(format!("{v}.{f}")))?;
                    let slot = self
                        .layout
                        .scalars
                        .get(&(idx, *f))
                        .ok_or_else(|| CodegenError::UnknownField(format!("{v}.{f}")))?;
                    ops.push(Op::Field(*slot));
                }
                other => return Err(CodegenError::Unsupported(format!("GetF on {other:?}"))),
            },
            Term::Prim(Prim::VecGet, args) => {
                let slot = self.vec_slot(&args[0])?;
                self.expr(&args[1], ops)?;
                ops.push(Op::VecAt(slot));
            }
            Term::Prim(Prim::MinVecSkip, args) => {
                let slot = self.vec_slot(&args[0])?;
                let skip = match &args[1] {
                    Term::Int(i) => *i as u16,
                    other => {
                        return Err(CodegenError::Unsupported(format!(
                            "non-constant MinVecSkip index {other:?}"
                        )))
                    }
                };
                ops.push(Op::MinVecSkip(slot, skip));
            }
            Term::Prim(p, args) => {
                for a in args {
                    self.expr(a, ops)?;
                }
                ops.push(match p {
                    Prim::Add => Op::Add,
                    Prim::Sub => Op::Sub,
                    Prim::Eq => Op::Eq,
                    Prim::Lt => Op::Lt,
                    Prim::And => Op::And,
                    Prim::Or => Op::Or,
                    Prim::Not => Op::Not,
                    other => return Err(CodegenError::Unsupported(format!("{other:?}"))),
                });
            }
            other => return Err(CodegenError::Unsupported(format!("{other:?}"))),
        }
        Ok(())
    }

    fn vec_slot(&self, t: &Term) -> Result<u16, CodegenError> {
        match t {
            Term::GetF(e, f) => match &**e {
                Term::Var(v) => {
                    let idx = state_index(*v)
                        .ok_or_else(|| CodegenError::UnknownField(format!("{v}.{f}")))?;
                    self.layout
                        .vecs
                        .get(&(idx, *f))
                        .copied()
                        .ok_or_else(|| CodegenError::UnknownField(format!("{v}.{f}")))
                }
                other => Err(CodegenError::Unsupported(format!("vec base {other:?}"))),
            },
            other => Err(CodegenError::Unsupported(format!("vec ref {other:?}"))),
        }
    }

    /// Compiles a state-update term (a `SetF` chain over `s_i_…`).
    fn update(&self, layer: usize, t: &Term, ops: &mut Vec<Op>) -> Result<(), CodegenError> {
        // Collect (field, value) pairs innermost-first.
        let mut chain = Vec::new();
        let mut cur = t;
        loop {
            match cur {
                Term::SetF(inner, f, v) => {
                    chain.push((*f, (**v).clone()));
                    cur = inner;
                }
                Term::Var(v) if state_index(*v) == Some(layer) => break,
                other => {
                    return Err(CodegenError::Unsupported(format!(
                        "state update base {other:?}"
                    )))
                }
            }
        }
        chain.reverse();
        // Two-phase: evaluate all values against the pre-state, then
        // store (reverse order so the stack pops match).
        let mut stores: Vec<Op> = Vec::new();
        for (f, v) in &chain {
            if let Some(&slot) = self.layout.scalars.get(&(layer, *f)) {
                self.expr(v, ops)?;
                stores.push(Op::StoreField(slot));
            } else if let Some(&slot) = self.layout.vecs.get(&(layer, *f)) {
                // Value must be `VecSet(GetF(s, f), idx, x)`.
                match v {
                    Term::Prim(Prim::VecSet, args) => {
                        self.expr(&args[2], ops)?;
                        self.expr(&args[1], ops)?;
                        stores.push(Op::StoreVecAt(slot));
                    }
                    other => {
                        return Err(CodegenError::Unsupported(format!(
                            "vector update {other:?}"
                        )))
                    }
                }
            } else {
                return Err(CodegenError::UnknownField(format!("{layer}.{f}")));
            }
        }
        for s in stores.into_iter().rev() {
            ops.push(s);
        }
        Ok(())
    }
}

fn compile_case(
    synth: &StackSynthesis,
    layout: &Layout,
    case: Case,
) -> Result<CompiledCase, CodegenError> {
    let Some(th): Option<&StackTheorem> = synth.cases.get(&case) else {
        // This rank has no fast path for the case: compile a CCP that
        // always fails, so every such event takes the real stack.
        return Ok(CompiledCase {
            ccp: Program {
                ops: vec![Op::Const(0)],
            },
            ..CompiledCase::default()
        });
    };
    let template = match case {
        Case::DnCast | Case::UpCast => &synth.cast_template,
        Case::DnSend | Case::UpSend => &synth.send_template,
    };
    let mut inputs: HashMap<Intern, u8> = HashMap::new();
    inputs.insert(Intern::from("origin"), 0);
    inputs.insert(Intern::from("dst"), 0);
    inputs.insert(Intern::from("len"), 1);
    for k in 0..template.nfields() {
        inputs.insert(Intern::from(&format!("f{k}")), 2 + k as u8);
    }
    let c = Compiler { layout, inputs };

    let mut cc = CompiledCase::default();

    // CCP: conjunction of all conjuncts.
    let mut ops = Vec::new();
    ops.push(Op::Const(1));
    for (_, conj) in &th.ccp {
        c.expr(conj, &mut ops)?;
        ops.push(Op::And);
    }
    cc.ccp = Program { ops };

    // Wire fields (down cases only produce wire events).
    if let Some(wire_ev) = th.wire_events.first() {
        for src in &template.sources {
            let mut ops = Vec::new();
            c.expr(src, &mut ops)?;
            cc.wire_fields.push(Program { ops });
        }
        if let Term::Con(n, args) = wire_ev {
            if n.as_str() == "DnSend" {
                let mut ops = Vec::new();
                c.expr(&args[0], &mut ops)?;
                cc.wire_dst = Some(Program { ops });
            }
        }
    }

    // Application delivery.
    if let Some(Term::Con(_, args)) = th.app_events.first() {
        {
            // args = [origin, msg]; the delivered message must be bare.
            if let Term::Con(mn, margs) = &args[1] {
                if mn.as_str() == "Msg" {
                    let empty =
                        matches!(&margs[0], Term::Con(h, a) if h.as_str() == "nil" && a.is_empty());
                    if !empty {
                        return Err(CodegenError::ResidualHeaders(format!("{:?}", margs[0])));
                    }
                }
            }
            let mut ops = Vec::new();
            c.expr(&args[0], &mut ops)?;
            cc.deliver_origin = Some(Program { ops });
        }
    }

    // State updates.
    let mut ops = Vec::new();
    for (layer, st) in &th.state_updates {
        c.update(*layer, st, &mut ops)?;
    }
    cc.update = Program { ops };
    Ok(cc)
}

impl StackBypass {
    /// Compiles a synthesized stack into an executable bypass for the
    /// process at `my_rank`.
    pub fn compile(synth: &StackSynthesis, _my_rank: u16) -> Result<StackBypass, CodegenError> {
        for template in [&synth.cast_template, &synth.send_template] {
            if template.nfields() > MAX_FIELDS {
                return Err(CodegenError::TooManyFields(template.nfields()));
            }
        }
        let layout = build_layout(synth);
        let mut cases: [CompiledCase; 4] = Default::default();
        let mut defers = [0; 4];
        for case in Case::ALL {
            cases[case_index(case)] = compile_case(synth, &layout, case)?;
            // An absent case always falls back and defers nothing.
            defers[case_index(case)] = synth.cases.get(&case).map_or(0, |th| th.defers.len());
        }
        Ok(StackBypass {
            stack_id: synth.stack_id,
            cast_id: synth.stack_id ^ synth.cast_template.const_hash(),
            send_id: synth.stack_id ^ synth.send_template.const_hash(),
            scalars: layout.init_scalars,
            vecs: layout.init_vecs,
            cases,
            cast_template: synth.cast_template.clone(),
            send_template: synth.send_template.clone(),
            deferred: 0,
            defers,
            fallbacks: 0,
        })
    }

    fn wire_id(&self, case: Case) -> u32 {
        match case {
            Case::DnCast | Case::UpCast => self.cast_id,
            Case::DnSend | Case::UpSend => self.send_id,
        }
    }

    /// Runs `case`'s programs; `None` when its CCP rejects the call.
    fn run_case(&mut self, case: Case, who: u16, len: i64, fields: &[u64]) -> Option<Hit> {
        let inputs = inputs(who, len, fields);
        // Field-level split borrows: programs are read-only, state is
        // mutable — no per-call cloning on the critical path.
        let cc = &self.cases[case_index(case)];
        if cc.ccp.run(&mut self.scalars, &mut self.vecs, &inputs) == 0 {
            self.fallbacks += 1;
            return None;
        }
        // Wire output first (the critical path), then the state update.
        let wire = if cc.wire_fields.is_empty() {
            None
        } else {
            let mut out = [0; MAX_FIELDS];
            for (f, p) in out.iter_mut().zip(&cc.wire_fields) {
                *f = p.run(&mut self.scalars, &mut self.vecs, &inputs) as u64;
            }
            let hdr = CompressedHdr::new(
                self.wire_id(case),
                case_tag(case),
                &out[..cc.wire_fields.len()],
            );
            let dst = cc
                .wire_dst
                .as_ref()
                .map(|p| p.run(&mut self.scalars, &mut self.vecs, &inputs) as u16);
            Some((dst, hdr))
        };
        let deliver = cc
            .deliver_origin
            .as_ref()
            .map(|p| p.run(&mut self.scalars, &mut self.vecs, &inputs) as u16);
        cc.update.run(&mut self.scalars, &mut self.vecs, &inputs);
        // Count the deferred work (buffering etc.); nothing keeps it.
        self.deferred += self.defers[case_index(case)];
        Some((wire, deliver))
    }

    /// A down case: the header and the payload's segments go into one
    /// wire buffer, and a local delivery gathers the payload once.
    fn dn_common(&mut self, case: Case, dst: u16, payload: &Payload) -> BypassOutput {
        let Some((wire, deliver)) = self.run_case(case, dst, payload.len() as i64, &[]) else {
            return BypassOutput::Fallback;
        };
        BypassOutput::Done {
            wire: wire
                .map(|(dst, hdr)| (dst, hdr.encode_segments(payload.len(), payload.segments()))),
            deliver: deliver.map(|origin| (origin, payload.gather())),
        }
    }

    /// Sends a multicast through the bypass.
    pub fn dn_cast(&mut self, payload: &Payload) -> BypassOutput {
        self.dn_common(Case::DnCast, 0, payload)
    }

    /// Sends a point-to-point message through the bypass.
    pub fn dn_send(&mut self, dst: u16, payload: &Payload) -> BypassOutput {
        self.dn_common(Case::DnSend, dst, payload)
    }

    /// An up case: the header is decoded in place and the body is copied
    /// once, into the delivery.
    fn up_common(&mut self, case: Case, origin: u16, bytes: &[u8]) -> BypassOutput {
        let Ok((hdr, body)) = CompressedHdr::decode(bytes) else {
            self.fallbacks += 1;
            return BypassOutput::Fallback;
        };
        if hdr.stack_id != self.wire_id(case) || hdr.case != case_tag(case_dn_of(case)) {
            self.fallbacks += 1;
            return BypassOutput::Fallback;
        }
        let Some((wire, deliver)) = self.run_case(case, origin, body.len() as i64, hdr.fields())
        else {
            return BypassOutput::Fallback;
        };
        BypassOutput::Done {
            wire: wire.map(|(dst, hdr)| (dst, hdr.encode(body))),
            deliver: deliver.map(|origin| (origin, body.to_vec())),
        }
    }

    /// Whether `bytes` carry *this* stack's compressed wire format for
    /// the given direction (stack id and case tag both match),
    /// regardless of whether the CCP would accept them right now. The
    /// runtime's receive triage uses this to tell an out-of-order
    /// fast-path packet (stash it) from generic engine traffic (route it
    /// to the full stack): `CompressedHdr::decode` alone is not a
    /// discriminator — it has no magic and parses many byte strings.
    pub fn recognizes(&self, bytes: &[u8], is_cast: bool) -> bool {
        let Ok((hdr, _)) = CompressedHdr::decode(bytes) else {
            return false;
        };
        let case = if is_cast { Case::UpCast } else { Case::UpSend };
        hdr.stack_id == self.wire_id(case) && hdr.case == case_tag(case_dn_of(case))
    }

    /// Receives a multicast's compressed bytes.
    pub fn up_cast(&mut self, origin: u16, bytes: &[u8]) -> BypassOutput {
        self.up_common(Case::UpCast, origin, bytes)
    }

    /// Receives a point-to-point message's compressed bytes.
    pub fn up_send(&mut self, origin: u16, bytes: &[u8]) -> BypassOutput {
        self.up_common(Case::UpSend, origin, bytes)
    }

    /// Bench hook: the Table 1 "stack" segment of a down case — CCP,
    /// wire-field computation, and state update, with the transport
    /// encoding and the deferred buffering excluded (they are measured
    /// separately / off the critical path). Returns the field count, or
    /// `None` on CCP failure.
    pub fn bench_dn_stack(&mut self, case: Case, who: u16, len: i64) -> Option<usize> {
        let inputs = inputs(who, len, &[]);
        let cc = &self.cases[case_index(case)];
        if cc.ccp.run(&mut self.scalars, &mut self.vecs, &inputs) == 0 {
            return None;
        }
        let mut nf = 0;
        for p in &cc.wire_fields {
            let _ = p.run(&mut self.scalars, &mut self.vecs, &inputs);
            nf += 1;
        }
        if let Some(p) = &cc.wire_dst {
            let _ = p.run(&mut self.scalars, &mut self.vecs, &inputs);
        }
        cc.update.run(&mut self.scalars, &mut self.vecs, &inputs);
        Some(nf)
    }

    /// Bench hook: the Table 1 "stack" segment of an up case — CCP, state
    /// update and delivery-origin computation over already-decoded fields
    /// (the transport decode is measured separately).
    pub fn bench_up_stack(
        &mut self,
        case: Case,
        origin: u16,
        len: i64,
        fields: &[u64],
    ) -> Option<u16> {
        let inputs = inputs(origin, len, fields);
        let cc = &self.cases[case_index(case)];
        if cc.ccp.run(&mut self.scalars, &mut self.vecs, &inputs) == 0 {
            return None;
        }
        let o = cc
            .deliver_origin
            .as_ref()
            .map(|p| p.run(&mut self.scalars, &mut self.vecs, &inputs) as u16)
            .unwrap_or(origin);
        cc.update.run(&mut self.scalars, &mut self.vecs, &inputs);
        Some(o)
    }

    /// Bench hook: the CCP check alone (the paper reports ≈ 3 µs).
    pub fn bench_ccp(&mut self, case: Case, who: u16, len: i64) -> bool {
        let inputs = inputs(who, len, &[]);
        let cc = &self.cases[case_index(case)];
        cc.ccp.run(&mut self.scalars, &mut self.vecs, &inputs) != 0
    }

    /// Deferred work items counted since the last drain.
    pub fn deferred_len(&self) -> usize {
        self.deferred
    }

    /// Drains the deferred non-critical work: returns how many items were
    /// counted since the last drain and resets the count. The items are
    /// discarded, not replayed (see the module docs).
    pub fn drain_deferred(&mut self) -> usize {
        std::mem::take(&mut self.deferred)
    }

    /// Instruction counts per case (CCP, wire, update) — the generated
    /// "object code size" reported in Table 2(b).
    pub fn program_sizes(&self, case: Case) -> (usize, usize, usize) {
        let cc = &self.cases[case_index(case)];
        (
            cc.ccp.len(),
            cc.wire_fields.iter().map(Program::len).sum::<usize>()
                + cc.wire_dst.as_ref().map(Program::len).unwrap_or(0),
            cc.update.len(),
        )
    }

    /// The compressed wire size for a case's traffic kind.
    pub fn wire_bytes(&self, case: Case) -> usize {
        match case {
            Case::DnCast | Case::UpCast => self.cast_template.wire_bytes(),
            Case::DnSend | Case::UpSend => self.send_template.wire_bytes(),
        }
    }

    /// A scalar state field value, for tests (`layer.field` by flat slot).
    pub fn scalar(&self, slot: usize) -> i64 {
        self.scalars[slot]
    }
}

fn case_tag(case: Case) -> u8 {
    match case {
        Case::DnCast | Case::UpCast => 0,
        Case::DnSend | Case::UpSend => 1,
    }
}

/// The sending case whose wire format an up case consumes.
fn case_dn_of(case: Case) -> Case {
    match case {
        Case::UpCast | Case::DnCast => Case::DnCast,
        Case::UpSend | Case::DnSend => Case::DnSend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::synthesize;
    use ensemble_ir::models::ModelCtx;

    const STACK_10: &[&str] = &[
        "partial_appl",
        "total",
        "local",
        "frag",
        "collect",
        "pt2ptw",
        "mflow",
        "pt2pt",
        "mnak",
        "bottom",
    ];
    const STACK_4: &[&str] = &["top", "pt2pt", "mnak", "bottom"];

    fn bypass(names: &[&str], rank: i64) -> StackBypass {
        let s = synthesize(names, &ModelCtx::new(3, rank)).unwrap();
        StackBypass::compile(&s, rank as u16).unwrap()
    }

    #[test]
    fn ten_layer_cast_roundtrip() {
        let mut sender = bypass(STACK_10, 0);
        let mut receiver = bypass(STACK_10, 1);
        let payload = Payload::from_slice(b"ping");
        let out = sender.dn_cast(&payload);
        let (wire, deliver) = match out {
            BypassOutput::Done { wire, deliver } => (wire, deliver),
            other => panic!("{other:?}"),
        };
        // Self-delivery through the local bounce.
        let (o, p) = deliver.expect("self delivery");
        assert_eq!(o, 0);
        assert_eq!(p, b"ping");
        let (dst, bytes) = wire.expect("wire output");
        assert!(dst.is_none(), "cast");
        // Receiver decodes and delivers.
        match receiver.up_cast(0, &bytes) {
            BypassOutput::Done { deliver, wire } => {
                assert!(wire.is_none());
                let (o, p) = deliver.expect("delivery");
                assert_eq!(o, 0);
                assert_eq!(p, b"ping");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequenced_casts_stay_in_order() {
        // A high gossip threshold: every `collect_every`-th delivery
        // legitimately needs the slow path (the gossip cast), and this
        // test runs the bypass without a stack behind it.
        // Flow-control credit rounds are slow-path too; push them out of
        // this window as well.
        let mut ctx = ModelCtx::new(3, 0);
        ctx.collect_every = 1_000;
        ctx.mflow_window = 1_000;
        let s = synthesize(STACK_10, &ctx).unwrap();
        let mut sender = StackBypass::compile(&s, 0).unwrap();
        let mut ctx1 = ModelCtx::new(3, 1);
        ctx1.collect_every = 1_000;
        ctx1.mflow_window = 1_000;
        let s1 = synthesize(STACK_10, &ctx1).unwrap();
        let mut receiver = StackBypass::compile(&s1, 1).unwrap();
        for i in 0..50u8 {
            let payload = Payload::from_slice(&[i]);
            let out = sender.dn_cast(&payload);
            let BypassOutput::Done { wire, .. } = out else {
                panic!("fallback at {i}");
            };
            let (_, bytes) = wire.unwrap();
            match receiver.up_cast(0, &bytes) {
                BypassOutput::Done { deliver, .. } => {
                    assert_eq!(deliver.unwrap().1, vec![i]);
                }
                other => panic!("{other:?} at {i}"),
            }
        }
        assert_eq!(receiver.fallbacks, 0);
    }

    #[test]
    fn gossip_boundary_falls_back() {
        // With the default threshold (16), the 16th cast must take the
        // real stack on *both* sides — sender-side gossip and
        // receiver-side gossip are slow paths the bypass excludes.
        let mut sender = bypass(STACK_10, 0);
        let mut receiver = bypass(STACK_10, 1);
        let mut sender_fallbacks = 0;
        let mut receiver_fallbacks = 0;
        for i in 0..16u8 {
            match sender.dn_cast(&Payload::from_slice(&[i])) {
                BypassOutput::Done { wire, .. } => {
                    if matches!(
                        receiver.up_cast(0, &wire.unwrap().1),
                        BypassOutput::Fallback
                    ) {
                        receiver_fallbacks += 1;
                    }
                }
                BypassOutput::Fallback => sender_fallbacks += 1,
            }
        }
        assert_eq!(sender_fallbacks, 1, "the sender's gossip boundary");
        // The receiver saw one fewer fast-path cast, so it has not hit
        // its own boundary yet.
        assert_eq!(receiver_fallbacks, 0);
    }

    #[test]
    fn out_of_order_cast_falls_back() {
        let mut sender = bypass(STACK_10, 0);
        let mut receiver = bypass(STACK_10, 1);
        let b1 = match sender.dn_cast(&Payload::from_slice(b"1")) {
            BypassOutput::Done { wire, .. } => wire.unwrap().1,
            other => panic!("{other:?}"),
        };
        let b2 = match sender.dn_cast(&Payload::from_slice(b"2")) {
            BypassOutput::Done { wire, .. } => wire.unwrap().1,
            other => panic!("{other:?}"),
        };
        // Deliver out of order: the CCP rejects and the caller must fall
        // back to the real stack (which buffers and NAKs).
        assert!(matches!(receiver.up_cast(0, &b2), BypassOutput::Fallback));
        assert_eq!(receiver.fallbacks, 1);
        // In-order still works.
        assert!(matches!(
            receiver.up_cast(0, &b1),
            BypassOutput::Done { .. }
        ));
    }

    #[test]
    fn four_layer_send_roundtrip() {
        let mut a = bypass(STACK_4, 0);
        let mut b = bypass(STACK_4, 1);
        let payload = Payload::from_slice(b"req");
        let out = a.dn_send(1, &payload);
        let BypassOutput::Done { wire, deliver } = out else {
            panic!("{out:?}");
        };
        assert!(deliver.is_none());
        let (dst, bytes) = wire.unwrap();
        assert_eq!(dst, Some(1));
        match b.up_send(0, &bytes) {
            BypassOutput::Done { deliver, .. } => {
                assert_eq!(deliver.unwrap().1, b"req");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_stack_id_falls_back() {
        let mut a = bypass(STACK_4, 0);
        let mut b = bypass(STACK_10, 1);
        let out = a.dn_send(1, &Payload::from_slice(b"x"));
        let BypassOutput::Done { wire, .. } = out else {
            panic!("{out:?}");
        };
        assert!(matches!(
            b.up_send(0, &wire.unwrap().1),
            BypassOutput::Fallback
        ));
    }

    #[test]
    fn garbage_bytes_fall_back() {
        let mut b = bypass(STACK_4, 1);
        assert!(matches!(b.up_send(0, &[1, 2]), BypassOutput::Fallback));
    }

    #[test]
    fn deferred_work_accumulates_and_drains() {
        let mut sender = bypass(STACK_10, 0);
        sender.dn_cast(&Payload::from_slice(b"a"));
        sender.dn_cast(&Payload::from_slice(b"b"));
        assert!(sender.deferred_len() >= 2, "buffering deferred");
        let n = sender.drain_deferred();
        assert!(n >= 2);
        assert_eq!(sender.deferred_len(), 0);
    }

    #[test]
    fn a_template_wider_than_a_compressed_header_is_refused() {
        let mut s = synthesize(STACK_10, &ModelCtx::new(3, 0)).unwrap();
        let n = s.cast_template.nfields();
        s.cast_template
            .sources
            .extend(std::iter::repeat_n(Term::Int(0), MAX_FIELDS + 1 - n));
        match StackBypass::compile(&s, 0) {
            Err(CodegenError::TooManyFields(k)) => assert_eq!(k, MAX_FIELDS + 1),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a {}-field template compiled", MAX_FIELDS + 1),
        }
        s.cast_template.sources.truncate(MAX_FIELDS);
        assert!(
            StackBypass::compile(&s, 0).is_ok(),
            "{MAX_FIELDS} fields fit"
        );
    }

    #[test]
    fn generated_programs_are_compact() {
        let b = bypass(STACK_10, 0);
        let (ccp, wire, update) = b.program_sizes(Case::DnCast);
        // The whole 10-layer down path in a few dozen instructions.
        assert!(ccp + wire + update < 120, "{ccp}+{wire}+{update}");
        assert!(update > 0);
        assert_eq!(b.wire_bytes(Case::DnCast) % 8, 0);
    }

    #[test]
    fn large_payload_falls_back_to_fragmentation() {
        let mut sender = bypass(STACK_10, 0);
        let big = Payload::filled(9, 4096);
        // frag_max is 1400: the CCP must reject.
        assert!(matches!(sender.dn_cast(&big), BypassOutput::Fallback));
    }
}
