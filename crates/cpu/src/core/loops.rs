//! Steady-state loop skipping: an exact jump over register-only loops.
//!
//! A software delay loop (`sub; cmp; bnz`) keeps the pipeline busy every
//! cycle, so the idle-gap fast-forward never engages on it. Once such a
//! loop reaches steady state, though, the pipeline's state repeats with a
//! fixed period of `P` cycles and `I` retired instructions, up to a shift
//! of every time by `P` and every sequence number by `I`; only register
//! values differ. [`Cpu::skip_loop`] detects that repeat and jumps `K`
//! whole periods at once:
//!
//! - **Trigger.** A taken backward branch retired since the last probe, its
//!   body (target through branch) holds only register instructions
//!   (`IntAlu`, `FpAlu`, `Branch`, `Nop`), and so do the ROB and the fetch
//!   queue. Such a pipeline makes no [`crate::MemPort`] call, so it
//!   evolves independently of the memory system.
//! - **Normalized state.** Times relative to `now`, sequence numbers
//!   relative to `front_seq`, register and result values left out. A cheap
//!   key is kept for every probe; the full state is built only once a key
//!   repeats, and a later probe whose full state equals a stored one gives
//!   the period.
//! - **Path proof.** Without a misprediction the pipeline's evolution
//!   depends on the normalized state alone, so the state repeats for as
//!   long as every branch resolves to its predicted successor. The proof
//!   runs the committed context forward sequentially (the core's own
//!   [`eval`]) and compares each instruction's pc with the pc the
//!   pipeline holds or will fetch (static prediction from `fetch_pc`). `K`
//!   is the largest count of periods whose instructions, plus those in
//!   flight after the jump, all follow that path. A recorded period is
//!   itself free of mispredictions: a squash clears the history.
//! - **The jump.** Times shift by `K·P`, sequence numbers by `K·I`; the
//!   committed context and every in-flight operand value and result come
//!   from the sequential run; `K·I` retirements are added to the counters
//!   (nothing else can move in such a period), to the metrics timeline
//!   and, when recording, to the pipeline trace (the period's records,
//!   shifted). The jump is off while a structured trace sink records.
//!
//! The detector is derived state: it is never serialized, and reset,
//! context switch, restore, metrics installation and squash clear it.

use csb_isa::{Inst, InstKind, Program, RegRef};
use csb_obs::TimelineEvent;

use super::{eval, predict_next, Cpu, Src, St};
use crate::context::CpuContext;

/// Probes remembered for the current back-edge.
const HISTORY: usize = 8;

/// Retirement cycles logged for the metrics timeline replay; a period
/// retiring more instructions is not skipped while metrics record.
const RETIRE_RING: usize = 256;

/// Words of a probe's cheap key.
const KEY_WORDS: usize = 6;

/// One probe: the state right after a tick that retired the back-edge.
#[derive(Debug, Default)]
struct Probe {
    key: [u64; KEY_WORDS],
    now: u64,
    retired: u64,
    trace_len: usize,
    /// The full normalized state, built only when `key` repeated (`full`);
    /// the buffer is kept across probes.
    full: bool,
    words: Vec<u64>,
}

/// Steady-state loop detector (see the module docs).
#[derive(Debug)]
pub(super) struct LoopDetector {
    /// Back-edge pc the history belongs to.
    edge: Option<usize>,
    /// The loop's body, decoded once per back-edge: the instruction at pc
    /// `body_start + i` is `body[i]`. Empty if the body holds anything
    /// but register instructions.
    body_start: usize,
    body: Vec<Decoded>,
    /// Ring of the last probes; `len` of them valid, newest at
    /// `next - 1`.
    probes: Vec<Probe>,
    next: usize,
    len: usize,
    /// The path proof has seen the loop's last periods: the exit's
    /// misprediction, whose squash clears this, is near.
    parked: bool,
    /// Scratch for the current probe's full state.
    scratch: Vec<u64>,
    /// Contexts the path proof passed at its last two marks (see
    /// [`Cpu::prove`]).
    marks: Vec<CpuContext>,
    /// Retirement cycle of retired instruction `n`, at `n % RETIRE_RING`
    /// (logged only while metrics record).
    retire_at: Vec<u64>,
}

impl Default for LoopDetector {
    fn default() -> Self {
        LoopDetector {
            edge: None,
            body_start: 0,
            body: Vec::new(),
            probes: (0..HISTORY).map(|_| Probe::default()).collect(),
            next: 0,
            len: 0,
            parked: false,
            scratch: Vec::new(),
            marks: Vec::new(),
            retire_at: vec![0; RETIRE_RING],
        }
    }
}

impl LoopDetector {
    /// Forgets everything (reset, switch, restore).
    pub(super) fn reset(&mut self) {
        self.edge = None;
        self.body.clear();
        self.clear_history();
    }

    /// Forgets the recorded probes (squash, after a jump).
    pub(super) fn clear_history(&mut self) {
        self.len = 0;
        self.parked = false;
    }

    /// Logs the retirement cycle of retired instruction `n`.
    #[inline]
    pub(super) fn note_retire(&mut self, n: u64, cycle: u64) {
        self.retire_at[n as usize % RETIRE_RING] = cycle;
    }

    /// Decodes the body of the loop closed by the branch at `edge`; an
    /// empty body if it holds anything but register instructions.
    fn decode_body(&mut self, program: &Program, edge: usize) {
        self.body.clear();
        let Some(branch) = program.fetch(edge) else {
            return;
        };
        self.body_start = program.branch_target(&branch);
        for pc in self.body_start..=edge {
            match program.fetch(pc).filter(|i| is_register(i.kind())) {
                Some(inst) => self.body.push(Decoded::new(program, pc, inst)),
                None => {
                    self.body.clear();
                    return;
                }
            }
        }
    }

    /// The decoded body instruction at `pc`, if `pc` is in the body.
    #[inline]
    fn decoded(&self, pc: usize) -> Option<&Decoded> {
        self.body.get(pc.wrapping_sub(self.body_start))
    }

    /// Slot index of the `age`-th newest probe.
    fn slot(&self, age: usize) -> usize {
        (self.next + HISTORY - 1 - age) % HISTORY
    }
}

/// Instructions that never touch the memory system.
fn is_register(kind: InstKind) -> bool {
    matches!(
        kind,
        InstKind::IntAlu | InstKind::FpAlu | InstKind::Branch | InstKind::Nop
    )
}

/// A body instruction with what sequential execution needs of it.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    inst: Inst,
    /// Registers read, in [`Inst::uses_into`] order.
    uses: [RegRef; 3],
    nuses: usize,
    def: Option<RegRef>,
    branch: bool,
    /// Static prediction: the pc fetched after this one.
    predicted: usize,
}

impl Decoded {
    fn new(program: &Program, pc: usize, inst: Inst) -> Self {
        let mut uses = [RegRef::Cc; 3];
        let nuses = inst.uses_into(&mut uses);
        Decoded {
            inst,
            uses,
            nuses,
            def: inst.def(),
            branch: inst.kind() == InstKind::Branch,
            predicted: predict_next(program, pc, &inst),
        }
    }

    /// Executes the instruction at `ctx.pc()` against `ctx` sequentially
    /// and returns its result.
    #[inline]
    fn step(&self, program: &Program, ctx: &mut CpuContext) -> u64 {
        let mut vals = [0; 3];
        for (v, &r) in vals.iter_mut().zip(&self.uses[..self.nuses]) {
            *v = ctx.reg(r);
        }
        let pc = ctx.pc();
        let result = eval(&self.inst, pc, program, |i| vals[i]);
        if let Some(d) = self.def {
            ctx.set_reg(d, result);
        }
        ctx.set_pc(if self.branch { result as usize } else { pc + 1 });
        result
    }
}

fn push_opt(out: &mut Vec<u64>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => out.extend([1, x]),
    }
}

impl Cpu {
    /// Loop-skip probe, to be called between ticks. If a taken backward
    /// branch of a register-only loop retired since the last probe and
    /// the loop's steady state has repeated, proves how many whole
    /// periods `K` keep following the recorded path, shifts the core
    /// forward by `K` periods (never past `cap`) and returns the new
    /// cycle. The core makes no memory-system call in the skipped span;
    /// the caller must advance the memory system to the returned cycle.
    ///
    /// Returns `None` (and only records the probe) otherwise. A probe may
    /// sample any cycle: only two equal states matter, not where they sit
    /// in the loop.
    #[inline]
    pub fn skip_loop(&mut self, cap: u64) -> Option<u64> {
        let edge = self.back_edge.take()?;
        self.probe_loop(edge, cap)
    }

    /// [`Cpu::skip_loop`] once a back-edge at `edge` has retired.
    fn probe_loop(&mut self, edge: usize, cap: u64) -> Option<u64> {
        if self.obs.is_enabled() || self.halted || cap <= self.now {
            return None;
        }
        if self.loops.edge != Some(edge) {
            self.loops.reset();
            self.loops.edge = Some(edge);
            self.loops.decode_body(&self.program, edge);
        }
        if self.loops.body.is_empty() || self.loops.parked {
            return None;
        }
        let key = self.loop_key();
        let mut scratch = std::mem::take(&mut self.loops.scratch);
        let mut built = false;
        let mut matched = None;
        for age in 0..self.loops.len {
            let probe = &self.loops.probes[self.loops.slot(age)];
            if probe.key != key {
                continue;
            }
            if !built {
                if !self.normalize(&mut scratch) {
                    self.loops.scratch = scratch;
                    return None;
                }
                built = true;
            }
            if probe.full && probe.words == scratch {
                matched = Some((probe.now, probe.retired, probe.trace_len));
                break;
            }
        }
        if let Some((now, retired, trace_len)) = matched {
            if let Some(to) = self.jump(now, retired, trace_len, cap) {
                self.loops.scratch = scratch;
                return Some(to);
            }
        }
        let d = &mut self.loops;
        let slot = d.next;
        d.next = (d.next + 1) % HISTORY;
        d.len = (d.len + 1).min(HISTORY);
        let probe = &mut d.probes[slot];
        probe.key = key;
        probe.now = self.now;
        probe.retired = self.stats.retired;
        probe.trace_len = self.trace.as_ref().map_or(0, Vec::len);
        probe.full = built;
        if built {
            probe.words.clone_from(&scratch);
        }
        self.loops.scratch = scratch;
        None
    }

    /// A cheap function of the normalized state: equal states have equal
    /// keys.
    fn loop_key(&self) -> [u64; KEY_WORDS] {
        let (now, front) = (self.now, self.front_seq);
        let at = |i: usize| {
            let e = &self.rob[i];
            e.pc as u64 | now.wrapping_sub(e.t_dispatch) << 32
        };
        let len = self.rob.len();
        let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
        let mut sched = 0u64;
        for seq in self.ready.iter().chain(self.in_flight.iter()) {
            let e = &self.rob[(seq - front) as usize];
            let done_at = match e.st {
                St::Agen { done_at } | St::Exec { done_at } | St::MemAccess { done_at } => done_at,
                _ => now,
            };
            sched = mix(sched, (seq - front) | done_at.wrapping_sub(now) << 16);
        }
        // The oldest entries are the last to leave a transient behind.
        let times = self.rob.iter().take(16).fold(0u64, |h, e| {
            let issue = e.t_issue.map_or(0, |t| now.wrapping_sub(t));
            mix(h, now.wrapping_sub(e.t_fetch) | issue << 32)
        });
        [
            len as u64 | (self.fetch_q.len() as u64) << 32,
            self.fetch_pc as u64
                | u64::from(self.fetch_stopped) << 62
                | u64::from(self.issued) << 63,
            self.ready.0.len() as u64 | (self.in_flight.0.len() as u64) << 32,
            sched,
            times,
            if len == 0 {
                u64::MAX
            } else {
                at(0) ^ at(len - 1).rotate_left(16)
            },
        ]
    }

    /// Writes the normalized state into `out`: the ROB entries, the fetch
    /// queue, `fetch_pc`, the ready and in-flight sets, the rename table,
    /// `next_seq`, `issued` and the stall-run starts, with times relative
    /// to `now`, sequence numbers relative to `front_seq`, and values left
    /// out. Returns `false` if an instruction in flight is not a register
    /// instruction.
    fn normalize(&self, out: &mut Vec<u64>) -> bool {
        out.clear();
        let (now, front) = (self.now, self.front_seq);
        let time = |t: u64| now.wrapping_sub(t);
        let seq = |s: u64| s.wrapping_sub(front);
        out.extend([
            self.rob.len() as u64,
            self.fetch_q.len() as u64,
            self.fetch_pc as u64,
            u64::from(self.fetch_stopped),
            u64::from(self.issued),
            seq(self.next_seq),
        ]);
        push_opt(out, self.uncached_stall_start.map(time));
        push_opt(out, self.membar_stall_start.map(time));
        for e in self.rob.iter() {
            if !is_register(e.inst.kind()) {
                return false;
            }
            let (code, done_at) = match e.st {
                St::Waiting => (0, 0),
                St::Exec { done_at } => (1, done_at.wrapping_sub(now)),
                St::Done => (2, 0),
                _ => return false,
            };
            out.extend([e.pc as u64, code, done_at, u64::from(e.ops.len)]);
            for op in e.ops.iter() {
                match op.src {
                    Src::Ready(_) => out.push(0),
                    Src::Wait(p) => out.extend([1, seq(p)]),
                }
            }
            out.extend([
                u64::from(e.pending),
                u64::from(e.deps.len) | u64::from(e.deps.overflow) << 8,
            ]);
            out.extend(e.deps.as_slice().iter().map(|&s| seq(s)));
            out.extend([e.predicted_next as u64, time(e.t_fetch), time(e.t_dispatch)]);
            push_opt(out, e.t_issue.map(time));
            push_opt(out, e.t_complete.map(time));
        }
        for f in &self.fetch_q {
            if !is_register(f.inst.kind()) {
                return false;
            }
            out.extend([f.pc as u64, f.predicted_next as u64, time(f.t_fetch)]);
        }
        out.push(self.ready.0.len() as u64);
        out.extend(self.ready.iter().map(seq));
        out.push(self.in_flight.0.len() as u64);
        out.extend(self.in_flight.iter().map(seq));
        out.extend(
            self.rename
                .slots
                .iter()
                .map(|s| s.map_or(0, |s| seq(s) + 1)),
        );
        true
    }

    /// Tries the jump for a state equal to the probe taken at cycle
    /// `from_now` with `from_retired` instructions retired: one period is
    /// `now - from_now` cycles and `retired - from_retired` instructions.
    fn jump(
        &mut self,
        from_now: u64,
        from_retired: u64,
        trace_len: usize,
        cap: u64,
    ) -> Option<u64> {
        let period = self.now - from_now;
        let insts = self.stats.retired - from_retired;
        if insts == 0 || (self.metrics.is_enabled() && insts > RETIRE_RING as u64) {
            return None;
        }
        if let Some(t) = &self.trace {
            // Without a squash, the period's records are its retirements.
            if (t.len() - trace_len) as u64 != insts {
                return None;
            }
        }
        let k_cap = (cap - self.now) / period;
        if k_cap == 0 {
            return None;
        }
        let in_flight = (self.rob.len() + self.fetch_q.len()) as u64;
        let limit = k_cap.saturating_mul(insts).saturating_add(in_flight + 1);
        let (proven, span) = self.prove(limit, insts);
        let k = proven.saturating_sub(in_flight + 1) / insts;
        // Fewer periods than the cap allows means the path leaves the
        // loop within the next period: stop probing until it does.
        self.loops.parked = k < k_cap;
        let k = k.min(k_cap);
        if k == 0 {
            return None;
        }
        let ctx = self.context_after(k * insts, span);
        self.apply_jump(k, period, insts, ctx, from_retired, trace_len);
        Some(self.now)
    }

    /// The path proof: runs the committed context forward sequentially for
    /// at most `limit` instructions and returns how many of them, from the
    /// oldest in flight on, sit at the pc the pipeline holds or will fetch
    /// (the pcs in flight, then `fetch_pc` and its static predictions).
    /// Leaving the decoded body also ends the proof.
    ///
    /// Also returns `span`, a whole number of periods longer than
    /// everything in flight: the context after each multiple `c` of `span`
    /// instructions is kept in `loops.marks[c % 2]`, so the last two cover
    /// any jump the proof allows (see [`Cpu::context_after`]).
    fn prove(&mut self, limit: u64, insts: u64) -> (u64, u64) {
        let in_flight = (self.rob.len() + self.fetch_q.len()) as u64;
        let span = (in_flight + insts).div_ceil(insts) * insts;
        let mut marks = std::mem::take(&mut self.loops.marks);
        marks.clear();
        marks.extend([self.ctx.clone(), self.ctx.clone()]);
        let mut ctx = self.ctx.clone();
        let d = &self.loops;
        let held = self.rob.iter().map(|e| e.pc);
        let mut j = 0;
        let proven = 'proof: {
            // In flight: the pipeline holds the path (all before `span`).
            for pc in held.chain(self.fetch_q.iter().map(|f| f.pc)) {
                if j == limit || ctx.pc() != pc {
                    break 'proof j;
                }
                let Some(op) = d.decoded(pc) else {
                    break 'proof j;
                };
                op.step(&self.program, &mut ctx);
                j += 1;
            }
            if self.fetch_stopped {
                break 'proof j;
            }
            // Beyond: fetched at `fetch_pc`, then along static predictions.
            let mut expected = self.fetch_pc;
            let mut next_mark = span;
            loop {
                if j == next_mark {
                    marks[(j / span) as usize % 2].clone_from(&ctx);
                    next_mark += span;
                }
                let pc = ctx.pc();
                if j == limit || pc != expected {
                    break j;
                }
                let Some(op) = d.decoded(pc) else {
                    break j;
                };
                op.step(&self.program, &mut ctx);
                expected = op.predicted;
                j += 1;
            }
        };
        self.loops.marks = marks;
        (proven, span)
    }

    /// The committed context after `n` instructions, rebuilt from the
    /// last [`Cpu::prove`]'s marks. `n` must be a jump that proof allowed:
    /// then the mark at or before `n` is one of the last two.
    fn context_after(&self, n: u64, span: u64) -> CpuContext {
        let mut ctx = self.loops.marks[(n / span) as usize % 2].clone();
        for _ in 0..n % span {
            let op = self.loops.decoded(ctx.pc()).expect("proven path");
            op.step(&self.program, &mut ctx);
        }
        ctx
    }

    /// Shifts the core forward by `k` periods of `period` cycles and
    /// `insts` instructions (see the module docs); `ctx` is the committed
    /// context after them. The path proof covered every instruction
    /// touched here.
    fn apply_jump(
        &mut self,
        k: u64,
        period: u64,
        insts: u64,
        mut ctx: CpuContext,
        from_retired: u64,
        trace_len: usize,
    ) {
        let (dt, ds) = (k * period, k * insts);
        self.ctx.clone_from(&ctx);
        for i in 0..self.rob.len() {
            let e = &mut self.rob[i];
            debug_assert_eq!(ctx.pc(), e.pc, "in-flight instruction off the proven path");
            for slot in &mut e.ops.slots[..e.ops.len as usize] {
                slot.src = match slot.src {
                    Src::Ready(_) => Src::Ready(ctx.reg(slot.reg)),
                    Src::Wait(p) => Src::Wait(p + ds),
                };
            }
            let op = self.loops.decoded(e.pc).expect("proven path");
            let result = op.step(&self.program, &mut ctx);
            if e.st != St::Waiting {
                e.value = result;
            }
            e.seq += ds;
            for s in &mut e.deps.seqs[..e.deps.len as usize] {
                *s += ds;
            }
            if let St::Exec { done_at } = &mut e.st {
                *done_at += dt;
            }
            e.t_fetch += dt;
            e.t_dispatch += dt;
            e.t_issue = e.t_issue.map(|t| t + dt);
            e.t_complete = e.t_complete.map(|t| t + dt);
        }
        for f in &mut self.fetch_q {
            f.t_fetch += dt;
        }
        for s in self.ready.0.iter_mut().chain(self.in_flight.0.iter_mut()) {
            *s += ds;
        }
        for s in self.rename.slots.iter_mut().flatten() {
            *s += ds;
        }
        self.front_seq += ds;
        self.next_seq += ds;
        self.uncached_stall_start = self.uncached_stall_start.map(|t| t + dt);
        self.membar_stall_start = self.membar_stall_start.map(|t| t + dt);

        // Replay the period's retirements into the observers.
        if self.metrics.is_enabled() {
            let ring = &self.loops.retire_at;
            let cycles = (1..=k).flat_map(|rep| {
                (from_retired..from_retired + insts)
                    .map(move |n| ring[n as usize % RETIRE_RING] + rep * period)
            });
            self.metrics
                .timeline_mark_all(cycles, TimelineEvent::Retired);
        }
        if let Some(t) = &mut self.trace {
            for rep in 1..=k {
                for r in trace_len..trace_len + insts as usize {
                    let mut rec = t[r].clone();
                    rec.seq += rep * insts;
                    rec.fetched += rep * period;
                    rec.dispatched += rep * period;
                    rec.issued = rec.issued.map(|c| c + rep * period);
                    rec.completed = rec.completed.map(|c| c + rep * period);
                    rec.retired = rec.retired.map(|c| c + rep * period);
                    t.push(rec);
                }
            }
        }
        self.stats.retired += ds;
        self.now += dt;
        self.stats.cycles = self.now;
        self.loops.len = 0;
    }
}
