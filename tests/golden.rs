//! Golden-file snapshot tests: the figure harnesses must keep producing
//! bit-identical results (the simulator is fully deterministic).
//!
//! To regenerate after an intentional model change:
//! `UPDATE_GOLDEN=1 cargo test -p csb-core --test golden` — then review the
//! diff against EXPERIMENTS.md.

use std::fs;
use std::path::PathBuf;

use csb_core::experiments::runner::{run_panels, BandwidthPanelSpec, RunCtx};
use csb_core::experiments::{fig5, BandwidthPanel};
use csb_core::{SimConfig, Simulator, COMBINING_BASE, LOCK_ADDR, UNCACHED_BASE};
use csb_cpu::{CpuConfig, InstTrace};
use csb_isa::{AluOp, Assembler, FReg, FpuOp, MemWidth, Program, Reg};

/// Runs one bandwidth panel serially.
fn bandwidth_panel(id: &str, title: &str, cfg: SimConfig) -> BandwidthPanel {
    let spec = BandwidthPanelSpec::new(id, title, cfg);
    run_panels(&[spec], &RunCtx::default())
        .expect("panel simulates")
        .result
        .remove(0)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_or_update<T: serde::Serialize>(name: &str, value: &T) {
    check_text(
        name,
        &serde_json::to_string_pretty(value).expect("serializes"),
    );
}

fn check_text(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        fs::write(&path, actual).expect("golden file writes");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "golden file {} missing — run UPDATE_GOLDEN=1 cargo test -p csb-core --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "{name} drifted from its golden snapshot; if the model change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and update EXPERIMENTS.md"
    );
}

#[test]
fn fig5_panels_match_golden() {
    let panels = fig5::run(&RunCtx::default())
        .expect("Figure 5 simulates")
        .result;
    check_or_update("fig5.json", &panels);
}

#[test]
fn fig3e_panel_matches_golden() {
    // The central Figure 3 panel: ratio 6, 64-byte line, idle bus.
    let cfg = SimConfig::default();
    let panel = bandwidth_panel("3e", "ratio 6, 64B line", cfg);
    check_or_update("fig3e.json", &panel);
}

#[test]
fn fig4a_panel_matches_golden() {
    let cfg = SimConfig::default().bus(
        csb_bus::BusConfig::split(16)
            .max_burst(64)
            .build()
            .expect("valid bus"),
    );
    let panel = bandwidth_panel("4a", "16B split bus", cfg);
    check_or_update("fig4a.json", &panel);
}

/// Tiny xorshift generator so the timing programs depend on nothing but
/// their seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded loop whose body mixes the pipeline's scheduling corner cases:
/// a slow load feeding more consumers than a short dependents list holds,
/// data-dependent forward branches (mispredict squashes that recycle
/// sequence numbers), cached store/load overlap, cached and uncached
/// swaps, combining stores with a conditional flush, uncached loads and
/// stores, membars, and FP chains.
fn timing_program(seed: u64) -> Program {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x4000);
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.movi(Reg::O2, COMBINING_BASE as i64);
    a.movi(Reg::O3, LOCK_ADDR as i64);
    a.movi(Reg::I0, 3);
    a.fmovi(FReg::new(0), 1.5f64.to_bits());
    let top = a.new_label();
    a.bind(top).expect("fresh label");
    for _ in 0..10 {
        let off = 8 * rng.below(16) as i64;
        match rng.below(9) {
            0 => {
                // One slow producer, six consumers (two read it twice).
                a.ld(Reg::L0, Reg::O0, 256 * rng.below(8) as i64, MemWidth::B8);
                for (k, dst) in [Reg::L1, Reg::L2, Reg::L3, Reg::L4].into_iter().enumerate() {
                    a.alui(AluOp::Add, dst, Reg::L0, k as i64 + 1);
                }
                a.alu(AluOp::Xor, Reg::L5, Reg::L0, Reg::L0);
                a.alu(AluOp::Add, Reg::L6, Reg::L0, Reg::L0);
            }
            1 => {
                let skip = a.new_label();
                a.alui(AluOp::And, Reg::L7, Reg::I0, 1);
                a.cmpi(Reg::L7, 0);
                a.bz(skip);
                a.alui(AluOp::Add, Reg::L1, Reg::L1, 3);
                a.alu(AluOp::Sub, Reg::L2, Reg::L1, Reg::L7);
                a.bind(skip).expect("fresh label");
            }
            2 => {
                a.st(Reg::L1, Reg::O0, off, MemWidth::B8);
                a.ld(Reg::L2, Reg::O0, off + 4, MemWidth::B4);
                a.ld(Reg::L3, Reg::O0, off + 64, MemWidth::B8);
            }
            3 => {
                a.movi(Reg::L4, 1);
                a.swap(Reg::L4, Reg::O3, 0);
                a.alui(AluOp::Add, Reg::L5, Reg::L4, 1);
            }
            4 => {
                a.swap(Reg::L5, Reg::O1, off);
                a.alu(AluOp::Or, Reg::L6, Reg::L5, Reg::L1);
            }
            5 => {
                a.st(Reg::L1, Reg::O1, off, MemWidth::B8);
                a.ld(Reg::L2, Reg::O1, off + 128, MemWidth::B8);
                a.alui(AluOp::Add, Reg::L3, Reg::L2, 1);
            }
            6 => {
                let line = 64 * rng.below(4) as i64;
                a.std(Reg::L1, Reg::O2, line);
                a.std(Reg::L2, Reg::O2, line + 8);
                a.movi(Reg::L4, 2);
                a.swap(Reg::L4, Reg::O2, line);
                a.cmpi(Reg::L4, 2);
            }
            7 => {
                a.st(Reg::L3, Reg::O1, off, MemWidth::B4);
                a.membar();
            }
            _ => {
                let (f0, f1, f2) = (FReg::new(0), FReg::new(1), FReg::new(2));
                a.fpu(FpuOp::FMul, f1, f0, f0);
                a.fpu(FpuOp::FAdd, f2, f1, f0);
                a.stdf(f2, Reg::O0, off + 512);
            }
        }
    }
    a.alui(AluOp::Sub, Reg::I0, Reg::I0, 1);
    a.cmpi(Reg::I0, 0);
    a.bnz(top);
    a.halt();
    a.assemble().expect("timing program assembles")
}

fn cycle(c: Option<u64>) -> String {
    c.map_or_else(|| "-".to_string(), |c| c.to_string())
}

fn render_timing(out: &mut String, traces: &[InstTrace]) {
    use std::fmt::Write as _;
    for t in traces {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {}",
            t.seq,
            t.pc,
            t.fetched,
            t.dispatched,
            cycle(t.issued),
            cycle(t.completed),
            cycle(t.retired),
            if t.squashed { "x" } else { "r" }
        );
    }
}

/// A software-retry backoff delay: an uncached store stream, then
/// `sub; cmp; bnz` spinning 150 times while the stores drain, then a
/// store of the counter.
fn delay_loop_program() -> Program {
    let mut a = Assembler::new();
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    for i in 0..6 {
        a.std(Reg::O1, Reg::O1, 8 * i);
    }
    let spin = a.new_label();
    a.movi(Reg::L0, 150);
    a.bind(spin).expect("fresh label");
    a.alui(AluOp::Sub, Reg::L0, Reg::L0, 1);
    a.cmpi(Reg::L0, 0);
    a.bnz(spin);
    a.std(Reg::L0, Reg::O1, 0x40);
    a.halt();
    a.assemble().expect("delay loop assembles")
}

/// Runs `program` at `width` with the pipeline trace on; returns the
/// rendered timing (headed by `label`) and the real ticks taken.
fn timing_of(label: &str, program: &Program, width: usize, fast_forward: bool) -> (String, u64) {
    let cfg = SimConfig::default().cpu(CpuConfig::superscalar(width));
    let mut sim = Simulator::new(cfg, program.clone()).expect("config valid");
    sim.set_fast_forward(fast_forward);
    sim.cpu_mut().enable_trace();
    let summary = sim.run(1_000_000).expect("timing program halts");
    let mut text = format!(
        "# {label} width {width} cycles {} retired {} squashed {}\n",
        summary.cycles, summary.cpu.retired, summary.cpu.squashed
    );
    render_timing(&mut text, sim.cpu().trace());
    (text, sim.ticks())
}

/// Cycle-exact pipeline timing: every instruction's fetch, dispatch,
/// issue, complete and retire cycle on seeded programs and a backoff
/// delay loop at widths 1, 2, 4 and 8 (ROB 16 to 128), identical with
/// fast-forward on and off. On the delay loop the fast-forward path
/// jumps whole loop periods, replaying their trace records. Scheduler
/// changes must reproduce it exactly.
#[test]
fn pipeline_timing_matches_golden() {
    let mut out = String::new();
    let programs = (1..=4)
        .map(|seed| (format!("seed {seed}"), timing_program(seed)))
        .chain([("delay loop".to_string(), delay_loop_program())]);
    for (label, program) in programs {
        for width in [1, 2, 4, 8] {
            let (naive, naive_ticks) = timing_of(&label, &program, width, false);
            let (ff, ff_ticks) = timing_of(&label, &program, width, true);
            assert_eq!(
                naive, ff,
                "{label} width {width}: fast-forward moved a cycle"
            );
            if label == "delay loop" {
                assert!(
                    ff_ticks < naive_ticks,
                    "width {width}: the delay loop must be skipped ({ff_ticks} of {naive_ticks} ticks)"
                );
            }
            out.push_str(&ff);
        }
    }
    check_text("pipeline_timing.txt", &out);
}
