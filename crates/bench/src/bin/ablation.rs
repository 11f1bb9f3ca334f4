//! Model-level ablation studies of the design choices DESIGN.md calls
//! out: how much each RIME architectural decision contributes to the
//! headline throughput.
//!
//! * channel/chip scaling — the concurrency that makes RIME fast;
//! * placement policy — striped (Fig. 12 explicit addresses) vs one
//!   contiguous region;
//! * interface cost — sensitivity to the strong-uncacheable access
//!   latency (§V's in-order UC design point);
//! * key width — 32- vs 64-bit search depth;
//! * §VII-B power budget — throughput under a cap on concurrently
//!   computing chips.

use rime_bench::header;
use rime_core::{Placement, RimePerfConfig};
use rime_kernels::planner::{Planner, Strategy};
use rime_kernels::SortAlgorithm;

const N: u64 = 65_000_000;

fn main() {
    header(
        "Ablation",
        "RIME design-choice sensitivity (65M-key sort)",
        "MKps",
    );

    println!("channels × chips/channel:");
    for channels in [1u32, 2, 4, 8] {
        for chips in [4u32, 8] {
            let cfg = RimePerfConfig {
                channels,
                chips_per_channel: chips,
                ..RimePerfConfig::table1()
            };
            println!(
                "  {channels} ch × {chips} chips: {:>7.1} MKps",
                cfg.sort_throughput_mkps(N, Placement::Striped)
            );
        }
    }

    println!("\nplacement policy:");
    let cfg = RimePerfConfig::table1();
    for (name, placement) in [
        ("striped", Placement::Striped),
        ("contiguous", Placement::Contiguous),
    ] {
        for n in [500_000u64, 8_000_000, N] {
            println!(
                "  {name:>10} @ {:>4.1}M keys: {:>7.1} MKps",
                n as f64 / 1e6,
                cfg.sort_throughput_mkps(n, placement)
            );
        }
    }

    println!("\nuncacheable interface access latency:");
    for uc in [35.0f64, 70.0, 140.0, 280.0] {
        let cfg = RimePerfConfig {
            uc_access_ns: uc,
            ..RimePerfConfig::table1()
        };
        println!(
            "  {uc:>5.0} ns/access: {:>7.1} MKps",
            cfg.sort_throughput_mkps(N, Placement::Striped)
        );
    }

    println!("\nkey width (column-search steps per extraction):");
    for bits in [16u16, 32, 64] {
        let cfg = RimePerfConfig {
            key_bits: bits,
            ..RimePerfConfig::table1()
        };
        println!(
            "  k = {bits:>2}: extraction {:>6.1} ns, {:>7.1} MKps",
            cfg.extract_ns(),
            cfg.sort_throughput_mkps(N, Placement::Striped)
        );
    }

    println!("\n§VII-B power budget (cap on concurrently computing chips):");
    let base = RimePerfConfig::table1();
    let chip_w = base.chip_compute_power_w();
    for budget_w in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
        let max_chips = ((budget_w / chip_w).floor() as u32).max(1);
        let cfg = RimePerfConfig {
            chips_per_channel: max_chips.div_ceil(base.channels).max(1),
            ..base
        };
        let capped = cfg
            .sort_throughput_mkps(N, Placement::Striped)
            .min(base.sort_throughput_mkps(N, Placement::Striped));
        println!("  {budget_w:>4.1} W -> <= {max_chips:>2} chips computing: {capped:>7.1} MKps");
    }
    println!("\n(one computing chip draws {chip_w:.2} W in the Table I model)");

    println!("\nplanner (modeled sort latency: forced CPU vs forced RIME vs choice):");
    let planner = Planner::table1();
    for n in [65_536u64, 500_000, 8_000_000, N] {
        let cpu_best = SortAlgorithm::ALL
            .into_iter()
            .map(|algo| planner.cost_ns(Strategy::CpuSort { algo }, n, 64))
            .fold(f64::INFINITY, f64::min);
        let rime = planner.cost_ns(Strategy::Rime, n, 64);
        let chosen = planner.plan_sort(n, 64);
        let chosen_ns = planner.cost_ns(chosen, n, 64);
        let fmt = |ns: f64| {
            if ns.is_finite() {
                format!("{:>9.2} ms", ns / 1e6)
            } else {
                format!("{:>12}", "over-cap")
            }
        };
        println!(
            "  {:>5.2}M keys: cpu {}, rime {}, planner {} via {}",
            n as f64 / 1e6,
            fmt(cpu_best),
            fmt(rime),
            fmt(chosen_ns),
            chosen.label()
        );
    }
}
