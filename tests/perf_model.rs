//! Performance-model validation: the analytic traffic formulas must
//! track the exact trace-driven cache simulation, and the headline
//! paper factors (Figs. 15–19) must land in their reported ranges.

use rime_core::{Placement, RimePerfConfig};
use rime_energy::{baseline_energy, rime_energy, PowerModel, SystemKind};
use rime_kernels::exec::{merge_sort, quick_sort, radix_sort, TracedMemory};
use rime_kernels::{rime_sort, SortAlgorithm};
use rime_memsim::SystemConfig;
use rime_workloads::keys::{generate_u64, KeyDistribution};

/// The analytic below-cache traffic must be within a small factor of the
/// measured trace at validation scale (1-core system, 2M keys ≫ L2).
#[test]
fn analytic_traffic_tracks_measured_traffic() {
    let n = 2_000_000u64;
    let keys = generate_u64(n as usize, KeyDistribution::Uniform, 7);
    let sys = SystemConfig::off_chip(1);

    let cases: [(SortAlgorithm, Box<dyn Fn() -> u64>); 3] = [
        (
            SortAlgorithm::Merge,
            Box::new(|| {
                let mut mem = TracedMemory::traced();
                let b = mem.add_buf(generate_u64(2_000_000, KeyDistribution::Uniform, 7));
                let _ = merge_sort(&mut mem, b);
                mem.mem_accesses()
            }),
        ),
        (
            SortAlgorithm::Quick,
            Box::new(|| {
                let mut mem = TracedMemory::traced();
                let b = mem.add_buf(generate_u64(2_000_000, KeyDistribution::Uniform, 7));
                quick_sort(&mut mem, b);
                mem.mem_accesses()
            }),
        ),
        (
            SortAlgorithm::Radix,
            Box::new(|| {
                let mut mem = TracedMemory::traced();
                let b = mem.add_buf(generate_u64(2_000_000, KeyDistribution::Uniform, 7));
                let _ = radix_sort(&mut mem, b);
                mem.mem_accesses()
            }),
        ),
    ];
    let _ = &keys;

    for (alg, measure) in cases {
        let measured = measure() as f64;
        let modeled = alg.workload(n, &sys).mem_lines() as f64;
        let ratio = modeled / measured;
        assert!(
            (0.2..5.0).contains(&ratio),
            "{}: modeled {modeled:.0} vs measured {measured:.0} (ratio {ratio:.2})",
            alg.label()
        );
    }
}

/// Fig. 15's headline factors: RIME over the off-chip baseline, averaged
/// across the size sweep, must land near the paper's 30.2 / 12.4 / 50.7 /
/// 26× (we accept half-to-double).
#[test]
fn fig15_average_gains_in_paper_band() {
    let sizes = [1_000_000u64, 4_000_000, 16_000_000, 65_000_000];
    let sys = SystemConfig::off_chip(16);
    let perf = RimePerfConfig::table1();
    let paper = [
        (SortAlgorithm::Merge, 30.2),
        (SortAlgorithm::Quick, 12.4),
        (SortAlgorithm::Radix, 50.7),
        (SortAlgorithm::Heap, 26.0),
    ];
    for (alg, target) in paper {
        let mean_gain: f64 = sizes
            .iter()
            .map(|&n| rime_sort::throughput_mkps(n, &perf) / alg.throughput_mkps(n, &sys))
            .sum::<f64>()
            / sizes.len() as f64;
        assert!(
            mean_gain > target / 2.0 && mean_gain < target * 2.0,
            "{}: gain {mean_gain:.1}× vs paper {target}×",
            alg.label()
        );
    }
}

/// HBM's average gain over off-chip for the sort kernels: the paper
/// reports 2.4 / 2.3 / 8.1 / 1.9×.
#[test]
fn fig15_hbm_gains_in_paper_band() {
    let n = 16_000_000u64;
    let off = SystemConfig::off_chip(16);
    let hbm = SystemConfig::in_package(16);
    for (alg, target) in [
        (SortAlgorithm::Merge, 2.4),
        (SortAlgorithm::Quick, 2.3),
        (SortAlgorithm::Radix, 8.1),
        (SortAlgorithm::Heap, 1.9),
    ] {
        let gain = alg.throughput_mkps(n, &hbm) / alg.throughput_mkps(n, &off);
        assert!(
            gain > (target / 2.5f64).max(1.0) && gain < target * 2.5,
            "{}: HBM gain {gain:.2}× vs paper {target}×",
            alg.label()
        );
    }
}

/// RIME's throughput must be size-insensitive (§VII-A) while baselines
/// degrade with size.
#[test]
fn rime_flat_baselines_degrade() {
    let perf = RimePerfConfig::table1();
    let sys = SystemConfig::off_chip(16);
    let r_small = rime_sort::throughput_mkps(500_000, &perf);
    let r_big = rime_sort::throughput_mkps(65_000_000, &perf);
    assert!((r_small - r_big).abs() / r_big < 0.1);

    let m_small = SortAlgorithm::Merge.throughput_mkps(500_000, &sys);
    let m_big = SortAlgorithm::Merge.throughput_mkps(65_000_000, &sys);
    assert!(m_big < m_small, "baseline degrades: {m_small} -> {m_big}");
}

/// Fig. 19: RIME reduces system energy by more than 90 % on a
/// sort-dominated application at 65M keys.
#[test]
fn fig19_energy_reduction_over_90_percent() {
    let n = 65_000_000u64;
    let sys = SystemConfig::off_chip(16);
    let model = PowerModel::table1();
    let perf = RimePerfConfig::table1();

    let exec = SortAlgorithm::Merge.workload(n, &sys).execute(&sys);
    let base = baseline_energy(&model, SystemKind::OffChip, &exec, 16, 2.0);

    let secs = rime_sort::sort_seconds(n, &perf);
    let rime = rime_energy(&model, secs, secs * 2.0, n, 2 * n, 16);
    let reduction = 1.0 - rime.total_j() / base.total_j();
    assert!(reduction > 0.9, "reduction {reduction:.3}");
}

/// The functional device's modeled busy time must agree with the
/// analytic perf model's chip-side rate for a single-chip stream.
#[test]
fn functional_counters_match_analytic_chip_rate() {
    use rime_core::{RimeConfig, RimeDevice};
    let dev = RimeDevice::new(RimeConfig::small());
    let n = 256u64;
    let region = dev.alloc(n).unwrap();
    let keys: Vec<u64> = (0..n).rev().collect();
    dev.write(region, 0, &keys).unwrap();
    dev.reset_counters();
    dev.init_all::<u64>(region).unwrap();
    let mut extracted = 0u64;
    while dev.rime_min::<u64>(region).unwrap().is_some() {
        extracted += 1;
    }
    assert_eq!(extracted, n);
    // The busiest chip's modeled time per extraction must sit at or
    // below tCompute + tRead (early exit only shortens searches), and
    // above tRead (some search always happens).
    let busy_ns = dev.modeled_busy_ns();
    let timing = rime_memristive::ArrayTiming::table1();
    let per_chip_share = n as f64 / dev.spanned_chips(region).max(1) as f64;
    let upper = per_chip_share * (timing.t_compute_ns + timing.t_read_ns) * 1.05;
    let lower = per_chip_share * timing.t_read_ns;
    assert!(busy_ns < upper, "busy {busy_ns} vs upper {upper}");
    assert!(busy_ns > lower, "busy {busy_ns} vs lower {lower}");
}

/// The same band at full-chip scale: one Table I chip holding 2 Mi
/// distinct keys, so the range spans all 1024 mats, drained exactly by
/// the default (memoized) engine rather than priced analytically.
#[test]
fn full_table1_chip_range_matches_analytic_chip_rate() {
    use rime_memristive::{ArrayTiming, Chip, ChipGeometry, Direction, KeyFormat};
    let geometry = ChipGeometry::table1();
    assert_eq!(geometry.mats(), 1024);
    let n = geometry.capacity_slots();
    // An odd multiplier is a bijection on u64: distinct, scrambled keys.
    let keys: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut chip = Chip::new(geometry);
    chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
    chip.reset_counters();
    chip.init_range(0, n, KeyFormat::UNSIGNED64).unwrap();
    let mut hits = chip.extract_batch(Direction::Min, 256).unwrap();
    hits.extend(chip.extract_batch(Direction::Min, 256).unwrap());

    let mut sorted = keys.clone();
    sorted.sort();
    let got: Vec<u64> = hits.iter().map(|h| h.raw_bits).collect();
    assert_eq!(got, sorted[..512]);
    assert!(hits.iter().all(|h| keys[h.slot as usize] == h.raw_bits));

    let timing = ArrayTiming::table1();
    let per_key = timing.time_ns(chip.counters()) / 512.0;
    let upper = (timing.t_compute_ns + timing.t_read_ns) * 1.05;
    assert!(per_key < upper, "{per_key} ns/key vs upper {upper}");
    assert!(per_key > timing.t_read_ns, "{per_key} ns/key vs tRead");
}

/// The RIME perf model's O(k) ranking: finding the k-th statistic of 65M
/// keys costs k extractions, not a sort.
#[test]
fn ranking_is_o_k_not_o_n() {
    let perf = RimePerfConfig::table1();
    let rank_100 = perf.stream_seconds(65_000_000, 100, Placement::Striped);
    let sort_all = perf.stream_seconds(65_000_000, 65_000_000, Placement::Striped);
    assert!(rank_100 * 1_000.0 < sort_all);
}
