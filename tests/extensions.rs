//! Integration tests over the extension surfaces: the MMIO register
//! interface, hybrid RIME kernels, external sorting, query operators,
//! DIMM modes, and journal replay — all cross-checked against the typed
//! API and `std` reference implementations on shared data.

use rime_apps::{external, query};
use rime_core::mmio::{cmd, format_code, regs, MmioInterface, DATA_BASE};
use rime_core::{
    dimm, ops, Direction, Executor, JournalConfig, KeyFormat, MemJournalStore, RimeConfig,
    RimeDevice,
};
use rime_kernels::hybrid;
use rime_workloads::keys::{generate_u64, generate_zipf, KeyDistribution};
use rime_workloads::KvTable;

#[test]
fn mmio_and_typed_api_agree() {
    let keys = generate_u64(200, KeyDistribution::Uniform, 301);

    // Typed path.
    let dev = RimeDevice::new(RimeConfig::small());
    let region = dev.alloc(keys.len() as u64).unwrap();
    dev.write(region, 0, &keys).unwrap();
    let typed = ops::sort_into_vec::<u64>(&dev, region).unwrap();

    // Register path.
    let mut m = MmioInterface::new(RimeConfig::small());
    m.write(regs::FORMAT, format_code(KeyFormat::UNSIGNED64));
    for (i, &k) in keys.iter().enumerate() {
        m.write(DATA_BASE + 8 * i as u64, k);
    }
    m.write(regs::BEGIN, 0);
    m.write(regs::END, keys.len() as u64);
    m.write(regs::COMMAND, cmd::INIT);
    let mut mmio_sorted = Vec::new();
    loop {
        m.write(regs::COMMAND, cmd::MIN);
        if m.read(regs::STATUS) != rime_core::mmio::status::OK {
            break;
        }
        mmio_sorted.push(m.read(regs::RESULT_VALUE));
    }
    assert_eq!(typed, mmio_sorted);
}

#[test]
fn all_hybrid_kernels_agree_with_each_other() {
    let keys = generate_zipf(800, 1 << 20, 0.8, 302);
    let dev = RimeDevice::new(RimeConfig::small());
    let merge = hybrid::merge_sort_rime(&dev, &keys, 4).unwrap();
    let quick = hybrid::quick_sort_rime(&dev, &keys, 64).unwrap();
    let radix = hybrid::radix_sort_rime(&dev, &keys).unwrap();
    let heap = hybrid::heap_sort_rime(&dev, &keys).unwrap();
    assert_eq!(merge, quick);
    assert_eq!(merge, radix);
    assert_eq!(merge, heap);
    let mut want = keys;
    want.sort_unstable();
    assert_eq!(merge, want);
}

#[test]
fn external_sort_agrees_with_single_region_sort() {
    let keys = generate_u64(1_000, KeyDistribution::Uniform, 303);
    let dev = RimeDevice::new(RimeConfig::small());
    let chunked = external::external_sort(&dev, &keys, 37).unwrap();
    let region = dev.alloc(keys.len() as u64).unwrap();
    dev.write(region, 0, &keys).unwrap();
    let single = ops::sort_into_vec::<u64>(&dev, region).unwrap();
    assert_eq!(chunked, single);
}

#[test]
fn query_operators_match_std_reference() {
    let table = KvTable::grouped(500, 40, 304);
    let dev = RimeDevice::new(RimeConfig::small());

    // ORDER BY LIMIT vs std sort.
    let top = query::order_by_limit(&dev, &table, query::Order::Ascending, 10).unwrap();
    let mut want: Vec<(u32, u32)> = table
        .keys
        .iter()
        .zip(&table.values)
        .map(|(&k, &v)| (k as u32, v as u32))
        .collect();
    want.sort_unstable();
    assert_eq!(top, want[..10]);

    // Scalar aggregate vs iterator min/max.
    let keys: Vec<u64> = table.keys.clone();
    let (min, max) = query::min_max::<u64>(&dev, &keys).unwrap().unwrap();
    assert_eq!(min, *keys.iter().min().unwrap());
    assert_eq!(max, *keys.iter().max().unwrap());

    // DISTINCT vs a BTreeSet.
    let distinct = query::distinct_sorted(&dev, &keys).unwrap();
    let want: Vec<u64> = keys
        .iter()
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    assert_eq!(distinct, want);
}

#[test]
fn dimm_modes_partition_the_address_space() {
    let mut sys = dimm::DimmSystem::small_mixed();
    // Paper example: bit 2^30 selects the DIMM.
    assert!(sys.ranking_allowed(0x3FFF_FFC0));
    assert!(!sys.ranking_allowed(0x4000_0000));
    // Normal storage works on DIMM 1, ranking works on DIMM 0.
    sys.store_normal(dimm::DIMM_BYTES + 8, 0xCAFE).unwrap();
    assert_eq!(sys.load_normal(dimm::DIMM_BYTES + 8).unwrap(), 0xCAFE);
    let region = sys.rime_malloc(3).unwrap();
    let dev = sys.rime_device();
    dev.write(region, 0, &[3u32, 1, 2]).unwrap();
    assert_eq!(ops::kth_smallest::<u32>(dev, region, 0).unwrap(), Some(1));
}

#[test]
fn recorded_trace_replays_on_a_larger_device() {
    let keys = generate_u64(64, KeyDistribution::Uniform, 305);
    let dev = RimeDevice::new(RimeConfig::small());
    let journal = MemJournalStore::new();
    dev.attach_journal(Box::new(journal.clone()), JournalConfig::default())
        .unwrap();
    let r = dev.alloc(keys.len() as u64).unwrap();
    dev.write_raw(r, 0, &keys, KeyFormat::UNSIGNED64).unwrap();
    dev.init_raw(r, 0, keys.len() as u64, KeyFormat::UNSIGNED64)
        .unwrap();
    let live: Vec<Option<u64>> = (0..keys.len())
        .map(|_| {
            dev.next_extreme_raw(r, KeyFormat::UNSIGNED64, Direction::Min)
                .unwrap()
                .map(|(_, v)| v)
        })
        .collect();
    let bigger = RimeConfig {
        channels: 4,
        ..RimeConfig::small()
    };
    assert_eq!(Executor::replay(bigger, &journal.snapshot()), Ok(live));
}

#[test]
fn faulty_device_still_terminates_and_orders_consistently() {
    // Inject stuck cells into a chip via the memristive layer, then sort
    // through the full stack: the output must still be totally ordered
    // under the faulty (observable) values and of the right length.
    use rime_memristive::{Chip, ChipGeometry};
    let keys = generate_u64(128, KeyDistribution::Uniform, 306);
    let mut chip = Chip::new(ChipGeometry::small());
    chip.store_keys(0, &keys, KeyFormat::UNSIGNED64).unwrap();
    for slot in [3u64, 17, 64] {
        chip.inject_stuck_cell(slot, 63, true).unwrap();
        chip.inject_stuck_cell(slot, 2, false).unwrap();
    }
    chip.init_range(0, keys.len() as u64, KeyFormat::UNSIGNED64)
        .unwrap();
    let mut out = Vec::new();
    while let Some(hit) = chip.extract(Direction::Min).unwrap() {
        out.push(hit.raw_bits);
    }
    assert_eq!(out.len(), keys.len(), "every slot still extracted once");
    assert!(out.windows(2).all(|w| w[0] <= w[1]), "ordered under faults");
}
